//! CLI hardening: structured errors, batch partial-failure semantics,
//! and resource-limit flags, exercised against the real binary.
//!
//! Every scenario here must end in a *clean* exit with a structured
//! message — no panic, no abort — including inputs that used to kill the
//! process (a zero-dimension `--random` previously panicked sampling an
//! empty coordinate range).

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output};

const SPMSPM: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    A: [K, M]\n",
    "    B: [K, N]\n",
    "    Z: [M, N]\n",
    "  expressions:\n",
    "    - Z[m, n] = A[k, m] * B[k, n]\n",
);

/// Writes `content` to a unique temp file and returns its path.
fn temp_file(tag: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "teaal-cli-robustness-{}-{tag}.yaml",
        std::process::id()
    ));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(content.as_bytes()).expect("write temp file");
    path
}

fn teaal(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_teaal"))
        .args(args)
        .output()
        .expect("spawn teaal binary")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn zero_dimension_random_is_a_clean_error() {
    let spec = temp_file("zero-random", SPMSPM);
    let out = teaal(&["run", spec.to_str().unwrap(), "--random", "A=0x4:5"]);
    let _ = std::fs::remove_file(&spec);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "must exit, not abort");
    assert!(
        stderr_of(&out).contains("at least 1"),
        "stderr must explain the bad dimension: {}",
        stderr_of(&out)
    );
}

#[test]
fn batch_reports_every_malformed_request_up_front() {
    let spec = temp_file("batch-spec", SPMSPM);
    let requests = temp_file(
        "batch-malformed",
        &format!(
            concat!(
                "- spec: {}\n",
                "  ops: not-a-table\n",
                "- label: missing-spec-field\n",
                "- spec: {}\n",
                "  bogus-field: 1\n",
            ),
            spec.display(),
            spec.display()
        ),
    );
    let out = teaal(&["batch", requests.to_str().unwrap()]);
    let _ = std::fs::remove_file(&spec);
    let _ = std::fs::remove_file(&requests);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    // All three problems surface in one pass, each locatable.
    assert!(err.contains("not-a-table"), "missing ops error: {err}");
    assert!(
        err.contains("request 1 (missing-spec-field)"),
        "missing spec-field error with index and label: {err}"
    );
    assert!(err.contains("bogus-field"), "missing field error: {err}");
}

#[test]
fn batch_continues_past_a_failing_request_and_exits_partial_failure() {
    let spec = temp_file("batch-good-spec", SPMSPM);
    let requests = temp_file(
        "batch-partial",
        &format!(
            concat!(
                "- spec: {}\n",
                "  label: good\n",
                "- spec: {}\n",
                "  label: broken\n",
                "  loop-order:\n",
                "    Z: [Q, W]\n",
            ),
            spec.display(),
            spec.display()
        ),
    );
    let out = teaal(&[
        "batch",
        requests.to_str().unwrap(),
        "--random",
        "A=16x16:40",
        "--random",
        "B=16x12:30",
    ]);
    let _ = std::fs::remove_file(&spec);
    let _ = std::fs::remove_file(&requests);
    assert_eq!(
        out.status.code(),
        Some(2),
        "partial failure must exit 2; stderr: {}",
        stderr_of(&out)
    );
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("# --- request 0 (good) ---"),
        "the good request must still render: {stdout}"
    );
    assert!(
        stdout.contains("# --- request 1 (broken) ---") && stdout.contains("# error:"),
        "the failed request must render an error block: {stdout}"
    );
    assert!(
        stderr_of(&out).contains("1 of 2 request(s) failed"),
        "stderr must summarize the partial failure: {}",
        stderr_of(&out)
    );
}

#[test]
fn deadline_flag_returns_structured_error() {
    let spec = temp_file("deadline", SPMSPM);
    let out = teaal(&[
        "run",
        spec.to_str().unwrap(),
        "--random",
        "A=32x32:200",
        "--random",
        "B=32x24:150",
        "--deadline-ms",
        "0",
    ]);
    let _ = std::fs::remove_file(&spec);
    assert_eq!(out.status.code(), Some(1), "must exit cleanly, not hang");
    assert!(
        stderr_of(&out).contains("deadline exceeded"),
        "stderr must carry the structured deadline error: {}",
        stderr_of(&out)
    );
}

#[test]
fn tiny_cache_budget_evicts_while_batch_results_stay_identical() {
    let spec = temp_file("cache-budget", SPMSPM);
    let requests = temp_file(
        "cache-budget-requests",
        &format!(
            "- spec: {}\n  label: first\n- spec: {}\n  label: second\n",
            spec.display(),
            spec.display()
        ),
    );
    let args = [
        "batch",
        requests.to_str().unwrap(),
        "--random",
        "A=32x32:200",
        "--random",
        "B=32x24:150",
        "--cache-stats",
    ];
    let unbounded = teaal(&args);
    let bounded = teaal(
        &args
            .iter()
            .copied()
            .chain(["--max-cache-mb", "0"])
            .collect::<Vec<_>>(),
    );
    let _ = std::fs::remove_file(&spec);
    let _ = std::fs::remove_file(&requests);
    assert!(unbounded.status.success(), "{}", stderr_of(&unbounded));
    assert!(bounded.status.success(), "{}", stderr_of(&bounded));
    // Identical requests render identically whether or not every cache
    // artifact was evicted between them.
    assert_eq!(
        stdout_of(&unbounded)
            .replace("first", "X")
            .replace("second", "X"),
        stdout_of(&bounded)
            .replace("first", "X")
            .replace("second", "X"),
        "eviction must never change results"
    );
    let stats = stderr_of(&bounded);
    let evictions: u64 = stats
        .lines()
        .filter_map(|l| l.split("evictions=").nth(1))
        .filter_map(|v| v.trim().parse::<u64>().ok())
        .sum();
    assert!(
        evictions > 0,
        "a zero-byte cache budget must report evictions: {stats}"
    );
}

#[test]
fn evaluation_errors_print_no_usage_block() {
    let spec = temp_file("deadline-no-usage", SPMSPM);
    let out = teaal(&[
        "run",
        spec.to_str().unwrap(),
        "--random",
        "A=32x32:200",
        "--random",
        "B=32x24:150",
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("deadline exceeded"));
    assert!(
        !stderr_of(&out).contains("usage:"),
        "an evaluation error is not a usage error: {}",
        stderr_of(&out)
    );
    // A malformed command line still gets the usage block.
    let out = teaal(&["run", spec.to_str().unwrap(), "--no-such-flag"]);
    let _ = std::fs::remove_file(&spec);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("unknown option --no-such-flag"));
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn exhaustive_explore_honours_the_engine_step_budget() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../fixtures/specs/gamma_em.yaml"
    );
    let args = [
        "explore",
        spec,
        "--random",
        "A=60x50:700",
        "--random",
        "B=60x40:600",
        "--seed",
        "11",
        "--max-engine-steps",
        "10",
    ];
    for fast in [false, true] {
        let mut args = args.to_vec();
        if fast {
            args.push("--fast");
        }
        let out = teaal(&args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "fast={fast}: {}",
            stdout_of(&out)
        );
        assert!(
            stderr_of(&out).contains("engine-step budget exceeded"),
            "fast={fast}: {}",
            stderr_of(&out)
        );
    }
}
