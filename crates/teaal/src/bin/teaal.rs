//! `teaal` — the command-line front end.
//!
//! ```text
//! teaal check   <spec.yaml>                # parse + validate + lower
//! teaal run     <spec.yaml> [options]      # execute and print the report
//! teaal output  <spec.yaml> [options]      # execute and print result tensors
//! teaal explore <spec.yaml> [options]      # search loop orders for an einsum
//! teaal batch   <requests.yaml> [options]  # evaluate many mapping requests
//!                                          # against one loaded dataset
//! teaal serve   [options]                  # long-running evaluation daemon
//!                                          # (see `teaal::serve`)
//! teaal client  <ping|health|eval> [spec]  # retrying client for the daemon
//!                                          # (see `teaal::client`)
//!
//! options:
//!   --tensor NAME=FILE     load an input tensor (see workloads::io format)
//!   --random NAME=RxC:NNZ  generate a uniform random input
//!   --extent RANK=N        declare a rank extent (affine/dense ranks)
//!   --ops sssp|arithmetic  operator table (default arithmetic)
//!   --seed N               RNG seed for --random (default 0)
//!   --threads N            worker cap for parallel simulation (default:
//!                          TEAAL_THREADS or 1); results are bit-identical
//!                          for every N
//!   --cache-stats          print pipeline cache statistics (hits, misses,
//!                          approximate bytes, evictions) to stderr on exit
//!   --deadline-ms N        wall-clock budget; a run past it returns a
//!                          structured deadline error with partial telemetry
//!   --max-engine-steps N   engine-step budget (loop-rank visits)
//!   --max-output-entries N output-entry budget across all output tensors
//!   --max-cache-mb N       bound resident pipeline-cache bytes; over-budget
//!                          artifacts are LRU-evicted and rebuilt
//!                          bit-identically on the next miss
//!
//! explore options:
//!   --einsum NAME          einsum to search (default: the last in the spec)
//!   --fast                 two-phase search: analytical estimator prunes,
//!                          engine verifies the survivors (same winner,
//!                          far fewer engine runs)
//!   --objective time|energy|traffic   ranking objective (default time)
//!   --budget N             candidate universe size (default 720)
//!   --top-k N              engine-verified survivors with --fast (default 12)
//!   --margin F             estimate safety margin with --fast (default 1.5)
//! ```
//!
//! ## `teaal batch`
//!
//! The requests file is a YAML list; each request names a spec and may
//! override the loop order and operator table:
//!
//! ```text
//! - spec: catalog/spmspm.yaml
//! - spec: catalog/gamma_em.yaml
//!   label: gamma-swapped
//!   loop-order:
//!     Z: [K, M, N]
//! ```
//!
//! Input tensors are loaded once and shared by every request; parsing,
//! compilation, input transforms, and whole reports flow through one
//! content-addressed [`EvalContext`], so duplicate work across requests
//! is cached. Requests fan out across `--threads` workers (each request
//! simulates sequentially). Per request, stdout carries a
//! `# --- request I (LABEL) ---` header followed by exactly the report
//! `teaal run` would print — `grep -v '^#'` recovers the byte-identical
//! concatenation of the per-request runs.
//!
//! The batch is validated up front: every malformed request is reported
//! (with its index and label), not just the first. At run time a failing
//! request — including one that panics — emits an error block under its
//! header and the batch continues; any failure makes the process exit
//! with code 2 (partial failure) after every request has run.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

use teaal::fibertree::telemetry;
use teaal::prelude::*;
use teaal::request::{
    compress_dataset, error_block, evaluate_request, parse_ops, EvalFailure, RequestOverrides,
};
use teaal::sim::{
    explore_fast_with_context, explore_loop_orders_with_context, CancelToken, Candidate,
    EvalContext, EvalLimits, ExploreConfig, Objective,
};
use teaal::workloads::{genmat, io as tio};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            fail(&msg);
            eprintln!();
            eprintln!(
                "usage: teaal <check|run|output|explore|batch> <spec.yaml> [--tensor NAME=FILE]"
            );
            eprintln!("             [--random NAME=RxC:NNZ] [--extent RANK=N]");
            eprintln!("             [--ops sssp|arithmetic] [--seed N] [--threads N]");
            eprintln!("             [--cache-stats] [--deadline-ms N] [--max-engine-steps N]");
            eprintln!("             [--max-output-entries N] [--max-cache-mb N]");
            eprintln!("             [--einsum NAME] [--fast] [--objective time|energy|traffic]");
            eprintln!("             [--budget N] [--top-k N] [--margin F]");
            eprintln!("       teaal serve  [--addr H:P|--unix PATH] [--workers N] [--queue N]");
            eprintln!("             [--drain-ms N] [--io-timeout-ms N] [--tensor NAME=FILE]");
            eprintln!("             [--random NAME=R1,R2:RxC:NNZ] [--extent RANK=N] [--ops T]");
            eprintln!("             [--deadline-ms N] [--max-engine-steps N] [--max-cache-mb N]");
            eprintln!(
                "       teaal client <ping|health|eval> [spec.yaml] [--addr H:P|--unix PATH]"
            );
            eprintln!("             [--retries N] [--backoff-ms N] [--timeout-ms N] [--repeat N]");
            eprintln!("             [--ops T] [--extent RANK=N] [--loop-order EINSUM=R1,R2,…]");
            ExitCode::FAILURE
        }
    }
}

/// Reports an error that is not about the command line (a spec, input
/// or evaluation failure): the message alone, no usage block, exit 1.
fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

/// One request of a `teaal batch` file.
struct BatchRequest {
    spec_path: String,
    label: Option<String>,
    ops: Option<OpTable>,
    /// Per-einsum loop-order overrides, applied to a clone of the spec.
    loop_order: Vec<(String, Vec<String>)>,
}

/// Parses the `teaal batch` requests file (a small YAML subset: a list of
/// flat maps, plus one nested `loop-order` map of `Einsum: [R1, R2, …]`
/// entries).
///
/// Validation is exhaustive: every malformed line and every request
/// missing its `spec:` field is collected (tagged with its request index
/// and label), and the combined report comes back as one error — a batch
/// author fixes the whole file in one round trip instead of replaying
/// stop-at-first-error.
fn parse_requests(text: &str) -> Result<Vec<BatchRequest>, String> {
    let mut requests: Vec<BatchRequest> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut in_loop_order = false;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let stripped = line.trim_start();
        if stripped.is_empty() || stripped.starts_with('#') {
            continue;
        }
        let err = |m: String| format!("requests file line {}: {m}", ln + 1);
        let (is_item, body) = match stripped.strip_prefix("- ") {
            Some(rest) => (true, rest),
            None => (false, stripped),
        };
        if is_item {
            in_loop_order = false;
            requests.push(BatchRequest {
                spec_path: String::new(),
                label: None,
                ops: None,
                loop_order: Vec::new(),
            });
        }
        let Some(req) = requests.last_mut() else {
            errors.push(err(
                "expected the first request to start with '- spec: …'".into()
            ));
            continue;
        };
        let Some((key, value)) = body.split_once(':') else {
            errors.push(err(format!("expected 'key: value', got {body:?}")));
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        let indent = line.len() - stripped.len();
        if in_loop_order && !is_item && indent >= 4 {
            let Some(list) = value.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
                errors.push(err(format!("loop-order entry {key} needs '[R1, R2, …]'")));
                continue;
            };
            let ranks: Vec<String> = list
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            req.loop_order.push((key.to_string(), ranks));
            continue;
        }
        in_loop_order = false;
        match key {
            "spec" => req.spec_path = value.to_string(),
            "label" => req.label = Some(value.to_string()),
            "ops" => match parse_ops(value) {
                Ok(table) => req.ops = Some(table),
                Err(m) => errors.push(err(m)),
            },
            "loop-order" if value.is_empty() => in_loop_order = true,
            other => errors.push(err(format!("unknown request field {other:?}"))),
        }
    }
    for (i, r) in requests.iter().enumerate() {
        if r.spec_path.is_empty() {
            let label = r.label.as_deref().unwrap_or("unlabeled");
            errors.push(format!("request {i} ({label}) has no 'spec:' field"));
        }
    }
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    if requests.is_empty() {
        return Err("requests file contains no requests".into());
    }
    Ok(requests)
}

/// Prints the process-wide pipeline cache statistics (`--cache-stats`) to
/// stderr, one line per stage cache.
fn print_cache_stats() {
    let snap = telemetry::pipeline_snapshot();
    for (stage, s) in snap.stages() {
        eprintln!(
            "cache-stats: {stage:<9} hits={} misses={} bytes={} evictions={}",
            s.hits, s.misses, s.bytes, s.evictions
        );
    }
    eprintln!(
        "cache-stats: transform chains executed={}",
        snap.transform_execs
    );
    eprintln!(
        "cache-stats: degraded-sequential retries={}",
        snap.degraded_sequential
    );
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let command = args.get(1).ok_or("missing command")?.as_str();
    // The daemon and its client parse their own options (no spec path
    // positional), so they dispatch before the spec is read.
    match command {
        "serve" => return teaal::serve::run_serve(args),
        "client" => return teaal::client::run_client(args),
        _ => {}
    }
    if !matches!(command, "check" | "run" | "output" | "explore" | "batch") {
        return Err(format!("unknown command {command}"));
    }
    let spec_path = args.get(2).ok_or("missing spec path")?;
    let source =
        std::fs::read_to_string(spec_path).map_err(|e| format!("reading {spec_path}: {e}"))?;

    // Every subcommand evaluates through one staged-pipeline context:
    // SpecSource → ParsedSpec → LoweredPlan → PreparedInputs → SimReport,
    // each stage cached by content hash.
    let ctx = EvalContext::new();
    let requests: Vec<BatchRequest> = if command == "batch" {
        parse_requests(&source)?
    } else {
        Vec::new()
    };
    let specs: Vec<Arc<TeaalSpec>> = if command == "batch" {
        // Validate every request's spec up front, reporting all failures
        // (with index and label) rather than stopping at the first.
        let mut specs = Vec::new();
        let mut errors: Vec<String> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            let label = r.label.as_deref().unwrap_or(&r.spec_path);
            match std::fs::read_to_string(&r.spec_path) {
                Ok(src) => match ctx.parse(&src) {
                    Ok(spec) => specs.push(spec),
                    Err(e) => errors.push(format!("request {i} ({label}): {e}")),
                },
                Err(e) => errors.push(format!(
                    "request {i} ({label}): reading {}: {e}",
                    r.spec_path
                )),
            }
        }
        if !errors.is_empty() {
            return Ok(fail(&errors.join("\n")));
        }
        specs
    } else {
        match ctx.parse(&source) {
            Ok(spec) => vec![spec],
            Err(e) => return Ok(fail(&e.to_string())),
        }
    };

    if command == "check" {
        let spec = &specs[0];
        let plans = match teaal::core::ir::lower(spec) {
            Ok(plans) => plans,
            Err(e) => return Ok(fail(&e.to_string())),
        };
        println!(
            "spec OK: {} einsum(s), {} block(s) after fusion",
            plans.len(),
            { teaal::core::ir::infer_blocks(spec, &plans).len() }
        );
        for p in &plans {
            let loops: Vec<&str> = p.loop_ranks.iter().map(|l| l.name.as_str()).collect();
            println!("  {}: loops [{}]", p.equation, loops.join(", "));
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Collect options. With `batch`, --random rank orders resolve against
    // the first request spec declaring the tensor.
    let rank_order_of =
        |name: &str| -> Option<Vec<String>> { specs.iter().find_map(|s| s.rank_order_of(name)) };
    let mut tensors: Vec<Tensor> = Vec::new();
    let mut extents: Vec<(String, u64)> = Vec::new();
    let mut ops = OpTable::arithmetic();
    let mut seed = 0u64;
    let mut threads = teaal::sim::default_threads();
    let mut cache_stats = false;
    let mut limits = EvalLimits::default();
    let mut einsum: Option<String> = None;
    let mut fast = false;
    let mut explore_cfg = ExploreConfig::default();
    let mut i = 3usize;
    while i < args.len() {
        match args[i].as_str() {
            "--tensor" => {
                let kv = args.get(i + 1).ok_or("--tensor needs NAME=FILE")?;
                let (name, path) = kv.split_once('=').ok_or("--tensor needs NAME=FILE")?;
                let f = File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
                let t = tio::read_tensor(BufReader::new(f), name).map_err(|e| e.to_string())?;
                tensors.push(t);
                i += 2;
            }
            "--random" => {
                let kv = args.get(i + 1).ok_or("--random needs NAME=RxC:NNZ")?;
                let (name, dims) = kv.split_once('=').ok_or("--random needs NAME=RxC:NNZ")?;
                let (shape, nnz) = dims.split_once(':').ok_or("--random needs RxC:NNZ")?;
                let (r, c) = shape.split_once('x').ok_or("--random needs RxC:NNZ")?;
                let rank_ids = rank_order_of(name)
                    .ok_or_else(|| format!("tensor {name} not declared in any spec"))?;
                if rank_ids.len() != 2 {
                    return Err("--random only generates 2-tensors".into());
                }
                let rows: u64 = r.parse().map_err(|_| "bad rows")?;
                let cols: u64 = c.parse().map_err(|_| "bad cols")?;
                // A zero dimension would make the generator sample from an
                // empty coordinate range (a panic, not an error).
                if rows == 0 || cols == 0 {
                    return Err(format!(
                        "--random {name}={rows}x{cols}: both dimensions must be at least 1"
                    ));
                }
                let t = genmat::uniform(
                    name,
                    &[&rank_ids[0], &rank_ids[1]],
                    rows,
                    cols,
                    nnz.parse().map_err(|_| "bad nnz")?,
                    seed,
                );
                tensors.push(t);
                i += 2;
            }
            "--extent" => {
                let kv = args.get(i + 1).ok_or("--extent needs RANK=N")?;
                let (rank, n) = kv.split_once('=').ok_or("--extent needs RANK=N")?;
                extents.push((rank.to_string(), n.parse().map_err(|_| "bad extent")?));
                i += 2;
            }
            "--ops" => {
                let name = args.get(i + 1).ok_or("--ops needs a table name")?;
                ops = parse_ops(name)?;
                i += 2;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
                i += 2;
            }
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or("--threads needs a positive integer")?;
                i += 2;
            }
            "--cache-stats" => {
                cache_stats = true;
                i += 1;
            }
            "--deadline-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--deadline-ms needs an integer (milliseconds)")?;
                limits.deadline = Some(std::time::Duration::from_millis(ms));
                i += 2;
            }
            "--max-engine-steps" => {
                limits.max_engine_steps = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-engine-steps needs an integer")?,
                );
                i += 2;
            }
            "--max-output-entries" => {
                limits.max_output_entries = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-output-entries needs an integer")?,
                );
                i += 2;
            }
            "--max-cache-mb" => {
                let mb: u64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-cache-mb needs an integer (mebibytes)")?;
                limits.max_resident_cache_bytes = Some(mb.saturating_mul(1024 * 1024));
                i += 2;
            }
            "--einsum" => {
                einsum = Some(args.get(i + 1).ok_or("--einsum needs a name")?.clone());
                i += 2;
            }
            "--fast" => {
                fast = true;
                i += 1;
            }
            "--objective" => {
                explore_cfg.objective = match args.get(i + 1).map(String::as_str) {
                    Some("time") => Objective::Time,
                    Some("energy") => Objective::Energy,
                    Some("traffic") => Objective::Traffic,
                    other => return Err(format!("unknown objective {other:?}")),
                };
                i += 2;
            }
            "--budget" => {
                explore_cfg.budget = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or("--budget needs a positive integer")?;
                i += 2;
            }
            "--top-k" => {
                explore_cfg.top_k = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or("--top-k needs a positive integer")?;
                i += 2;
            }
            "--margin" => {
                explore_cfg.margin = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&f: &f64| f >= 1.0)
                    .ok_or("--margin needs a number >= 1.0")?;
                i += 2;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if command == "explore" && !extents.is_empty() {
        return Err("explore does not support --extent (extents come from inputs)".into());
    }

    // Apply the cache-byte bound to the shared context now (it governs
    // residency, not control flow), and anchor one cancellation token for
    // the whole invocation — batch requests and retries share a single
    // deadline and budget pool.
    if let Some(bytes) = limits.max_resident_cache_bytes {
        ctx.set_max_cache_bytes(bytes);
    }
    let token = limits.is_limited().then(|| CancelToken::new(&limits));

    let result = match command {
        "explore" => {
            explore_cfg.limits = limits.clone();
            explore_cfg.threads = threads;
            run_explore(&ctx, &specs[0], &tensors, ops, einsum, fast, &explore_cfg)
                .map(|()| ExitCode::SUCCESS)
        }
        "batch" => compress_dataset(std::mem::take(&mut tensors)).and_then(|data| {
            run_batch(
                &ctx, &requests, &specs, &data, &extents, ops, threads, &token,
            )
        }),
        // `run` or `output`.
        _ => ctx
            .simulator(&specs[0])
            .map_err(|e| e.to_string())
            .and_then(|sim| {
                let mut sim = sim.with_ops(ops).with_threads(threads);
                if let Some(t) = &token {
                    sim = sim.with_cancel(t.clone());
                }
                for (rank, n) in &extents {
                    sim = sim.with_rank_extent(rank, *n);
                }
                let report = sim.run(&tensors).map_err(|e| e.to_string())?;
                if command == "run" {
                    println!("{report}");
                    return Ok(ExitCode::SUCCESS);
                }
                for (name, tensor) in &report.outputs {
                    println!("# --- {name} ---");
                    tio::write_tensor_data(std::io::stdout().lock(), tensor)
                        .map_err(|e| e.to_string())?;
                }
                Ok(ExitCode::SUCCESS)
            }),
    };
    if cache_stats {
        print_cache_stats();
    }
    Ok(result.unwrap_or_else(|e| fail(&e)))
}

fn run_explore(
    ctx: &Arc<EvalContext>,
    spec: &TeaalSpec,
    tensors: &[Tensor],
    ops: OpTable,
    einsum: Option<String>,
    fast: bool,
    explore_cfg: &ExploreConfig,
) -> Result<(), String> {
    let target = match einsum {
        Some(name) => name,
        None => {
            let plans = teaal::core::ir::lower(spec).map_err(|e| e.to_string())?;
            plans
                .last()
                .map(|p| p.equation.name().to_string())
                .ok_or("spec has no einsums")?
        }
    };
    let print_top = |cands: &[Candidate]| {
        for (idx, c) in cands.iter().take(8).enumerate() {
            println!(
                "  {}. [{}]  time {:.4e}s  energy {:.4e}J  dram {}B",
                idx + 1,
                c.loop_order.join(", "),
                c.seconds,
                c.energy_joules,
                c.dram_bytes,
            );
            if !c.component_seconds.is_empty() {
                let parts: Vec<String> = c
                    .component_seconds
                    .iter()
                    .map(|(component, secs)| format!("{component} {secs:.4e}s"))
                    .collect();
                println!("     components: {}", parts.join("  "));
            }
        }
    };
    if fast {
        let out = explore_fast_with_context(spec, &target, tensors, ops, explore_cfg, Some(ctx))
            .map_err(|e| e.to_string())?;
        println!(
            "einsum {target}: {} candidates estimated, {} engine-verified",
            out.estimator_evals, out.engine_evals
        );
        print_top(&out.candidates);
        println!("best: [{}]", out.candidates[0].loop_order.join(", "));
    } else {
        let results =
            explore_loop_orders_with_context(spec, &target, tensors, ops, explore_cfg, Some(ctx))
                .map_err(|e| e.to_string())?;
        println!(
            "einsum {target}: {} candidates engine-evaluated",
            results.len()
        );
        print_top(&results);
        println!("best: [{}]", results[0].loop_order.join(", "));
    }
    Ok(())
}

/// Evaluates every batch request through the shared context — requests
/// fan out across `threads` workers of the simulator's pool
/// (`teaal::sim::par`), each simulating sequentially — and prints the
/// reports strictly in request order.
///
/// Failures are isolated per request: a request that errors (or panics —
/// the evaluation is wrapped in `teaal::request::catching`) renders an
/// `error:` block under its header while the rest of the batch keeps
/// going, and the process exits with code 2 once every request has run.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    ctx: &Arc<EvalContext>,
    requests: &[BatchRequest],
    specs: &[Arc<TeaalSpec>],
    data: &[TensorData],
    extents: &[(String, u64)],
    ops: OpTable,
    threads: usize,
    token: &Option<CancelToken>,
) -> Result<ExitCode, String> {
    // Evaluation (including panic isolation and failure classification)
    // lives in `teaal::request`, shared verbatim with `teaal serve` — so
    // batch's error blocks and serve's wire error codes cannot drift.
    let run_request = |i: usize| -> Result<String, EvalFailure> {
        let req = &requests[i];
        let overrides = RequestOverrides {
            loop_order: req.loop_order.clone(),
            ops: req.ops,
        };
        let refs: Vec<&TensorData> = data.iter().collect();
        evaluate_request(
            ctx,
            &specs[i],
            &overrides,
            ops,
            extents,
            &refs,
            token.as_ref(),
        )
        .map_err(|f| f.contextualize(&format!("request {i} ({})", req.spec_path)))
    };

    let indices: Vec<usize> = (0..requests.len()).collect();
    let rendered = teaal::sim::par::map(&indices, threads, |&i| run_request(i));

    let mut failures = 0usize;
    for (i, out) in rendered.into_iter().enumerate() {
        // `evaluate_request` already isolates panics; a panic outside it
        // still fails only its own request.
        let out = out.unwrap_or_else(|message| {
            Err(EvalFailure::from(SimError::WorkerPanic {
                site: "request".into(),
                message,
            }))
        });
        let label = requests[i]
            .label
            .as_deref()
            .unwrap_or(&requests[i].spec_path);
        println!("# --- request {i} ({label}) ---");
        match out {
            Ok(report) => println!("{report}"),
            Err(failure) => {
                failures += 1;
                println!("{}", error_block(&failure));
                eprintln!("error: {failure}");
            }
        }
    }
    if failures > 0 {
        eprintln!("batch: {failures} of {} request(s) failed", requests.len());
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}
