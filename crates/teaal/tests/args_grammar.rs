//! The shared front-end grammar (`teaal::args`): the request-field
//! parsers every front end decodes through, on the inputs `teaal
//! serve`'s bad-request path sees, and fuzzed like the wire parser
//! (`wire_proptest.rs`): wire fields arrive from the network, so any
//! string must come back `Ok` or `Err`, never a panic.

use std::time::Duration;

use proptest::prelude::*;
use teaal::args::{
    limit_key, parse_extent, parse_limit, parse_loop_order, Argv, RandomRanks, SharedOptions,
    LIMIT_KEYS,
};
use teaal::sim::EvalLimits;

#[test]
fn extent_entries() {
    assert_eq!(parse_extent("K=8"), Ok(("K".to_string(), 8)));
    assert_eq!(parse_extent(" K =0"), Ok(("K".to_string(), 0)));
    for bad in ["K", "K=x", "K=-1", "K=", "=", "", "K= 8", "K=1.5"] {
        assert_eq!(
            parse_extent(bad),
            Err(format!("needs `RANK=N`, got {bad:?}")),
            "{bad:?}"
        );
    }
}

#[test]
fn loop_order_entries() {
    let order =
        |e: &str, r: &[&str]| Ok((e.to_string(), r.iter().map(|s| s.to_string()).collect()));
    assert_eq!(parse_loop_order("Z=K,M,N"), order("Z", &["K", "M", "N"]));
    assert_eq!(
        parse_loop_order(" Z = K , M ,, N "),
        order("Z", &["K", "M", "N"])
    );
    assert_eq!(parse_loop_order("Z="), order("Z", &[]));
    for bad in ["Z", "", "Z:K,M"] {
        assert_eq!(
            parse_loop_order(bad),
            Err(format!("needs `EINSUM=R1,R2,…`, got {bad:?}")),
            "{bad:?}"
        );
    }
}

#[test]
fn limit_fields() {
    let mut limits = EvalLimits::default();
    parse_limit(&mut limits, "deadline_ms", "250").unwrap();
    parse_limit(&mut limits, "max_engine_steps", "10").unwrap();
    parse_limit(&mut limits, "max_output_entries", "0").unwrap();
    assert_eq!(limits.deadline, Some(Duration::from_millis(250)));
    assert_eq!(limits.max_engine_steps, Some(10));
    assert_eq!(limits.max_output_entries, Some(0));
    for bad in ["-1", "x", "", "1.5", " 3", "18446744073709551616"] {
        for key in LIMIT_KEYS {
            assert_eq!(
                parse_limit(&mut limits, key, bad),
                Err(format!("needs an unsigned integer, got {bad:?}")),
                "{key}={bad:?}"
            );
        }
    }
    assert!(parse_limit(&mut limits, "max_cache_mb", "1").is_err());
    // Each limit flag is its wire key with `--` and `-`.
    assert_eq!(limit_key("--deadline-ms"), Some("deadline_ms"));
    assert_eq!(limit_key("--max-engine-steps"), Some("max_engine_steps"));
    assert_eq!(
        limit_key("--max-output-entries"),
        Some("max_output_entries")
    );
    for not_a_limit in ["deadline_ms", "--deadline_ms", "--max-cache-mb", "--"] {
        assert_eq!(limit_key(not_a_limit), None, "{not_a_limit}");
    }
}

#[test]
fn scanner_names_the_flag_and_hands_on_the_rest() {
    let args = |a: &[&str]| -> Vec<String> { a.iter().map(|s| s.to_string()).collect() };
    let scan = |a: &[String]| {
        let mut threads = 0usize;
        SharedOptions::scan(&mut Argv::new(a, 0), RandomRanks::Inline, |flag, argv| {
            match flag {
                "--threads" => threads = argv.positive("a positive integer")?,
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })
        .map(|opts| (opts, threads))
    };
    let (opts, threads) = scan(&args(&[
        "--random",
        "A=K,M:4x4:3",
        "--threads",
        "2",
        "--extent",
        "K=9",
        "--max-engine-steps",
        "7",
        "--max-cache-mb",
        "1",
    ]))
    .unwrap();
    assert_eq!(threads, 2);
    assert_eq!(opts.tensors.len(), 1);
    assert_eq!(opts.extents, vec![("K".to_string(), 9)]);
    assert_eq!(opts.limits.max_engine_steps, Some(7));
    assert_eq!(opts.limits.max_resident_cache_bytes, Some(1 << 20));
    let err = |a: &[&str]| scan(&args(a)).expect_err("rejected");
    assert_eq!(
        err(&["--threads", "0"]),
        "--threads needs a positive integer"
    );
    assert_eq!(err(&["--seed"]), "--seed needs an integer");
    assert_eq!(
        err(&["--extent", "K=x"]),
        "--extent needs `RANK=N`, got \"K=x\""
    );
    assert_eq!(
        err(&["--deadline-ms", "soon"]),
        "--deadline-ms needs an unsigned integer, got \"soon\""
    );
    assert_eq!(err(&["--bogus"]), "unknown option --bogus");
    assert!(err(&["--random", "A=K:4x4:3"]).contains("2-tensors"));
    assert!(err(&["--random", "A=K,M:0x4:3"]).contains("at least 1"));
}

/// Arbitrary short strings over the characters the field grammars
/// split on, plus digits, spaces, signs and non-ASCII.
fn arb_field() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u16..64, 0..24).prop_map(|v| {
        v.into_iter()
            .map(|b| match b {
                0..=5 => '=',
                6..=9 => ',',
                10 => ' ',
                11 => '-',
                12 => 'é',
                13 => ':',
                14..=33 => char::from(b'0' + (b % 10) as u8),
                b => char::from(b'A' + (b % 26) as u8),
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn extent_parser_never_panics(entry in arb_field()) {
        if let Ok((rank, n)) = parse_extent(&entry) {
            prop_assert_eq!(parse_extent(&format!("{rank}={n}")), Ok((rank, n)));
        }
    }

    #[test]
    fn loop_order_parser_never_panics(entry in arb_field()) {
        let parsed = parse_loop_order(&entry);
        prop_assert_eq!(parsed.is_ok(), entry.contains('='));
        if let Ok((_, ranks)) = parsed {
            prop_assert!(ranks.iter().all(|r| !r.is_empty() && !r.contains(',')));
        }
    }

    #[test]
    fn limit_parser_never_panics(key_pick in 0u16..5, value in arb_field()) {
        let key = ["deadline_ms", "max_engine_steps", "max_output_entries", "max_cache_mb", ""]
            [key_pick as usize];
        let mut limits = EvalLimits::default();
        let ok = parse_limit(&mut limits, key, &value).is_ok();
        prop_assert_eq!(ok, LIMIT_KEYS.contains(&key) && value.parse::<u64>().is_ok());
        prop_assert_eq!(ok, limits != EvalLimits::default());
    }
}
