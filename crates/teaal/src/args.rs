//! The front-end grammar `teaal`, `teaal serve`, `teaal client` and
//! `teaal batch` share: an argv cursor ([`Argv`]), one scanner for the
//! options `teaal` and `serve` both accept ([`SharedOptions::scan`]),
//! and one parser per request field ([`parse_ops`], [`parse_limit`],
//! [`parse_loop_order`], [`parse_extent`]) that command-line flags,
//! batch request lines and `serve`'s wire fields all decode through.
//!
//! A field parser's error is the predicate alone (``needs `RANK=N`, got
//! "K"``); the caller names the subject: the flag on the command line
//! (`--extent needs …`), `field extent` on the wire.

use std::fs::File;
use std::io::BufReader;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use teaal_core::TeaalSpec;
use teaal_fibertree::Tensor;
use teaal_sim::{EvalLimits, OpTable};
use teaal_workloads::{genmat, io as tio};

/// A loop-order entry's syntax, as error messages quote it.
pub const LOOP_ORDER_SYNTAX: &str = "`EINSUM=R1,R2,…`";
/// An extent entry's syntax, as error messages quote it.
pub const EXTENT_SYNTAX: &str = "`RANK=N`";
/// What a limit value must be, as error messages quote it.
pub const LIMIT_SYNTAX: &str = "an unsigned integer";

/// The per-request budgets by wire key; each command-line flag is its
/// key with `--` and `-` (`--deadline-ms`).
pub const LIMIT_KEYS: [&str; 3] = ["deadline_ms", "max_engine_steps", "max_output_entries"];

/// A cursor over command-line options: each flag, then its value. Every
/// value accessor fails with `"{flag} needs {what}"` when the arguments
/// end first or the value does not parse.
pub struct Argv<'a> {
    args: &'a [String],
    next: usize,
    flag: &'a str,
}

impl<'a> Argv<'a> {
    /// Starts the scan at `args[start]`.
    pub fn new(args: &'a [String], start: usize) -> Argv<'a> {
        Argv {
            args,
            next: start,
            flag: "",
        }
    }

    /// The next flag, or `None` once every argument is consumed.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.args.get(self.next)?;
        self.next += 1;
        self.flag = flag;
        Some(flag)
    }

    /// The current flag's value.
    pub fn value(&mut self, what: &str) -> Result<&'a str, String> {
        let value = self.args.get(self.next).ok_or_else(|| self.needs(what))?;
        self.next += 1;
        Ok(value)
    }

    /// The current flag's `KEY=VALUE` value, split at the first `=`.
    pub fn pair(&mut self, what: &str) -> Result<(&'a str, &'a str), String> {
        let value = self.value(what)?;
        value.split_once('=').ok_or_else(|| self.needs(what))
    }

    /// The current flag's value parsed as a `T`.
    pub fn parsed<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        self.value(what)?.parse().map_err(|_| self.needs(what))
    }

    /// The current flag's value parsed as a `T` of at least 1.
    pub fn positive<T: FromStr + PartialOrd + From<u8>>(
        &mut self,
        what: &str,
    ) -> Result<T, String> {
        let n: T = self.parsed(what)?;
        if n >= T::from(1) {
            Ok(n)
        } else {
            Err(self.needs(what))
        }
    }

    /// The current flag's value decoded by one of this module's field
    /// parsers, whose message is prefixed with the flag.
    pub fn field<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&'a str) -> Result<T, String>,
    ) -> Result<T, String> {
        let value = self.value(what)?;
        parse(value).map_err(|e| format!("{} {e}", self.flag))
    }

    fn needs(&self, what: &str) -> String {
        format!("{} needs {what}", self.flag)
    }
}

/// Where `--random` takes its rank names from.
#[derive(Clone, Copy)]
pub enum RandomRanks<'a> {
    /// `NAME=R1,R2:RxC:NNZ`: `teaal serve` loads no spec at startup.
    Inline,
    /// `NAME=RxC:NNZ`: the ranks of the first spec declaring `NAME`.
    Declared(&'a [Arc<TeaalSpec>]),
}

/// The options `teaal` (`run`, `output`, `explore`, `batch`) and
/// `teaal serve` both accept.
#[derive(Clone, Debug, Default)]
pub struct SharedOptions {
    /// `--tensor` inputs, then `--random` ones, each in flag order.
    /// Random inputs are generated after the scan, so `--seed` applies
    /// wherever it appears.
    pub tensors: Vec<Tensor>,
    /// `--extent RANK=N` declarations.
    pub extents: Vec<(String, u64)>,
    /// `--ops` (default arithmetic).
    pub ops: OpTable,
    /// `--deadline-ms`, `--max-engine-steps`, `--max-output-entries`
    /// and `--max-cache-mb`.
    pub limits: EvalLimits,
}

impl SharedOptions {
    /// Scans every flag left in `argv`. Shared flags land in the result;
    /// any other goes to `other`, which consumes its value or returns
    /// the error for a flag it does not know.
    ///
    /// # Errors
    ///
    /// The first malformed option, or `other`'s error.
    pub fn scan<'a>(
        argv: &mut Argv<'a>,
        ranks: RandomRanks<'_>,
        mut other: impl FnMut(&'a str, &mut Argv<'a>) -> Result<(), String>,
    ) -> Result<SharedOptions, String> {
        let mut opts = SharedOptions::default();
        let mut seed = 0u64;
        let mut randoms: Vec<(&str, [String; 2], u64, u64, usize)> = Vec::new();
        while let Some(flag) = argv.next_flag() {
            match flag {
                "--tensor" => {
                    let (name, path) = argv.pair("NAME=FILE")?;
                    let f = File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
                    let t = tio::read_tensor(BufReader::new(f), name).map_err(|e| e.to_string())?;
                    opts.tensors.push(t);
                }
                "--random" => {
                    let syntax = match ranks {
                        RandomRanks::Inline => "NAME=R1,R2:RxC:NNZ",
                        RandomRanks::Declared(_) => "NAME=RxC:NNZ",
                    };
                    let (name, rest) = argv.pair(syntax)?;
                    let (ids, dims): (Vec<String>, &str) = match ranks {
                        RandomRanks::Inline => {
                            let (list, dims) =
                                rest.split_once(':').ok_or_else(|| argv.needs(syntax))?;
                            (
                                list.split(',').map(|s| s.trim().to_string()).collect(),
                                dims,
                            )
                        }
                        RandomRanks::Declared(specs) => (
                            specs
                                .iter()
                                .find_map(|s| s.rank_order_of(name))
                                .ok_or_else(|| format!("tensor {name} not declared in any spec"))?,
                            rest,
                        ),
                    };
                    let ids = ids
                        .try_into()
                        .map_err(|_| "--random only generates 2-tensors")?;
                    let (rows, cols, nnz) = random_dims(name, dims)?;
                    randoms.push((name, ids, rows, cols, nnz));
                }
                "--seed" => seed = argv.parsed("an integer")?,
                "--extent" => opts.extents.push(argv.field(EXTENT_SYNTAX, parse_extent)?),
                "--ops" => opts.ops = parse_ops(argv.value("a table name")?)?,
                "--max-cache-mb" => {
                    let mb: u64 = argv.parsed("an integer (mebibytes)")?;
                    opts.limits.max_resident_cache_bytes = Some(mb.saturating_mul(1024 * 1024));
                }
                flag => match limit_key(flag) {
                    Some(key) => {
                        argv.field(LIMIT_SYNTAX, |v| parse_limit(&mut opts.limits, key, v))?;
                    }
                    None => other(flag, argv)?,
                },
            }
        }
        for (name, [r0, r1], rows, cols, nnz) in randoms {
            let ranks = [r0.as_str(), r1.as_str()];
            let t = genmat::uniform(name, &ranks, rows, cols, nnz, seed);
            opts.tensors.push(t);
        }
        Ok(opts)
    }
}

/// Parses the `RxC:NNZ` tail both `--random` forms share. Both
/// dimensions must be at least 1: the generator samples each
/// coordinate range, and an empty one would panic.
fn random_dims(name: &str, dims: &str) -> Result<(u64, u64, usize), String> {
    let bad = || format!("--random {name}={dims}: needs RxC:NNZ");
    let (shape, nnz) = dims.split_once(':').ok_or_else(bad)?;
    let (r, c) = shape.split_once('x').ok_or_else(bad)?;
    let (Ok(rows), Ok(cols), Ok(nnz)) = (r.parse::<u64>(), c.parse::<u64>(), nnz.parse()) else {
        return Err(bad());
    };
    if rows == 0 || cols == 0 {
        return Err(format!(
            "--random {name}={rows}x{cols}: both dimensions must be at least 1"
        ));
    }
    Ok((rows, cols, nnz))
}

/// Resolves an operator-table name.
///
/// # Errors
///
/// A message naming the unknown table.
pub fn parse_ops(name: &str) -> Result<OpTable, String> {
    match name {
        "sssp" | "bfs" => Ok(OpTable::sssp()),
        "arithmetic" => Ok(OpTable::arithmetic()),
        other => Err(format!("unknown op table {other:?}")),
    }
}

/// The wire key of a limit flag (`--deadline-ms` → `deadline_ms`), or
/// `None` when `flag` is not one.
pub fn limit_key(flag: &str) -> Option<&'static str> {
    let name = flag.strip_prefix("--")?;
    LIMIT_KEYS.into_iter().find(|k| k.replace('_', "-") == name)
}

/// Sets the budget `key` (one of [`LIMIT_KEYS`]) on `limits` from
/// `value`.
///
/// # Errors
///
/// When `value` is not an unsigned integer or `key` is not a limit.
pub fn parse_limit(limits: &mut EvalLimits, key: &str, value: &str) -> Result<(), String> {
    let n: u64 = value
        .parse()
        .map_err(|_| format!("needs {LIMIT_SYNTAX}, got {value:?}"))?;
    match key {
        "deadline_ms" => limits.deadline = Some(Duration::from_millis(n)),
        "max_engine_steps" => limits.max_engine_steps = Some(n),
        "max_output_entries" => limits.max_output_entries = Some(n),
        _ => return Err(format!("is not one of the limits {LIMIT_KEYS:?}")),
    }
    Ok(())
}

/// Parses an `EINSUM=R1,R2,…` loop-order entry.
///
/// # Errors
///
/// When the entry has no `=`.
pub fn parse_loop_order(entry: &str) -> Result<(String, Vec<String>), String> {
    let (einsum, ranks) = entry
        .split_once('=')
        .ok_or_else(|| format!("needs {LOOP_ORDER_SYNTAX}, got {entry:?}"))?;
    Ok(loop_order(einsum, ranks))
}

/// One loop-order override: `einsum` over the comma-separated `ranks`,
/// each trimmed, empty ones dropped. Batch files spell it
/// `EINSUM: [R1, R2, …]`.
pub fn loop_order(einsum: &str, ranks: &str) -> (String, Vec<String>) {
    let ranks = ranks
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    (einsum.trim().to_string(), ranks)
}

/// Parses a `RANK=N` extent entry.
///
/// # Errors
///
/// When the entry has no `=` or `N` is not an unsigned integer.
pub fn parse_extent(entry: &str) -> Result<(String, u64), String> {
    entry
        .split_once('=')
        .and_then(|(rank, n)| Some((rank.trim().to_string(), n.parse().ok()?)))
        .ok_or_else(|| format!("needs {EXTENT_SYNTAX}, got {entry:?}"))
}
