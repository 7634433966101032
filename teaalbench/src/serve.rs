//! `serve_mapping_mix`: a real `teaal serve` child process, driven over
//! `teaal::wire` by one closed-loop client with two connections.
//!
//! The client keeps one request outstanding and alternates connections
//! every two requests. Requests alternate between two classes:
//!
//! - **miss**: a (spec, einsum, loop order) pair not sent before, so the
//!   daemon parses, compiles, transforms and runs the engine;
//! - **hit**: a repeat of an earlier pair, so the daemon answers from its
//!   report cache (framing, content hashing and the lookup).
//!
//! Every fourth miss pair joins the verified pool. Hits repeat only
//! recent pool pairs, and after the run each pool pair's response is
//! compared with the in-process `evaluate_request` rendering of the
//! same request.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use teaal::fibertree::{Tensor, TensorData};
use teaal::request::{evaluate_request, RequestOverrides};
use teaal::sim::{CompiledPlan, EvalContext, OpTable, Simulator};
use teaal::wire::{self, Frame, FrameKind, DEFAULT_MAX_FRAME_BYTES};
use teaal::workloads::genmat;

use crate::host::peak_rss_mb;
use crate::probe::{hit_ratio, staged, CacheDeltas};
use crate::trace::Tracer;
use crate::util::{fnv1a, median, ms_since, quantile, set_up, Recorder, Rng};

/// The daemon's dataset: `A[K, M]` and `B[K, N]`, `N × N` with `NNZ`
/// nonzeros each (the CLI draws both from the same seed).
const N: u64 = 120;
const NNZ: usize = 900;
/// Requests before measuring starts; excluded from every metric.
const WARMUP: usize = 8;
/// Every `POOL_STRIDE`-th miss pair joins the verified pool.
const POOL_STRIDE: usize = 4;
/// Hits repeat one of the `HIT_WINDOW` most recent pool pairs, so they
/// stay resident in the daemon's bounded report cache.
const HIT_WINDOW: usize = 8;
/// The daemon's cache bound (`--max-cache-mb`): keeps its memory flat
/// over a run instead of growing with every miss.
const MAX_CACHE_MB: u64 = 64;
/// Fixed shuffle of the miss universe. A run's misses are a prefix of
/// one order, so runs of similar length measure nearly the same pairs
/// whatever their seed; the seed still fixes the daemon's dataset.
const UNIVERSE_SHUFFLE: u64 = 0x7EAA1;
/// Staged probes of pool pairs in the traced run.
const PROBES: usize = 4;
/// In traced runs, sample `health` every this many requests.
const HEALTH_EVERY: usize = 16;

/// The specs whose loop orders form the miss universe.
const SPECS: [(&str, &str); 2] = [
    ("gamma", teaal_fixtures::GAMMA_EM),
    ("outerspace", teaal_fixtures::OUTERSPACE_EM),
];

/// One request's mapping: spec index, einsum, loop order.
#[derive(Clone)]
struct Pair {
    spec: usize,
    einsum: String,
    order: Vec<String>,
}

impl Pair {
    fn overrides(&self) -> RequestOverrides {
        RequestOverrides {
            loop_order: vec![(self.einsum.clone(), self.order.clone())],
            ops: None,
        }
    }

    fn label(&self) -> String {
        format!(
            "{}.{}={}",
            SPECS[self.spec].0,
            self.einsum,
            self.order.join(",")
        )
    }

    fn frame(&self, id: usize) -> Frame {
        Frame::new(FrameKind::Req)
            .field("op", "eval")
            .field("id", id.to_string())
            .field("spec", SPECS[self.spec].1)
            .field(
                "loop_order",
                format!("{}={}", self.einsum, self.order.join(",")),
            )
    }
}

fn permutations(ranks: &[String]) -> Vec<Vec<String>> {
    if ranks.len() <= 1 {
        return vec![ranks.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..ranks.len() {
        let mut rest = ranks.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            out.push(tail);
        }
    }
    out
}

/// Every loop order of every einsum of [`SPECS`] that lowers, in the
/// [`UNIVERSE_SHUFFLE`] order.
fn universe() -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::new();
    for (s, (_, yaml)) in SPECS.iter().enumerate() {
        let spec = teaal::core::TeaalSpec::parse(yaml).map_err(|e| e.to_string())?;
        let sim = Simulator::new(spec.clone()).map_err(|e| e.to_string())?;
        for plan in sim.plans() {
            let einsum = plan.equation.name().to_string();
            let ranks: Vec<String> = plan.loop_ranks.iter().map(|l| l.name.clone()).collect();
            for order in permutations(&ranks) {
                let mut variant = spec.clone();
                variant
                    .mapping
                    .loop_order
                    .insert(einsum.clone(), order.clone());
                if CompiledPlan::compile(variant).is_ok() {
                    pairs.push(Pair {
                        spec: s,
                        einsum: einsum.clone(),
                        order,
                    });
                }
            }
        }
    }
    Rng::new(UNIVERSE_SHUFFLE).shuffle(&mut pairs);
    Ok(pairs)
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends pre-encoded request bytes and reads one response frame.
    fn call(&mut self, bytes: &[u8]) -> Result<Frame, String> {
        self.writer
            .write_all(bytes)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        match wire::read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err("daemon closed the connection".into()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running `teaal serve` child; killed and reaped on drop.
struct Daemon {
    child: Child,
    // Held open so the daemon never writes to a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn teaal_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("teaal");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build the package first",
            bin.display()
        ))
    }
}

/// Starts the daemon and waits until it prints that it listens: the
/// set-up a user of `teaal serve` pays before the first request.
fn start(bin: &Path, seed: u64) -> Result<Daemon, String> {
    let mut child = Command::new(bin)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--seed",
            &seed.to_string(),
        ])
        .args(["--max-cache-mb", &MAX_CACHE_MB.to_string()])
        .arg("--random")
        .arg(format!("A=K,M:{N}x{N}:{NNZ}"))
        .arg("--random")
        .arg(format!("B=K,N:{N}x{N}:{NNZ}"))
        .env_remove("TEAAL_THREADS")
        .env_remove("TEAAL_FAILPOINTS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    // From here on, dropping `daemon` stops the child on every path.
    let mut daemon = Daemon {
        child,
        stdout,
        addr: String::new(),
    };
    let mut line = String::new();
    while daemon.addr.is_empty() {
        line.clear();
        let read = daemon.stdout.read_line(&mut line);
        if read.map_err(|e| e.to_string())? == 0 {
            return Err("teaal serve exited before listening".into());
        }
        if let Some(rest) = line.trim().split("listening on ").nth(1) {
            daemon.addr = rest.to_string();
        }
    }
    Ok(daemon)
}

/// Opens a connection and checks that the daemon answers `ping`.
fn ping(addr: &str) -> Result<Conn, String> {
    let mut conn = Conn::open(addr)?;
    let pong = conn.call(&Frame::new(FrameKind::Req).field("op", "ping").encode())?;
    if pong.get("pong") != Some("1") {
        return Err(format!("unexpected ping answer {pong:?}"));
    }
    Ok(conn)
}

/// Daemon counters from one `health` answer.
struct Health {
    served: u64,
    shed: u64,
    queued: u64,
    caches: CacheDeltas,
}

fn health(conn: &mut Conn) -> Result<Health, String> {
    let f = conn.call(&Frame::new(FrameKind::Req).field("op", "health").encode())?;
    let num = |k: &str| f.get(k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let mut caches = [(0, 0); 4];
    for (i, stage) in ["spec", "plan", "transform", "report"].iter().enumerate() {
        caches[i] = (
            num(&format!("cache.{stage}.hits")),
            num(&format!("cache.{stage}.misses")),
        );
    }
    Ok(Health {
        served: num("served_ok"),
        shed: num("shed_overloaded"),
        queued: num("queued"),
        caches,
    })
}

/// The request stream: misses walk the universe, hits repeat a random
/// recent pool pair.
struct Stream {
    universe: Vec<Pair>,
    next_miss: usize,
    pool: Vec<usize>,
    rng: Rng,
    issued: usize,
}

impl Stream {
    /// The next request as `(universe index, is_hit)`. After the last
    /// pair the misses start over: by then the daemon's bounded caches
    /// have long evicted the first pairs, so they miss again.
    fn next(&mut self) -> (usize, bool) {
        let hit = self.issued % 2 == 1;
        self.issued += 1;
        if hit {
            let recent = &self.pool[self.pool.len().saturating_sub(HIT_WINDOW)..];
            return (recent[self.rng.below(recent.len())], true);
        }
        let u = self.next_miss % self.universe.len();
        self.next_miss += 1;
        if u.is_multiple_of(POOL_STRIDE) {
            self.pool.push(u);
        }
        (u, false)
    }
}

pub fn run(
    rec: &mut Recorder,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let bin = teaal_binary()?;
    // Earlier repetitions' daemons are killed at once but reaped only
    // after set-up, so waiting for their exit is not timed as the next
    // one's start. The first `ping` is not timed: the daemon's accept
    // loop polls every 15 ms, so the first connection's wait depends on
    // the poll's phase and would make the set-up time bimodal.
    let (mut running, mut retired) = (None, Vec::new());
    set_up(rec, 25, || {
        if let Some(Ok(mut old)) = running.replace(start(&bin, seed)) {
            let _ = old.child.kill();
            retired.push(old);
        }
    });
    drop(retired);
    let daemon = running.expect("set-up ran at least once")?;
    let mut conns = [ping(&daemon.addr)?, ping(&daemon.addr)?];

    let mut stream = Stream {
        universe: universe()?,
        next_miss: 0,
        pool: Vec::new(),
        rng: Rng::new(seed ^ 0xA5A5),
        issued: 0,
    };
    // First response per universe index, and how many responses it got.
    let mut first: BTreeMap<usize, (String, u64)> = BTreeMap::new();
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    let mut traced_hits = Vec::new();
    let mut queued: Vec<u64> = Vec::new();
    let health_start = health(&mut conns[0])?;

    let window = if tracer.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let mut measure_start = None;
    let mut i = 0usize;
    loop {
        if i == WARMUP {
            measure_start = Some(Instant::now());
        }
        let elapsed = measure_start.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let traced = tracer.filter(|_| elapsed >= window);
        if elapsed >= seconds {
            break;
        }
        let (u, hit) = stream.next();
        let pair = &stream.universe[u];
        let conn = &mut conns[(i / 2) % 2];
        let t = Instant::now();
        let resp = match traced {
            Some(tr) => {
                tr.begin_op();
                let (bytes, enc_ms) = tr.timed("wire.encode", || pair.frame(i).encode());
                encode_us.push(enc_ms * 1e3);
                tr.span("serve.roundtrip", || conn.call(&bytes))
            }
            None => conn.call(&pair.frame(i).encode()),
        };
        let ms = ms_since(t);
        let problem = match resp {
            Err(e) => Some(e),
            Ok(f) if f.kind != FrameKind::Ok => Some(format!(
                "{}: {} {}",
                pair.label(),
                f.get("code").unwrap_or("?"),
                f.get("message").unwrap_or("")
            )),
            Ok(f) => {
                if let Some(tr) = traced {
                    let encoded = f.encode();
                    let (_, dec_ms) = tr.timed("wire.decode", || {
                        wire::read_frame(&mut &encoded[..], DEFAULT_MAX_FRAME_BYTES)
                    });
                    decode_us.push(dec_ms * 1e3);
                }
                let report = f.get("report").unwrap_or("").to_string();
                match first.get_mut(&u) {
                    Some((want, n)) => {
                        *n += 1;
                        (*want != report)
                            .then(|| format!("{}: answer differs from the first", pair.label()))
                    }
                    None if hit => Some(format!("{}: hit on an unseen pair", pair.label())),
                    None => {
                        first.insert(u, (report, 1));
                        None
                    }
                }
            }
        };
        rec.check(problem);
        if measure_start.is_some() {
            match traced {
                // Class medians come from the untraced window only.
                Some(_) if hit => traced_hits.push(ms),
                Some(_) => {}
                None => rec.sample(if hit { "hit" } else { "miss" }, ms),
            }
            rec.completed += 1;
        }
        i += 1;
        if traced.is_some() && i.is_multiple_of(HEALTH_EVERY) {
            queued.push(health(&mut conns[0])?.queued);
        }
    }
    rec.window_s = measure_start.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let health_end = health(&mut conns[0])?;
    rec.peak_rss_mb = peak_rss_mb(&daemon.child.id().to_string());
    drop(conns);
    drop(daemon);

    // Verification, untimed: pool pairs against in-process evaluation.
    let data = [
        TensorData::Owned(dataset("A", ["K", "M"], seed)),
        TensorData::Owned(dataset("B", ["K", "N"], seed)),
    ];
    let refs: Vec<&TensorData> = data.iter().collect();
    let ctx = EvalContext::new();
    let pool = first.iter().filter(|(u, _)| u.is_multiple_of(POOL_STRIDE));
    for (verified, (&u, (got, responses))) in pool.enumerate() {
        let pair = &stream.universe[u];
        let want = ctx
            .parse(SPECS[pair.spec].1)
            .map_err(|e| e.to_string())
            .and_then(|spec| {
                evaluate_request(
                    &ctx,
                    &spec,
                    &pair.overrides(),
                    OpTable::arithmetic(),
                    &[],
                    &refs,
                    None,
                )
                .map_err(|e| e.to_string())
            });
        if want.as_ref() != Ok(got) {
            // Every answer for this pair was wrong.
            rec.failed += *responses;
            eprintln!(
                "teaalbench: check failed: {}: daemon answer differs from evaluate_request",
                pair.label()
            );
        }
        if verified < 4 {
            rec.pin(
                format!("pair{verified}"),
                format!(
                    "{} report_fnv={:#018x}",
                    pair.label(),
                    fnv1a(got.as_bytes())
                ),
            );
        }
    }

    if let Some(tr) = tracer {
        let mut probes = Vec::new();
        for &u in stream.pool.iter().take(PROBES) {
            let pair = &stream.universe[u];
            tr.begin_op();
            let stages = tr.span("serve.probe", || {
                staged(tr, SPECS[pair.spec].1, &pair.overrides(), &refs)
            })?;
            probes.push(stages);
        }
        let med = |f: &dyn Fn(&crate::probe::Stages) -> f64| {
            median(&probes.iter().map(f).collect::<Vec<_>>())
        };
        rec.layer("core.parse_ms", med(&|s| s.parse_ms));
        rec.layer("sim.compile_ms", med(&|s| s.compile_ms));
        rec.layer("fibertree.transform_ms", med(&|s| s.cold_ms - s.warm_ms));
        rec.layer(
            "fibertree.transform_execs",
            med(&|s| s.transform_execs as f64),
        );
        rec.layer("sim.owned_output_ms", med(&|s| s.warm_ms - s.compressed_ms));
        rec.layer("sim.engine_steps", med(&|s| s.engine_steps as f64));
        rec.layer("sim.output_entries", med(&|s| s.output_entries as f64));
        rec.layer(
            "sim.ns_per_step",
            med(&|s| s.compressed_ms * 1e6 / (s.engine_steps.max(1) as f64)),
        );
        rec.layer("pipeline.report_hit_ms", med(&|s| s.report_hit_ms));
        rec.layer("wire.encode_us", median(&encode_us));
        rec.layer("wire.decode_us", median(&decode_us));
        rec.layer(
            "serve.served",
            (health_end.served - health_start.served) as f64,
        );
        rec.layer("serve.shed", (health_end.shed - health_start.shed) as f64);
        rec.layer(
            "serve.queued_mean",
            queued.iter().sum::<u64>() as f64 / queued.len().max(1) as f64,
        );
        let mut delta = [(0, 0); 4];
        for (k, d) in delta.iter_mut().enumerate() {
            *d = (
                health_end.caches[k].0 - health_start.caches[k].0,
                health_end.caches[k].1 - health_start.caches[k].1,
            );
        }
        for (k, name) in crate::CACHE_RATIO_NAMES.iter().enumerate() {
            rec.layer(name, hit_ratio(&[delta], k));
        }
        rec.layer("serve.op_p99_ms", {
            let all: Vec<f64> = rec.classes.values().flatten().copied().collect();
            quantile(&all, 0.99)
        });
        let untraced = median(rec.classes.get("hit").map_or(&[][..], |v| v));
        rec.layer(
            "trace.overhead_pct",
            100.0 * (median(&traced_hits) / untraced - 1.0),
        );
    }
    Ok(())
}

/// The tensor `teaal serve --random NAME=R1,R2:NxN:NNZ --seed S` holds.
fn dataset(name: &str, ranks: [&str; 2], seed: u64) -> Tensor {
    genmat::uniform(name, &ranks, N, N, NNZ, seed)
}
