//! The `teaal client` subcommand: a retrying client for the
//! [`serve`](crate::serve) daemon.
//!
//! Retrying is safe by construction: evaluation is content-addressed
//! and idempotent, so replaying a request can at worst warm the
//! server's caches. The client therefore retries both transport
//! failures (connect refused, timeout, truncated response) and the
//! structured rejections the server marks retryable (`overloaded`,
//! `shutting-down`) with exponential backoff and jitter, and treats
//! every other structured error as a final answer.
//!
//! Exit codes mirror `teaal batch`: `0` when every request succeeded,
//! `2` when the daemon answered but at least one answer was a
//! structured error, `1` when retries were exhausted without an answer.

use std::io::{BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, SystemTime};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use teaal_sim::EvalLimits;

use crate::args::{
    limit_key, parse_extent, parse_limit, parse_loop_order, parse_ops, Argv, EXTENT_SYNTAX,
    LIMIT_SYNTAX, LOOP_ORDER_SYNTAX,
};
use crate::request::ErrorCode;
use crate::wire::{self, Frame, FrameKind, Stream, WireError};

/// Cap on one backoff sleep, whatever the exponent says.
const MAX_BACKOFF: Duration = Duration::from_millis(2000);

/// Where and how to reach the daemon, plus the retry policy.
struct ClientConfig {
    addr: String,
    unix_path: Option<PathBuf>,
    /// Retries *after* the first attempt.
    retries: u32,
    backoff: Duration,
    timeout: Duration,
    repeat: u32,
    request_id: Option<String>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:9557".to_string(),
            unix_path: None,
            retries: 4,
            backoff: Duration::from_millis(50),
            timeout: Duration::from_millis(10_000),
            repeat: 1,
            request_id: None,
        }
    }
}

fn connect(cfg: &ClientConfig) -> std::io::Result<Stream> {
    let stream = if let Some(path) = &cfg.unix_path {
        #[cfg(unix)]
        {
            Stream::Unix(UnixStream::connect(path)?)
        }
        #[cfg(not(unix))]
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not supported on this platform",
        ));
    } else {
        Stream::Tcp(TcpStream::connect(&cfg.addr)?)
    };
    stream.set_timeouts(cfg.timeout)?;
    Ok(stream)
}

/// One request/response exchange over a fresh connection.
fn exchange(cfg: &ClientConfig, request: &Frame) -> Result<Frame, String> {
    let stream = connect(cfg).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream;
    writer
        .write_all(&request.encode())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(writer);
    match wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME_BYTES) {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err("server closed the connection before replying".to_string()),
        Err(WireError::Io(e)) => Err(format!("receive: {e}")),
        Err(e) => Err(e.to_string()),
    }
}

/// The terminal outcome of one request after retries.
enum Outcome {
    /// An `ok` frame.
    Ok(Frame),
    /// A non-retryable (or retry-exhausted) structured error.
    ServerError { code: String, message: String },
    /// Retries exhausted without any answer.
    Transport(String),
}

/// Sends `request` until it gets a terminal answer, retrying transport
/// failures and retryable rejections with exponential backoff and
/// jitter.
fn send_with_retries(cfg: &ClientConfig, request: &Frame, rng: &mut StdRng) -> Outcome {
    let mut last_transport = String::new();
    for attempt in 0..=cfg.retries {
        if attempt > 0 {
            // Full backoff: base × 2^(attempt-1), jittered ±50% so a
            // thundering herd of shed clients decorrelates, capped.
            let base = cfg
                .backoff
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(MAX_BACKOFF);
            let jitter: f64 = rng.random_range(0.5..1.5);
            std::thread::sleep(base.mul_f64(jitter));
        }
        let transport_error = match exchange(cfg, request) {
            Ok(frame) => match frame.kind {
                FrameKind::Ok => return Outcome::Ok(frame),
                FrameKind::Err => {
                    let code = frame.get("code").unwrap_or("internal").to_string();
                    let retryable = ErrorCode::parse(&code).is_some_and(ErrorCode::retryable);
                    if retryable && attempt < cfg.retries {
                        eprintln!("teaal client: attempt {}: {code}; backing off", attempt + 1);
                        continue;
                    }
                    return Outcome::ServerError {
                        code,
                        message: frame.get("message").unwrap_or("").to_string(),
                    };
                }
                FrameKind::Req => "server sent a req frame".to_string(),
            },
            Err(e) => e,
        };
        eprintln!("teaal client: attempt {}: {transport_error}", attempt + 1);
        last_transport = transport_error;
    }
    Outcome::Transport(last_transport)
}

/// Parses `teaal client` arguments (everything after the subcommand)
/// and runs the request(s).
///
/// Usage: `teaal client <ping|health|eval> [spec.yaml] [options…]`.
///
/// # Errors
///
/// A usage message for unknown or malformed options.
pub fn run_client(args: &[String]) -> Result<ExitCode, String> {
    let op = args
        .get(2)
        .ok_or("client needs an operation: ping, health, or eval")?
        .as_str();
    if !matches!(op, "ping" | "health" | "eval") {
        return Err(format!("unknown client operation {op:?}"));
    }
    let mut cfg = ClientConfig::default();
    let mut spec_path: Option<&str> = None;
    // Eval fields are checked with the parsers the daemon decodes them
    // with, so a malformed one fails here, before connecting.
    let mut eval_fields: Vec<(&str, &str)> = Vec::new();
    let mut argv = Argv::new(args, 3);
    while let Some(flag) = argv.next_flag() {
        match flag {
            "--addr" => cfg.addr = argv.value("HOST:PORT")?.to_string(),
            "--unix" => cfg.unix_path = Some(PathBuf::from(argv.value("a socket path")?)),
            "--retries" => cfg.retries = argv.parsed("an integer")?,
            "--backoff-ms" => {
                cfg.backoff =
                    Duration::from_millis(argv.positive("a positive integer (milliseconds)")?);
            }
            "--timeout-ms" => {
                cfg.timeout =
                    Duration::from_millis(argv.positive("a positive integer (milliseconds)")?);
            }
            "--repeat" => cfg.repeat = argv.positive("a positive integer")?,
            "--id" => cfg.request_id = Some(argv.value("an identifier")?.to_string()),
            "--ops" => {
                let name = argv.value("a table name")?;
                parse_ops(name)?;
                eval_fields.push(("ops", name));
            }
            "--extent" => {
                let entry = argv.field(EXTENT_SYNTAX, |e| parse_extent(e).map(|_| e))?;
                eval_fields.push(("extent", entry));
            }
            "--loop-order" => {
                let entry = argv.field(LOOP_ORDER_SYNTAX, |e| parse_loop_order(e).map(|_| e))?;
                eval_fields.push(("loop_order", entry));
            }
            path if !path.starts_with('-') && op == "eval" && spec_path.is_none() => {
                spec_path = Some(path);
            }
            other => {
                let key =
                    limit_key(other).ok_or_else(|| format!("unknown client option {other}"))?;
                let value = argv.field(LIMIT_SYNTAX, |v| {
                    parse_limit(&mut EvalLimits::default(), key, v).map(|()| v)
                })?;
                eval_fields.push((key, value));
            }
        }
    }

    let mut request = Frame::new(FrameKind::Req).field("op", op);
    if op == "eval" {
        let path = spec_path.ok_or("client eval needs a spec path")?;
        let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        request = request.field("spec", source);
        for (key, value) in eval_fields {
            request = request.field(key, value);
        }
    } else if !eval_fields.is_empty() {
        return Err(format!("client {op} takes no eval options"));
    }

    // Jitter only decorrelates concurrent clients; wall-clock nanos are
    // plenty of entropy for that.
    let seed = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5eed);
    let mut rng = StdRng::seed_from_u64(seed ^ std::process::id() as u64);

    let (mut ok, mut server_err, mut transport_err) = (0u32, 0u32, 0u32);
    for round in 0..cfg.repeat {
        let mut frame = request.clone();
        if let Some(id) = &cfg.request_id {
            frame = frame.field("id", id.clone());
        } else if cfg.repeat > 1 {
            frame = frame.field("id", format!("r{round}"));
        }
        match send_with_retries(&cfg, &frame, &mut rng) {
            Outcome::Ok(frame) => {
                ok += 1;
                match op {
                    "eval" => {
                        if let Some(report) = frame.get("report") {
                            println!("{report}");
                        }
                    }
                    "ping" => println!("pong"),
                    _ => {
                        for (key, value) in &frame.fields {
                            if key != "id" {
                                println!("{key} {value}");
                            }
                        }
                    }
                }
            }
            Outcome::ServerError { code, message } => {
                server_err += 1;
                eprintln!("error[{code}]: {message}");
            }
            Outcome::Transport(e) => {
                transport_err += 1;
                eprintln!("error[transport]: retries exhausted: {e}");
            }
        }
    }
    if cfg.repeat > 1 {
        eprintln!(
            "teaal client: {ok} ok, {server_err} server errors, {transport_err} transport failures"
        );
    }
    // Mirror `teaal batch`: transport exhaustion is 1, answered-but-
    // failed is 2, all-ok is 0.
    Ok(if transport_err > 0 {
        ExitCode::FAILURE
    } else if server_err > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}
