//! The `teaal serve` wire format: hand-rolled, length-prefixed,
//! newline-framed request/response frames.
//!
//! The vendored serde stub has no serializer (its derives are no-ops),
//! so the daemon speaks a format small enough to parse by hand and
//! robust enough to fuzz. When the real serde lands (see ROADMAP), the
//! field encoding below shrinks to derives; the framing stays.
//!
//! # Frame layout
//!
//! ```text
//! teaal/1 <kind> <len>\n      header: protocol, frame kind, body length
//! <len bytes of body>         UTF-8 field lines
//! \n                          frame terminator
//! ```
//!
//! - `<kind>` is `req`, `ok`, or `err` ([`FrameKind`]).
//! - `<len>` is the decimal byte length of the body, bounded by the
//!   reader's `max_frame` argument — an oversized claim is rejected
//!   *before* any allocation.
//! - The body is a sequence of `key value\n` lines. Keys are
//!   `[a-z0-9_.-]+`; values are percent-encoded (`%25` for `%`, `%0A`
//!   for newline, `%0D` for carriage return) so any Unicode string —
//!   a whole YAML spec, a multi-line report — rides in one line.
//!   Keys may repeat; order is preserved.
//!
//! # Error discipline
//!
//! [`read_frame`] never panics, whatever the bytes. Failures divide by
//! whether the *framing* held:
//!
//! - [`WireError::Frame`] — the header and length were valid and the
//!   whole frame (body + terminator) was consumed, but the body didn't
//!   decode. The connection is still synchronized: respond with a
//!   structured `protocol` error and keep reading.
//! - [`WireError::Fatal`] — the header was malformed, the length
//!   over-budget, the stream truncated mid-frame, or the terminator
//!   missing. Resynchronization is impossible; close the connection.
//! - [`WireError::Io`] — transport failure (including read timeouts on
//!   a dead peer); close the connection.

use std::fmt;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Protocol identifier expected as the first header token.
pub const PROTOCOL: &str = "teaal/1";

/// Default cap on a frame's body length (16 MiB) — large enough for a
/// report over a big tensor, small enough to bound per-connection
/// memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// Cap on the header line. The longest legal header is
/// `teaal/1 err <20-digit len>\n` — anything longer is garbage.
const MAX_HEADER_BYTES: usize = 64;

/// The three frame kinds on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A client request.
    Req,
    /// A successful response.
    Ok,
    /// A structured error response.
    Err,
}

impl FrameKind {
    /// The kind's header token.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameKind::Req => "req",
            FrameKind::Ok => "ok",
            FrameKind::Err => "err",
        }
    }

    fn parse(token: &str) -> Option<FrameKind> {
        match token {
            "req" => Some(FrameKind::Req),
            "ok" => Some(FrameKind::Ok),
            "err" => Some(FrameKind::Err),
            _ => None,
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One parsed (or to-be-encoded) frame: a kind plus ordered,
/// possibly-repeating `(key, value)` fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The frame kind from the header.
    pub kind: FrameKind,
    /// Body fields in wire order; keys may repeat.
    pub fields: Vec<(String, String)>,
}

impl Frame {
    /// An empty frame of the given kind.
    pub fn new(kind: FrameKind) -> Frame {
        Frame {
            kind,
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style). Keys must be `[a-z0-9_.-]+`;
    /// an invalid key is a programming error and panics in debug
    /// builds.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<String>) -> Frame {
        debug_assert!(valid_key(key), "invalid wire field key {key:?}");
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// The first value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value for `key`, in wire order.
    pub fn all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> {
        self.fields
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Encodes the frame — header, body, terminator — as wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = String::new();
        for (key, value) in &self.fields {
            debug_assert!(valid_key(key), "invalid wire field key {key:?}");
            body.push_str(key);
            body.push(' ');
            body.push_str(&encode_value(value));
            body.push('\n');
        }
        let mut out = Vec::with_capacity(body.len() + 32);
        out.extend_from_slice(format!("{PROTOCOL} {} {}\n", self.kind, body.len()).as_bytes());
        out.extend_from_slice(body.as_bytes());
        out.push(b'\n');
        out
    }
}

/// Why a frame failed to read; see the module docs for the recovery
/// contract of each variant.
#[derive(Debug)]
pub enum WireError {
    /// Body-level decode failure; the connection is still synchronized.
    Frame(String),
    /// Framing-level failure; the connection must be closed.
    Fatal(String),
    /// Transport failure; the connection must be closed.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Frame(m) => write!(f, "protocol error: {m}"),
            WireError::Fatal(m) => write!(f, "unrecoverable protocol error: {m}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key.bytes().all(|b| {
            b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'_' | b'.' | b'-')
        })
}

/// Percent-encodes a field value: `%` → `%25`, `\n` → `%0A`, `\r` →
/// `%0D`. Everything else passes through, so encoded values stay
/// readable.
pub fn encode_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

/// Decodes a percent-encoded field value. Only the three escapes
/// [`encode_value`] emits are legal (hex case-insensitive); anything
/// else is a decode error, never a panic.
///
/// # Errors
///
/// A description of the first malformed escape.
pub fn decode_value(value: &str) -> Result<String, String> {
    if !value.contains('%') {
        return Ok(value.to_string());
    }
    let bytes = value.as_bytes();
    let mut out = String::with_capacity(value.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'%' {
            // Multi-byte UTF-8 sequences never contain '%' (0x25), so
            // byte-wise scanning is safe; push the full char.
            let ch = value[i..].chars().next().expect("in-bounds char");
            out.push(ch);
            i += ch.len_utf8();
            continue;
        }
        let esc = bytes
            .get(i + 1..i + 3)
            .ok_or_else(|| format!("truncated escape at byte {i}"))?;
        match &esc.to_ascii_uppercase()[..] {
            b"25" => out.push('%'),
            b"0A" => out.push('\n'),
            b"0D" => out.push('\r'),
            other => {
                return Err(format!(
                    "unknown escape %{} at byte {i}",
                    String::from_utf8_lossy(other)
                ))
            }
        }
        i += 3;
    }
    Ok(out)
}

/// Reads one frame, or `None` on a clean end-of-stream at a frame
/// boundary.
///
/// Body allocation is bounded: the claimed length is checked against
/// `max_frame` before any buffer is sized, and the header line itself
/// is capped, so a hostile peer cannot force unbounded memory.
///
/// # Errors
///
/// See [`WireError`] for the per-variant recovery contract.
pub fn read_frame<R: BufRead>(r: &mut R, max_frame: usize) -> Result<Option<Frame>, WireError> {
    // Header, bounded: a stream of garbage with no newline must not
    // buffer without limit.
    let mut header: Vec<u8> = Vec::with_capacity(48);
    let took = r
        .by_ref()
        .take(MAX_HEADER_BYTES as u64)
        .read_until(b'\n', &mut header)?;
    if took == 0 {
        return Ok(None); // clean EOF at a frame boundary
    }
    if header.last() != Some(&b'\n') {
        return Err(WireError::Fatal(if took >= MAX_HEADER_BYTES {
            format!("header exceeds {MAX_HEADER_BYTES} bytes")
        } else {
            "stream truncated inside a frame header".to_string()
        }));
    }
    header.pop();
    let header = std::str::from_utf8(&header)
        .map_err(|_| WireError::Fatal("frame header is not UTF-8".to_string()))?;
    let mut tokens = header.split_ascii_whitespace();
    let (proto, kind, len) = match (tokens.next(), tokens.next(), tokens.next(), tokens.next()) {
        (Some(p), Some(k), Some(l), None) => (p, k, l),
        _ => {
            return Err(WireError::Fatal(format!(
                "malformed frame header {header:?} (want `{PROTOCOL} <kind> <len>`)"
            )))
        }
    };
    if proto != PROTOCOL {
        return Err(WireError::Fatal(format!(
            "unknown protocol {proto:?} (this server speaks {PROTOCOL})"
        )));
    }
    let len: usize = len
        .parse()
        .map_err(|_| WireError::Fatal(format!("bad frame length {len:?}")))?;
    if len > max_frame {
        return Err(WireError::Fatal(format!(
            "frame length {len} exceeds the {max_frame}-byte limit"
        )));
    }
    let kind = FrameKind::parse(kind);

    // Body + terminator. Consuming both before judging the body keeps
    // the connection synchronized for `Frame`-level errors.
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            WireError::Fatal("stream truncated inside a frame body".to_string())
        }
        _ => WireError::Io(e),
    })?;
    let mut terminator = [0u8; 1];
    r.read_exact(&mut terminator).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            WireError::Fatal("stream truncated before the frame terminator".to_string())
        }
        _ => WireError::Io(e),
    })?;
    if terminator[0] != b'\n' {
        return Err(WireError::Fatal(format!(
            "frame body overran its declared length (terminator byte {:#04x})",
            terminator[0]
        )));
    }

    // Everything below is recoverable: the frame was fully consumed.
    let kind = kind.ok_or_else(|| WireError::Frame("unknown frame kind".to_string()))?;
    let body = std::str::from_utf8(&body)
        .map_err(|_| WireError::Frame("frame body is not UTF-8".to_string()))?;
    let mut fields = Vec::new();
    for (n, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (key, value) = match line.split_once(' ') {
            Some((k, v)) => (k, v),
            None => (line, ""),
        };
        if !valid_key(key) {
            return Err(WireError::Frame(format!(
                "body line {}: invalid field key {key:?}",
                n + 1
            )));
        }
        let value = decode_value(value)
            .map_err(|e| WireError::Frame(format!("body line {}: {e}", n + 1)))?;
        fields.push((key.to_string(), value));
    }
    Ok(Some(Frame { kind, fields }))
}

/// A connection stream, TCP or Unix: what `serve` accepts and `client`
/// connects.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Sets both the read and the write timeout.
    pub(crate) fn set_timeouts(&self, timeout: Duration) -> std::io::Result<()> {
        let t = Some(timeout);
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }

    pub(crate) fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_all(bytes: &[u8]) -> (Vec<Frame>, Option<String>) {
        let mut r = BufReader::new(bytes);
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES) {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some(e.to_string())),
            }
        }
    }

    #[test]
    fn roundtrip_preserves_kind_fields_and_order() {
        let frame = Frame::new(FrameKind::Req)
            .field("op", "eval")
            .field("spec", "einsum:\n  a: [K, M]\n100% pure\r\n")
            .field("extent", "K=4")
            .field("extent", "M=8");
        let (frames, err) = parse_all(&frame.encode());
        assert_eq!(err, None);
        assert_eq!(frames, vec![frame.clone()]);
        assert_eq!(
            frames[0].all("extent").collect::<Vec<_>>(),
            vec!["K=4", "M=8"]
        );
        assert_eq!(frames[0].get("op"), Some("eval"));
    }

    #[test]
    fn empty_body_and_empty_values_roundtrip() {
        let empty = Frame::new(FrameKind::Ok);
        let (frames, err) = parse_all(&empty.encode());
        assert_eq!((frames, err), (vec![Frame::new(FrameKind::Ok)], None));
        let blank_value = Frame::new(FrameKind::Ok).field("pong", "");
        let (frames, err) = parse_all(&blank_value.encode());
        assert_eq!(err, None);
        assert_eq!(frames[0].get("pong"), Some(""));
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_fatal() {
        let (frames, err) = parse_all(b"");
        assert!(frames.is_empty() && err.is_none());
        let bytes = Frame::new(FrameKind::Ok).field("id", "7").encode();
        for cut in 1..bytes.len() {
            let (frames, err) = parse_all(&bytes[..cut]);
            assert!(frames.is_empty(), "truncation at {cut} yielded a frame");
            assert!(err.is_some(), "truncation at {cut} must error");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        // A claimed multi-exabyte body must fail on the length check,
        // not on an allocation attempt.
        let bytes = format!("{PROTOCOL} req {}\n", u64::MAX);
        let mut r = BufReader::new(bytes.as_bytes());
        match read_frame(&mut r, 1024) {
            Err(WireError::Fatal(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("expected Fatal, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_garbage_does_not_buffer_unboundedly() {
        let garbage = vec![b'x'; 10_000];
        let mut r = BufReader::new(&garbage[..]);
        match read_frame(&mut r, 1024) {
            Err(WireError::Fatal(m)) => assert!(m.contains("header"), "{m}"),
            other => panic!("expected Fatal, got {other:?}"),
        }
    }

    #[test]
    fn bad_body_is_recoverable_and_stays_synchronized() {
        // Frame 1 has a body-level problem (bad escape) inside valid
        // framing; frame 2 must still parse.
        let good = Frame::new(FrameKind::Ok).field("id", "2");
        let bad_body = "spec %ZZ\n";
        let mut bytes = format!("{PROTOCOL} req {}\n{bad_body}\n", bad_body.len()).into_bytes();
        bytes.extend_from_slice(&good.encode());
        let mut r = BufReader::new(&bytes[..]);
        match read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES) {
            Err(WireError::Frame(m)) => assert!(m.contains("escape"), "{m}"),
            other => panic!("expected recoverable Frame error, got {other:?}"),
        }
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap(),
            Some(good)
        );
    }

    #[test]
    fn unknown_kind_is_recoverable() {
        let bytes = format!("{PROTOCOL} zap 0\n\n{PROTOCOL} ok 0\n\n");
        let mut r = BufReader::new(bytes.as_bytes());
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::Frame(_))
        ));
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap(),
            Some(Frame::new(FrameKind::Ok))
        );
    }

    #[test]
    fn wrong_protocol_and_malformed_headers_are_fatal() {
        for header in ["http/1.1 req 0\n\n", "teaal/1 req\n", "teaal/1 req 0 x\n"] {
            let mut r = BufReader::new(header.as_bytes());
            assert!(
                matches!(read_frame(&mut r, 1024), Err(WireError::Fatal(_))),
                "header {header:?} must be fatal"
            );
        }
    }

    #[test]
    fn decode_rejects_truncated_escapes() {
        assert!(decode_value("%").is_err());
        assert!(decode_value("%2").is_err());
        assert!(decode_value("abc%0").is_err());
        assert_eq!(decode_value("%0a%0d%25").unwrap(), "\n\r%");
    }
}
