//! Plain-text tensor I/O.
//!
//! The format is whitespace-separated coordinate lists with a trailing
//! value, one entry per line (a generalized MatrixMarket-style body):
//!
//! ```text
//! # tensor A ranks K,M shape 8,8
//! 0 1 2.5
//! 3 4 -1.0
//! ```
//!
//! The header comment carries the name, rank ids, and shape; absent a
//! header, ranks are named `R0..` and the shape is inferred from the
//! maximum coordinates.

use std::io::{BufRead, Write};

use teaal_fibertree::{CompressedTensor, Tensor, TensorData};

/// An I/O or parse error with line context.
#[derive(Debug)]
pub enum TensorIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for TensorIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorIoError::Io(e) => write!(f, "tensor i/o failed: {e}"),
            TensorIoError::Parse { line, message } => {
                write!(f, "tensor parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TensorIoError {}

impl From<std::io::Error> for TensorIoError {
    fn from(e: std::io::Error) -> Self {
        TensorIoError::Io(e)
    }
}

/// A tensor parsed to COO form: name, rank ids, shape, and entries.
struct CooFile {
    name: String,
    rank_ids: Vec<String>,
    shape: Vec<u64>,
    entries: Vec<(Vec<u64>, f64)>,
}

/// Reads a tensor from the whitespace-separated format.
///
/// # Errors
///
/// Returns [`TensorIoError`] on I/O failure or malformed lines.
pub fn read_tensor(reader: impl BufRead, default_name: &str) -> Result<Tensor, TensorIoError> {
    if let Err(message) = teaal_core::failpoint::hit("io.read") {
        return Err(TensorIoError::Parse { line: 0, message });
    }
    let coo = read_coo(reader, default_name)?;
    let ids: Vec<&str> = coo.rank_ids.iter().map(String::as_str).collect();
    Tensor::from_entries(coo.name, &ids, &coo.shape, coo.entries).map_err(|e| {
        TensorIoError::Parse {
            line: 0,
            message: e.to_string(),
        }
    })
}

/// Reads a tensor from the whitespace-separated format straight into
/// compressed (CSF) storage, never materializing an owned tree — the
/// large-workload ingest path.
///
/// # Errors
///
/// Returns [`TensorIoError`] on I/O failure or malformed lines.
pub fn read_compressed(
    reader: impl BufRead,
    default_name: &str,
) -> Result<CompressedTensor, TensorIoError> {
    let coo = read_coo(reader, default_name)?;
    let ids: Vec<&str> = coo.rank_ids.iter().map(String::as_str).collect();
    CompressedTensor::from_entries(coo.name, &ids, &coo.shape, coo.entries).map_err(|e| {
        TensorIoError::Parse {
            line: 0,
            message: e.to_string(),
        }
    })
}

fn read_coo(reader: impl BufRead, default_name: &str) -> Result<CooFile, TensorIoError> {
    let mut name = default_name.to_string();
    let mut rank_ids: Option<Vec<String>> = None;
    let mut shape: Option<Vec<u64>> = None;
    let mut entries: Vec<(Vec<u64>, f64)> = Vec::new();

    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix('#') {
            // Header: `# tensor A ranks K,M shape 8,8` (all parts optional).
            let words: Vec<&str> = rest.split_whitespace().collect();
            let mut w = 0usize;
            while w < words.len() {
                match words[w] {
                    "tensor" if w + 1 < words.len() => {
                        name = words[w + 1].to_string();
                        w += 2;
                    }
                    "ranks" if w + 1 < words.len() => {
                        rank_ids = Some(words[w + 1].split(',').map(str::to_string).collect());
                        w += 2;
                    }
                    "shape" if w + 1 < words.len() => {
                        let parsed: Result<Vec<u64>, _> =
                            words[w + 1].split(',').map(str::parse).collect();
                        shape = Some(parsed.map_err(|_| TensorIoError::Parse {
                            line: lineno,
                            message: "shape must be comma-separated integers".into(),
                        })?);
                        w += 2;
                    }
                    _ => w += 1,
                }
            }
            continue;
        }
        let fields: Vec<&str> = t.split_whitespace().collect();
        if fields.len() < 2 {
            return Err(TensorIoError::Parse {
                line: lineno,
                message: "expected at least one coordinate and a value".into(),
            });
        }
        let (coords, value) = fields.split_at(fields.len() - 1);
        let point: Result<Vec<u64>, _> = coords.iter().map(|c| c.parse()).collect();
        let point = point.map_err(|_| TensorIoError::Parse {
            line: lineno,
            message: "coordinates must be non-negative integers".into(),
        })?;
        let v: f64 = value[0].parse().map_err(|_| TensorIoError::Parse {
            line: lineno,
            message: "value must be a float".into(),
        })?;
        entries.push((point, v));
    }

    let arity = entries.first().map_or(0, |(p, _)| p.len());
    let rank_ids = rank_ids.unwrap_or_else(|| (0..arity).map(|i| format!("R{i}")).collect());
    let shape = shape.unwrap_or_else(|| {
        (0..arity)
            .map(|d| entries.iter().map(|(p, _)| p[d] + 1).max().unwrap_or(1))
            .collect()
    });
    Ok(CooFile {
        name,
        rank_ids,
        shape,
        entries,
    })
}

/// Writes a tensor in the same format (header + one entry per line).
///
/// # Errors
///
/// Returns [`TensorIoError::Io`] on write failure.
pub fn write_tensor(mut writer: impl Write, t: &Tensor) -> Result<(), TensorIoError> {
    write_parts(
        &mut writer,
        t.name(),
        t.rank_ids(),
        t.rank_shapes(),
        t.entries(),
    )
}

/// Writes a tensor in either representation, without decompressing.
///
/// # Errors
///
/// Returns [`TensorIoError::Io`] on write failure.
pub fn write_tensor_data(mut writer: impl Write, t: &TensorData) -> Result<(), TensorIoError> {
    write_parts(
        &mut writer,
        t.name(),
        t.rank_ids(),
        t.rank_shapes(),
        t.entries(),
    )
}

fn write_parts(
    writer: &mut impl Write,
    name: &str,
    rank_ids: &[String],
    rank_shapes: &[teaal_fibertree::Shape],
    entries: Vec<(Vec<u64>, f64)>,
) -> Result<(), TensorIoError> {
    let shape: Vec<String> = rank_shapes.iter().map(|s| s.extent().to_string()).collect();
    writeln!(
        writer,
        "# tensor {} ranks {} shape {}",
        name,
        rank_ids.join(","),
        shape.join(",")
    )?;
    for (point, v) in entries {
        for c in &point {
            write!(writer, "{c} ")?;
        }
        writeln!(writer, "{v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes every test here that reads. The failpoint config is
    /// process-global and every `read_tensor` passes `io.read`, so a read
    /// running concurrently with an armed `io.read:err@1` could consume
    /// the one injected fault (failing that read, and the injection test
    /// with it). Poisoning is ignored: a failed test must not cascade.
    static READS: Mutex<()> = Mutex::new(());

    fn lock_reads() -> MutexGuard<'static, ()> {
        READS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn injected_read_failure_is_a_structured_parse_error() {
        let _reads = lock_reads();
        teaal_core::failpoint::set_config("io.read:err@1").unwrap();
        let err = read_tensor(Cursor::new(b"0 0 1.0\n"), "A").unwrap_err();
        teaal_core::failpoint::set_config("").unwrap();
        match err {
            TensorIoError::Parse { message, .. } => {
                assert!(message.contains("injected failpoint error"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // The `@1` occurrence is consumed; reads work again.
        assert!(read_tensor(Cursor::new(b"0 0 1.0\n"), "A").is_ok());
    }

    #[test]
    fn roundtrip_through_text() {
        let _reads = lock_reads();
        let t = Tensor::from_entries(
            "A",
            &["K", "M"],
            &[8, 8],
            vec![(vec![0, 1], 2.5), (vec![3, 4], -1.0)],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(Cursor::new(&buf), "X").unwrap();
        assert_eq!(back.name(), "A");
        assert_eq!(back.rank_ids(), t.rank_ids());
        assert_eq!(back.max_abs_diff(&t), 0.0);
    }

    #[test]
    fn compressed_read_matches_owned_read() {
        let _reads = lock_reads();
        let t = Tensor::from_entries(
            "A",
            &["K", "M"],
            &[8, 8],
            vec![(vec![0, 1], 2.5), (vec![3, 4], -1.0)],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let owned = read_tensor(Cursor::new(&buf), "X").unwrap();
        let compressed = read_compressed(Cursor::new(&buf), "X").unwrap();
        assert_eq!(compressed.to_tensor(), owned);
        assert_eq!(compressed.entries(), owned.entries());
    }

    #[test]
    fn headerless_files_infer_shape_and_ranks() {
        let _reads = lock_reads();
        let src = "0 1 2.5\n3 4 1.0\n";
        let t = read_tensor(Cursor::new(src), "B").unwrap();
        assert_eq!(t.name(), "B");
        assert_eq!(t.rank_ids(), &["R0".to_string(), "R1".to_string()]);
        assert_eq!(t.rank_shapes()[0].extent(), 4);
        assert_eq!(t.rank_shapes()[1].extent(), 5);
    }

    #[test]
    fn malformed_lines_report_position() {
        let _reads = lock_reads();
        let err = read_tensor(Cursor::new("0 1 2.5\nbogus\n"), "B").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let _reads = lock_reads();
        let src = "# tensor V ranks K shape 10\n\n# a comment\n7 3.5\n";
        let t = read_tensor(Cursor::new(src), "X").unwrap();
        assert_eq!(t.name(), "V");
        assert_eq!(t.get(&[7]), Some(3.5));
    }
}
