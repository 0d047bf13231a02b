//! Dinero-style text trace I/O.
//!
//! The classic `din` format is one reference per line:
//!
//! ```text
//! <label> <hex-address>
//! ```
//!
//! where the label is `0` (data read), `1` (data write), or `2` (instruction
//! fetch), and the address is hexadecimal (an optional `0x` prefix is
//! accepted). Blank lines and lines starting with `#` are ignored.
//!
//! # Examples
//!
//! ```
//! use cachedse_trace::io::{read_din, write_din};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "0 b\n1 c\n2 100\n# comment\n";
//! let trace = read_din(text.as_bytes())?;
//! assert_eq!(trace.len(), 3);
//!
//! let mut out = Vec::new();
//! write_din(&mut out, &trace)?;
//! assert_eq!(String::from_utf8(out)?, "0 b\n1 c\n2 100\n");
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::{AccessKind, Address, Record, Trace};

/// Error produced when parsing a Dinero-format trace fails.
#[derive(Debug)]
pub enum ParseTraceError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line was not of the form `<label> <hex-address>`.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// 0-based byte offset of the start of the offending line within
        /// the input.
        offset: u64,
        /// What was wrong with it.
        reason: MalformedReason,
    },
}

/// Why a trace line failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MalformedReason {
    /// The line did not have exactly two whitespace-separated fields.
    FieldCount,
    /// The label field was not `0`, `1`, or `2`.
    BadLabel,
    /// The address field was not valid hexadecimal `u32`.
    BadAddress,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace i/o error: {e}"),
            Self::Malformed {
                line,
                offset,
                reason,
            } => {
                let what = match reason {
                    MalformedReason::FieldCount => "expected `<label> <hex-address>`",
                    MalformedReason::BadLabel => "label must be 0, 1, or 2",
                    MalformedReason::BadAddress => "address must be hexadecimal",
                };
                write!(
                    f,
                    "malformed trace line {line} (byte offset {offset}): {what}"
                )
            }
        }
    }
}

impl Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Reads a Dinero-format trace from `reader`.
///
/// A `&mut R` also works wherever an `R: Read` is expected, so a caller can
/// keep using the reader afterwards.
///
/// # Errors
///
/// Returns [`ParseTraceError::Io`] if the reader fails and
/// [`ParseTraceError::Malformed`] (with a 1-based line number) on the first
/// syntactically invalid line.
pub fn read_din<R: Read>(reader: R) -> Result<Trace, ParseTraceError> {
    let mut buf = BufReader::new(reader);
    let mut trace = Trace::new();
    let mut line = String::new();
    let mut line_no = 0usize;
    let mut offset = 0u64;
    loop {
        line.clear();
        let consumed = buf.read_line(&mut line)?;
        if consumed == 0 {
            break;
        }
        line_no += 1;
        let line_start = offset;
        offset += consumed as u64;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let mut fields = text.split_whitespace();
        let (Some(label), Some(addr), None) = (fields.next(), fields.next(), fields.next()) else {
            return Err(ParseTraceError::Malformed {
                line: line_no,
                offset: line_start,
                reason: MalformedReason::FieldCount,
            });
        };
        let kind = label
            .parse::<u8>()
            .ok()
            .and_then(AccessKind::from_label)
            .ok_or(ParseTraceError::Malformed {
                line: line_no,
                offset: line_start,
                reason: MalformedReason::BadLabel,
            })?;
        let raw = u32::from_str_radix(addr.trim_start_matches("0x"), 16).map_err(|_| {
            ParseTraceError::Malformed {
                line: line_no,
                offset: line_start,
                reason: MalformedReason::BadAddress,
            }
        })?;
        trace.push(Record::new(kind, Address::new(raw)));
    }
    Ok(trace)
}

/// Writes `trace` to `writer` in Dinero text format.
///
/// A `&mut W` also works wherever a `W: Write` is expected.
///
/// # Errors
///
/// Propagates any error from the underlying writer.
pub fn write_din<W: Write>(mut writer: W, trace: &Trace) -> io::Result<()> {
    for r in trace {
        writeln!(writer, "{} {:x}", r.kind.label(), r.addr)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let original: Trace = [
            Record::read(Address::new(0xB)),
            Record::write(Address::new(0xC)),
            Record::fetch(Address::new(0x1000)),
        ]
        .into_iter()
        .collect();
        let mut bytes = Vec::new();
        write_din(&mut bytes, &original).unwrap();
        let parsed = read_din(bytes.as_slice()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn accepts_comments_blanks_and_0x_prefix() {
        let text = "# header\n\n  0 0xB \n2 1f\n";
        let t = read_din(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].addr, Address::new(0xB));
        assert_eq!(t.records()[1].kind, AccessKind::InstrFetch);
    }

    #[test]
    fn rejects_wrong_field_count() {
        let err = read_din("0 b extra\n".as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Malformed {
                line,
                offset,
                reason,
            } => {
                assert_eq!(line, 1);
                assert_eq!(offset, 0);
                assert_eq!(reason, MalformedReason::FieldCount);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn rejects_bad_label() {
        let err = read_din("0 b\n7 c\n".as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Malformed {
                line,
                offset,
                reason,
            } => {
                assert_eq!(line, 2);
                assert_eq!(offset, 4); // "0 b\n" is four bytes
                assert_eq!(reason, MalformedReason::BadLabel);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn rejects_bad_address() {
        let err = read_din("0 zz\n".as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Malformed { reason, .. } => {
                assert_eq!(reason, MalformedReason::BadAddress);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn non_hex_address_reports_line_and_offset() {
        // Comments and blank lines still advance the byte offset.
        let text = "# header line\n\n0 b\n1 0xQQ\n";
        let err = read_din(text.as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Malformed {
                line,
                offset,
                reason,
            } => {
                assert_eq!(line, 4);
                assert_eq!(offset, 19); // 14 (comment) + 1 (blank) + 4 ("0 b\n")
                assert_eq!(reason, MalformedReason::BadAddress);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(err.to_string().contains("line 4"));
        assert!(err.to_string().contains("byte offset 19"));
    }

    #[test]
    fn truncated_line_reports_field_count_at_its_offset() {
        // A final line cut mid-record (no address, no newline).
        let err = read_din("0 b\n1\n".as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Malformed {
                line,
                offset,
                reason,
            } => {
                assert_eq!(line, 2);
                assert_eq!(offset, 4);
                assert_eq!(reason, MalformedReason::FieldCount);
            }
            other => panic!("unexpected error: {other}"),
        }
        // The same truncation without a trailing newline behaves identically.
        let err = read_din("0 b\n1".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            ParseTraceError::Malformed {
                line: 2,
                offset: 4,
                reason: MalformedReason::FieldCount
            }
        ));
    }

    #[test]
    fn empty_file_is_an_empty_trace() {
        assert_eq!(read_din(&b""[..]).unwrap(), Trace::new());
        // Whitespace- and comment-only files parse as empty too.
        assert_eq!(
            read_din(&b"\n# only a comment\n\n"[..]).unwrap(),
            Trace::new()
        );
    }

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ParseTraceError>();
        let e = ParseTraceError::Malformed {
            line: 3,
            offset: 17,
            reason: MalformedReason::BadLabel,
        };
        assert_eq!(
            e.to_string(),
            "malformed trace line 3 (byte offset 17): label must be 0, 1, or 2"
        );
    }

    #[test]
    fn reader_by_mut_ref_still_usable() {
        let mut cursor = std::io::Cursor::new(b"0 1\n".to_vec());
        let t = read_din(&mut cursor).unwrap();
        assert_eq!(t.len(), 1);
    }
}
