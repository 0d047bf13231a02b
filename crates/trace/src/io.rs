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
//! accepted). Blank lines and lines starting with `#` are ignored. A line may
//! hold at most 4096 bytes before its `\n`.
//!
//! [`read_din`] is a byte scanner over 64 KiB chunks. A line of exactly
//! `[012] <1–8 hex digits>\n`, the line [`write_din`] emits, is decoded
//! straight from the bytes. Every other line (comments, blank lines, CR-LF
//! ends, other whitespace, `0x` or `+` prefixes, longer digit strings,
//! non-ASCII text, malformed lines, and a last line without `\n`) is parsed by
//! one general function with `str` rules, so both paths accept the same
//! language and report the same errors.
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

/// Longest line [`read_din`] accepts, in bytes, not counting its `\n`.
const MAX_LINE_BYTES: usize = 4096;

/// Size of the buffer [`read_din`] reads through.
const CHUNK_BYTES: usize = 64 * 1024;

/// [`HEX_VALUE`] entry of a byte that is not a hex digit.
const NOT_HEX: u8 = 0xFF;

/// The value of each byte as a hex digit, either case; [`NOT_HEX`] otherwise.
static HEX_VALUE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut digit = 0;
    while digit < 16 {
        let lower = b"0123456789abcdef"[digit];
        table[lower as usize] = digit as u8;
        table[lower.to_ascii_uppercase() as usize] = digit as u8;
        digit += 1;
    }
    table
};

/// Error produced when parsing a Dinero-format trace fails.
#[derive(Debug)]
pub enum ParseTraceError {
    /// The underlying reader failed, or a line was not valid UTF-8
    /// ([`io::ErrorKind::InvalidData`]).
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
    /// The line held more than 4096 bytes before its `\n`.
    LineTooLong,
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
                write!(f, "malformed trace line {line} (byte offset {offset}): ")?;
                match reason {
                    MalformedReason::FieldCount => f.write_str("expected `<label> <hex-address>`"),
                    MalformedReason::BadLabel => f.write_str("label must be 0, 1, or 2"),
                    MalformedReason::BadAddress => f.write_str("address must be hexadecimal"),
                    MalformedReason::LineTooLong => {
                        write!(f, "line longer than {MAX_LINE_BYTES} bytes")
                    }
                }
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
/// The reader is read through an internal 64 KiB buffer, so wrapping it in
/// a [`BufReader`] first gains nothing. A `&mut R` also works wherever an
/// `R: Read` is expected, so a caller can keep using the reader afterwards.
///
/// # Errors
///
/// Returns [`ParseTraceError::Io`] if the reader fails or a line is not
/// valid UTF-8, and [`ParseTraceError::Malformed`] (with a 1-based line
/// number) on the first syntactically invalid line or the first line longer
/// than 4096 bytes.
pub fn read_din<R: Read>(reader: R) -> Result<Trace, ParseTraceError> {
    let mut input = BufReader::with_capacity(CHUNK_BYTES, reader);
    let mut scanner = Scanner {
        trace: Trace::new(),
        lines: 0,
        offset: 0,
    };
    // The start of a line that a chunk boundary cut, completed from the
    // next chunk. `Scanner::carry` keeps it within `MAX_LINE_BYTES + 1`.
    let mut carry = Vec::new();
    loop {
        let chunk = match input.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let read = chunk.len();
        let mut rest = chunk;
        if !carry.is_empty() {
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |i| i + 1);
            scanner.carry(&mut carry, &rest[..end])?;
            rest = &rest[end..];
            if carry.ends_with(b"\n") {
                scanner.scan(&carry)?;
                carry.clear();
            }
        }
        let tail = scanner.scan(rest)?;
        scanner.carry(&mut carry, tail)?;
        input.consume(read);
    }
    if !carry.is_empty() {
        scanner.general(&carry)?;
    }
    Ok(scanner.trace)
}

/// [`read_din`]'s state between lines.
struct Scanner {
    trace: Trace,
    /// Lines finished so far, so the current line is number `lines + 1`.
    lines: usize,
    /// Byte offset of the current line's start.
    offset: u64,
}

impl Scanner {
    /// Parses every complete line at the front of `bytes` and returns the
    /// rest, which holds no `\n`.
    fn scan<'a>(&mut self, mut bytes: &'a [u8]) -> Result<&'a [u8], ParseTraceError> {
        loop {
            let len = match canonical(bytes) {
                Some((record, len)) => {
                    self.trace.push(record);
                    len
                }
                None => {
                    let Some(end) = bytes.iter().position(|&b| b == b'\n') else {
                        return Ok(bytes);
                    };
                    self.general(&bytes[..=end])?;
                    end + 1
                }
            };
            self.lines += 1;
            self.offset += len as u64;
            bytes = &bytes[len..];
        }
    }

    /// Appends `bytes`, the next piece of the current line, to `carry`. A
    /// line that would grow past [`MAX_LINE_BYTES`] is refused before it is
    /// stored, so the verdict does not depend on where chunks end.
    fn carry(&self, carry: &mut Vec<u8>, bytes: &[u8]) -> Result<(), ParseTraceError> {
        let text = bytes.strip_suffix(b"\n").unwrap_or(bytes);
        self.check_len(carry.len() + text.len())?;
        carry.extend_from_slice(bytes);
        Ok(())
    }

    /// Parses one whole line that is not canonical: `bytes` ends with its
    /// `\n`, unless it is the last line of the input.
    fn general(&mut self, bytes: &[u8]) -> Result<(), ParseTraceError> {
        self.check_len(bytes.strip_suffix(b"\n").unwrap_or(bytes).len())?;
        let text = std::str::from_utf8(bytes)
            .map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?
            .trim();
        if text.is_empty() || text.starts_with('#') {
            return Ok(());
        }
        let mut fields = text.split_whitespace();
        let (Some(label), Some(addr), None) = (fields.next(), fields.next(), fields.next()) else {
            return Err(self.malformed(MalformedReason::FieldCount));
        };
        let kind = label
            .parse::<u8>()
            .ok()
            .and_then(AccessKind::from_label)
            .ok_or_else(|| self.malformed(MalformedReason::BadLabel))?;
        let raw = u32::from_str_radix(addr.trim_start_matches("0x"), 16)
            .map_err(|_| self.malformed(MalformedReason::BadAddress))?;
        self.trace.push(Record::new(kind, Address::new(raw)));
        Ok(())
    }

    fn check_len(&self, text_len: usize) -> Result<(), ParseTraceError> {
        if text_len > MAX_LINE_BYTES {
            return Err(self.malformed(MalformedReason::LineTooLong));
        }
        Ok(())
    }

    fn malformed(&self, reason: MalformedReason) -> ParseTraceError {
        ParseTraceError::Malformed {
            line: self.lines + 1,
            offset: self.offset,
            reason,
        }
    }
}

/// Decodes a canonical line, `[012] <1–8 hex digits>\n`, at the front of
/// `bytes`: the record and the line's length with its `\n`. `None` when the
/// front is anything else, including a canonical line cut short.
#[inline]
fn canonical(bytes: &[u8]) -> Option<(Record, usize)> {
    let kind = match bytes.first()? {
        b'0' => AccessKind::Read,
        b'1' => AccessKind::Write,
        b'2' => AccessKind::InstrFetch,
        _ => return None,
    };
    if bytes.get(1) != Some(&b' ') {
        return None;
    }
    let mut addr = 0u32;
    // Positions 2..=10: up to eight digits, then the `\n`.
    for (i, &b) in bytes.iter().enumerate().skip(2).take(9) {
        let digit = HEX_VALUE[usize::from(b)];
        if digit == NOT_HEX {
            return (b == b'\n' && i > 2).then(|| (Record::new(kind, Address::new(addr)), i + 1));
        }
        addr = (addr << 4) | u32::from(digit);
    }
    None
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
    use crate::generate;
    use crate::rng::SplitMix64;

    /// The line-at-a-time reader `read_din` replaced, kept verbatim as the
    /// reference the scanner is checked against. It has no line cap.
    fn oracle_read_din<R: Read>(reader: R) -> Result<Trace, ParseTraceError> {
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
            let (Some(label), Some(addr), None) = (fields.next(), fields.next(), fields.next())
            else {
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

    /// A reader that hands out its bytes 1–13 at a time.
    struct Dribble<'a> {
        bytes: &'a [u8],
        rng: SplitMix64,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self
                .rng
                .gen_range(1..=13usize)
                .min(buf.len())
                .min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// A reader that hands out one byte per call.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            buf[0] = first;
            self.0 = rest;
            Ok(1)
        }
    }

    /// A reader that counts the bytes it hands out.
    struct Counting<R> {
        inner: R,
        read: u64,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n as u64;
            Ok(n)
        }
    }

    /// What a parse came to, comparable with `==`.
    #[derive(Debug, Clone, PartialEq)]
    enum Outcome {
        Parsed(Trace),
        Malformed(usize, u64, MalformedReason),
        Io(io::ErrorKind),
    }

    fn outcome(result: Result<Trace, ParseTraceError>) -> Outcome {
        match result {
            Ok(trace) => Outcome::Parsed(trace),
            Err(ParseTraceError::Malformed {
                line,
                offset,
                reason,
            }) => Outcome::Malformed(line, offset, reason),
            Err(ParseTraceError::Io(e)) => Outcome::Io(e.kind()),
        }
    }

    /// The oracle's verdict under the line cap: its own error if it fails
    /// before the first line longer than `MAX_LINE_BYTES`, `LineTooLong` at
    /// that line if it gets there.
    fn expected(input: &[u8]) -> Outcome {
        let mut start = 0;
        for (index, line) in input.split_inclusive(|&b| b == b'\n').enumerate() {
            if line.strip_suffix(b"\n").unwrap_or(line).len() > MAX_LINE_BYTES {
                return match oracle_read_din(&input[..start]) {
                    Ok(_) => {
                        Outcome::Malformed(index + 1, start as u64, MalformedReason::LineTooLong)
                    }
                    Err(e) => outcome(Err(e)),
                };
            }
            start += line.len();
        }
        outcome(oracle_read_din(input))
    }

    fn malformed_at(text: &[u8]) -> (usize, u64, MalformedReason) {
        match read_din(text) {
            Err(ParseTraceError::Malformed {
                line,
                offset,
                reason,
            }) => (line, offset, reason),
            other => panic!("expected a malformed line, got {other:?}"),
        }
    }

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
    fn canonical_lines_take_either_hex_case_and_at_most_eight_digits() {
        let t = read_din(&b"2 DEADBEEF\n1 deadBEEF\n0 0\n0 000000001\n"[..]).unwrap();
        let addrs: Vec<u32> = t.addresses().map(Address::raw).collect();
        assert_eq!(addrs, [0xDEAD_BEEF, 0xDEAD_BEEF, 0, 1]);
        assert_eq!(t.records()[0].kind, AccessKind::InstrFetch);
        assert_eq!(t.records()[1].kind, AccessKind::Write);
        assert_eq!(
            malformed_at(b"0 b\n1 100000000\n"),
            (2, 4, MalformedReason::BadAddress)
        );
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
    fn invalid_utf8_is_an_invalid_data_error_at_its_line() {
        // A malformed line before it is reported first.
        assert_eq!(
            outcome(read_din(&b"0 b\n# \xff\n0 c\n"[..])),
            Outcome::Io(io::ErrorKind::InvalidData)
        );
        assert_eq!(
            malformed_at(b"0 b\n7 c\n# \xff\n").2,
            MalformedReason::BadLabel
        );
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
        let e = ParseTraceError::Malformed {
            line: 2,
            offset: 4,
            reason: MalformedReason::LineTooLong,
        };
        assert_eq!(
            e.to_string(),
            "malformed trace line 2 (byte offset 4): line longer than 4096 bytes"
        );
    }

    #[test]
    fn reader_by_mut_ref_still_usable() {
        let mut cursor = std::io::Cursor::new(b"0 1\n".to_vec());
        let t = read_din(&mut cursor).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn interrupted_reads_are_retried() {
        struct Interrupting<'a> {
            bytes: &'a [u8],
            interrupt: bool,
        }
        impl Read for Interrupting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.interrupt = !self.interrupt;
                if self.interrupt {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(self.bytes.len()).min(3);
                buf[..n].copy_from_slice(&self.bytes[..n]);
                self.bytes = &self.bytes[n..];
                Ok(n)
            }
        }
        let text = b"0 b\n1 c\n2 100\n";
        let t = read_din(Interrupting {
            bytes: text,
            interrupt: false,
        })
        .unwrap();
        assert_eq!(t, read_din(&text[..]).unwrap());
    }

    /// A three-line trace whose second line is a comment of `len` bytes
    /// before its `\n`.
    fn with_long_comment(len: usize) -> Vec<u8> {
        let mut text = b"0 b\n#".to_vec();
        text.resize(4 + len, b'x');
        text.extend_from_slice(b"\n1 c\n");
        text
    }

    #[test]
    fn a_line_of_4096_bytes_parses() {
        let text = with_long_comment(MAX_LINE_BYTES);
        assert_eq!(read_din(text.as_slice()).unwrap().len(), 2);
        let dribbled = Dribble {
            bytes: &text,
            rng: SplitMix64::seed_from_u64(1),
        };
        assert_eq!(read_din(dribbled).unwrap().len(), 2);
        // Without a final `\n` the cap is the same.
        let mut last = text[..4 + MAX_LINE_BYTES].to_vec();
        assert_eq!(read_din(last.as_slice()).unwrap().len(), 1);
        last.push(b'x');
        assert_eq!(malformed_at(&last), (2, 4, MalformedReason::LineTooLong));
    }

    #[test]
    fn a_line_of_4097_bytes_is_rejected_at_its_line_and_offset() {
        let text = with_long_comment(MAX_LINE_BYTES + 1);
        assert_eq!(malformed_at(&text), (2, 4, MalformedReason::LineTooLong));
        assert_eq!(
            outcome(read_din(OneByte(&text))),
            Outcome::Malformed(2, 4, MalformedReason::LineTooLong)
        );
        // A malformed line ahead of the long one is reported first.
        let mut text = text;
        text[0] = b'9';
        assert_eq!(malformed_at(&text), (1, 0, MalformedReason::BadLabel));
    }

    #[test]
    fn a_stream_without_newlines_is_rejected_within_two_chunks() {
        let mut reader = Counting {
            inner: io::repeat(b'#').take(1 << 30),
            read: 0,
        };
        assert_eq!(
            outcome(read_din(&mut reader)),
            Outcome::Malformed(1, 0, MalformedReason::LineTooLong)
        );
        assert!(reader.read < 128 * 1024, "read {} bytes", reader.read);
        // In one-byte reads the carry, not the chunk, must hit the cap.
        let endless = vec![b'#'; 1 << 20];
        let mut reader = Counting {
            inner: OneByte(&endless),
            read: 0,
        };
        assert_eq!(
            outcome(read_din(&mut reader)),
            Outcome::Malformed(1, 0, MalformedReason::LineTooLong)
        );
        assert_eq!(reader.read, MAX_LINE_BYTES as u64 + 1);
    }

    /// Dinero text to mutate: `write_din` output of the generators (mixed
    /// labels, both hex cases) and of the paper's running example.
    fn seed_texts() -> Vec<Vec<u8>> {
        let din = |trace: &Trace| {
            let mut out = Vec::new();
            write_din(&mut out, trace).expect("in-memory write");
            out
        };
        let mixed: Trace = generate::uniform_random(24, 1 << 20, 5)
            .iter()
            .enumerate()
            .map(|(i, r)| match i % 3 {
                0 => Record::read(r.addr),
                1 => Record::write(r.addr),
                _ => Record::fetch(r.addr),
            })
            .collect();
        let mut upper = din(&generate::strided(0xFFFF_0000, 0x1_0000, 8, 2));
        upper.make_ascii_uppercase();
        vec![
            din(&crate::paper_running_example()),
            din(&generate::loop_pattern(0x400, 6, 2)),
            din(&generate::working_set_phases(2, 10, 4, 3)),
            din(&mixed),
            upper,
        ]
    }

    /// Byte strings the mutator splices in: every kind of whitespace the
    /// general path trims or splits on, prefixes, non-hex letters, non-ASCII
    /// and invalid UTF-8, long and overflowing digit strings, and labels of
    /// three digits.
    const EDGE: &[&[u8]] = &[
        b" ",
        b"\t",
        b"\r",
        b"\n",
        b"\r\n",
        b"\x0b",
        b"\x0c",
        b"#",
        b"+",
        b"-",
        b"0x",
        b"0X",
        b"x",
        b"g",
        b"F",
        b"\xc2\xa0",
        b"\xe2\x80\x83",
        b"\xff",
        b"\xc3",
        b"000000000b",
        b"123456789",
        b"100000000",
        b"ffffffff",
        b"002 ",
        b"0 ",
        b"1 ",
        b"2 ",
        b"a",
        b"0",
    ];

    fn mutate(rng: &mut SplitMix64, seed: &[u8]) -> Vec<u8> {
        let mut text = seed.to_vec();
        for _ in 0..rng.gen_range(1..=4u32) {
            let at = rng.gen_range(0..=text.len());
            match rng.gen_range(0..8u32) {
                0 | 1 => {
                    let edge = EDGE[rng.gen_range(0..EDGE.len())];
                    text.splice(at..at, edge.iter().copied());
                }
                2 | 3 => {
                    let end = (at + rng.gen_range(1..=4usize)).min(text.len());
                    text.drain(at..end);
                }
                4 | 5 => {
                    let edge = EDGE[rng.gen_range(0..EDGE.len())];
                    let end = (at + 1).min(text.len());
                    text.splice(at..end, edge.iter().copied());
                }
                6 => {
                    let byte = rng.gen::<u32>() as u8;
                    text.insert(at, byte);
                }
                _ => {
                    // Rarely, a run that puts a line near the cap.
                    if rng.gen_range(0..32u32) == 0 {
                        let fill = [b'#', b' ', b'0', b'x'][rng.gen_range(0..4usize)];
                        let len = MAX_LINE_BYTES - 8 + rng.gen_range(0..16usize);
                        text.splice(at..at, std::iter::repeat_n(fill, len));
                    }
                }
            }
        }
        text
    }

    /// Runs `cases` mutated inputs through the scanner, whole and in 1–13
    /// byte chunks, and through the oracle; returns the mismatches.
    fn differential(seed: u64, cases: usize) -> Vec<(Vec<u8>, Outcome, Outcome)> {
        let seeds = seed_texts();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut mismatches = Vec::new();
        for _ in 0..cases {
            let seed_text = &seeds[rng.gen_range(0..seeds.len())];
            let text = mutate(&mut rng, seed_text);
            let want = expected(&text);
            let whole = outcome(read_din(text.as_slice()));
            let dribbled = outcome(read_din(Dribble {
                bytes: &text,
                rng: SplitMix64::seed_from_u64(rng.next_u64()),
            }));
            for got in [whole, dribbled] {
                if got != want {
                    mismatches.push((text.clone(), want.clone(), got));
                }
            }
        }
        mismatches
    }

    #[test]
    fn scanner_matches_the_line_reader_on_mutated_traces() {
        let mismatches = differential(0xD1FF, 20_000);
        assert!(
            mismatches.is_empty(),
            "{} mismatches, first: {:?}",
            mismatches.len(),
            mismatches[0]
        );
    }

    #[test]
    #[ignore = "1M cases; run with --release --include-ignored"]
    fn scanner_matches_the_line_reader_on_a_million_mutated_traces() {
        let mismatches = differential(0x5EED_D1FF, 1_000_000);
        assert!(
            mismatches.is_empty(),
            "{} mismatches, first: {:?}",
            mismatches.len(),
            mismatches[0]
        );
    }
}
