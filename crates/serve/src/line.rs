//! The capped line reader of [`run_batch`](crate::run_batch) and the TCP
//! server. A job spec fits in well under 1 KiB, so no request line needs
//! more than [`MAX_LINE_BYTES`].

use std::io::{BufRead, ErrorKind};

/// The longest line accepted, in bytes, not counting its `\n`.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// One input line.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Line {
    /// A line without its `\n`.
    Text(String),
    /// A line refused before parsing, with the reason: longer than
    /// [`MAX_LINE_BYTES`], or not UTF-8.
    Refused(String),
}

/// Splits a byte stream into [`Line`]s through `fill_buf`/`consume`,
/// holding at most [`MAX_LINE_BYTES`] of any one line: a longer line is
/// refused as soon as it crosses the cap and the rest of it is skipped, so
/// a sender that never pauses or never ends its line cannot grow the
/// buffer.
pub(crate) struct LineReader<R> {
    input: R,
    /// The current line's bytes so far.
    line: Vec<u8>,
    /// Set while the rest of a refused line is skipped.
    skipping: bool,
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(input: R) -> Self {
        Self {
            input,
            line: Vec::new(),
            skipping: false,
        }
    }

    fn take_line(&mut self) -> Line {
        let line = match std::str::from_utf8(&self.line) {
            Ok(text) => Line::Text(text.to_owned()),
            Err(_) => Line::Refused("line is not UTF-8".to_owned()),
        };
        self.line.clear();
        line
    }
}

/// Yields each line in order, then `None` at end of input; a last line
/// without `\n` still counts. A read error other than `Interrupted`
/// (which is retried) is yielded as it is, and leaves the partial line in
/// place for the next call: the server's `WouldBlock` poll resumes it.
impl<R: BufRead> Iterator for LineReader<R> {
    type Item = std::io::Result<Line>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let chunk = match self.input.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(e)),
            };
            if chunk.is_empty() {
                self.skipping = false;
                return (!self.line.is_empty()).then(|| Ok(self.take_line()));
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let end = newline.unwrap_or(chunk.len());
            let used = newline.map_or(end, |at| at + 1);
            if self.skipping {
                self.skipping = newline.is_none();
                self.input.consume(used);
            } else if self.line.len() + end > MAX_LINE_BYTES {
                self.line.clear();
                self.skipping = newline.is_none();
                self.input.consume(used);
                return Some(Ok(Line::Refused(format!(
                    "line longer than {MAX_LINE_BYTES} bytes"
                ))));
            } else {
                self.line.extend_from_slice(&chunk[..end]);
                self.input.consume(used);
                if newline.is_some() {
                    return Some(Ok(self.take_line()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    fn lines(input: &[u8]) -> Vec<Line> {
        LineReader::new(input).map(Result::unwrap).collect()
    }

    fn text(s: &str) -> Line {
        Line::Text(s.to_owned())
    }

    fn too_long() -> Line {
        Line::Refused("line longer than 65536 bytes".to_owned())
    }

    /// A line may hold exactly the cap; one byte more is refused once, the
    /// rest of it skipped, and the next line read normally. A last line
    /// without `\n` still counts, and a line that is not UTF-8 is refused
    /// in place.
    #[test]
    fn lines_are_split_capped_and_checked() {
        let at_cap = "x".repeat(MAX_LINE_BYTES);
        let over_cap = format!("{at_cap}\n{at_cap}y{at_cap}\nnext\n{at_cap}yz");
        let cases: [(&[u8], Vec<Line>); 5] = [
            (b"", vec![]),
            (b"\n", vec![text("")]),
            (
                b"a\n\nb\r\nc",
                vec![text("a"), text(""), text("b\r"), text("c")],
            ),
            (
                over_cap.as_bytes(),
                vec![text(&at_cap), too_long(), text("next"), too_long()],
            ),
            (
                b"ok\n\xff\xfe\nafter\n",
                vec![
                    text("ok"),
                    Line::Refused("line is not UTF-8".to_owned()),
                    text("after"),
                ],
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(lines(input), expected);
        }
    }

    /// A source that hands out a few bytes per read and then a
    /// `WouldBlock`, like the server's socket under its poll timeout.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        blocked: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.blocked = !self.blocked;
            if self.blocked {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(3).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Partial lines survive `WouldBlock`, and an over-long line arriving
    /// a few bytes at a time is refused once and skipped without being
    /// collected.
    #[test]
    fn partial_lines_survive_would_block() {
        let bytes = format!(
            "{{\"op\":\"stats\"}}\n{}\nlast\n",
            "x".repeat(2 * MAX_LINE_BYTES)
        );
        let mut reader = LineReader::new(BufReader::new(Trickle {
            bytes: bytes.into_bytes(),
            at: 0,
            blocked: false,
        }));
        let mut got = Vec::new();
        let mut blocks = 0;
        for item in reader.by_ref() {
            match item {
                Ok(line) => got.push(line),
                Err(e) if e.kind() == ErrorKind::WouldBlock => blocks += 1,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, [text("{\"op\":\"stats\"}"), too_long(), text("last")]);
        assert!(blocks > MAX_LINE_BYTES / 3, "{blocks}");
        assert!(reader.line.capacity() <= 2 * MAX_LINE_BYTES);
    }
}
