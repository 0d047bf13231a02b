//! Source fingerprints: a `file` job whose bytes are unchanged since the
//! service last parsed that path skips the parse (DESIGN.md §9).
//!
//! The cache stays keyed by the FNV-1a digest of the canonical trace, which
//! only a parse can compute. So every parse of a file goes through a
//! [`FingerprintReader`], which hashes the very bytes the parser consumes,
//! and a successful parse records their length and XXH64 next to the
//! digest the trace got. A later job on the same `(path, line_bits)` whose
//! file has the same length reads it once more without parsing, and if the
//! hash matches too, it takes the recorded digest as its key.

use std::collections::{HashMap, VecDeque};
use std::fmt::Display;
use std::io::{self, Read};

use cachedse_store::Xxh64;
use cachedse_sync::Mutex;
use cachedse_trace::digest::TraceDigest;

use crate::job::JobError;
use crate::service::Deadline;

/// Bytes per read of the hash-only pass.
const PASS_BYTES: usize = 64 * 1024;

/// The length and XXH64 of a file's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    pub(crate) len: u64,
    pub(crate) hash: u64,
}

/// What one parse of a file gave: the bytes it read, and the digest and
/// address width of the trace they parsed into after line alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Parsed {
    pub(crate) source: Fingerprint,
    pub(crate) digest: TraceDigest,
    pub(crate) address_bits: u32,
}

type PathKey = (String, u32);

/// The last successful parse of each `(path, line_bits)`, FIFO-bounded by
/// the artifact cache's capacity. The lock is held only to copy an entry
/// out or put one in, never across I/O.
#[derive(Debug)]
pub(crate) struct Fingerprints {
    capacity: usize,
    map: Mutex<Map>,
}

#[derive(Debug, Default)]
struct Map {
    entries: HashMap<PathKey, Parsed>,
    /// Insertion order, oldest first.
    order: VecDeque<PathKey>,
}

impl Fingerprints {
    /// An empty map holding at most `capacity` paths (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            map: Mutex::new(Map::default()),
        }
    }

    /// What `path` parsed into under `line_bits` last time, if recorded.
    pub(crate) fn get(&self, path: &str, line_bits: u32) -> Option<Parsed> {
        let key = (path.to_owned(), line_bits);
        self.map.lock().entries.get(&key).copied()
    }

    /// Records a successful parse, replacing the path's earlier one in
    /// place or evicting the oldest path at capacity.
    pub(crate) fn record(&self, path: &str, line_bits: u32, parsed: Parsed) {
        let key = (path.to_owned(), line_bits);
        let mut map = self.map.lock();
        if let Some(entry) = map.entries.get_mut(&key) {
            *entry = parsed;
            return;
        }
        if map.entries.len() >= self.capacity {
            if let Some(oldest) = map.order.pop_front() {
                map.entries.remove(&oldest);
            }
        }
        map.entries.insert(key.clone(), parsed);
        map.order.push_back(key);
    }

    /// Number of paths recorded.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.lock().entries.len()
    }
}

/// A reader that hashes every byte it hands out and checks the job's
/// deadline before each read, so a large file stops loading once the
/// deadline passes. A read that blocks inside the kernel is not
/// interrupted.
#[derive(Debug)]
pub(crate) struct FingerprintReader<R> {
    inner: R,
    hasher: Xxh64,
    len: u64,
    deadline: Deadline,
    expired: Option<JobError>,
}

impl<R: Read> FingerprintReader<R> {
    pub(crate) fn new(inner: R, deadline: Deadline) -> Self {
        Self {
            inner,
            hasher: Xxh64::new(),
            len: 0,
            deadline,
            expired: None,
        }
    }

    /// The length and hash of every byte read so far.
    pub(crate) fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            len: self.len,
            hash: self.hasher.finish(),
        }
    }

    /// The job's error for a read through this reader that failed with
    /// `e`: the timeout if the deadline stopped it, else a trace error
    /// naming `path`.
    pub(crate) fn error(&mut self, path: &str, e: impl Display) -> JobError {
        self.expired
            .take()
            .unwrap_or_else(|| JobError::Trace(format!("{path}: {e}")))
    }

    /// The hash-only pass: reads to the end without parsing.
    pub(crate) fn hash_to_end(mut self, path: &str) -> Result<Fingerprint, JobError> {
        let mut buf = vec![0; PASS_BYTES];
        loop {
            match self.read(&mut buf) {
                Ok(0) => return Ok(self.fingerprint()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(self.error(path, e)),
            }
        }
    }
}

impl<R: Read> Read for FingerprintReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Err(e) = self.deadline.check() {
            self.expired = Some(e);
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "job deadline passed",
            ));
        }
        let n = self.inner.read(buf)?;
        self.hasher.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::io::{read_din, write_din};
    use std::time::Instant;

    /// Hands out at most 1, 2, …, 13, 1, 2, … bytes per read.
    struct Chunked<'a> {
        bytes: &'a [u8],
        next: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.next = self.next % 13 + 1;
            let n = self.next.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The parse consumes every byte to the end through the reader, so
    /// what it records equals the hash-only pass over the same file: on
    /// the 24 kernels' Dinero text, read whole and in 1–13-byte pieces.
    #[test]
    fn a_parse_records_the_fingerprint_of_the_hash_only_pass() {
        for kernel in cachedse_workloads::all() {
            let run = kernel.capture();
            for trace in [run.data, run.instr] {
                let mut text = Vec::new();
                write_din(&mut text, &trace).unwrap();
                let expected = Fingerprint {
                    len: text.len() as u64,
                    hash: {
                        let mut h = Xxh64::new();
                        h.update(&text);
                        h.finish()
                    },
                };
                let pass = FingerprintReader::new(&text[..], Deadline::none());
                assert_eq!(pass.hash_to_end("t.din").unwrap(), expected);

                let mut whole = FingerprintReader::new(&text[..], Deadline::none());
                assert_eq!(read_din(&mut whole).unwrap(), trace);
                assert_eq!(whole.fingerprint(), expected, "{}", kernel.name());

                let chunked = Chunked {
                    bytes: &text,
                    next: 0,
                };
                let mut pieces = FingerprintReader::new(chunked, Deadline::none());
                assert_eq!(read_din(&mut pieces).unwrap(), trace);
                assert_eq!(pieces.fingerprint(), expected, "{}", kernel.name());
            }
        }
    }

    /// A deadline that has passed stops the read before it starts, and
    /// the failure is the job's timeout, not a trace error.
    #[test]
    fn a_passed_deadline_is_a_timeout_not_a_trace_error() {
        let passed = Deadline {
            start: Instant::now(),
            limit_ms: Some(0),
        };
        let mut reader = FingerprintReader::new(&b"0 10\n1 20\n"[..], passed);
        let err = read_din(&mut reader).unwrap_err();
        assert_eq!(
            reader.error("t.din", err),
            JobError::Timeout { limit_ms: 0 }
        );
        assert_eq!(reader.fingerprint().len, 0, "nothing was read");

        let pass = FingerprintReader::new(&b"0 10\n"[..], passed);
        assert_eq!(
            pass.hash_to_end("t.din"),
            Err(JobError::Timeout { limit_ms: 0 })
        );
    }

    /// A path's entry is replaced in place; a new path at capacity evicts
    /// the oldest; `line_bits` is part of the key.
    #[test]
    fn the_map_is_bounded_fifo_by_path_and_line_bits() {
        let map = Fingerprints::new(2);
        let parsed = |n| Parsed {
            source: Fingerprint { len: n, hash: n },
            digest: TraceDigest::from_raw(n),
            address_bits: 8,
        };
        map.record("a", 0, parsed(1));
        map.record("a", 2, parsed(2));
        map.record("a", 0, parsed(3));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("a", 0), Some(parsed(3)));
        map.record("b", 0, parsed(4));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("a", 0), None, "the oldest path went first");
        assert_eq!(map.get("a", 2), Some(parsed(2)));
        assert_eq!(map.get("b", 0), Some(parsed(4)));
    }
}
