//! The versioned, checksummed on-disk artifact codec (format `CDSEART1`).
//!
//! An entry holds the stripped trace and its per-depth miss profiles —
//! everything a budget query reads — whichever engine built them.
//! Layout, all integers little-endian:
//!
//! ```text
//! magic            8 bytes   b"CDSEART1"
//! version          u32       1
//! digest           u64       FNV-1a trace digest (the key)
//! max_index_bits   u32       index-bit cap the profiles were built under
//! flags            u32       bit 1 (profiles-only) on every entry written;
//!                            clear on legacy entries, which decode the same
//!                            way; bit 0 marked the retired tree-bearing
//!                            format, which is rejected
//! address_bits     u32       width of the stripped trace's addresses
//! stats            3 × u64   total N, unique N', max_misses
//! engine           u32       0 depth-first, 3 streamed (1, the retired
//!                            parallel depth-first tag, still reads as
//!                            depth-first; 2, the retired tree-table
//!                            engine's, is rejected)
//! unique           len + u32[]   unique addresses in identifier order
//! ids              len + u32[]   the access order as identifiers
//! profiles         len (= max_index_bits + 1), then per profile:
//!                    depth u32, cold u64, accesses u64, histogram len + u64[]
//! checksum         u64       FNV-1a over every preceding byte
//! ```
//!
//! Array lengths are `u64` counts prefixed to each array and are checked
//! against the bytes actually remaining **before** any allocation, so a
//! header that lies about a length is rejected instead of triggering a
//! huge reservation. The trailing checksum catches truncation and bit
//! rot; everything after it decodes through `StrippedTrace::from_parts`
//! and `Exploration::from_parts`, which re-establish every structural
//! invariant the in-memory accessors assume — untrusted bytes can surface
//! only as [`StoreError::Corrupt`], never as a panic.

use cachedse_core::{Engine, Exploration};
use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::digest::{Fnv1a, TraceDigest};
use cachedse_trace::stats::TraceStats;
use cachedse_trace::strip::{RefId, StrippedTrace};
use cachedse_trace::Address;

use crate::{ArtifactKey, StoreError, TraceArtifacts};

/// The 8-byte format magic.
pub const MAGIC: [u8; 8] = *b"CDSEART1";
/// The current format version.
pub const VERSION: u32 = 1;
/// Flag bit 0: a tree-bearing entry from an earlier build, which appended
/// the zero/one sets, BCAT and MRCT after the profiles. Nothing reads that
/// block any more, so such entries are rejected and rebuilt.
const RETIRED_TREE_BIT: u32 = 1;
/// Flag bit 1: a profiles-only entry — the stripped trace and the
/// per-depth profiles, the only format written. Legacy entries carry
/// neither bit and decode the same way.
const FLAG_PROFILES_ONLY: u32 = 1 << 1;
/// Smallest possible entry: magic + version + trailing checksum.
const MIN_LEN: usize = MAGIC.len() + 4 + 8;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32_array(buf: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u32>) {
    put_u64(buf, values.len() as u64);
    for v in values {
        put_u32(buf, v);
    }
}

fn put_u64_array(buf: &mut Vec<u8>, values: &[u64]) {
    put_u64(buf, values.len() as u64);
    for &v in values {
        put_u64(buf, v);
    }
}

/// Encodes `artifacts` under `key` into a self-contained entry.
#[must_use]
pub fn encode(key: &ArtifactKey, artifacts: &TraceArtifacts) -> Vec<u8> {
    let stripped = &artifacts.stripped;
    let mut buf = Vec::with_capacity(256 + 4 * stripped.total_len());
    buf.extend_from_slice(&MAGIC);
    put_u32(&mut buf, VERSION);
    put_u64(&mut buf, key.digest.raw());
    put_u32(&mut buf, key.max_index_bits);
    put_u32(&mut buf, FLAG_PROFILES_ONLY);
    put_u32(&mut buf, stripped.address_bits());
    let stats = artifacts.exploration.stats();
    put_u64(&mut buf, stats.total as u64);
    put_u64(&mut buf, stats.unique as u64);
    put_u64(&mut buf, stats.max_misses);
    put_u32(&mut buf, engine_code(artifacts.exploration.engine()));
    put_u32_array(
        &mut buf,
        stripped.unique_addresses().iter().map(|a| a.raw()),
    );
    put_u32_array(&mut buf, stripped.id_sequence().iter().map(|id| id.raw()));
    put_u64(&mut buf, artifacts.exploration.profiles().len() as u64);
    for profile in artifacts.exploration.profiles() {
        put_u32(&mut buf, profile.depth());
        put_u64(&mut buf, profile.cold());
        put_u64(&mut buf, profile.accesses());
        put_u64_array(&mut buf, profile.histogram());
    }
    let mut h = Fnv1a::new();
    h.update(&buf);
    let checksum = h.finish();
    put_u64(&mut buf, checksum);
    buf
}

fn engine_code(engine: Engine) -> u32 {
    match engine {
        Engine::DepthFirst => 0,
        Engine::Streamed => 3,
    }
}

fn engine_of(code: u32) -> Result<Engine, StoreError> {
    match code {
        // 1 tagged the depth-first engine's parallel schedule when it was
        // its own engine; entries written then answer identically.
        0 | 1 => Ok(Engine::DepthFirst),
        3 => Ok(Engine::Streamed),
        other => Err(StoreError::Corrupt(format!("unknown engine code {other}"))),
    }
}

/// A bounds-checked little-endian reader over the checksummed payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "truncated reading {what}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length prefix, verified to fit the remaining bytes at `width`
    /// bytes per element before anything is allocated.
    fn len_of(&mut self, width: usize, what: &str) -> Result<usize, StoreError> {
        let len = self.u64(what)?;
        let Ok(len) = usize::try_from(len) else {
            return Err(StoreError::Corrupt(format!(
                "{what} length {len} overflows"
            )));
        };
        if len.checked_mul(width).is_none_or(|b| b > self.remaining()) {
            return Err(StoreError::Corrupt(format!(
                "{what} claims {len} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    fn u32_array(&mut self, what: &str) -> Result<Vec<u32>, StoreError> {
        let len = self.len_of(4, what)?;
        (0..len).map(|_| self.u32(what)).collect()
    }

    fn u64_array(&mut self, what: &str) -> Result<Vec<u64>, StoreError> {
        let len = self.len_of(8, what)?;
        (0..len).map(|_| self.u64(what)).collect()
    }
}

/// Decodes one entry, re-establishing every structural invariant.
///
/// # Errors
///
/// [`StoreError::Corrupt`] naming the first gate the bytes failed:
/// truncation, bad magic, unsupported version, checksum mismatch, a
/// retired or unknown flag, a lying length prefix, a profile count that
/// disagrees with `max_index_bits`, trailing garbage, or a flat-parts
/// constructor rejection.
pub fn decode(bytes: &[u8]) -> Result<(ArtifactKey, TraceArtifacts), StoreError> {
    if bytes.len() < MIN_LEN {
        return Err(StoreError::Corrupt(format!(
            "entry is {} bytes; even an empty one needs {MIN_LEN}",
            bytes.len()
        )));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt(
            "bad magic (not a CDSEART1 entry)".into(),
        ));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("split_at leaves 8 bytes"));
    let mut h = Fnv1a::new();
    h.update(body);
    let computed = h.finish();
    if stored != computed {
        return Err(StoreError::Corrupt(format!(
            "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        )));
    }

    let mut c = Cursor::new(&body[MAGIC.len()..]);
    let version = c.u32("version")?;
    if version != VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported format version {version} (this build reads {VERSION})"
        )));
    }
    let digest = TraceDigest::from_raw(c.u64("digest")?);
    let max_index_bits = c.u32("max_index_bits")?;
    let flags = c.u32("flags")?;
    if flags & RETIRED_TREE_BIT != 0 {
        return Err(StoreError::Corrupt(
            "retired tree-bearing entry format (flag bit 0); rebuild it profiles-only".into(),
        ));
    }
    if flags & !FLAG_PROFILES_ONLY != 0 {
        return Err(StoreError::Corrupt(format!("unknown flag bits {flags:#x}")));
    }
    let address_bits = c.u32("address_bits")?;
    let stats = TraceStats {
        total: usize::try_from(c.u64("stats.total")?)
            .map_err(|_| StoreError::Corrupt("stats.total overflows usize".into()))?,
        unique: usize::try_from(c.u64("stats.unique")?)
            .map_err(|_| StoreError::Corrupt("stats.unique overflows usize".into()))?,
        max_misses: c.u64("stats.max_misses")?,
    };
    let engine = engine_of(c.u32("engine")?)?;

    let unique: Vec<Address> = c
        .u32_array("unique addresses")?
        .into_iter()
        .map(Address::new)
        .collect();
    let ids: Vec<RefId> = c
        .u32_array("id sequence")?
        .into_iter()
        .map(RefId::new)
        .collect();
    let stripped =
        StrippedTrace::from_parts(unique, ids, address_bits).map_err(StoreError::Corrupt)?;

    let profile_count = c.len_of(4 + 8 + 8 + 8, "profiles")?;
    // Every engine emits one profile per depth `2^0 ..= 2^max_index_bits`;
    // any other count would answer with a cut-short (or padded) frontier.
    let expected = u64::from(max_index_bits) + 1;
    if profile_count as u64 != expected {
        return Err(StoreError::Corrupt(format!(
            "{profile_count} profiles under max_index_bits {max_index_bits}, expected {expected}"
        )));
    }
    let mut profiles = Vec::with_capacity(profile_count);
    for i in 0..profile_count {
        let depth = c.u32("profile depth")?;
        let cold = c.u64("profile cold")?;
        let accesses = c.u64("profile accesses")?;
        let histogram = c.u64_array("profile histogram")?;
        if depth == 0 || !depth.is_power_of_two() {
            return Err(StoreError::Corrupt(format!(
                "profile {i} claims non-power-of-two depth {depth}"
            )));
        }
        profiles.push(DepthProfile::from_parts(depth, histogram, cold, accesses));
    }
    let exploration =
        Exploration::from_parts(profiles, stats, engine).map_err(StoreError::Corrupt)?;

    if c.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the last profile",
            c.remaining()
        )));
    }

    Ok((
        ArtifactKey {
            digest,
            max_index_bits,
        },
        TraceArtifacts {
            stripped,
            tree: None,
            exploration,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::generate;

    fn sample(engine: Engine) -> (ArtifactKey, TraceArtifacts) {
        let trace = generate::working_set_phases(2, 150, 32, 9);
        let key = ArtifactKey::of(&trace, trace.address_bits());
        let artifacts =
            TraceArtifacts::build_with(&trace, key.max_index_bits, engine, None).unwrap();
        (key, artifacts)
    }

    /// Byte offset of the `flags` field: magic + version + digest +
    /// max_index_bits.
    const FLAGS_AT: usize = MAGIC.len() + 4 + 8 + 4;

    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let mut h = Fnv1a::new();
        h.update(&bytes[..body_len]);
        let sum = h.finish().to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
    }

    #[test]
    fn every_engine_round_trips_as_a_profiles_only_entry() {
        for engine in [Engine::Streamed, Engine::DepthFirst] {
            let (key, artifacts) = sample(engine);
            let bytes = encode(&key, &artifacts);
            let flags = u32::from_le_bytes(bytes[FLAGS_AT..FLAGS_AT + 4].try_into().unwrap());
            assert_eq!(flags, FLAG_PROFILES_ONLY, "{engine}");
            let (decoded_key, decoded) = decode(&bytes).unwrap();
            assert_eq!(decoded_key, key);
            assert_eq!(decoded, artifacts, "{engine}");
            assert_eq!(decoded.exploration.engine(), engine);
        }
    }

    #[test]
    fn legacy_treeless_entries_without_the_flag_still_decode() {
        let (key, artifacts) = sample(Engine::default());
        let mut bytes = encode(&key, &artifacts);
        // Entries written before the profiles-only bit existed carry
        // flags = 0; clear the bit and re-seal to reproduce one.
        bytes[FLAGS_AT..FLAGS_AT + 4].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut bytes);
        let (decoded_key, decoded) = decode(&bytes).unwrap();
        assert_eq!(decoded_key, key);
        assert_eq!(decoded, artifacts);
    }

    /// Byte offset of the `engine` field: flags + address_bits + stats.
    const ENGINE_AT: usize = FLAGS_AT + 4 + 4 + 24;

    #[test]
    fn legacy_parallel_engine_tag_reads_as_depth_first() {
        let (key, artifacts) = sample(Engine::DepthFirst);
        let mut bytes = encode(&key, &artifacts);
        assert_eq!(
            u32::from_le_bytes(bytes[ENGINE_AT..ENGINE_AT + 4].try_into().unwrap()),
            0,
            "depth-first writes tag 0"
        );
        // Entries written while the parallel schedule was its own engine
        // carry tag 1; they must stay warm, not be quarantined.
        bytes[ENGINE_AT..ENGINE_AT + 4].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut bytes);
        let (decoded_key, decoded) = decode(&bytes).unwrap();
        assert_eq!(decoded_key, key);
        assert_eq!(decoded, artifacts);
        assert_eq!(decoded.exploration.engine(), Engine::DepthFirst);
    }

    /// Tag 2 named the retired tree-table engine. Such an entry is refused
    /// like any other unknown engine, so the disk store quarantines it and
    /// the next job rebuilds it.
    #[test]
    fn retired_tree_table_engine_tag_is_rejected() {
        let (key, artifacts) = sample(Engine::default());
        let mut bytes = encode(&key, &artifacts);
        bytes[ENGINE_AT..ENGINE_AT + 4].copy_from_slice(&2u32.to_le_bytes());
        reseal(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("unknown engine code 2")),
            "{err:?}"
        );
    }

    #[test]
    fn retired_tree_bit_and_unknown_flags_are_rejected() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        for (flags, named) in [
            (RETIRED_TREE_BIT, "retired tree-bearing"),
            (
                RETIRED_TREE_BIT | FLAG_PROFILES_ONLY,
                "retired tree-bearing",
            ),
            (1 << 2, "unknown flag bits"),
        ] {
            let mut bad = bytes.clone();
            bad[FLAGS_AT..FLAGS_AT + 4].copy_from_slice(&flags.to_le_bytes());
            reseal(&mut bad);
            let err = decode(&bad).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains(named)),
                "flags {flags:#x}: {err:?}"
            );
        }
    }

    /// An entry whose profiles were cut short (or padded) under an intact
    /// checksum would otherwise answer with a frontier missing depths.
    #[test]
    fn profile_count_must_match_max_index_bits() {
        let (key, artifacts) = sample(Engine::default());
        let profiles = artifacts.exploration.profiles();
        assert_eq!(profiles.len(), key.max_index_bits as usize + 1);
        let mut padded = profiles.to_vec();
        let deepest = profiles.last().unwrap();
        padded.push(DepthProfile::from_parts(
            deepest.depth() * 2,
            deepest.histogram().to_vec(),
            deepest.cold(),
            deepest.accesses(),
        ));
        for wrong in [profiles[..2].to_vec(), padded] {
            let count = wrong.len();
            let exploration = Exploration::from_parts(
                wrong,
                artifacts.exploration.stats(),
                artifacts.exploration.engine(),
            )
            .unwrap();
            let bytes = encode(
                &key,
                &TraceArtifacts {
                    stripped: artifacts.stripped.clone(),
                    tree: None,
                    exploration,
                },
            );
            let err = decode(&bytes).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("profiles under max_index_bits")),
                "{count} profiles: {err:?}"
            );
            assert!(matches!(
                crate::decode_validated(&key, &bytes),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn every_truncation_is_rejected_structurally() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        // Header, mid-array, and checksum-straddling truncations all
        // surface as Corrupt — never a panic, never a silent success.
        for cut in [0, 3, MIN_LEN - 1, MIN_LEN, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        // Flip one byte at a spread of offsets: the checksum (or, for
        // flips inside the checksum itself, the recomputation) fires.
        for at in (0..bytes.len()).step_by(bytes.len() / 37 + 1) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let err = decode(&bad).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "flip at {at}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_named() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode(&bad).unwrap_err().to_string().contains("magic"));
        // A future version with a valid checksum is still refused.
        let mut future = bytes;
        future[8] = 0xFF;
        reseal(&mut future);
        assert!(decode(&future).unwrap_err().to_string().contains("version"));
    }

    #[test]
    fn lying_length_prefix_is_rejected_before_allocating() {
        let (key, artifacts) = sample(Engine::default());
        let mut bytes = encode(&key, &artifacts);
        // The unique-address array length sits right after the fixed
        // header; claim 2^60 elements and re-seal the checksum.
        let len_at = ENGINE_AT + 4;
        bytes[len_at..len_at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        reseal(&mut bytes);
        let err = decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("elements"), "{err}");
    }
}
