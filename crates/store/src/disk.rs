//! The disk store tier: one checksummed file per artifact key.
//!
//! Entries live at `<dir>/<digest:016x>-<bits>.cdse`; the filename *is*
//! the key, so a restarted node re-indexes the directory with one
//! `read_dir` and no decoding — entries are decoded (and validated)
//! lazily on first load. Writes go through a `.tmp` sibling and an
//! atomic rename, so a crash mid-save leaves either the old entry or no
//! entry, never a torn one; whatever torn state an unclean shutdown
//! *does* leave (a stray `.tmp`, a half-written file from a previous
//! format) is rejected by the codec's gates and quarantined to `.bad` so
//! the next save can rebuild cleanly.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use cachedse_sync::Mutex;
use cachedse_trace::digest::TraceDigest;

use crate::{codec, decode_validated, ArtifactKey, ArtifactStore, StoreError, TraceArtifacts};

/// File extension of a live entry.
const EXT: &str = "cdse";

/// An [`ArtifactStore`] persisting entries under a directory.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    /// Key → encoded length on disk, maintained so byte accounting and
    /// digest scans never touch the filesystem.
    index: Mutex<HashMap<ArtifactKey, u64>>,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `dir` and indexes
    /// the entries already there — the warm-start path of a restarted
    /// node.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created or read.
    /// Files whose names don't parse as keys are ignored, not errors:
    /// the store shares its directory gracefully.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Io(format!("creating {}: {e}", dir.display())))?;
        let mut index = HashMap::new();
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| StoreError::Io(format!("reading {}: {e}", dir.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io(format!("scanning store: {e}")))?;
            let path = entry.path();
            if let Some(key) = key_of_path(&path) {
                let len = entry
                    .metadata()
                    .map_err(|e| StoreError::Io(format!("stat {}: {e}", path.display())))?
                    .len();
                index.insert(key, len);
            }
        }
        Ok(Self {
            dir,
            index: Mutex::new(index),
        })
    }

    /// The directory this store persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of entries currently indexed.
    ///
    /// # Panics
    ///
    /// Panics if the index lock was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.lock().len()
    }

    /// `true` when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The on-disk path of `key`'s entry.
    #[must_use]
    pub fn path_of(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(format!("{key}.{EXT}"))
    }

    /// Moves a failed entry aside to `<name>.bad` (best-effort) and
    /// forgets it, so the caller's rebuild finds a clean slot and the
    /// operator can post-mortem the bytes.
    fn quarantine(&self, key: &ArtifactKey) {
        let path = self.path_of(key);
        let bad = path.with_extension("bad");
        let _ = std::fs::rename(&path, &bad);
        self.index.lock().remove(key);
    }
}

/// Parses `<digest:016x>-<bits>.cdse` back into a key.
fn key_of_path(path: &Path) -> Option<ArtifactKey> {
    if path.extension()?.to_str()? != EXT {
        return None;
    }
    let stem = path.file_stem()?.to_str()?;
    let (digest_hex, bits) = stem.split_once('-')?;
    if digest_hex.len() != 16 {
        return None;
    }
    Some(ArtifactKey {
        digest: TraceDigest::from_raw(u64::from_str_radix(digest_hex, 16).ok()?),
        max_index_bits: bits.parse().ok()?,
    })
}

impl ArtifactStore for DiskStore {
    fn load(&self, key: &ArtifactKey) -> Result<Option<TraceArtifacts>, StoreError> {
        let path = self.path_of(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(format!("reading {}: {e}", path.display()))),
        };
        match decode_validated(key, &bytes) {
            Ok(artifacts) => Ok(Some(artifacts)),
            Err(e) => {
                self.quarantine(key);
                Err(e)
            }
        }
    }

    fn save(&self, key: &ArtifactKey, artifacts: &TraceArtifacts) -> Result<(), StoreError> {
        let bytes = codec::encode(key, artifacts);
        let path = self.path_of(key);
        let tmp = path.with_extension("tmp");
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, &path)
        };
        write().map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            StoreError::Io(format!("writing {}: {e}", path.display()))
        })?;
        self.index.lock().insert(*key, bytes.len() as u64);
        Ok(())
    }

    fn remove(&self, key: &ArtifactKey) -> Result<(), StoreError> {
        let path = self.path_of(key);
        if let Err(e) = std::fs::remove_file(&path) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(StoreError::Io(format!("removing {}: {e}", path.display())));
            }
        }
        self.index.lock().remove(key);
        Ok(())
    }

    fn keys_for(&self, digest: TraceDigest) -> Vec<ArtifactKey> {
        self.index
            .lock()
            .keys()
            .filter(|k| k.digest == digest)
            .copied()
            .collect()
    }

    fn stored_bytes(&self) -> u64 {
        self.index.lock().values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::generate;

    fn sample(seed: u64) -> (ArtifactKey, TraceArtifacts) {
        let trace = generate::working_set_phases(2, 120, 32, seed);
        let key = ArtifactKey::of(&trace, trace.address_bits());
        let artifacts = TraceArtifacts::build(&trace, key.max_index_bits).unwrap();
        (key, artifacts)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cachedse-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn restart_reindexes_and_serves() {
        let dir = tmp_dir("restart");
        let (key, artifacts) = sample(1);
        {
            let store = DiskStore::open(&dir).unwrap();
            store.save(&key, &artifacts).unwrap();
            assert_eq!(store.len(), 1);
        }
        // A "restarted node": a fresh DiskStore over the same directory.
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.keys_for(key.digest), vec![key]);
        assert_eq!(store.load(&key).unwrap().unwrap(), artifacts);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_quarantined_and_rebuilt() {
        let dir = tmp_dir("quarantine");
        let store = DiskStore::open(&dir).unwrap();
        let (key, artifacts) = sample(2);
        store.save(&key, &artifacts).unwrap();
        // Torn write: chop the file mid-array.
        let path = store.path_of(&key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        assert!(path.with_extension("bad").exists());
        assert_eq!(store.load(&key).unwrap(), None);
        // The rebuild path: save again, load cleanly.
        store.save(&key, &artifacts).unwrap();
        assert_eq!(store.load(&key).unwrap().unwrap(), artifacts);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_ignored() {
        let dir = tmp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), b"not an entry").unwrap();
        std::fs::write(dir.join("0123-x.cdse"), b"short digest").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filename_round_trips_the_key() {
        let dir = tmp_dir("names");
        let store = DiskStore::open(&dir).unwrap();
        let (key, _) = sample(3);
        assert_eq!(key_of_path(&store.path_of(&key)), Some(key));
        // The file stem is the key's `Display`, digest zero-padded.
        for (raw, bits, name) in [
            (0xf301_cd62_042b_c445, 11, "f301cd62042bc445-11.cdse"),
            (0xab, 3, "00000000000000ab-3.cdse"),
        ] {
            let key = ArtifactKey {
                digest: TraceDigest::from_raw(raw),
                max_index_bits: bits,
            };
            assert_eq!(key.to_string() + ".cdse", name);
            assert_eq!(store.path_of(&key).file_name().unwrap(), name);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
