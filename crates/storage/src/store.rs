//! Stable-storage backends.
//!
//! A [`StableStorage`] persists encoded checkpoint chunks and manifests
//! keyed by `(rank, generation)`. Two backends are provided:
//! [`MemStore`] (checkpointing to remote memory, as in Plank's Diskless
//! checkpointing which the paper surveys) and [`FileStore`] (a
//! directory of chunk files, the classic disk path).

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{ErrorKind, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Key of a stored chunk: owning rank and checkpoint generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkKey {
    /// Owning rank.
    pub rank: u32,
    /// Checkpoint generation.
    pub generation: u64,
}

impl ChunkKey {
    /// Construct a key.
    pub fn new(rank: u32, generation: u64) -> Self {
        Self { rank, generation }
    }
}

impl fmt::Display for ChunkKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{:04}_g{:08}", self.rank, self.generation)
    }
}

/// Storage errors.
#[derive(Debug)]
pub enum StorageError {
    /// Requested key does not exist.
    NotFound(ChunkKey),
    /// Requested manifest generation does not exist.
    ManifestNotFound(u64),
    /// Data failed validation.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(k) => write!(f, "chunk {k} not found"),
            StorageError::ManifestNotFound(g) => write!(f, "manifest for generation {g} not found"),
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// An encoded chunk shared read-only by reference count: cloning it or
/// handing it to another reader copies no bytes. Dereferences to the
/// chunk's bytes.
#[derive(Debug, Clone)]
pub struct ChunkBuf(Arc<Vec<u8>>);

impl ChunkBuf {
    /// The bytes as an owned `Vec`: moved out when this is the only
    /// reference, copied when the buffer is still shared.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| shared.to_vec())
    }

    /// Whether `self` and `other` are one allocation.
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &ChunkBuf) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<Vec<u8>> for ChunkBuf {
    /// Wraps the `Vec` as it is; the bytes are not copied.
    fn from(data: Vec<u8>) -> Self {
        Self(Arc::new(data))
    }
}

impl Deref for ChunkBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Stable storage for checkpoint chunks and manifests.
///
/// Implementations must be safe to share across rank threads.
pub trait StableStorage: Send + Sync {
    /// Persist an encoded chunk (overwrites an existing key). A store
    /// that holds its chunks in memory keeps `data` itself, so every
    /// tier handed the same buffer shares one allocation.
    fn store_chunk(&self, key: ChunkKey, data: ChunkBuf) -> Result<(), StorageError>;

    /// Persist a copy of `data`; otherwise the same as
    /// [`StableStorage::store_chunk`].
    fn put_chunk(&self, key: ChunkKey, data: &[u8]) -> Result<(), StorageError> {
        self.store_chunk(key, ChunkBuf::from(data.to_vec()))
    }

    /// Fetch an encoded chunk for reading only. A store that holds its
    /// chunks in memory hands out a reference instead of a copy. A
    /// later `put_chunk` of the same key replaces the stored buffer and
    /// leaves the ones readers still hold untouched.
    fn read_chunk(&self, key: ChunkKey) -> Result<ChunkBuf, StorageError>;

    /// Fetch an encoded chunk as an owned `Vec`. Same bytes, errors,
    /// charges and events as [`StableStorage::read_chunk`]; the bytes
    /// are copied only when the buffer is still shared.
    fn get_chunk(&self, key: ChunkKey) -> Result<Vec<u8>, StorageError> {
        self.read_chunk(key).map(ChunkBuf::into_vec)
    }

    /// Delete a chunk (no-op if missing).
    fn delete_chunk(&self, key: ChunkKey) -> Result<(), StorageError>;

    /// All generations stored for `rank`, ascending.
    fn list_generations(&self, rank: u32) -> Result<Vec<u64>, StorageError>;

    /// Persist an encoded manifest for a generation.
    fn put_manifest(&self, generation: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Fetch an encoded manifest.
    fn get_manifest(&self, generation: u64) -> Result<Vec<u8>, StorageError>;

    /// All committed manifest generations, ascending.
    fn list_manifests(&self) -> Result<Vec<u64>, StorageError>;

    /// Delete a manifest (no-op if missing).
    fn delete_manifest(&self, generation: u64) -> Result<(), StorageError>;
}

/// In-memory stable storage (models checkpointing to a remote memory
/// server / diskless checkpointing).
#[derive(Default)]
pub struct MemStore {
    chunks: RwLock<BTreeMap<ChunkKey, ChunkBuf>>,
    manifests: RwLock<BTreeMap<u64, Vec<u8>>>,
}

impl MemStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes held.
    #[cfg(test)]
    pub(crate) fn total_bytes(&self) -> u64 {
        self.chunks.read().values().map(|v| v.len() as u64).sum::<u64>()
            + self.manifests.read().values().map(|v| v.len() as u64).sum::<u64>()
    }
}

impl StableStorage for MemStore {
    fn store_chunk(&self, key: ChunkKey, data: ChunkBuf) -> Result<(), StorageError> {
        self.chunks.write().insert(key, data);
        Ok(())
    }

    fn read_chunk(&self, key: ChunkKey) -> Result<ChunkBuf, StorageError> {
        self.chunks.read().get(&key).cloned().ok_or(StorageError::NotFound(key))
    }

    fn delete_chunk(&self, key: ChunkKey) -> Result<(), StorageError> {
        self.chunks.write().remove(&key);
        Ok(())
    }

    fn list_generations(&self, rank: u32) -> Result<Vec<u64>, StorageError> {
        Ok(self.chunks.read().keys().filter(|k| k.rank == rank).map(|k| k.generation).collect())
    }

    fn put_manifest(&self, generation: u64, data: &[u8]) -> Result<(), StorageError> {
        self.manifests.write().insert(generation, data.to_vec());
        Ok(())
    }

    fn get_manifest(&self, generation: u64) -> Result<Vec<u8>, StorageError> {
        self.manifests
            .read()
            .get(&generation)
            .cloned()
            .ok_or(StorageError::ManifestNotFound(generation))
    }

    fn list_manifests(&self) -> Result<Vec<u64>, StorageError> {
        Ok(self.manifests.read().keys().copied().collect())
    }

    fn delete_manifest(&self, generation: u64) -> Result<(), StorageError> {
        self.manifests.write().remove(&generation);
        Ok(())
    }
}

/// Filesystem-backed stable storage: one file per chunk/manifest in a
/// directory.
pub struct FileStore {
    dir: PathBuf,
}

impl FileStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(Self { dir: dir.as_ref().to_path_buf() })
    }

    fn chunk_path(&self, key: ChunkKey) -> PathBuf {
        self.dir.join(format!("{key}.ckpt"))
    }

    fn manifest_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("manifest_g{generation:08}.mf"))
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> Result<(), StorageError> {
        // Write-then-rename so a crash mid-write never leaves a torn
        // chunk under the final name — stable storage must be stable.
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// Read the file at `path`. Only a missing file is `missing`; any other
/// failure (permissions, a symlink loop, a read error) is
/// [`StorageError::Io`], so a reader never mistakes a faulty store for
/// an absent chunk.
fn read_file(path: &Path, missing: StorageError) -> Result<Vec<u8>, StorageError> {
    fs::read(path).map_err(|e| match e.kind() {
        ErrorKind::NotFound => missing,
        _ => StorageError::Io(e),
    })
}

/// Remove the file at `path`. A missing file is already deleted; any
/// other failure is [`StorageError::Io`], so a rollback never reports
/// success over a file it could not remove.
fn remove_file(path: &Path) -> Result<(), StorageError> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != ErrorKind::NotFound => Err(StorageError::Io(e)),
        _ => Ok(()),
    }
}

impl StableStorage for FileStore {
    fn store_chunk(&self, key: ChunkKey, data: ChunkBuf) -> Result<(), StorageError> {
        self.put_chunk(key, &data)
    }

    // Files take the bytes as they are: no owned copy first.
    fn put_chunk(&self, key: ChunkKey, data: &[u8]) -> Result<(), StorageError> {
        self.write_atomic(&self.chunk_path(key), data)
    }

    fn read_chunk(&self, key: ChunkKey) -> Result<ChunkBuf, StorageError> {
        read_file(&self.chunk_path(key), StorageError::NotFound(key)).map(ChunkBuf::from)
    }

    fn delete_chunk(&self, key: ChunkKey) -> Result<(), StorageError> {
        remove_file(&self.chunk_path(key))
    }

    fn list_generations(&self, rank: u32) -> Result<Vec<u64>, StorageError> {
        let prefix = format!("r{rank:04}_g");
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Some(gen_str) = rest.strip_suffix(".ckpt") {
                    if let Ok(g) = gen_str.parse::<u64>() {
                        gens.push(g);
                    }
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    fn put_manifest(&self, generation: u64, data: &[u8]) -> Result<(), StorageError> {
        self.write_atomic(&self.manifest_path(generation), data)
    }

    fn get_manifest(&self, generation: u64) -> Result<Vec<u8>, StorageError> {
        read_file(&self.manifest_path(generation), StorageError::ManifestNotFound(generation))
    }

    fn list_manifests(&self) -> Result<Vec<u64>, StorageError> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(rest) = name.strip_prefix("manifest_g") {
                if let Some(gen_str) = rest.strip_suffix(".mf") {
                    if let Ok(g) = gen_str.parse::<u64>() {
                        gens.push(g);
                    }
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    fn delete_manifest(&self, generation: u64) -> Result<(), StorageError> {
        remove_file(&self.manifest_path(generation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn StableStorage) {
        let k = ChunkKey::new(2, 5);
        assert!(store.get_chunk(k).is_err());
        store.put_chunk(k, b"hello").unwrap();
        assert_eq!(store.get_chunk(k).unwrap(), b"hello");
        // Overwrite is allowed (re-checkpoint after retry).
        store.put_chunk(k, b"world").unwrap();
        assert_eq!(store.get_chunk(k).unwrap(), b"world");

        store.put_chunk(ChunkKey::new(2, 7), b"x").unwrap();
        store.put_chunk(ChunkKey::new(3, 6), b"y").unwrap();
        assert_eq!(store.list_generations(2).unwrap(), vec![5, 7]);
        assert_eq!(store.list_generations(3).unwrap(), vec![6]);
        assert!(store.list_generations(9).unwrap().is_empty());

        store.delete_chunk(k).unwrap();
        assert!(store.get_chunk(k).is_err());
        store.delete_chunk(k).unwrap(); // idempotent

        assert!(store.get_manifest(1).is_err());
        store.put_manifest(1, b"m1").unwrap();
        store.put_manifest(3, b"m3").unwrap();
        assert_eq!(store.get_manifest(1).unwrap(), b"m1");
        assert_eq!(store.list_manifests().unwrap(), vec![1, 3]);
        store.delete_manifest(1).unwrap();
        assert_eq!(store.list_manifests().unwrap(), vec![3]);
    }

    #[test]
    fn memstore_contract() {
        let s = MemStore::new();
        exercise(&s);
        assert!(s.total_bytes() > 0);
    }

    #[test]
    fn filestore_contract() {
        let dir = std::env::temp_dir().join(format!("ickpt_store_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileStore::open(&dir).unwrap();
        exercise(&s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filestore_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("ickpt_store_reopen_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let s = FileStore::open(&dir).unwrap();
            s.put_chunk(ChunkKey::new(0, 1), b"persist me").unwrap();
            s.put_manifest(1, b"mf").unwrap();
        }
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.get_chunk(ChunkKey::new(0, 1)).unwrap(), b"persist me");
        assert_eq!(s.get_manifest(1).unwrap(), b"mf");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filestore_ignores_leftover_tmp_files_on_reopen() {
        // A crash between `File::create(tmp)` and `rename` leaves a
        // `*.tmp` behind. On reopen that garbage must be invisible: it
        // must not shadow the committed generation it was replacing,
        // must not surface as a phantom generation of its own, and a
        // retried put must still commit atomically over it.
        let dir = std::env::temp_dir().join(format!("ickpt_store_crash_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let committed = ChunkKey::new(0, 5);
        {
            let s = FileStore::open(&dir).unwrap();
            s.put_chunk(committed, b"committed bytes").unwrap();
            s.put_manifest(5, b"mf5").unwrap();
        }
        // Interrupted overwrite of the committed generation, an
        // interrupted write of a never-committed generation 6, and an
        // interrupted manifest — exactly the paths write_atomic uses.
        fs::write(dir.join(format!("{committed}.tmp")), b"torn garbage").unwrap();
        fs::write(dir.join(format!("{}.tmp", ChunkKey::new(0, 6))), b"torn").unwrap();
        fs::write(dir.join("manifest_g00000006.tmp"), b"torn").unwrap();

        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.get_chunk(committed).unwrap(), b"committed bytes", "tmp must not shadow");
        assert_eq!(s.list_generations(0).unwrap(), vec![5], "no phantom generation 6");
        assert_eq!(s.list_manifests().unwrap(), vec![5]);
        assert!(s.get_chunk(ChunkKey::new(0, 6)).is_err());
        assert!(s.get_manifest(6).is_err());

        // A retried put replaces both the stale tmp and the old data.
        s.put_chunk(committed, b"retried").unwrap();
        assert_eq!(s.get_chunk(committed).unwrap(), b"retried");
        assert!(!dir.join(format!("{committed}.tmp")).exists(), "retry consumed the tmp");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn filestore_open_failures_other_than_absence_are_io_errors() {
        // A symlink to itself makes every open fail with ELOOP: the
        // file is there but unreadable, which is not "not found".
        let dir = std::env::temp_dir().join(format!("ickpt_store_eloop_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileStore::open(&dir).unwrap();
        let key = ChunkKey::new(0, 3);
        for path in [s.chunk_path(key), s.manifest_path(3)] {
            std::os::unix::fs::symlink(&path, &path).unwrap();
        }
        assert!(matches!(s.get_chunk(key), Err(StorageError::Io(_))));
        assert!(matches!(s.read_chunk(key), Err(StorageError::Io(_))));
        assert!(matches!(s.get_manifest(3), Err(StorageError::Io(_))));
        // Absence is still reported as such.
        assert!(matches!(s.get_chunk(ChunkKey::new(0, 4)), Err(StorageError::NotFound(_))));
        assert!(matches!(s.get_manifest(4), Err(StorageError::ManifestNotFound(4))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filestore_delete_failures_other_than_absence_are_io_errors() {
        // A directory where the file should be cannot be unlinked as
        // one (without relying on permission bits, which root ignores).
        let dir = std::env::temp_dir().join(format!("ickpt_store_rm_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileStore::open(&dir).unwrap();
        let key = ChunkKey::new(0, 3);
        for path in [s.chunk_path(key), s.manifest_path(3)] {
            fs::create_dir(&path).unwrap();
        }
        assert!(matches!(s.delete_chunk(key), Err(StorageError::Io(_))));
        assert!(matches!(s.delete_manifest(3), Err(StorageError::Io(_))));
        assert!(s.chunk_path(key).is_dir() && s.manifest_path(3).is_dir());
        // Deleting what is absent still succeeds.
        s.delete_chunk(ChunkKey::new(0, 4)).unwrap();
        s.delete_manifest(4).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memstore_is_shareable_across_threads() {
        let s = std::sync::Arc::new(MemStore::new());
        let mut handles = Vec::new();
        for rank in 0..8u32 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for g in 0..20u64 {
                    s.put_chunk(ChunkKey::new(rank, g), &rank.to_le_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for rank in 0..8u32 {
            assert_eq!(s.list_generations(rank).unwrap().len(), 20);
        }
    }
}
