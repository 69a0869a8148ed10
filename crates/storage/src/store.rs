//! On-disk share store with a measured fetch path.
//!
//! Figure 3 reports "Data Fetch Time" as a separate series: the time the
//! servers spend reading share columns off storage before computing. The
//! paper used MySQL; we persist each column as a checksummed binary file
//! ([`crate::codec`]) under `<root>/owner_<j>/<column>.col` and expose a
//! fetch API that reports wall time, so the benchmark can reproduce that
//! series faithfully.

use crate::codec::{decode_column, encode_column, CodecError};
use crate::table11::{SharedTable, AGG_COLUMNS};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Store-level errors.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// Corrupt or foreign column file.
    Codec(CodecError),
    /// Table failed its internal consistency check.
    Inconsistent(String),
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Inconsistent(msg) => write!(f, "inconsistent table: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A directory-backed share store for one server.
#[derive(Debug)]
pub struct ServerStore {
    root: PathBuf,
}

impl ServerStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ServerStore { root })
    }

    /// Directory for one owner's table.
    fn owner_dir(&self, owner: usize) -> PathBuf {
        self.root.join(format!("owner_{owner}"))
    }

    fn column_path(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{}.col", name.to_lowercase()))
    }

    fn write_column(dir: &Path, name: &str, values: &[u64]) -> Result<(), StoreError> {
        fs::write(Self::column_path(dir, name), encode_column(values))?;
        Ok(())
    }

    fn read_column(dir: &Path, name: &str) -> Result<Vec<u64>, StoreError> {
        Ok(decode_column(&fs::read(Self::column_path(dir, name))?)?)
    }

    fn column_exists(dir: &Path, name: &str) -> bool {
        Self::column_path(dir, name).exists()
    }

    /// Persist one owner's table (Phase 1 of the deployment).
    pub fn put(&self, owner: usize, table: &SharedTable) -> Result<(), StoreError> {
        table.check().map_err(StoreError::Inconsistent)?;
        let dir = self.owner_dir(owner);
        fs::create_dir_all(&dir)?;
        Self::write_column(&dir, "OK", &table.ok)?;
        if !table.v_ok.is_empty() {
            Self::write_column(&dir, "vOK", &table.v_ok)?;
        }
        if !table.a_ok.is_empty() {
            Self::write_column(&dir, "aOK", &table.a_ok)?;
        }
        for (i, col) in table.agg.iter().enumerate() {
            Self::write_column(&dir, AGG_COLUMNS[i], col)?;
        }
        for (i, col) in table.v_agg.iter().enumerate() {
            Self::write_column(&dir, &format!("v{}", AGG_COLUMNS[i]), col)?;
        }
        Ok(())
    }

    /// Load one owner's full table, reporting the fetch wall time.
    pub fn fetch(&self, owner: usize) -> Result<(SharedTable, Duration), StoreError> {
        let t0 = Instant::now();
        let dir = self.owner_dir(owner);
        let ok = Self::read_column(&dir, "OK")?;
        let v_ok = if Self::column_exists(&dir, "vOK") {
            Self::read_column(&dir, "vOK")?
        } else {
            Vec::new()
        };
        let a_ok = if Self::column_exists(&dir, "aOK") {
            Self::read_column(&dir, "aOK")?
        } else {
            Vec::new()
        };
        let mut agg = Vec::new();
        let mut v_agg = Vec::new();
        for name in AGG_COLUMNS {
            if Self::column_exists(&dir, name) {
                agg.push(Self::read_column(&dir, name)?);
            }
            let vname = format!("v{name}");
            if Self::column_exists(&dir, &vname) {
                v_agg.push(Self::read_column(&dir, &vname)?);
            }
        }
        let table = SharedTable {
            ok,
            agg,
            v_ok,
            v_agg,
            a_ok,
        };
        table.check().map_err(StoreError::Inconsistent)?;
        Ok((table, t0.elapsed()))
    }

    /// Fetch only the OK column (the PSI/PSU hot path), timed.
    pub fn fetch_ok(&self, owner: usize) -> Result<(Vec<u64>, Duration), StoreError> {
        let t0 = Instant::now();
        let col = Self::read_column(&self.owner_dir(owner), "OK")?;
        Ok((col, t0.elapsed()))
    }

    /// Total bytes on disk under this store.
    pub fn disk_bytes(&self) -> Result<u64, StoreError> {
        fn walk(dir: &Path) -> io::Result<u64> {
            let mut total = 0;
            for entry in fs::read_dir(dir)? {
                let entry = entry?;
                let meta = entry.metadata()?;
                if meta.is_dir() {
                    total += walk(&entry.path())?;
                } else {
                    total += meta.len();
                }
            }
            Ok(total)
        }
        Ok(walk(&self.root)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prism_store_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_table(b: usize, attrs: usize) -> SharedTable {
        SharedTable {
            ok: (0..b as u64).collect(),
            agg: (0..attrs).map(|a| vec![a as u64 + 10; b]).collect(),
            v_ok: vec![7; b],
            v_agg: (0..attrs).map(|a| vec![a as u64 + 20; b]).collect(),
            a_ok: vec![1; b],
        }
    }

    #[test]
    fn put_fetch_roundtrip() {
        let store = ServerStore::open(tmpdir("roundtrip")).unwrap();
        let t = sample_table(100, 4);
        store.put(0, &t).unwrap();
        let (loaded, elapsed) = store.fetch(0).unwrap();
        assert_eq!(loaded, t);
        assert!(elapsed > Duration::ZERO);
    }

    #[test]
    fn fetch_ok_only() {
        let store = ServerStore::open(tmpdir("okonly")).unwrap();
        let t = sample_table(64, 2);
        store.put(3, &t).unwrap();
        let (ok, _) = store.fetch_ok(3).unwrap();
        assert_eq!(ok, t.ok);
    }

    #[test]
    fn missing_owner_errors() {
        let store = ServerStore::open(tmpdir("missing")).unwrap();
        assert!(store.fetch(9).is_err());
    }

    #[test]
    fn inconsistent_table_rejected_on_put() {
        let store = ServerStore::open(tmpdir("badput")).unwrap();
        let mut t = sample_table(10, 1);
        t.v_ok = vec![0; 9];
        assert!(matches!(
            store.put(0, &t).unwrap_err(),
            StoreError::Inconsistent(_)
        ));
    }

    #[test]
    fn corrupted_file_detected_on_fetch() {
        let root = tmpdir("corrupt");
        let store = ServerStore::open(&root).unwrap();
        store.put(0, &sample_table(32, 0)).unwrap();
        // Flip a byte in the OK column body.
        let path = root.join("owner_0").join("ok.col");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(store.fetch(0).unwrap_err(), StoreError::Codec(_)));
    }

    #[test]
    fn disk_bytes_grows_with_data() {
        let store = ServerStore::open(tmpdir("bytes")).unwrap();
        store.put(0, &sample_table(16, 0)).unwrap();
        let small = store.disk_bytes().unwrap();
        store.put(1, &sample_table(4096, 4)).unwrap();
        let big = store.disk_bytes().unwrap();
        assert!(big > small);
    }

    #[test]
    fn partial_tables_roundtrip() {
        // PSI-only deployments store just OK.
        let store = ServerStore::open(tmpdir("partial")).unwrap();
        let t = SharedTable {
            ok: vec![1, 2, 3],
            ..Default::default()
        };
        store.put(0, &t).unwrap();
        let (loaded, _) = store.fetch(0).unwrap();
        assert_eq!(loaded, t);
        assert_eq!(loaded.attributes(), 0);
    }
}
