//! A minimal self-cleaning temporary directory.
//!
//! The workspace builds offline (no `tempfile` crate), and the crash tests,
//! benches, and examples all need throwaway log directories that never leak
//! into CI — `scripts/check.sh` asserts that no `sl-durable-*` directory
//! survives a test run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{env, fs, io, process};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory under the system temp root, removed (recursively) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `$TMPDIR/sl-durable-<tag>-<pid>-<n>`, fresh and empty.
    pub fn new(tag: &str) -> io::Result<TempDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = env::temp_dir().join(format!("sl-durable-{tag}-{}-{n}", process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best-effort: a failed cleanup is caught by the check.sh gate, not
        // by panicking in a destructor.
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {

    use super::*;

    #[test]
    fn creates_unique_dirs_and_cleans_up() {
        let a = TempDir::new("unit").unwrap();
        let b = TempDir::new("unit").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        let kept = a.path().to_path_buf();
        fs::write(kept.join("x"), b"y").unwrap();
        drop(a);
        assert!(!kept.exists(), "drop removes the tree");
        assert!(b.path().is_dir());
    }
}
