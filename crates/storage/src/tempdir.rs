//! The workspace's one scratch-directory guard for tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it when dropped, also when the test holding it
/// panics. It derefs to its [`Path`].
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// `<temp>/somm-<tag>-<pid>-<n>`, `n` counting the guards this
    /// process has made, so that concurrent tests never share one.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("somm-{tag}-{}-{n}", std::process::id()));
        // A process that died under the same pid may have left one.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::TempDir;

    #[test]
    fn each_guard_is_fresh_and_removed_when_dropped() {
        let (a, b) = (TempDir::new("guard"), TempDir::new("guard"));
        assert_ne!(a.to_path_buf(), b.to_path_buf());
        std::fs::write(a.join("f"), b"x").unwrap();
        let kept = a.to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.read_dir().unwrap().next().is_none());
    }

    #[test]
    fn a_panicking_test_still_removes_its_dir() {
        let made = std::thread::spawn(|| {
            let dir = TempDir::new("guard-panic");
            std::fs::write(dir.join("f"), b"x").unwrap();
            std::panic::panic_any(dir.to_path_buf());
        })
        .join()
        .unwrap_err();
        let path = made.downcast::<std::path::PathBuf>().unwrap();
        assert!(!path.exists(), "{path:?} outlived its panicking test");
    }
}
