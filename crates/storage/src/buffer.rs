//! Byte-budgeted LRU buffer pool over paged files.
//!
//! Every read of a persistent column goes through [`BufferPool::get_page`].
//! The pool tracks hits/misses/evictions and the bytes read from disk,
//! which the experiment harness reports alongside wall-clock times.
//! A miss is a real read of the page from its file; the pool adds no
//! latency of its own.

use crate::error::{Result, StorageError};
use crate::page::{page_offset, FileId, PageBuf, PageKey, PAGE_SIZE};
use crate::sync::unpoison;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct BufferPoolConfig {
    /// Maximum bytes of page data kept resident.
    pub capacity_bytes: usize,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        BufferPoolConfig { capacity_bytes: 256 * 1024 * 1024 }
    }
}

/// Counters exposed by the pool.
#[derive(Debug, Default)]
pub struct PoolStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub bytes_read: AtomicU64,
}

/// A point-in-time copy of [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes_read: u64,
}

impl PoolStats {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

/// Registry of open files, shared by the pool and the column writers.
#[derive(Debug, Default)]
pub struct DiskManager {
    next_id: AtomicU64,
    by_path: RwLock<HashMap<PathBuf, FileId>>,
    files: RwLock<HashMap<FileId, Arc<Mutex<File>>>>,
}

impl DiskManager {
    /// Create an empty manager.
    pub fn new() -> Self {
        DiskManager::default()
    }

    /// Register (or re-open) `path`, returning its stable id.
    pub fn register(&self, path: &Path) -> Result<FileId> {
        if let Some(&id) = unpoison(self.by_path.read()).get(path) {
            return Ok(id);
        }
        let file = File::open(path)
            .map_err(|e| StorageError::io(format!("opening {}", path.display()), e))?;
        let id = FileId(self.next_id.fetch_add(1, Ordering::Relaxed));
        unpoison(self.by_path.write()).insert(path.to_path_buf(), id);
        unpoison(self.files.write()).insert(id, Arc::new(Mutex::new(file)));
        Ok(id)
    }

    /// Forget a file (e.g. after it has been rewritten); the id becomes
    /// invalid and subsequent `register` calls get a new one.
    pub fn forget(&self, path: &Path) -> Option<FileId> {
        let id = unpoison(self.by_path.write()).remove(path)?;
        unpoison(self.files.write()).remove(&id);
        Some(id)
    }

    /// Read up to `buf.len()` bytes at `offset`; returns bytes read
    /// (short at end-of-file).
    pub fn read_at(&self, id: FileId, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let file = unpoison(self.files.read())
            .get(&id)
            .cloned()
            .ok_or_else(|| StorageError::Corrupt(format!("unknown file id {id:?}")))?;
        let mut guard = unpoison(file.lock());
        guard.seek(SeekFrom::Start(offset)).map_err(|e| StorageError::io("seek", e))?;
        let mut total = 0;
        while total < buf.len() {
            let n = guard.read(&mut buf[total..]).map_err(|e| StorageError::io("read", e))?;
            if n == 0 {
                break;
            }
            total += n;
        }
        Ok(total)
    }
}

/// LRU state guarded by one mutex: resident pages plus recency order.
#[derive(Default)]
struct LruState {
    pages: HashMap<PageKey, (Arc<PageBuf>, u64)>,
    order: BTreeMap<u64, PageKey>,
    tick: u64,
    resident_bytes: usize,
}

/// The buffer pool.
pub struct BufferPool {
    disk: DiskManager,
    state: Mutex<LruState>,
    config: BufferPoolConfig,
    stats: PoolStats,
}

impl BufferPool {
    /// Create a pool with the given configuration.
    pub fn new(config: BufferPoolConfig) -> Self {
        BufferPool {
            disk: DiskManager::new(),
            state: Mutex::new(LruState::default()),
            config,
            stats: PoolStats::default(),
        }
    }

    /// The disk manager (used by writers to register files).
    pub fn disk(&self) -> &DiskManager {
        &self.disk
    }

    /// Live statistics counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Fetch a page, from the pool if resident, else from disk.
    pub fn get_page(&self, key: PageKey) -> Result<Arc<PageBuf>> {
        {
            let mut st = unpoison(self.state.lock());
            if let Some((page, old_tick)) =
                st.pages.get(&key).map(|(p, t)| (Arc::clone(p), *t))
            {
                st.order.remove(&old_tick);
                st.tick += 1;
                let tick = st.tick;
                st.order.insert(tick, key);
                if let Some(entry) = st.pages.get_mut(&key) {
                    entry.1 = tick;
                }
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(page);
            }
        }
        // Miss: read outside the lock, then insert.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let mut data = vec![0u8; PAGE_SIZE].into_boxed_slice();
        let valid = self.disk.read_at(key.file, page_offset(key.page_no), &mut data)?;
        self.stats.bytes_read.fetch_add(valid as u64, Ordering::Relaxed);
        let page = Arc::new(PageBuf { data, valid });
        let mut st = unpoison(self.state.lock());
        if st.pages.contains_key(&key) {
            // Raced with another reader; keep the existing copy.
            return Ok(Arc::clone(&st.pages[&key].0));
        }
        st.tick += 1;
        let tick = st.tick;
        st.pages.insert(key, (Arc::clone(&page), tick));
        st.order.insert(tick, key);
        st.resident_bytes += PAGE_SIZE;
        while st.resident_bytes > self.config.capacity_bytes && st.pages.len() > 1 {
            let (&oldest, &victim) = match st.order.iter().next() {
                Some(kv) => kv,
                None => break,
            };
            if victim == key {
                // Never evict the page we are about to return.
                let next = st.order.range((oldest + 1)..).next().map(|(t, k)| (*t, *k));
                match next {
                    Some((t, k)) => {
                        st.order.remove(&t);
                        st.pages.remove(&k);
                        st.resident_bytes -= PAGE_SIZE;
                        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    None => break,
                }
            }
            st.order.remove(&oldest);
            st.pages.remove(&victim);
            st.resident_bytes -= PAGE_SIZE;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(page)
    }

    /// Drop every page belonging to `file` (e.g. after the file grew).
    pub fn invalidate_file(&self, file: FileId) {
        let mut st = unpoison(self.state.lock());
        let victims: Vec<(u64, PageKey)> = st
            .pages
            .iter()
            .filter(|(k, _)| k.file == file)
            .map(|(k, (_, t))| (*t, *k))
            .collect();
        for (t, k) in victims {
            st.order.remove(&t);
            st.pages.remove(&k);
            st.resident_bytes -= PAGE_SIZE;
        }
    }

    /// Drop all resident pages ("cold" run simulation).
    pub fn clear(&self) {
        let mut st = unpoison(self.state.lock());
        st.pages.clear();
        st.order.clear();
        st.resident_bytes = 0;
    }

    /// Bytes of page data currently resident.
    pub fn resident_bytes(&self) -> usize {
        unpoison(self.state.lock()).resident_bytes
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity_bytes", &self.config.capacity_bytes)
            .field("resident_bytes", &self.resident_bytes())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::DATA_START;
    use crate::tempdir::TempDir;
    use std::io::Write;

    fn temp_file(bytes: &[u8]) -> (TempDir, PathBuf) {
        let dir = TempDir::new("bufferpool");
        let path = dir.join("data.bin");
        let mut f = File::create(&path).unwrap();
        // Header region, then data.
        f.write_all(&vec![0u8; DATA_START as usize]).unwrap();
        f.write_all(bytes).unwrap();
        (dir, path)
    }

    #[test]
    fn read_hits_after_first_miss() {
        let payload: Vec<u8> = (0..PAGE_SIZE * 2).map(|i| (i % 251) as u8).collect();
        let (_dir, path) = temp_file(&payload);
        let pool = BufferPool::new(BufferPoolConfig { capacity_bytes: 8 * PAGE_SIZE });
        let fid = pool.disk().register(&path).unwrap();

        let p0 = pool.get_page(PageKey { file: fid, page_no: 0 }).unwrap();
        assert_eq!(p0.valid, PAGE_SIZE);
        assert_eq!(&p0.bytes()[..4], &payload[..4]);
        let s = pool.stats().snapshot();
        assert_eq!((s.hits, s.misses), (0, 1));

        let _p0b = pool.get_page(PageKey { file: fid, page_no: 0 }).unwrap();
        let s = pool.stats().snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn short_final_page() {
        let payload = vec![7u8; PAGE_SIZE + 100];
        let (_dir, path) = temp_file(&payload);
        let pool = BufferPool::new(BufferPoolConfig::default());
        let fid = pool.disk().register(&path).unwrap();
        let p1 = pool.get_page(PageKey { file: fid, page_no: 1 }).unwrap();
        assert_eq!(p1.valid, 100);
        assert!(p1.bytes().iter().all(|&b| b == 7));
    }

    #[test]
    fn lru_evicts_oldest() {
        let payload = vec![1u8; PAGE_SIZE * 4];
        let (_dir, path) = temp_file(&payload);
        // Capacity of exactly two pages.
        let pool = BufferPool::new(BufferPoolConfig { capacity_bytes: 2 * PAGE_SIZE });
        let fid = pool.disk().register(&path).unwrap();
        for p in 0..3u32 {
            pool.get_page(PageKey { file: fid, page_no: p }).unwrap();
        }
        // Page 0 must have been evicted; touching it again is a miss.
        pool.get_page(PageKey { file: fid, page_no: 0 }).unwrap();
        let s = pool.stats().snapshot();
        assert_eq!(s.misses, 4);
        assert!(s.evictions >= 1);
        assert!(pool.resident_bytes() <= 2 * PAGE_SIZE);
    }

    #[test]
    fn touching_refreshes_recency() {
        let payload = vec![1u8; PAGE_SIZE * 4];
        let (_dir, path) = temp_file(&payload);
        let pool = BufferPool::new(BufferPoolConfig { capacity_bytes: 2 * PAGE_SIZE });
        let fid = pool.disk().register(&path).unwrap();
        let key = |p| PageKey { file: fid, page_no: p };
        pool.get_page(key(0)).unwrap();
        pool.get_page(key(1)).unwrap();
        pool.get_page(key(0)).unwrap(); // refresh page 0
        pool.get_page(key(2)).unwrap(); // should evict page 1, not 0
        pool.get_page(key(0)).unwrap();
        let s = pool.stats().snapshot();
        assert_eq!(s.hits, 2, "page 0 stayed resident");
    }

    #[test]
    fn clear_and_invalidate() {
        let payload = vec![1u8; PAGE_SIZE];
        let (_dir, path) = temp_file(&payload);
        let pool = BufferPool::new(BufferPoolConfig::default());
        let fid = pool.disk().register(&path).unwrap();
        pool.get_page(PageKey { file: fid, page_no: 0 }).unwrap();
        assert!(pool.resident_bytes() > 0);
        pool.invalidate_file(fid);
        assert_eq!(pool.resident_bytes(), 0);
        pool.get_page(PageKey { file: fid, page_no: 0 }).unwrap();
        pool.clear();
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    fn disk_manager_register_is_idempotent() {
        let payload = vec![0u8; 10];
        let (_dir, path) = temp_file(&payload);
        let dm = DiskManager::new();
        let a = dm.register(&path).unwrap();
        let b = dm.register(&path).unwrap();
        assert_eq!(a, b);
        dm.forget(&path);
        let c = dm.register(&path).unwrap();
        assert_ne!(a, c);
    }
}
