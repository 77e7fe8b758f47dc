//! A static hash index `u64 → u64` with overflow chains.
//!
//! Both eager and lazy architectures "maintain a hash index to efficiently
//! locate the tuple corresponding to the single entity" (Section 2.2). The
//! index maps entity ids to packed record ids. It is rebuilt at every
//! reorganization (when record ids change wholesale), so static hashing with
//! overflow pages — PostgreSQL-style — is the right shape; no dynamic
//! splitting is needed between rebuilds.
//!
//! Bucket page layout: `[n: u16][pad: u16][next_overflow: u32]` then
//! `n × (key u64, val u64)`.

use crate::buffer::BufferPool;
use crate::disk::{PageId, PAGE_SIZE};
use crate::error::StorageError;

const HDR: usize = 8;
const ENTRY: usize = 16;
/// Entries per bucket page.
pub const BUCKET_CAP: usize = (PAGE_SIZE - HDR) / ENTRY; // 511

fn page_n(p: &[u8; PAGE_SIZE]) -> usize {
    u16::from_le_bytes([p[0], p[1]]) as usize
}
fn set_page_n(p: &mut [u8; PAGE_SIZE], n: usize) {
    p[0..2].copy_from_slice(&(n as u16).to_le_bytes());
}
fn page_next(p: &[u8; PAGE_SIZE]) -> PageId {
    PageId(u32::from_le_bytes(p[4..8].try_into().expect("4 bytes")))
}
fn set_page_next(p: &mut [u8; PAGE_SIZE], pid: PageId) {
    p[4..8].copy_from_slice(&pid.0.to_le_bytes());
}
fn entry(p: &[u8; PAGE_SIZE], i: usize) -> (u64, u64) {
    let off = HDR + ENTRY * i;
    (
        u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
        u64::from_le_bytes(p[off + 8..off + 16].try_into().expect("8 bytes")),
    )
}
fn set_entry(p: &mut [u8; PAGE_SIZE], i: usize, k: u64, v: u64) {
    let off = HDR + ENTRY * i;
    p[off..off + 8].copy_from_slice(&k.to_le_bytes());
    p[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
}

fn init_bucket(p: &mut [u8; PAGE_SIZE]) {
    set_page_n(p, 0);
    set_page_next(p, PageId::INVALID);
}

/// Multiplicative hashing (Fibonacci constant); ids are often consecutive
/// integers, so a plain modulus would pile everything into a range of
/// buckets.
fn bucket_of(key: u64, buckets: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % buckets
}

/// The static hash index.
#[derive(Debug)]
pub struct HashIndex {
    buckets: Vec<PageId>,
    overflow: Vec<PageId>,
    len: u64,
}

impl HashIndex {
    /// Creates an index sized for about `expected` keys (one bucket per
    /// `BUCKET_CAP·0.75` keys, minimum 4 buckets).
    pub fn with_capacity(pool: &mut BufferPool, expected: usize) -> HashIndex {
        HashIndex::try_with_capacity(pool, expected)
            .expect("unchecked index creation hit an injected fault")
    }

    /// Checked variant of [`with_capacity`](HashIndex::with_capacity): an
    /// injected `ENOSPC` surfaces as [`StorageError::NoSpace`].
    pub fn try_with_capacity(
        pool: &mut BufferPool,
        expected: usize,
    ) -> Result<HashIndex, StorageError> {
        let n_buckets = (expected / (BUCKET_CAP * 3 / 4)).max(4);
        let mut buckets = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            let pid = pool.try_allocate()?;
            pool.checked_with_page_mut(pid, init_bucket)?;
            buckets.push(pid);
        }
        Ok(HashIndex { buckets, overflow: Vec::new(), len: 0 })
    }

    /// Number of stored keys.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total pages (buckets + overflow).
    pub fn page_count(&self) -> usize {
        self.buckets.len() + self.overflow.len()
    }

    /// Looks up `key`.
    pub fn get(&self, pool: &mut BufferPool, key: u64) -> Option<u64> {
        self.try_get(pool, key).expect("unchecked index lookup hit a storage fault")
    }

    /// Checked lookup: a dangling bucket reference or injected read fault
    /// is an `Err`, distinct from `Ok(None)` (key definitely absent).
    pub fn try_get(&self, pool: &mut BufferPool, key: u64) -> Result<Option<u64>, StorageError> {
        let mut pid = self.buckets[bucket_of(key, self.buckets.len())];
        loop {
            enum Step {
                Found(u64),
                Chain(PageId),
                Missing,
            }
            let step = pool.checked_with_page(pid, |p| {
                let n = page_n(p);
                for i in 0..n {
                    let (k, v) = entry(p, i);
                    if k == key {
                        return Step::Found(v);
                    }
                }
                let next = page_next(p);
                if next == PageId::INVALID {
                    Step::Missing
                } else {
                    Step::Chain(next)
                }
            })?;
            match step {
                Step::Found(v) => return Ok(Some(v)),
                Step::Missing => return Ok(None),
                Step::Chain(next) => pid = next,
            }
        }
    }

    /// Inserts `key → val`.
    ///
    /// # Errors
    /// [`StorageError::DuplicateKey`] when the key exists (entity ids are
    /// unique by the view's KEY declaration); [`StorageError::Io`] /
    /// [`StorageError::NoSpace`] from injected device faults.
    pub fn insert(&mut self, pool: &mut BufferPool, key: u64, val: u64) -> Result<(), StorageError> {
        if self.try_get(pool, key)?.is_some() {
            return Err(StorageError::DuplicateKey);
        }
        let mut pid = self.buckets[bucket_of(key, self.buckets.len())];
        loop {
            enum Step {
                Inserted,
                Chain(PageId),
                NeedOverflow,
            }
            let step = pool.checked_with_page_mut(pid, |p| {
                let n = page_n(p);
                if n < BUCKET_CAP {
                    set_entry(p, n, key, val);
                    set_page_n(p, n + 1);
                    return Step::Inserted;
                }
                let next = page_next(p);
                if next == PageId::INVALID {
                    Step::NeedOverflow
                } else {
                    Step::Chain(next)
                }
            })?;
            match step {
                Step::Inserted => {
                    self.len += 1;
                    return Ok(());
                }
                Step::Chain(next) => pid = next,
                Step::NeedOverflow => {
                    let ov = pool.try_allocate()?;
                    self.overflow.push(ov);
                    pool.checked_with_page_mut(ov, |p| {
                        init_bucket(p);
                        set_entry(p, 0, key, val);
                        set_page_n(p, 1);
                    })?;
                    pool.checked_with_page_mut(pid, |p| set_page_next(p, ov))?;
                    self.len += 1;
                    return Ok(());
                }
            }
        }
    }

    /// Updates the value under an existing `key`.
    ///
    /// # Errors
    /// [`StorageError::BadRid`] when the key is absent.
    pub fn update(&mut self, pool: &mut BufferPool, key: u64, val: u64) -> Result<(), StorageError> {
        let mut pid = self.buckets[bucket_of(key, self.buckets.len())];
        loop {
            enum Step {
                Updated,
                Chain(PageId),
                Missing,
            }
            let step = pool.checked_with_page_mut(pid, |p| {
                let n = page_n(p);
                for i in 0..n {
                    let (k, _) = entry(p, i);
                    if k == key {
                        set_entry(p, i, key, val);
                        return Step::Updated;
                    }
                }
                let next = page_next(p);
                if next == PageId::INVALID {
                    Step::Missing
                } else {
                    Step::Chain(next)
                }
            })?;
            match step {
                Step::Updated => return Ok(()),
                Step::Missing => return Err(StorageError::BadRid),
                Step::Chain(next) => pid = next,
            }
        }
    }

    /// Removes `key`, compacting the page it lived in.
    ///
    /// # Errors
    /// [`StorageError::BadRid`] when the key is absent.
    pub fn remove(&mut self, pool: &mut BufferPool, key: u64) -> Result<(), StorageError> {
        let mut pid = self.buckets[bucket_of(key, self.buckets.len())];
        loop {
            enum Step {
                Removed,
                Chain(PageId),
                Missing,
            }
            let step = pool.checked_with_page_mut(pid, |p| {
                let n = page_n(p);
                for i in 0..n {
                    let (k, _) = entry(p, i);
                    if k == key {
                        // swap-remove with the last entry
                        let (lk, lv) = entry(p, n - 1);
                        set_entry(p, i, lk, lv);
                        set_page_n(p, n - 1);
                        return Step::Removed;
                    }
                }
                let next = page_next(p);
                if next == PageId::INVALID {
                    Step::Missing
                } else {
                    Step::Chain(next)
                }
            })?;
            match step {
                Step::Removed => {
                    self.len -= 1;
                    return Ok(());
                }
                Step::Missing => return Err(StorageError::BadRid),
                Step::Chain(next) => pid = next,
            }
        }
    }

    /// Frees every page. The index is unusable after.
    pub fn destroy(&mut self, pool: &mut BufferPool) {
        for pid in self.buckets.drain(..).chain(self.overflow.drain(..)) {
            pool.free(pid);
        }
        self.len = 0;
    }

    /// Serializes the index directory (bucket + overflow page lists, key
    /// count). Bucket content lives in the disk image.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        for list in [&self.buckets, &self.overflow] {
            out.extend_from_slice(&(list.len() as u64).to_le_bytes());
            for pid in list {
                out.extend_from_slice(&pid.0.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.len.to_le_bytes());
    }

    /// Inverse of [`HashIndex::save_state`]; `None` on truncated input.
    pub fn restore_state(b: &mut &[u8]) -> Option<HashIndex> {
        use hazy_linalg::wire::{take_count, take_u32, take_u64};
        let mut lists = [Vec::new(), Vec::new()];
        for list in &mut lists {
            let n = take_count(b, 4)?;
            list.reserve(n);
            for _ in 0..n {
                list.push(PageId(take_u32(b)?));
            }
        }
        let len = take_u64(b)?;
        let [buckets, overflow] = lists;
        Some(HashIndex { buckets, overflow, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{CostModel, VirtualClock};
    use crate::disk::SimDisk;

    fn pool() -> BufferPool {
        BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::free())), 64)
    }

    #[test]
    fn forged_page_count_is_undecodable() {
        assert!(HashIndex::restore_state(&mut &u64::MAX.to_le_bytes()[..]).is_none());
        let mut b = 0u64.to_le_bytes().to_vec(); // no buckets, then forged overflow
        b.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(HashIndex::restore_state(&mut &b[..]).is_none());
    }

    #[test]
    fn insert_get_update_remove() {
        let mut p = pool();
        let mut h = HashIndex::with_capacity(&mut p, 100);
        for k in 0..100u64 {
            h.insert(&mut p, k, k * 2).unwrap();
        }
        assert_eq!(h.len(), 100);
        for k in 0..100u64 {
            assert_eq!(h.get(&mut p, k), Some(k * 2));
        }
        h.update(&mut p, 50, 999).unwrap();
        assert_eq!(h.get(&mut p, 50), Some(999));
        h.remove(&mut p, 50).unwrap();
        assert_eq!(h.get(&mut p, 50), None);
        assert_eq!(h.len(), 99);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut p = pool();
        let mut h = HashIndex::with_capacity(&mut p, 10);
        h.insert(&mut p, 7, 1).unwrap();
        assert_eq!(h.insert(&mut p, 7, 2), Err(StorageError::DuplicateKey));
        assert_eq!(h.get(&mut p, 7), Some(1));
    }

    #[test]
    fn missing_key_operations_error() {
        let mut p = pool();
        let mut h = HashIndex::with_capacity(&mut p, 10);
        assert_eq!(h.get(&mut p, 1), None);
        assert_eq!(h.update(&mut p, 1, 0), Err(StorageError::BadRid));
        assert_eq!(h.remove(&mut p, 1), Err(StorageError::BadRid));
    }

    #[test]
    fn overflow_chains_work() {
        let mut p = pool();
        // 4 buckets, so thousands of keys force overflow pages
        let mut h = HashIndex::with_capacity(&mut p, 1);
        let n = 5000u64;
        for k in 0..n {
            h.insert(&mut p, k, !k).unwrap();
        }
        assert!(h.page_count() > 4, "no overflow pages were created");
        for k in (0..n).step_by(37) {
            assert_eq!(h.get(&mut p, k), Some(!k));
        }
    }

    #[test]
    fn remove_from_overflow_chain() {
        let mut p = pool();
        let mut h = HashIndex::with_capacity(&mut p, 1);
        for k in 0..3000u64 {
            h.insert(&mut p, k, k).unwrap();
        }
        for k in (0..3000u64).step_by(3) {
            h.remove(&mut p, k).unwrap();
        }
        for k in 0..3000u64 {
            let expect = if k % 3 == 0 { None } else { Some(k) };
            assert_eq!(h.get(&mut p, k), expect, "key {k}");
        }
    }

    #[test]
    fn destroy_frees_pages() {
        let mut p = pool();
        let mut h = HashIndex::with_capacity(&mut p, 10_000);
        let live = p.disk().live_pages();
        assert!(live >= 4);
        h.destroy(&mut p);
        assert_eq!(p.disk().live_pages(), 0);
    }
}
