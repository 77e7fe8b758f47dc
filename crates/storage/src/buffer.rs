//! A fixed-capacity buffer pool with clock-sweep eviction.
//!
//! All reads and writes from the access methods go through the pool, so the
//! fraction of a structure that stays memory-resident — the knob behind the
//! paper's on-disk vs in-memory vs hybrid comparisons — is simply the pool
//! capacity.

use std::collections::HashMap;

use crate::clock::IoStats;
use crate::disk::{PageId, SimDisk, PAGE_SIZE};
use crate::error::StorageError;

/// Global buffer-pool metrics mirroring the per-disk `IoStats` counters,
/// so cache behavior shows up in `SHOW METRICS` without a disk handle.
struct PoolObs {
    hits: &'static hazy_obs::Counter,
    misses: &'static hazy_obs::Counter,
    evictions: &'static hazy_obs::Counter,
}

fn pool_obs() -> &'static PoolObs {
    static OBS: std::sync::OnceLock<PoolObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| PoolObs {
        hits: hazy_obs::counter("storage_pool_hits_total"),
        misses: hazy_obs::counter("storage_pool_misses_total"),
        evictions: hazy_obs::counter("storage_pool_evictions_total"),
    })
}


struct Frame {
    pid: PageId,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    /// Clock-sweep reference bit: set on access, cleared as the hand passes.
    referenced: bool,
}

/// Buffer pool over a [`SimDisk`]. Accesses are closure-scoped (`with_page`
/// style) which keeps borrows simple and makes pin/unpin bugs impossible.
pub struct BufferPool {
    disk: SimDisk,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    hand: usize,
    capacity: usize,
}

impl BufferPool {
    /// Pool holding at most `capacity` pages (≥ 1).
    pub fn new(disk: SimDisk, capacity: usize) -> BufferPool {
        let capacity = capacity.max(1);
        BufferPool {
            disk,
            frames: Vec::with_capacity(capacity.min(1024)),
            map: HashMap::with_capacity(capacity.min(1024)),
            hand: 0,
            capacity,
        }
    }

    /// Maximum resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// I/O statistics (shared with the disk).
    pub fn stats(&self) -> std::sync::Arc<IoStats> {
        self.disk.stats()
    }

    /// The underlying disk (for clock access and page accounting).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Mutable disk access — the fault-injection harness arms
    /// [`DiskFault`](crate::disk::DiskFault)s through this.
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Allocates a fresh zeroed page and faults it in dirty, so the first
    /// flush writes it out.
    pub fn allocate(&mut self) -> PageId {
        self.try_allocate().expect("unchecked allocation hit an injected fault")
    }

    /// Checked allocation: surfaces [`StorageError::NoSpace`] from the disk
    /// (injected `ENOSPC`) and [`StorageError::Io`] from evicting a dirty
    /// victim to make room.
    pub fn try_allocate(&mut self) -> Result<PageId, StorageError> {
        // grab the frame *before* allocating: if eviction fails, no page
        // has been allocated yet and the pool is unchanged
        let slot = self.checked_grab_frame()?;
        let pid = self.disk.try_allocate()?;
        self.frames[slot] =
            Frame { pid, data: Box::new([0u8; PAGE_SIZE]), dirty: true, referenced: true };
        self.map.insert(pid, slot);
        Ok(pid)
    }

    /// Drops `pid` from the pool (without flushing) and frees it on disk.
    pub fn free(&mut self, pid: PageId) {
        if let Some(slot) = self.map.remove(&pid) {
            // leave a dead frame; it will be reused by the sweep
            self.frames[slot].dirty = false;
            self.frames[slot].referenced = false;
            self.frames[slot].pid = PageId::INVALID;
        }
        self.disk.free(pid);
    }

    /// Runs `f` over an immutable view of page `pid`.
    pub fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> R {
        let slot = self.fault_in(pid);
        f(&self.frames[slot].data)
    }

    /// Runs `f` over a mutable view of page `pid`, marking it dirty.
    pub fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> R {
        let slot = self.fault_in(pid);
        self.frames[slot].dirty = true;
        f(&mut self.frames[slot].data)
    }

    /// Checked variant of [`with_page`](BufferPool::with_page): returns
    /// `None` (instead of panicking) when `pid` was never allocated on the
    /// disk — the dangling-reference case a torn heap directory produces.
    pub fn try_with_page<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Option<R> {
        if !self.disk.is_allocated(pid) {
            return None;
        }
        Some(self.with_page(pid, f))
    }

    /// Checked variant of [`with_page_mut`](BufferPool::with_page_mut); see
    /// [`try_with_page`](BufferPool::try_with_page).
    pub fn try_with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Option<R> {
        if !self.disk.is_allocated(pid) {
            return None;
        }
        Some(self.with_page_mut(pid, f))
    }

    /// Fully checked read access: [`StorageError::BadRid`] for pages the
    /// disk never allocated, and any injected device fault (page read, or
    /// the write-back of a dirty eviction victim) as its `StorageError`
    /// instead of a panic. The hardened access methods route every page
    /// touch through this and [`checked_with_page_mut`](Self::checked_with_page_mut).
    pub fn checked_with_page<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R, StorageError> {
        if !self.disk.is_allocated(pid) {
            return Err(StorageError::BadRid);
        }
        let slot = self.checked_fault_in(pid)?;
        Ok(f(&self.frames[slot].data))
    }

    /// Fully checked mutable access; see
    /// [`checked_with_page`](Self::checked_with_page). Marks the page dirty
    /// only after the fault-in succeeded.
    pub fn checked_with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R, StorageError> {
        if !self.disk.is_allocated(pid) {
            return Err(StorageError::BadRid);
        }
        let slot = self.checked_fault_in(pid)?;
        self.frames[slot].dirty = true;
        Ok(f(&mut self.frames[slot].data))
    }

    /// Serializes the pool's complete state *without flushing*: the frame
    /// table in frame order (clock-sweep position matters), the sweep hand,
    /// and the data of dirty frames (clean frames equal their disk page and
    /// are restored from the disk image). Checkpointing must be a pure read
    /// — flushing here would clean dirty bits and change future eviction
    /// costs, making a recovered view diverge from one that never crashed.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.capacity as u64).to_le_bytes());
        out.extend_from_slice(&(self.hand as u64).to_le_bytes());
        out.extend_from_slice(&(self.frames.len() as u64).to_le_bytes());
        for fr in &self.frames {
            out.extend_from_slice(&fr.pid.0.to_le_bytes());
            out.push(u8::from(fr.referenced));
            out.push(u8::from(fr.dirty));
            if fr.dirty && fr.pid != PageId::INVALID {
                out.extend_from_slice(&fr.data[..]);
            }
        }
    }

    /// Inverse of [`BufferPool::save_state`], re-reading clean frames from
    /// `disk`. `None` on truncated or inconsistent input.
    pub fn restore_state(b: &mut &[u8], disk: SimDisk) -> Option<BufferPool> {
        use hazy_linalg::wire::{take_bytes, take_count, take_u32, take_u64, take_u8};
        let capacity = usize::try_from(take_u64(b)?).ok()?;
        let hand = usize::try_from(take_u64(b)?).ok()?;
        // a frame is at least pid(4) + referenced(1) + dirty(1)
        let n_frames = take_count(b, 6)?;
        if n_frames > capacity {
            return None;
        }
        let mut frames = Vec::with_capacity(n_frames);
        let mut map = HashMap::with_capacity(n_frames);
        for slot in 0..n_frames {
            let pid = PageId(take_u32(b)?);
            let referenced = take_u8(b)? != 0;
            let dirty = take_u8(b)? != 0;
            let mut data = Box::new([0u8; PAGE_SIZE]);
            if pid != PageId::INVALID {
                if dirty {
                    data.copy_from_slice(take_bytes(b, PAGE_SIZE)?);
                } else {
                    if !disk.is_allocated(pid) {
                        return None;
                    }
                    data.copy_from_slice(&disk.page_bytes(pid)[..]);
                }
                map.insert(pid, slot);
            }
            frames.push(Frame { pid, data, dirty, referenced });
        }
        Some(BufferPool { disk, frames, map, hand, capacity })
    }

    /// Writes every dirty frame back to disk.
    pub fn flush_all(&mut self) {
        // flush in page order: a checkpoint is mostly-sequential I/O
        let mut dirty: Vec<usize> = (0..self.frames.len())
            .filter(|&i| self.frames[i].dirty && self.frames[i].pid != PageId::INVALID)
            .collect();
        dirty.sort_by_key(|&i| self.frames[i].pid);
        for i in dirty {
            self.disk.write_page(self.frames[i].pid, &self.frames[i].data);
            self.frames[i].dirty = false;
        }
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    fn fault_in(&mut self, pid: PageId) -> usize {
        self.checked_fault_in(pid).expect("unchecked page fault-in failed")
    }

    fn checked_fault_in(&mut self, pid: PageId) -> Result<usize, StorageError> {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(&slot) = self.map.get(&pid) {
            self.disk.stats().pool_hits.fetch_add(1, Relaxed);
            pool_obs().hits.inc();
            self.disk.clock().charge_ns(self.disk.clock().model().pool_hit_ns);
            self.frames[slot].referenced = true;
            return Ok(slot);
        }
        self.disk.stats().pool_misses.fetch_add(1, Relaxed);
        pool_obs().misses.inc();
        let slot = self.checked_grab_frame()?;
        let mut data = Box::new([0u8; PAGE_SIZE]);
        self.disk.try_read_page(pid, &mut data)?;
        self.frames[slot] = Frame { pid, data, dirty: false, referenced: true };
        self.map.insert(pid, slot);
        Ok(slot)
    }

    /// Finds a free frame, evicting via clock sweep when at capacity. An
    /// injected write fault on a dirty victim's write-back surfaces as
    /// `Err` with the victim still resident and dirty (nothing is lost).
    fn checked_grab_frame(&mut self) -> Result<usize, StorageError> {
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                pid: PageId::INVALID,
                data: Box::new([0u8; PAGE_SIZE]),
                dirty: false,
                referenced: false,
            });
            return Ok(self.frames.len() - 1);
        }
        loop {
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = &mut self.frames[self.hand];
            if frame.pid == PageId::INVALID {
                return Ok(self.hand);
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            // victim found
            let victim = self.hand;
            let old_pid = self.frames[victim].pid;
            if self.frames[victim].dirty {
                let data = std::mem::replace(&mut self.frames[victim].data, Box::new([0u8; PAGE_SIZE]));
                let wrote = self.disk.try_write_page(old_pid, &data);
                self.frames[victim].data = data;
                wrote?;
            }
            self.map.remove(&old_pid);
            pool_obs().evictions.inc();
            return Ok(victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{CostModel, VirtualClock};

    fn pool(capacity: usize) -> BufferPool {
        let disk = SimDisk::new(VirtualClock::new(CostModel::sata_2008()));
        BufferPool::new(disk, capacity)
    }

    #[test]
    fn forged_frame_count_is_undecodable() {
        let mut b = Vec::new();
        for x in [u64::MAX, 0, u64::MAX] {
            b.extend_from_slice(&x.to_le_bytes()); // capacity, hand, frames
        }
        let disk = SimDisk::new(VirtualClock::new(CostModel::free()));
        assert!(BufferPool::restore_state(&mut &b[..], disk).is_none());
    }

    #[test]
    fn writes_survive_eviction() {
        let mut p = pool(2);
        let pids: Vec<PageId> = (0..4).map(|_| p.allocate()).collect();
        for (k, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |pg| pg[0] = k as u8);
        }
        // all four pages were touched with capacity 2, so two were evicted
        for (k, &pid) in pids.iter().enumerate() {
            let v = p.with_page(pid, |pg| pg[0]);
            assert_eq!(v, k as u8);
        }
    }

    #[test]
    fn hits_do_not_touch_disk() {
        let mut p = pool(4);
        let pid = p.allocate();
        p.flush_all();
        let reads_before = p.stats().reads();
        for _ in 0..100 {
            p.with_page(pid, |_| ());
        }
        assert_eq!(p.stats().reads(), reads_before);
        assert!(p.stats().pool_hits.load(std::sync::atomic::Ordering::Relaxed) >= 100);
    }

    #[test]
    fn hit_is_orders_cheaper_than_miss() {
        let mut p = pool(1);
        let a = p.allocate();
        let b = p.allocate();
        p.flush_all();
        // alternate: every access misses
        let t0 = p.disk().clock().now_ns();
        for _ in 0..4 {
            p.with_page(a, |_| ());
            p.with_page(b, |_| ());
        }
        let miss_cost = p.disk().clock().now_ns() - t0;
        // repeated access: all hits
        let t1 = p.disk().clock().now_ns();
        for _ in 0..8 {
            p.with_page(b, |_| ());
        }
        let hit_cost = p.disk().clock().now_ns() - t1;
        assert!(miss_cost > hit_cost * 100, "miss {miss_cost} hit {hit_cost}");
    }

    #[test]
    fn flush_all_clears_dirty_bits() {
        let mut p = pool(4);
        let pid = p.allocate();
        p.with_page_mut(pid, |pg| pg[7] = 7);
        p.flush_all();
        let w = p.stats().writes();
        p.flush_all(); // nothing dirty: no new writes
        assert_eq!(p.stats().writes(), w);
    }

    #[test]
    fn freed_pages_leave_the_pool() {
        let mut p = pool(4);
        let pid = p.allocate();
        assert_eq!(p.resident(), 1);
        p.free(pid);
        assert_eq!(p.resident(), 0);
    }

    #[test]
    fn eviction_pressure_respects_capacity() {
        let mut p = pool(3);
        let pids: Vec<PageId> = (0..20).map(|_| p.allocate()).collect();
        for &pid in &pids {
            p.with_page(pid, |_| ());
        }
        assert!(p.resident() <= 3);
    }
}
