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
    /// The page bytes: held by every live frame, dropped by a dead one
    /// (`pid` = `INVALID`), whose reuse installs a whole new `Frame`.
    data: Option<Box<[u8; PAGE_SIZE]>>,
    dirty: bool,
    /// Clock-sweep reference bit: set on access, cleared as the hand passes.
    referenced: bool,
}

impl Frame {
    /// An empty slot: no page, no flags.
    fn dead() -> Frame {
        Frame { pid: PageId::INVALID, data: None, dirty: false, referenced: false }
    }

    /// A live frame holding `data` for `pid`.
    fn live(pid: PageId, data: Box<[u8; PAGE_SIZE]>, dirty: bool) -> Frame {
        Frame { pid, data: Some(data), dirty, referenced: true }
    }

    /// The page bytes of a live frame. Only a dead frame holds none, and a
    /// dead frame is never read, so the zero page this could allocate is
    /// never needed.
    fn page(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.data.get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }
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
        self.frames[slot] = Frame::live(pid, Box::new([0u8; PAGE_SIZE]), true);
        self.map.insert(pid, slot);
        Ok(pid)
    }

    /// Drops `pid` from the pool (without flushing) and frees it on disk.
    pub fn free(&mut self, pid: PageId) {
        if let Some(slot) = self.map.remove(&pid) {
            // leave a dead frame; it will be reused by the sweep
            self.frames[slot] = Frame::dead();
        }
        self.disk.free(pid);
    }

    /// Runs `f` over an immutable view of page `pid`.
    pub fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> R {
        let slot = self.fault_in(pid);
        f(self.frames[slot].page())
    }

    /// Runs `f` over a mutable view of page `pid`, marking it dirty.
    pub fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> R {
        let slot = self.fault_in(pid);
        self.frames[slot].dirty = true;
        f(self.frames[slot].page())
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
        Ok(f(self.frames[slot].page()))
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
        Ok(f(self.frames[slot].page()))
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
            match &fr.data {
                Some(data) if fr.dirty && fr.pid != PageId::INVALID => {
                    out.extend_from_slice(&data[..]);
                }
                _ => {}
            }
        }
    }

    /// Inverse of [`BufferPool::save_state`], re-reading clean frames from
    /// `disk`. `None` on truncated or inconsistent input. A dead frame
    /// (6 bytes on the wire) is restored without a page, so the pool
    /// allocates in proportion to the image, not 8 KiB per frame.
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
            let mut data = None;
            if pid != PageId::INVALID {
                let page = if dirty {
                    take_bytes(b, PAGE_SIZE)?
                } else {
                    if !disk.is_allocated(pid) {
                        return None;
                    }
                    &disk.page_bytes(pid)[..]
                };
                data = Some(Box::new(<[u8; PAGE_SIZE]>::try_from(page).ok()?));
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
            let fr = &mut self.frames[i];
            self.disk.write_page(fr.pid, fr.page());
            fr.dirty = false;
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
        self.frames[slot] = Frame::live(pid, data, false);
        self.map.insert(pid, slot);
        Ok(slot)
    }

    /// Finds a free frame, evicting via clock sweep when at capacity. An
    /// injected write fault on a dirty victim's write-back surfaces as
    /// `Err` with the victim still resident and dirty (nothing is lost).
    fn checked_grab_frame(&mut self) -> Result<usize, StorageError> {
        if self.frames.len() < self.capacity {
            // the caller installs the whole frame
            self.frames.push(Frame::dead());
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
                let data = self.frames[victim].page();
                self.disk.try_write_page(old_pid, data)?;
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

    /// A dead frame is 6 bytes of image. Restoring one allocates no page, so
    /// a forged image of many dead frames costs memory in proportion to its
    /// size; the frame layout, flags and clock hand survive, and the pool
    /// saves back bit-identically.
    #[test]
    fn dead_frames_restore_without_pages() {
        let pages_held = |p: &BufferPool| p.frames.iter().filter(|f| f.data.is_some()).count();
        // a real pool with dead frames between live ones
        let mut p = pool(8);
        let pids: Vec<PageId> = (0..6).map(|_| p.allocate()).collect();
        p.with_page_mut(pids[1], |pg| pg[9] = 9);
        p.flush_all();
        p.with_page_mut(pids[4], |pg| pg[3] = 3);
        p.free(pids[0]);
        p.free(pids[2]);
        assert_eq!(pages_held(&p), 4, "a freed frame keeps no page");
        let mut saved = Vec::new();
        p.save_state(&mut saved);
        let mut image = Vec::new();
        p.disk().save_state(&mut image);
        let clock = VirtualClock::new(CostModel::free());
        let disk = SimDisk::restore_state(&mut &image[..], clock).unwrap();
        let restored = BufferPool::restore_state(&mut &saved[..], disk).unwrap();
        assert_eq!(pages_held(&restored), 4);
        let mut again = Vec::new();
        restored.save_state(&mut again);
        assert_eq!(again, saved);

        // a forged image: 4 096 dead frames, odd flags, the hand mid-table
        let n = 4096u64;
        let mut forged = Vec::new();
        for x in [n + 8, 17, n] {
            forged.extend_from_slice(&x.to_le_bytes()); // capacity, hand, frames
        }
        for k in 0..n {
            forged.extend_from_slice(&PageId::INVALID.0.to_le_bytes());
            forged.extend_from_slice(&[u8::from(k % 2 == 0), u8::from(k % 3 == 0)]);
        }
        let disk = SimDisk::new(VirtualClock::new(CostModel::free()));
        let mut restored = BufferPool::restore_state(&mut &forged[..], disk).unwrap();
        assert_eq!((restored.frames.len(), restored.hand), (n as usize, 17));
        assert_eq!(pages_held(&restored), 0, "{n} dead frames allocated pages");
        let mut again = Vec::new();
        restored.save_state(&mut again);
        assert_eq!(again, forged);
        // reuse installs a whole frame: the sweep takes a dead slot
        let pid = restored.allocate();
        restored.with_page_mut(pid, |pg| pg[0] = 1);
        assert_eq!((restored.frames.len(), pages_held(&restored)), (n as usize + 1, 1));
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
