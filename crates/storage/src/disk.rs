//! The simulated disk: in-memory pages, virtual-time charges.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::clock::{IoStats, VirtualClock};
use crate::error::StorageError;

/// Fixed page size, matching PostgreSQL's 8 KiB default.
pub const PAGE_SIZE: usize = 8192;

/// What a page with no backing memory reads as.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

fn zero_page() -> Box<[u8; PAGE_SIZE]> {
    Box::new([0; PAGE_SIZE])
}

/// Operation class an injected device fault fires on.
///
/// Armed with [`SimDisk::arm_fault`]; consumed by the checked access paths
/// (`try_read_page` / `try_write_page` / `try_allocate` and everything the
/// hardened access methods build on them), which surface the fault as a
/// [`StorageError`] instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// A page read fails with `EIO`.
    Read,
    /// A page write fails with `EIO`.
    Write,
    /// A page allocation fails with `ENOSPC`.
    Allocate,
}

/// Identifier of a page on the simulated disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel for "no page" in on-page link fields.
    pub const INVALID: PageId = PageId(u32::MAX);
}

/// A page store that behaves like a single spindle: accesses to the page
/// immediately following the previous access are *sequential*, everything
/// else pays the random-access latency. Pages live in RAM; only the cost is
/// simulated.
pub struct SimDisk {
    /// `None` is a freed page restored from a checkpoint: it reads as zeros
    /// and holds no memory until it is reallocated, so a restored free list
    /// costs a pointer per page, not 8 KiB per page.
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    /// Freed pages, reused lowest-id first: a structure rebuilt after a
    /// `destroy` gets physically contiguous ascending pages again, so its
    /// scans stay sequential (a LIFO free list would hand pages back in
    /// descending order and turn every rebuilt scan into random I/O).
    free: BinaryHeap<Reverse<u32>>,
    last_accessed: Option<u32>,
    clock: VirtualClock,
    stats: Arc<IoStats>,
    /// Armed fault countdowns, indexed by [`DiskFault`] discriminant: the
    /// op after `n` more successful ops of that class fails once.
    faults: [Option<u32>; 3],
}

impl SimDisk {
    /// Creates an empty disk charging to `clock`.
    pub fn new(clock: VirtualClock) -> SimDisk {
        SimDisk {
            pages: Vec::new(),
            free: BinaryHeap::new(),
            last_accessed: None,
            clock,
            stats: Arc::new(IoStats::default()),
            faults: [None; 3],
        }
    }

    /// Arms a one-shot device fault: after `after` more successful
    /// operations of class `op`, the next one fails (reads/writes with
    /// [`StorageError::Io`], allocations with [`StorageError::NoSpace`]).
    pub fn arm_fault(&mut self, op: DiskFault, after: u32) {
        self.faults[op as usize] = Some(after);
    }

    /// Decrements the countdown for `op`; true when the fault fires now.
    fn fault_fires(&mut self, op: DiskFault) -> bool {
        match &mut self.faults[op as usize] {
            Some(0) => {
                self.faults[op as usize] = None;
                true
            }
            Some(n) => {
                *n -= 1;
                false
            }
            None => false,
        }
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// The clock this disk charges.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Number of pages ever allocated (including freed ones).
    pub fn capacity_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of live (allocated, not freed) pages.
    pub fn live_pages(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Allocates a zeroed page, reusing the lowest-numbered freed page
    /// first.
    pub fn allocate(&mut self) -> PageId {
        self.try_allocate().expect("unchecked page allocation hit an injected fault")
    }

    /// Checked allocation: fails with [`StorageError::NoSpace`] when an
    /// armed [`DiskFault::Allocate`] fires.
    pub fn try_allocate(&mut self) -> Result<PageId, StorageError> {
        if self.fault_fires(DiskFault::Allocate) {
            return Err(StorageError::NoSpace);
        }
        if let Some(Reverse(pid)) = self.free.pop() {
            let pid = PageId(pid);
            **self.pages[pid.0 as usize].get_or_insert_with(zero_page) = [0u8; PAGE_SIZE];
            return Ok(pid);
        }
        let pid = PageId(self.pages.len() as u32);
        assert!(pid != PageId::INVALID, "simulated disk full");
        self.pages.push(Some(zero_page()));
        Ok(pid)
    }

    /// Returns a page to the free list. The caller promises no live
    /// references to it remain (heap files drop whole page sets at
    /// reorganization).
    pub fn free(&mut self, pid: PageId) {
        debug_assert!((pid.0 as usize) < self.pages.len(), "freeing unallocated page");
        debug_assert!(
            !self.free.iter().any(|&Reverse(p)| p == pid.0),
            "double free of {pid:?}"
        );
        self.free.push(Reverse(pid.0));
    }

    fn charge(&mut self, pid: PageId, write: bool) {
        use std::sync::atomic::Ordering::Relaxed;
        let sequential = self.last_accessed == Some(pid.0.wrapping_sub(1));
        self.last_accessed = Some(pid.0);
        let m = self.clock.model();
        let (ns, ctr) = match (write, sequential) {
            (false, true) => (m.seq_read_ns, &self.stats.seq_reads),
            (false, false) => (m.rand_read_ns, &self.stats.rand_reads),
            (true, true) => (m.seq_write_ns, &self.stats.seq_writes),
            (true, false) => (m.rand_write_ns, &self.stats.rand_writes),
        };
        ctr.fetch_add(1, Relaxed);
        self.clock.charge_ns(ns);
    }

    /// Reads page `pid` into `buf`, charging the clock.
    ///
    /// # Panics
    /// Panics on unallocated pages — that is an engine bug, not a user
    /// error.
    pub fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) {
        self.try_read_page(pid, buf).expect("unchecked page read failed");
    }

    /// Checked read: [`StorageError::BadRid`] for unallocated pages,
    /// [`StorageError::Io`] when an armed [`DiskFault::Read`] fires.
    pub fn try_read_page(
        &mut self,
        pid: PageId,
        buf: &mut [u8; PAGE_SIZE],
    ) -> Result<(), StorageError> {
        if !self.is_allocated(pid) {
            return Err(StorageError::BadRid);
        }
        if self.fault_fires(DiskFault::Read) {
            return Err(StorageError::Io("injected page-read fault"));
        }
        self.charge(pid, false);
        buf.copy_from_slice(self.page_bytes(pid));
        Ok(())
    }

    /// Writes `buf` to page `pid`, charging the clock.
    pub fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) {
        self.try_write_page(pid, buf).expect("unchecked page write failed");
    }

    /// Checked write; see [`try_read_page`](SimDisk::try_read_page).
    pub fn try_write_page(
        &mut self,
        pid: PageId,
        buf: &[u8; PAGE_SIZE],
    ) -> Result<(), StorageError> {
        if !self.is_allocated(pid) {
            return Err(StorageError::BadRid);
        }
        if self.fault_fires(DiskFault::Write) {
            return Err(StorageError::Io("injected page-write fault"));
        }
        self.charge(pid, true);
        self.pages[pid.0 as usize]
            .get_or_insert_with(zero_page)
            .copy_from_slice(buf);
        Ok(())
    }

    /// True when `pid` names a page this disk has ever allocated. The
    /// checked access paths (`BufferPool::try_with_page*`) consult this so
    /// a dangling record id from a torn directory surfaces as a
    /// [`StorageError`](crate::error::StorageError) instead of a panic.
    pub fn is_allocated(&self, pid: PageId) -> bool {
        pid != PageId::INVALID && (pid.0 as usize) < self.pages.len()
    }

    /// Direct read-only page access for state serialization (no charge, no
    /// cursor movement — checkpointing must not perturb the machine state
    /// it is photographing).
    pub(crate) fn page_bytes(&self, pid: PageId) -> &[u8; PAGE_SIZE] {
        self.pages[pid.0 as usize].as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// Serializes the disk: capacity, free list, access cursor, and the
    /// image of every *live* page. Freed pages are zeroed on reallocation,
    /// so their content is not observable state and is skipped.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        let mut free: Vec<u32> = self.free.iter().map(|&Reverse(p)| p).collect();
        free.sort_unstable();
        out.extend_from_slice(&(self.pages.len() as u64).to_le_bytes());
        out.extend_from_slice(&(free.len() as u64).to_le_bytes());
        for &p in &free {
            out.extend_from_slice(&p.to_le_bytes());
        }
        match self.last_accessed {
            Some(p) => out.extend_from_slice(&u64::from(p).to_le_bytes()),
            None => out.extend_from_slice(&u64::MAX.to_le_bytes()),
        }
        let is_free = |p: u32| free.binary_search(&p).is_ok();
        for i in 0..self.pages.len() as u32 {
            if !is_free(i) {
                out.extend_from_slice(self.page_bytes(PageId(i)));
            }
        }
    }

    /// Inverse of [`SimDisk::save_state`]; `None` on truncated input or a
    /// free list that is not strictly ascending page ids. Freed pages are
    /// restored without memory and read as zeros.
    pub fn restore_state(b: &mut &[u8], clock: VirtualClock) -> Option<SimDisk> {
        use hazy_linalg::wire::{take_bytes, take_count, take_u32, take_u64};
        // a page is at least its 4-byte free-list slot (free) or a page image
        let n_pages = take_count(b, 4)?;
        let n_free = take_count(b, 4)?;
        if n_free > n_pages {
            return None;
        }
        let mut free_sorted: Vec<u32> = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            let p = take_u32(b)?;
            if p as usize >= n_pages || free_sorted.last().is_some_and(|&q| q >= p) {
                return None;
            }
            free_sorted.push(p);
        }
        let last_raw = take_u64(b)?;
        let last_accessed = if last_raw == u64::MAX { None } else { Some(last_raw as u32) };
        let is_free = |p: u32| free_sorted.binary_search(&p).is_ok();
        let mut pages = Vec::with_capacity(n_pages);
        for i in 0..n_pages {
            if is_free(i as u32) {
                pages.push(None);
            } else {
                let raw = take_bytes(b, PAGE_SIZE)?;
                let mut page = zero_page();
                page.copy_from_slice(raw);
                pages.push(Some(page));
            }
        }
        Some(SimDisk {
            pages,
            free: free_sorted.into_iter().map(Reverse).collect(),
            last_accessed,
            clock,
            stats: Arc::new(IoStats::default()),
            faults: [None; 3],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::CostModel;

    fn disk() -> SimDisk {
        SimDisk::new(VirtualClock::new(CostModel::sata_2008()))
    }

    #[test]
    fn forged_page_counts_are_undecodable() {
        let clock = || VirtualClock::new(CostModel::free());
        assert!(SimDisk::restore_state(&mut &u64::MAX.to_le_bytes()[..], clock()).is_none());
        let mut b = 0u64.to_le_bytes().to_vec(); // no pages, then a forged free list
        b.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(SimDisk::restore_state(&mut &b[..], clock()).is_none());

        // every page free, only the free list present: 4 bytes of input a
        // page, which must not each become an 8 KiB page (256 KiB of image
        // would otherwise allocate 512 MiB)
        let n = 1u32 << 16;
        let image = |free: &mut dyn Iterator<Item = u32>| {
            let mut b = u64::from(n).to_le_bytes().to_vec();
            b.extend_from_slice(&u64::from(n).to_le_bytes());
            free.for_each(|p| b.extend_from_slice(&p.to_le_bytes()));
            b.extend_from_slice(&u64::MAX.to_le_bytes());
            b
        };
        let b = image(&mut (0..n));
        let mut d = SimDisk::restore_state(&mut &b[..], clock()).expect("a valid image");
        assert_eq!((d.capacity_pages(), d.live_pages()), (n as usize, 0));
        let mut again = Vec::new();
        d.save_state(&mut again);
        assert_eq!(again, b, "restores and saves back bit-identically");
        let p = d.allocate();
        assert_eq!(p, PageId(0), "lowest free page first");
        let mut buf = [1u8; PAGE_SIZE];
        d.read_page(p, &mut buf);
        assert!(buf.iter().all(|&x| x == 0));

        // a free list must be strictly ascending page ids
        let b = image(&mut (0..n).map(|p| p.min(7)));
        assert!(SimDisk::restore_state(&mut &b[..], clock()).is_none(), "repeated");
        let b = image(&mut (0..n).rev());
        assert!(SimDisk::restore_state(&mut &b[..], clock()).is_none(), "descending");
        let b = image(&mut (1..=n));
        assert!(SimDisk::restore_state(&mut &b[..], clock()).is_none(), "past the end");
    }

    #[test]
    fn pages_round_trip() {
        let mut d = disk();
        let a = d.allocate();
        let b = d.allocate();
        let mut pa = [0u8; PAGE_SIZE];
        pa[0] = 0xAA;
        d.write_page(a, &pa);
        let mut pb = [0u8; PAGE_SIZE];
        pb[0] = 0xBB;
        d.write_page(b, &pb);
        let mut buf = [0u8; PAGE_SIZE];
        d.read_page(a, &mut buf);
        assert_eq!(buf[0], 0xAA);
        d.read_page(b, &mut buf);
        assert_eq!(buf[0], 0xBB);
    }

    #[test]
    fn sequential_access_is_cheaper() {
        let mut d = disk();
        let pids: Vec<PageId> = (0..10).map(|_| d.allocate()).collect();
        let mut buf = [0u8; PAGE_SIZE];
        // sequential pass
        let t0 = d.clock().now_ns();
        for &p in &pids {
            d.read_page(p, &mut buf);
        }
        let seq_cost = d.clock().now_ns() - t0;
        // strided (random) pass
        let t1 = d.clock().now_ns();
        for &p in pids.iter().step_by(2).chain(pids.iter().skip(1).step_by(2)) {
            d.read_page(p, &mut buf);
        }
        let rand_cost = d.clock().now_ns() - t1;
        // the sequential pass still pays one random seek for its first page,
        // so compare with a factor that isolates the per-page difference
        assert!(rand_cost > seq_cost * 5, "seq {seq_cost} rand {rand_cost}");
    }

    #[test]
    fn first_access_is_random_then_run_is_sequential() {
        let mut d = disk();
        let pids: Vec<PageId> = (0..5).map(|_| d.allocate()).collect();
        let mut buf = [0u8; PAGE_SIZE];
        for &p in &pids {
            d.read_page(p, &mut buf);
        }
        let (seq, rand, ..) = d.stats().snapshot();
        assert_eq!(rand, 1);
        assert_eq!(seq, 4);
    }

    #[test]
    fn freed_pages_are_reused_and_zeroed() {
        let mut d = disk();
        let a = d.allocate();
        let mut pa = [0xFFu8; PAGE_SIZE];
        d.write_page(a, &pa);
        d.free(a);
        let b = d.allocate();
        assert_eq!(a, b);
        d.read_page(b, &mut pa);
        assert!(pa.iter().all(|&x| x == 0));
        assert_eq!(d.live_pages(), 1);
    }

    #[test]
    fn stats_track_writes() {
        let mut d = disk();
        let a = d.allocate();
        d.write_page(a, &[0u8; PAGE_SIZE]);
        d.write_page(a, &[1u8; PAGE_SIZE]);
        assert_eq!(d.stats().writes(), 2);
        assert_eq!(d.stats().reads(), 0);
    }
}
