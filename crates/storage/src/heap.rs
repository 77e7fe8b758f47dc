//! Heap files: ordered lists of slotted pages.
//!
//! Hazy's scratch table `H(id, f, eps)` is a heap file whose pages hold
//! tuples in descending-`eps` order after a reorganization; the materialized
//! view `V` of the naive architectures is a plain heap file. A heap file does
//! not own its pages' lifetime policy — dropping the structure at
//! reorganization time frees all pages back to the disk.

use crate::buffer::BufferPool;
use crate::disk::PageId;
use crate::error::StorageError;
use crate::slotted;

/// Record id: which page of the heap (by position) and which slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Index into the heap's page list (not a raw [`PageId`]; heap order is
    /// what the clustered scan follows).
    pub page: u32,
    /// Slot within that page.
    pub slot: u16,
}

impl Rid {
    /// Packs into a u64 for storage in index leaves.
    pub fn to_u64(self) -> u64 {
        (u64::from(self.page) << 16) | u64::from(self.slot)
    }

    /// Inverse of [`Rid::to_u64`].
    pub fn from_u64(v: u64) -> Rid {
        Rid { page: (v >> 16) as u32, slot: (v & 0xFFFF) as u16 }
    }
}

/// An append-oriented record file over the buffer pool.
pub struct HeapFile {
    pages: Vec<PageId>,
    records: u64,
}

impl HeapFile {
    /// An empty heap (no pages yet).
    pub fn new() -> HeapFile {
        HeapFile { pages: Vec::new(), records: 0 }
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Appends a record to the last page, allocating a new page on overflow.
    ///
    /// # Errors
    /// [`StorageError::RecordTooLarge`] when the record cannot fit any
    /// page; [`StorageError::NoSpace`] / [`StorageError::Io`] when an
    /// injected device fault hits the allocation or page I/O (the heap is
    /// unchanged — the record was not appended).
    pub fn append(&mut self, pool: &mut BufferPool, rec: &[u8]) -> Result<Rid, StorageError> {
        if rec.len() > slotted::MAX_RECORD {
            return Err(StorageError::RecordTooLarge { size: rec.len(), max: slotted::MAX_RECORD });
        }
        if let Some(&last) = self.pages.last() {
            let slot = pool.checked_with_page_mut(last, |pg| slotted::insert(pg, rec))??;
            if let Some(slot) = slot {
                self.records += 1;
                return Ok(Rid { page: (self.pages.len() - 1) as u32, slot });
            }
        }
        let pid = pool.try_allocate()?;
        pool.checked_with_page_mut(pid, slotted::init)?;
        self.pages.push(pid);
        let slot = pool
            .checked_with_page_mut(pid, |pg| slotted::insert(pg, rec))??
            .ok_or(StorageError::Corrupt("fresh page rejected a legal record"))?;
        self.records += 1;
        Ok(Rid { page: (self.pages.len() - 1) as u32, slot })
    }

    /// Reads the record at `rid` through `f`.
    ///
    /// # Errors
    /// [`StorageError::BadRid`] when `rid` is dead, out of range, or — the
    /// torn-directory case — names a page the disk never allocated.
    pub fn get<R>(
        &self,
        pool: &mut BufferPool,
        rid: Rid,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, StorageError> {
        let pid = *self.pages.get(rid.page as usize).ok_or(StorageError::BadRid)?;
        pool.checked_with_page(pid, |pg| slotted::get(pg, rid.slot).map(f))?
            .ok_or(StorageError::BadRid)
    }

    /// Overwrites the record at `rid` with a same-length payload.
    ///
    /// # Errors
    /// [`StorageError::BadRid`] for dangling record ids (including page
    /// references a torn directory restore left pointing past the disk);
    /// [`StorageError::LengthMismatch`] on size changes.
    pub fn update_in_place(
        &mut self,
        pool: &mut BufferPool,
        rid: Rid,
        rec: &[u8],
    ) -> Result<(), StorageError> {
        let pid = *self.pages.get(rid.page as usize).ok_or(StorageError::BadRid)?;
        pool.checked_with_page_mut(pid, |pg| slotted::update_in_place(pg, rid.slot, rec))?
    }

    /// Overwrites part of the record at `rid` (the zero-copy label-flip
    /// path: a scan classifies off borrowed page bytes and patches the one
    /// changed byte, never re-encoding the tuple).
    ///
    /// # Errors
    /// [`StorageError::BadRid`] for dangling record ids (never a panic —
    /// recovery code probes possibly-torn directories and must get a
    /// structured error); [`StorageError::LengthMismatch`] on overruns.
    pub fn patch_in_place(
        &mut self,
        pool: &mut BufferPool,
        rid: Rid,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), StorageError> {
        let pid = *self.pages.get(rid.page as usize).ok_or(StorageError::BadRid)?;
        pool.checked_with_page_mut(pid, |pg| slotted::patch_in_place(pg, rid.slot, offset, bytes))?
    }

    /// Tombstones the record at `rid`.
    ///
    /// # Errors
    /// [`StorageError::BadRid`] when already dead.
    pub fn delete(&mut self, pool: &mut BufferPool, rid: Rid) -> Result<(), StorageError> {
        let pid = *self.pages.get(rid.page as usize).ok_or(StorageError::BadRid)?;
        pool.checked_with_page_mut(pid, |pg| slotted::delete(pg, rid.slot))??;
        self.records -= 1;
        Ok(())
    }

    /// Sequentially scans all live records in heap order. The visitor
    /// returns `false` to stop early (how Hazy's All-Members scan stops at
    /// the low watermark).
    pub fn scan(&self, pool: &mut BufferPool, mut visit: impl FnMut(Rid, &[u8]) -> bool) {
        'outer: for (pidx, &pid) in self.pages.iter().enumerate() {
            let stop = pool.with_page(pid, |pg| {
                for (slot, rec) in slotted::iter(pg) {
                    if !visit(Rid { page: pidx as u32, slot }, rec) {
                        return true;
                    }
                }
                false
            });
            if stop {
                break 'outer;
            }
        }
    }

    /// Scans starting from `rid` (inclusive) in heap order; used by the
    /// clustered-index range scan once the B+-tree has located the first
    /// qualifying tuple.
    pub fn scan_from(
        &self,
        pool: &mut BufferPool,
        from: Rid,
        mut visit: impl FnMut(Rid, &[u8]) -> bool,
    ) {
        'outer: for (pidx, &pid) in self.pages.iter().enumerate().skip(from.page as usize) {
            let first_slot = if pidx == from.page as usize { from.slot } else { 0 };
            let stop = pool.with_page(pid, |pg| {
                for slot in first_slot..slotted::slot_count(pg) {
                    if let Some(rec) = slotted::get(pg, slot) {
                        if !visit(Rid { page: pidx as u32, slot }, rec) {
                            return true;
                        }
                    }
                }
                false
            });
            if stop {
                break 'outer;
            }
        }
    }

    /// Checked variant of [`scan`](HeapFile::scan): an injected read fault
    /// (or a torn directory entry) stops the scan with its `StorageError`
    /// instead of panicking. Records visited before the fault stand.
    pub fn try_scan(
        &self,
        pool: &mut BufferPool,
        mut visit: impl FnMut(Rid, &[u8]) -> bool,
    ) -> Result<(), StorageError> {
        for (pidx, &pid) in self.pages.iter().enumerate() {
            let stop = pool.checked_with_page(pid, |pg| {
                for (slot, rec) in slotted::iter(pg) {
                    if !visit(Rid { page: pidx as u32, slot }, rec) {
                        return true;
                    }
                }
                false
            })?;
            if stop {
                break;
            }
        }
        Ok(())
    }

    /// Checked variant of [`scan_from`](HeapFile::scan_from); see
    /// [`try_scan`](HeapFile::try_scan).
    pub fn try_scan_from(
        &self,
        pool: &mut BufferPool,
        from: Rid,
        mut visit: impl FnMut(Rid, &[u8]) -> bool,
    ) -> Result<(), StorageError> {
        for (pidx, &pid) in self.pages.iter().enumerate().skip(from.page as usize) {
            let first_slot = if pidx == from.page as usize { from.slot } else { 0 };
            let stop = pool.checked_with_page(pid, |pg| {
                for slot in first_slot..slotted::slot_count(pg) {
                    if let Some(rec) = slotted::get(pg, slot) {
                        if !visit(Rid { page: pidx as u32, slot }, rec) {
                            return true;
                        }
                    }
                }
                false
            })?;
            if stop {
                break;
            }
        }
        Ok(())
    }

    /// Frees every page back to the pool/disk and empties the heap.
    pub fn destroy(&mut self, pool: &mut BufferPool) {
        for pid in self.pages.drain(..) {
            pool.free(pid);
        }
        self.records = 0;
    }

    /// Serializes the heap directory (page list + record count). Page
    /// *content* belongs to the disk image; this is only the wiring.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.pages.len() as u64).to_le_bytes());
        for pid in &self.pages {
            out.extend_from_slice(&pid.0.to_le_bytes());
        }
        out.extend_from_slice(&self.records.to_le_bytes());
    }

    /// Inverse of [`HeapFile::save_state`]; `None` on truncated input.
    ///
    /// Deliberately does **not** cross-validate the directory against a
    /// disk: a torn directory restores structurally and then every access
    /// through it fails with [`StorageError::BadRid`], which is what
    /// recovery code probes for.
    pub fn restore_state(b: &mut &[u8]) -> Option<HeapFile> {
        use hazy_linalg::wire::{take_count, take_u32, take_u64};
        let n = take_count(b, 4)?;
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            pages.push(PageId(take_u32(b)?));
        }
        let records = take_u64(b)?;
        Some(HeapFile { pages, records })
    }
}

impl Default for HeapFile {
    fn default() -> Self {
        HeapFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{CostModel, VirtualClock};
    use crate::disk::SimDisk;

    fn pool() -> BufferPool {
        BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::free())), 8)
    }

    #[test]
    fn forged_page_count_is_undecodable() {
        assert!(HeapFile::restore_state(&mut &u64::MAX.to_le_bytes()[..]).is_none());
    }

    #[test]
    fn rid_packing_round_trips() {
        for rid in [Rid { page: 0, slot: 0 }, Rid { page: 12345, slot: 678 }] {
            assert_eq!(Rid::from_u64(rid.to_u64()), rid);
        }
    }

    #[test]
    fn append_get_update_delete() {
        let mut p = pool();
        let mut h = HeapFile::new();
        let r1 = h.append(&mut p, b"one!").unwrap();
        let r2 = h.append(&mut p, b"two!").unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(&mut p, r1, |b| b.to_vec()).unwrap(), b"one!");
        h.update_in_place(&mut p, r2, b"TWO!").unwrap();
        assert_eq!(h.get(&mut p, r2, |b| b.to_vec()).unwrap(), b"TWO!");
        h.delete(&mut p, r1).unwrap();
        assert_eq!(h.len(), 1);
        assert!(h.get(&mut p, r1, |_| ()).is_err());
    }

    #[test]
    fn patch_rewrites_within_record() {
        let mut p = pool();
        let mut h = HeapFile::new();
        let rid = h.append(&mut p, b"header:payload").unwrap();
        h.patch_in_place(&mut p, rid, 7, b"PAYLOAD").unwrap();
        assert_eq!(h.get(&mut p, rid, |b| b.to_vec()).unwrap(), b"header:PAYLOAD");
        assert!(h.patch_in_place(&mut p, rid, 14, b"x").is_err());
        assert!(h.patch_in_place(&mut p, Rid { page: 5, slot: 0 }, 0, b"x").is_err());
    }

    #[test]
    fn spans_many_pages_and_scans_in_order() {
        let mut p = pool();
        let mut h = HeapFile::new();
        let n = 2000u32;
        for k in 0..n {
            h.append(&mut p, &k.to_le_bytes()).unwrap();
        }
        assert!(h.page_count() > 1);
        let mut seen = Vec::new();
        h.scan(&mut p, |_, rec| {
            seen.push(u32::from_le_bytes(rec.try_into().unwrap()));
            true
        });
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn scan_stops_on_false() {
        let mut p = pool();
        let mut h = HeapFile::new();
        for k in 0..100u32 {
            h.append(&mut p, &k.to_le_bytes()).unwrap();
        }
        let mut count = 0;
        h.scan(&mut p, |_, _| {
            count += 1;
            count < 10
        });
        assert_eq!(count, 10);
    }

    #[test]
    fn scan_from_resumes_mid_heap() {
        let mut p = pool();
        let mut h = HeapFile::new();
        let mut rids = Vec::new();
        for k in 0..3000u32 {
            rids.push(h.append(&mut p, &k.to_le_bytes()).unwrap());
        }
        let start = rids[1500];
        let mut seen = Vec::new();
        h.scan_from(&mut p, start, |_, rec| {
            seen.push(u32::from_le_bytes(rec.try_into().unwrap()));
            true
        });
        assert_eq!(seen, (1500..3000).collect::<Vec<_>>());
    }

    #[test]
    fn destroy_frees_pages_for_reuse() {
        let mut p = pool();
        let mut h = HeapFile::new();
        for k in 0..5000u32 {
            h.append(&mut p, &k.to_le_bytes()).unwrap();
        }
        let live_before = p.disk().live_pages();
        h.destroy(&mut p);
        assert_eq!(h.len(), 0);
        assert!(p.disk().live_pages() < live_before);
        // a new heap reuses the freed pages instead of growing the disk
        let cap = p.disk().capacity_pages();
        let mut h2 = HeapFile::new();
        for k in 0..5000u32 {
            h2.append(&mut p, &k.to_le_bytes()).unwrap();
        }
        assert_eq!(p.disk().capacity_pages(), cap);
    }

    #[test]
    fn bad_rids_error() {
        let mut p = pool();
        let mut h = HeapFile::new();
        h.append(&mut p, b"x").unwrap();
        assert!(h.get(&mut p, Rid { page: 9, slot: 0 }, |_| ()).is_err());
        assert!(h.update_in_place(&mut p, Rid { page: 0, slot: 5 }, b"y").is_err());
    }
}
