//! A disk-resident B+-tree, used as the clustered index on `eps`.
//!
//! Hazy "maintains a clustered B+-tree index on `t.eps` in `H`"
//! (Section 3.2.2) so the incremental step can locate exactly the tuples with
//! `eps ∈ [lw, hw]`. Keys here are pairs `(k1, k2)` of `u64` — the engine
//! stores `(sortable_eps, id)` so duplicate margins stay unique — and values
//! are packed record ids into the clustered heap.
//!
//! The tree supports point lookup, ordered insertion, ascending range scans
//! via leaf links, and bulk loading from sorted input (what a
//! reorganization uses after sorting `H`). Deletion is intentionally absent:
//! Hazy rebuilds the index wholesale at every reorganization and tombstones
//! at the heap level in between (paper footnote 2 — deletes retrain from
//! scratch).

use crate::buffer::BufferPool;
use crate::disk::{PageId, PAGE_SIZE};
use crate::error::StorageError;

/// Composite key: `(primary, tiebreak)` compared lexicographically.
pub type Key = (u64, u64);

const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;

/// Max entries in a leaf: header 8 bytes, entries 24 bytes each.
pub const LEAF_CAP: usize = (PAGE_SIZE - 8) / 24; // 341
/// Max keys in an internal node (children = keys + 1).
pub const INTERNAL_CAP: usize = 409;
const CHILDREN_BASE: usize = 8 + 16 * INTERNAL_CAP; // 6552

/// Bulk-load fill targets (leave slack for later inserts).
const LEAF_FILL: usize = LEAF_CAP * 7 / 8;
const INT_FILL: usize = INTERNAL_CAP * 7 / 8;

// ---- little-endian field helpers -------------------------------------------------

fn get_u16(p: &[u8; PAGE_SIZE], off: usize) -> u16 {
    u16::from_le_bytes([p[off], p[off + 1]])
}
fn set_u16(p: &mut [u8; PAGE_SIZE], off: usize, v: u16) {
    p[off..off + 2].copy_from_slice(&v.to_le_bytes());
}
fn get_u32(p: &[u8; PAGE_SIZE], off: usize) -> u32 {
    u32::from_le_bytes(p[off..off + 4].try_into().expect("4 bytes"))
}
fn set_u32(p: &mut [u8; PAGE_SIZE], off: usize, v: u32) {
    p[off..off + 4].copy_from_slice(&v.to_le_bytes());
}
fn get_u64(p: &[u8; PAGE_SIZE], off: usize) -> u64 {
    u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"))
}
fn set_u64(p: &mut [u8; PAGE_SIZE], off: usize, v: u64) {
    p[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

// ---- node views -------------------------------------------------------------------

fn node_tag(p: &[u8; PAGE_SIZE]) -> u8 {
    p[0]
}
fn node_n(p: &[u8; PAGE_SIZE]) -> usize {
    get_u16(p, 2) as usize
}
fn set_node_n(p: &mut [u8; PAGE_SIZE], n: usize) {
    set_u16(p, 2, n as u16);
}

fn leaf_init(p: &mut [u8; PAGE_SIZE]) {
    p[0] = TAG_LEAF;
    set_node_n(p, 0);
    set_u32(p, 4, PageId::INVALID.0);
}
fn leaf_next(p: &[u8; PAGE_SIZE]) -> PageId {
    PageId(get_u32(p, 4))
}
fn leaf_set_next(p: &mut [u8; PAGE_SIZE], pid: PageId) {
    set_u32(p, 4, pid.0);
}
fn leaf_key(p: &[u8; PAGE_SIZE], i: usize) -> Key {
    (get_u64(p, 8 + 24 * i), get_u64(p, 8 + 24 * i + 8))
}
fn leaf_val(p: &[u8; PAGE_SIZE], i: usize) -> u64 {
    get_u64(p, 8 + 24 * i + 16)
}
fn leaf_set(p: &mut [u8; PAGE_SIZE], i: usize, k: Key, v: u64) {
    set_u64(p, 8 + 24 * i, k.0);
    set_u64(p, 8 + 24 * i + 8, k.1);
    set_u64(p, 8 + 24 * i + 16, v);
}
/// Shifts entries `[i, n)` one slot right to open slot `i`.
fn leaf_open_gap(p: &mut [u8; PAGE_SIZE], i: usize, n: usize) {
    let src = 8 + 24 * i;
    let end = 8 + 24 * n;
    p.copy_within(src..end, src + 24);
}

fn int_init(p: &mut [u8; PAGE_SIZE]) {
    p[0] = TAG_INTERNAL;
    set_node_n(p, 0);
}
fn int_key(p: &[u8; PAGE_SIZE], i: usize) -> Key {
    (get_u64(p, 8 + 16 * i), get_u64(p, 8 + 16 * i + 8))
}
fn int_set_key(p: &mut [u8; PAGE_SIZE], i: usize, k: Key) {
    set_u64(p, 8 + 16 * i, k.0);
    set_u64(p, 8 + 16 * i + 8, k.1);
}
fn int_child(p: &[u8; PAGE_SIZE], i: usize) -> PageId {
    PageId(get_u32(p, CHILDREN_BASE + 4 * i))
}
fn int_set_child(p: &mut [u8; PAGE_SIZE], i: usize, pid: PageId) {
    set_u32(p, CHILDREN_BASE + 4 * i, pid.0);
}

/// Number of keys `≤ key` in the node (binary search).
fn upper_bound(p: &[u8; PAGE_SIZE], n: usize, key: Key, keyf: fn(&[u8; PAGE_SIZE], usize) -> Key) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if keyf(p, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Number of keys `< key` in the node.
fn lower_bound(p: &[u8; PAGE_SIZE], n: usize, key: Key, keyf: fn(&[u8; PAGE_SIZE], usize) -> Key) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if keyf(p, mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

// ---- the tree ---------------------------------------------------------------------

/// The B+-tree handle. All page traffic goes through the caller's
/// [`BufferPool`].
#[derive(Debug)]
pub struct BTree {
    root: PageId,
    height: u32,
    len: u64,
    pages: Vec<PageId>,
}

enum InsertUp {
    Done,
    Split { sep: Key, right: PageId },
}

impl BTree {
    /// Creates an empty tree (a single empty leaf).
    pub fn new(pool: &mut BufferPool) -> BTree {
        BTree::try_new(pool).expect("unchecked tree creation hit an injected fault")
    }

    /// Checked variant of [`new`](BTree::new): an injected allocation or
    /// page-I/O fault surfaces as its [`StorageError`].
    pub fn try_new(pool: &mut BufferPool) -> Result<BTree, StorageError> {
        let root = pool.try_allocate()?;
        pool.checked_with_page_mut(root, leaf_init)?;
        Ok(BTree { root, height: 1, len: 0, pages: vec![root] })
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = just a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of pages owned by the tree.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Point lookup: the value stored under `key`, if any.
    pub fn get(&self, pool: &mut BufferPool, key: Key) -> Option<u64> {
        self.try_get(pool, key).expect("unchecked tree lookup hit a storage fault")
    }

    /// Checked point lookup: a dangling page reference (torn directory) or
    /// injected read fault is an `Err`, distinct from `Ok(None)` (key
    /// definitely absent).
    pub fn try_get(&self, pool: &mut BufferPool, key: Key) -> Result<Option<u64>, StorageError> {
        let mut pid = self.root;
        loop {
            enum Step {
                Descend(PageId),
                Found(Option<u64>),
            }
            let step = pool.checked_with_page(pid, |p| {
                let n = node_n(p);
                if node_tag(p) == TAG_INTERNAL {
                    Step::Descend(int_child(p, upper_bound(p, n, key, int_key)))
                } else {
                    let i = lower_bound(p, n, key, leaf_key);
                    Step::Found((i < n && leaf_key(p, i) == key).then(|| leaf_val(p, i)))
                }
            })?;
            match step {
                Step::Descend(child) => pid = child,
                Step::Found(v) => return Ok(v),
            }
        }
    }

    /// Inserts `key → val`, overwriting the stored value when `key` is
    /// already present. Re-pointing an existing key is what a
    /// remove-then-reinsert of the same entity at the same `eps` needs:
    /// the tree has no delete path, so the stale entry (whose record was
    /// tombstoned at the heap level) is redirected at the new record
    /// instead of being removed.
    pub fn upsert(&mut self, pool: &mut BufferPool, key: Key, val: u64) {
        self.try_upsert(pool, key, val).expect("unchecked tree upsert hit a storage fault")
    }

    /// Checked variant of [`upsert`](BTree::upsert); see
    /// [`try_get`](BTree::try_get) for the error contract.
    pub fn try_upsert(
        &mut self,
        pool: &mut BufferPool,
        key: Key,
        val: u64,
    ) -> Result<(), StorageError> {
        match self.insert(pool, key, val) {
            Err(StorageError::DuplicateKey) => {}
            other => return other,
        }
        let mut pid = self.root;
        loop {
            enum Step {
                Descend(PageId),
                Done,
            }
            let step = pool.checked_with_page_mut(pid, |p| {
                let n = node_n(p);
                if node_tag(p) == TAG_INTERNAL {
                    Step::Descend(int_child(p, upper_bound(p, n, key, int_key)))
                } else {
                    let i = lower_bound(p, n, key, leaf_key);
                    debug_assert!(i < n && leaf_key(p, i) == key, "duplicate key resolves");
                    leaf_set(p, i, key, val);
                    Step::Done
                }
            })?;
            match step {
                Step::Descend(child) => pid = child,
                Step::Done => return Ok(()),
            }
        }
    }

    /// Inserts `key → val`.
    ///
    /// # Errors
    /// [`StorageError::DuplicateKey`] if `key` is already present (the
    /// engine guarantees uniqueness by embedding the entity id in the key);
    /// [`StorageError::Io`] / [`StorageError::NoSpace`] when an injected
    /// device fault hits the page traffic.
    pub fn insert(&mut self, pool: &mut BufferPool, key: Key, val: u64) -> Result<(), StorageError> {
        match self.insert_rec(pool, self.root, key, val)? {
            InsertUp::Done => {}
            InsertUp::Split { sep, right } => {
                let new_root = pool.try_allocate()?;
                let (old_root, h) = (self.root, self.height);
                pool.checked_with_page_mut(new_root, |p| {
                    int_init(p);
                    set_node_n(p, 1);
                    int_set_key(p, 0, sep);
                    int_set_child(p, 0, old_root);
                    int_set_child(p, 1, right);
                })?;
                self.pages.push(new_root);
                self.root = new_root;
                self.height = h + 1;
            }
        }
        self.len += 1;
        Ok(())
    }

    fn insert_rec(
        &mut self,
        pool: &mut BufferPool,
        pid: PageId,
        key: Key,
        val: u64,
    ) -> Result<InsertUp, StorageError> {
        let is_internal = pool.checked_with_page(pid, |p| node_tag(p) == TAG_INTERNAL)?;
        if is_internal {
            let (idx, child) = pool.checked_with_page(pid, |p| {
                let i = upper_bound(p, node_n(p), key, int_key);
                (i, int_child(p, i))
            })?;
            match self.insert_rec(pool, child, key, val)? {
                InsertUp::Done => Ok(InsertUp::Done),
                InsertUp::Split { sep, right } => {
                    let full = pool.checked_with_page(pid, |p| node_n(p) >= INTERNAL_CAP)?;
                    if !full {
                        pool.checked_with_page_mut(pid, |p| {
                            let n = node_n(p);
                            // shift keys [idx, n) and children [idx+1, n+1)
                            for j in (idx..n).rev() {
                                let k = int_key(p, j);
                                int_set_key(p, j + 1, k);
                            }
                            for j in (idx + 1..=n).rev() {
                                let c = int_child(p, j);
                                int_set_child(p, j + 1, c);
                            }
                            int_set_key(p, idx, sep);
                            int_set_child(p, idx + 1, right);
                            set_node_n(p, n + 1);
                        })?;
                        return Ok(InsertUp::Done);
                    }
                    self.split_internal(pool, pid, idx, sep, right)
                }
            }
        } else {
            let full = pool.checked_with_page(pid, |p| node_n(p) >= LEAF_CAP)?;
            let dup = pool.checked_with_page(pid, |p| {
                let n = node_n(p);
                let i = lower_bound(p, n, key, leaf_key);
                i < n && leaf_key(p, i) == key
            })?;
            if dup {
                return Err(StorageError::DuplicateKey);
            }
            if !full {
                pool.checked_with_page_mut(pid, |p| {
                    let n = node_n(p);
                    let i = lower_bound(p, n, key, leaf_key);
                    leaf_open_gap(p, i, n);
                    leaf_set(p, i, key, val);
                    set_node_n(p, n + 1);
                })?;
                return Ok(InsertUp::Done);
            }
            self.split_leaf(pool, pid, key, val)
        }
    }

    fn split_leaf(
        &mut self,
        pool: &mut BufferPool,
        pid: PageId,
        key: Key,
        val: u64,
    ) -> Result<InsertUp, StorageError> {
        let right = pool.try_allocate()?;
        self.pages.push(right);
        // copy upper half out of the left leaf
        let (mid, moved, old_next) = pool.checked_with_page(pid, |p| {
            let n = node_n(p);
            let mid = n / 2;
            let moved: Vec<(Key, u64)> = (mid..n).map(|i| (leaf_key(p, i), leaf_val(p, i))).collect();
            (mid, moved, leaf_next(p))
        })?;
        pool.checked_with_page_mut(right, |p| {
            leaf_init(p);
            for (i, &(k, v)) in moved.iter().enumerate() {
                leaf_set(p, i, k, v);
            }
            set_node_n(p, moved.len());
            leaf_set_next(p, old_next);
        })?;
        pool.checked_with_page_mut(pid, |p| {
            set_node_n(p, mid);
            leaf_set_next(p, right);
        })?;
        let sep = moved[0].0;
        // insert the pending entry into whichever side owns it
        let target = if key < sep { pid } else { right };
        pool.checked_with_page_mut(target, |p| {
            let n = node_n(p);
            let i = lower_bound(p, n, key, leaf_key);
            leaf_open_gap(p, i, n);
            leaf_set(p, i, key, val);
            set_node_n(p, n + 1);
        })?;
        Ok(InsertUp::Split { sep, right })
    }

    fn split_internal(
        &mut self,
        pool: &mut BufferPool,
        pid: PageId,
        idx: usize,
        sep_in: Key,
        right_in: PageId,
    ) -> Result<InsertUp, StorageError> {
        // materialize the node plus the pending entry, then redistribute
        let (mut keys, mut children) = pool.checked_with_page(pid, |p| {
            let n = node_n(p);
            let keys: Vec<Key> = (0..n).map(|i| int_key(p, i)).collect();
            let children: Vec<PageId> = (0..=n).map(|i| int_child(p, i)).collect();
            (keys, children)
        })?;
        keys.insert(idx, sep_in);
        children.insert(idx + 1, right_in);
        let mid = keys.len() / 2;
        let promoted = keys[mid];
        let right = pool.try_allocate()?;
        self.pages.push(right);
        let right_keys = keys.split_off(mid + 1);
        keys.pop(); // `promoted` moves up
        let right_children = children.split_off(mid + 1);
        pool.checked_with_page_mut(pid, |p| {
            set_node_n(p, keys.len());
            for (i, &k) in keys.iter().enumerate() {
                int_set_key(p, i, k);
            }
            for (i, &c) in children.iter().enumerate() {
                int_set_child(p, i, c);
            }
        })?;
        pool.checked_with_page_mut(right, |p| {
            int_init(p);
            set_node_n(p, right_keys.len());
            for (i, &k) in right_keys.iter().enumerate() {
                int_set_key(p, i, k);
            }
            for (i, &c) in right_children.iter().enumerate() {
                int_set_child(p, i, c);
            }
        })?;
        Ok(InsertUp::Split { sep: promoted, right })
    }

    /// Visits entries with `key ≥ lo` in ascending order until the visitor
    /// returns `false`. This is the watermark range scan: start at `lw`,
    /// stop once past `hw`.
    pub fn scan_from(
        &self,
        pool: &mut BufferPool,
        lo: Key,
        visit: impl FnMut(Key, u64) -> bool,
    ) {
        self.try_scan_from(pool, lo, visit).expect("unchecked tree scan hit a storage fault")
    }

    /// Checked variant of [`scan_from`](BTree::scan_from): an injected read
    /// fault stops the scan with its `StorageError`; entries visited before
    /// the fault stand.
    pub fn try_scan_from(
        &self,
        pool: &mut BufferPool,
        lo: Key,
        mut visit: impl FnMut(Key, u64) -> bool,
    ) -> Result<(), StorageError> {
        // descend to the leaf that could contain `lo`
        let mut pid = self.root;
        loop {
            let next = pool.checked_with_page(pid, |p| {
                if node_tag(p) == TAG_INTERNAL {
                    Some(int_child(p, upper_bound(p, node_n(p), lo, int_key)))
                } else {
                    None
                }
            })?;
            match next {
                Some(child) => pid = child,
                None => break,
            }
        }
        let mut start =
            Some(pool.checked_with_page(pid, |p| lower_bound(p, node_n(p), lo, leaf_key))?);
        let mut leaf = pid;
        loop {
            let (stop, next) = pool.checked_with_page(leaf, |p| {
                let n = node_n(p);
                for i in start.take().unwrap_or(0)..n {
                    if !visit(leaf_key(p, i), leaf_val(p, i)) {
                        return (true, PageId::INVALID);
                    }
                }
                (false, leaf_next(p))
            })?;
            if stop || next == PageId::INVALID {
                return Ok(());
            }
            leaf = next;
        }
    }

    /// Builds a tree from entries **sorted ascending by key** (duplicates
    /// forbidden), packing pages to a fill factor that leaves room for later
    /// inserts. This is the index rebuild inside a reorganization.
    ///
    /// # Panics
    /// Debug-asserts sortedness; a reorganization always sorts first.
    pub fn bulk_load(pool: &mut BufferPool, entries: &[(Key, u64)]) -> BTree {
        BTree::try_bulk_load(pool, entries).expect("unchecked bulk load hit an injected fault")
    }

    /// Checked variant of [`bulk_load`](BTree::bulk_load): injected
    /// allocation (`ENOSPC`) or page-I/O faults surface as `Err`.
    pub fn try_bulk_load(
        pool: &mut BufferPool,
        entries: &[(Key, u64)],
    ) -> Result<BTree, StorageError> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "bulk_load needs sorted unique keys");
        if entries.is_empty() {
            return BTree::try_new(pool);
        }
        let mut pages = Vec::new();
        // --- leaves ---
        let mut level: Vec<(Key, PageId)> = Vec::new();
        let mut prev_leaf: Option<PageId> = None;
        for chunk in entries.chunks(LEAF_FILL.max(1)) {
            let pid = pool.try_allocate()?;
            pages.push(pid);
            pool.checked_with_page_mut(pid, |p| {
                leaf_init(p);
                for (i, &(k, v)) in chunk.iter().enumerate() {
                    leaf_set(p, i, k, v);
                }
                set_node_n(p, chunk.len());
            })?;
            if let Some(prev) = prev_leaf {
                pool.checked_with_page_mut(prev, |p| leaf_set_next(p, pid))?;
            }
            prev_leaf = Some(pid);
            level.push((chunk[0].0, pid));
        }
        // --- internal levels ---
        let mut height = 1;
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Key, PageId)> = Vec::new();
            for group in level.chunks(INT_FILL.max(2)) {
                let pid = pool.try_allocate()?;
                pages.push(pid);
                pool.checked_with_page_mut(pid, |p| {
                    int_init(p);
                    set_node_n(p, group.len() - 1);
                    for (i, &(k, child)) in group.iter().enumerate() {
                        int_set_child(p, i, child);
                        if i > 0 {
                            int_set_key(p, i - 1, k);
                        }
                    }
                })?;
                next_level.push((group[0].0, pid));
            }
            level = next_level;
        }
        Ok(BTree { root: level[0].1, height, len: entries.len() as u64, pages })
    }

    /// Frees every page back to the pool/disk. The tree is unusable after.
    pub fn destroy(&mut self, pool: &mut BufferPool) {
        for pid in self.pages.drain(..) {
            pool.free(pid);
        }
        self.len = 0;
    }

    /// Serializes the tree's directory (root, height, entry count, owned
    /// pages). Node content lives in the disk image.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.root.0.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.pages.len() as u64).to_le_bytes());
        for pid in &self.pages {
            out.extend_from_slice(&pid.0.to_le_bytes());
        }
    }

    /// Inverse of [`BTree::save_state`]; `None` on truncated input.
    pub fn restore_state(b: &mut &[u8]) -> Option<BTree> {
        use hazy_linalg::wire::{take_count, take_u32, take_u64};
        let root = PageId(take_u32(b)?);
        let height = take_u32(b)?;
        let len = take_u64(b)?;
        let n = take_count(b, 4)?;
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            pages.push(PageId(take_u32(b)?));
        }
        Some(BTree { root, height, len, pages })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{CostModel, VirtualClock};
    use crate::disk::SimDisk;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::free())), cap)
    }

    #[test]
    fn forged_page_count_is_undecodable() {
        let mut b = vec![0u8; 16]; // root, height, len
        b.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(BTree::restore_state(&mut &b[..]).is_none());
    }

    #[test]
    fn insert_and_get_small() {
        let mut p = pool(64);
        let mut t = BTree::new(&mut p);
        for k in 0..100u64 {
            t.insert(&mut p, (k * 7 % 100, k), k * 10).unwrap();
        }
        assert_eq!(t.len(), 100);
        for k in 0..100u64 {
            assert_eq!(t.get(&mut p, (k * 7 % 100, k)), Some(k * 10));
        }
        assert_eq!(t.get(&mut p, (1000, 0)), None);
    }

    #[test]
    fn grows_past_one_leaf_and_stays_sorted() {
        let mut p = pool(256);
        let mut t = BTree::new(&mut p);
        let n = 5000u64;
        // adversarial insertion order: high-low interleave
        for k in 0..n {
            let key = if k % 2 == 0 { k } else { n * 2 - k };
            t.insert(&mut p, (key, 0), key).unwrap();
        }
        assert!(t.height() >= 2, "height {}", t.height());
        let mut seen = Vec::new();
        t.scan_from(&mut p, (0, 0), |k, _| {
            seen.push(k.0);
            true
        });
        assert_eq!(seen.len(), n as usize);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "scan out of order");
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut p = pool(16);
        let mut t = BTree::new(&mut p);
        t.insert(&mut p, (5, 5), 1).unwrap();
        assert_eq!(t.insert(&mut p, (5, 5), 2), Err(StorageError::DuplicateKey));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn upsert_overwrites_in_place_and_inserts_fresh_keys() {
        let mut p = pool(128);
        let mut t = BTree::new(&mut p);
        // large enough to exercise overwrites below multi-level roots
        for k in (0..2000u64).rev() {
            t.upsert(&mut p, (k, k), k);
        }
        assert_eq!(t.len(), 2000);
        for k in [0u64, 7, 999, 1999] {
            t.upsert(&mut p, (k, k), k + 10_000);
            assert_eq!(t.get(&mut p, (k, k)), Some(k + 10_000));
        }
        // no new entries were created, neighbours are untouched
        assert_eq!(t.len(), 2000);
        assert_eq!(t.get(&mut p, (8, 8)), Some(8));
    }

    #[test]
    fn range_scan_from_midpoint() {
        let mut p = pool(128);
        let mut t = BTree::new(&mut p);
        for k in (0..2000u64).rev() {
            t.insert(&mut p, (k * 2, k), k).unwrap();
        }
        // all keys are even; start at an absent odd key
        let mut seen = Vec::new();
        t.scan_from(&mut p, (1001, 0), |k, _| {
            seen.push(k.0);
            k.0 < 1100
        });
        assert_eq!(seen[0], 1002);
        assert_eq!(*seen.last().unwrap(), 1100);
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let mut p = pool(256);
        let entries: Vec<(Key, u64)> = (0..10_000u64).map(|k| ((k * 3, k), k)).collect();
        let t = BTree::bulk_load(&mut p, &entries);
        assert_eq!(t.len(), 10_000);
        for &(k, v) in entries.iter().step_by(97) {
            assert_eq!(t.get(&mut p, k), Some(v));
        }
        // full scan sees everything in order
        let mut count = 0u64;
        let mut last = None;
        t.scan_from(&mut p, (0, 0), |k, _| {
            assert!(last.is_none_or(|l| l < k));
            last = Some(k);
            count += 1;
            true
        });
        assert_eq!(count, 10_000);
    }

    #[test]
    fn bulk_load_empty_is_empty_tree() {
        let mut p = pool(8);
        let t = BTree::bulk_load(&mut p, &[]);
        assert!(t.is_empty());
        assert_eq!(t.get(&mut p, (0, 0)), None);
    }

    #[test]
    fn inserts_into_bulk_loaded_tree() {
        let mut p = pool(256);
        let entries: Vec<(Key, u64)> = (0..1000u64).map(|k| ((k * 2, 0), k)).collect();
        let mut t = BTree::bulk_load(&mut p, &entries);
        for k in 0..1000u64 {
            t.insert(&mut p, (k * 2 + 1, 0), k + 100_000).unwrap();
        }
        assert_eq!(t.len(), 2000);
        let mut count = 0;
        t.scan_from(&mut p, (0, 0), |_, _| {
            count += 1;
            true
        });
        assert_eq!(count, 2000);
    }

    #[test]
    fn destroy_returns_pages() {
        let mut p = pool(256);
        let entries: Vec<(Key, u64)> = (0..5000u64).map(|k| ((k, 0), k)).collect();
        let mut t = BTree::bulk_load(&mut p, &entries);
        let live = p.disk().live_pages();
        assert!(live > 10);
        t.destroy(&mut p);
        assert!(p.disk().live_pages() < live);
    }

    #[test]
    fn works_under_tiny_buffer_pool() {
        // pool smaller than the tree: every op faults pages in and out
        let mut p = pool(3);
        let mut t = BTree::new(&mut p);
        for k in 0..3000u64 {
            t.insert(&mut p, (k, 0), k).unwrap();
        }
        for k in (0..3000u64).step_by(113) {
            assert_eq!(t.get(&mut p, (k, 0)), Some(k));
        }
    }
}
