//! The on-disk store (Section 3.2): a heap file of `(id, label, eps, f)`
//! tuples with a hash index `id → rid`, over the buffer pool.
//!
//! Clustered (the Hazy strategy's scratch table `H`), the heap is
//! physically ordered by `eps` descending and carries a clustered B+-tree
//! on `eps` (keys are order-reversed so ascending key order equals
//! descending `eps` — the heap's physical order): the tree finds the first
//! tuple of a `[lw, hw]` band and the walk proceeds in physical heap order,
//! so the range scan is sequential I/O. Entities appended between rewrites
//! land in an unsorted *tail* region of the heap (indexed by both indexes).
//! Unclustered, it is the plain materialized view of the naive strategy.
//!
//! Every page touch — and nothing else — is charged here, by the pool.
//! Visitors see tuples borrowed from the pinned page's bytes: the fixed
//! prefix is decoded eagerly, the feature payload only when a visitor asks
//! for a classification.

use hazy_learn::{Label, LinearModel};
use hazy_linalg::{decode_fvec_ref, wire, FeatureVecRef, OrdF64};
use hazy_storage::{
    BTree, BufferPool, HashIndex, HeapFile, Rid, SimDisk, StorageError, VirtualClock,
};

use crate::cost::charged_margin;
use crate::entity::{
    decode_tuple_header, encode_tuple, Entity, HTuple, HTupleRef, TUPLE_HEADER, TUPLE_LABEL_OFFSET,
};
use crate::store::{Row, Store};
use crate::view::Architecture;

/// B+-tree key for a tuple: `(order-reversed eps, id)`. Ascending key order
/// is descending `eps` order, matching the clustered heap.
fn eps_key(eps: f64, id: u64) -> (u64, u64) {
    (OrdF64(-eps).sortable_key(), id)
}

/// Inverse of the first key component.
fn key_eps(k0: u64) -> f64 {
    -OrdF64::from_sortable_key(k0).0
}

/// Encodes and appends one tuple. Entity tuples are far below the page-size
/// record limit, and this path injects no device faults.
fn put(heap: &mut HeapFile, pool: &mut BufferPool, scratch: &mut Vec<u8>, t: &HTuple) -> Rid {
    scratch.clear();
    encode_tuple(t, scratch);
    heap.append(pool, scratch)
        .expect("entity tuple fits a page")
}

/// A tuple borrowed from a pinned page.
pub struct PageRow<'a> {
    id: u64,
    label: Label,
    eps: f64,
    bytes: &'a [u8],
}

impl<'a> PageRow<'a> {
    fn decode(bytes: &'a [u8]) -> Result<PageRow<'a>, StorageError> {
        let (id, label, eps) = decode_tuple_header(bytes)?;
        Ok(PageRow {
            id,
            label,
            eps,
            bytes,
        })
    }

    /// A record met by a scan. Heap pages are written only by
    /// [`encode_tuple`] through this store's own pool (and restored only
    /// from its own image), so every live record decodes.
    fn of(bytes: &'a [u8]) -> PageRow<'a> {
        PageRow::decode(bytes).expect("heap record written by encode_tuple")
    }

    /// The feature vector, borrowed from the page (same proof as
    /// [`of`](PageRow::of): the payload behind a header that decoded is the
    /// one `encode_tuple` wrote).
    pub(crate) fn features(&self) -> FeatureVecRef<'a> {
        let mut rest = &self.bytes[TUPLE_HEADER..];
        decode_fvec_ref(&mut rest).expect("heap record written by encode_tuple")
    }

    /// The whole tuple, still borrowing the page.
    pub(crate) fn tuple_ref(&self) -> HTupleRef<'a> {
        HTupleRef {
            id: self.id,
            label: self.label,
            eps: self.eps,
            f: self.features(),
        }
    }
}

impl Row for PageRow<'_> {
    fn id(&self) -> u64 {
        self.id
    }

    fn label(&self) -> Label {
        self.label
    }

    fn eps(&self) -> f64 {
        self.eps
    }

    fn margin(&self, model: &LinearModel, clock: &VirtualClock) -> f64 {
        charged_margin(clock, model, &self.features())
    }
}

/// What a clustered store keeps beyond heap + hash index.
struct Cluster {
    btree: BTree,
    /// Live tuples in the ε-sorted segment (heap positions before the tail).
    n_sorted: u64,
    /// First record of the unsorted tail, if any.
    first_tail: Option<Rid>,
    /// Rewrites performed (the hybrid watches this to refresh its ε-map).
    epoch: u64,
}

/// The strategies call clustered-only methods only on stores they loaded (or
/// restored) as clustered.
fn clustered(c: &Option<Cluster>) -> &Cluster {
    c.as_ref().expect("clustered store")
}

/// Heap file + hash index (+ clustered B+-tree) over a buffer pool.
pub struct DiskStore {
    pool: BufferPool,
    heap: HeapFile,
    hash: HashIndex,
    cluster: Option<Cluster>,
    scratch: Vec<u8>,
}

impl DiskStore {
    /// Rewrites performed so far.
    pub(crate) fn epoch(&self) -> u64 {
        clustered(&self.cluster).epoch
    }

    fn put(&mut self, t: &HTuple) -> Rid {
        put(&mut self.heap, &mut self.pool, &mut self.scratch, t)
    }

    /// Entity ids are unique: the view's key declaration.
    fn index(&mut self, id: u64, rid: Rid) {
        self.hash
            .insert(&mut self.pool, id, rid.to_u64())
            .expect("unique entity ids");
    }

    /// Patches the one label byte of a record a visitor was just shown, so
    /// the rid is live and the offset inside the fixed prefix.
    fn patch_label(&mut self, rid: Rid, l: Label) {
        self.heap
            .patch_in_place(&mut self.pool, rid, TUPLE_LABEL_OFFSET, &[l as u8])
            .expect("label byte of a live record");
    }

    /// Rids of the index entries with `eps ∈ [lw, hw]` (leaf walk).
    fn band_rids(&mut self, lw: f64, hw: f64) -> Vec<Rid> {
        let mut rids = Vec::new();
        clustered(&self.cluster)
            .btree
            .scan_from(&mut self.pool, eps_key(hw, 0), |k, v| {
                if key_eps(k.0) < lw {
                    return false;
                }
                rids.push(Rid::from_u64(v));
                true
            });
        rids
    }
}

impl Store for DiskStore {
    type Medium = BufferPool;
    type Row<'a> = PageRow<'a>;
    type Loc = Rid;

    const NAIVE: Architecture = Architecture::NaiveDisk;
    const HAZY: Architecture = Architecture::HazyDisk;

    fn clock_of(pool: &BufferPool) -> &VirtualClock {
        pool.disk().clock()
    }

    fn load(
        mut pool: BufferPool,
        tuples: impl ExactSizeIterator<Item = HTuple>,
        clustered: bool,
    ) -> DiskStore {
        let n = tuples.len();
        let (mut heap, mut scratch) = (HeapFile::new(), Vec::new());
        if clustered {
            // stage the raw tuples into an unindexed heap; the strategy's
            // initial organization rewrites them clustered
            for t in tuples {
                put(&mut heap, &mut pool, &mut scratch, &t);
            }
            let btree = BTree::new(&mut pool);
            let hash = HashIndex::with_capacity(&mut pool, n);
            let cluster = Some(Cluster {
                btree,
                n_sorted: 0,
                first_tail: None,
                epoch: 0,
            });
            return DiskStore {
                pool,
                heap,
                hash,
                cluster,
                scratch,
            };
        }
        let hash = HashIndex::with_capacity(&mut pool, n);
        let mut store = DiskStore {
            pool,
            heap,
            hash,
            cluster: None,
            scratch,
        };
        for t in tuples {
            let rid = store.put(&t);
            store.index(t.id, rid);
        }
        store.pool.flush_all();
        store
    }

    fn clock(&self) -> &VirtualClock {
        self.pool.disk().clock()
    }

    fn len(&self) -> u64 {
        self.heap.len()
    }

    fn append(&mut self, t: HTuple) {
        let rid = self.put(&t);
        if let Some(c) = &mut self.cluster {
            c.first_tail.get_or_insert(rid);
            // upsert: a removed entity leaves its stale key in the tree (no
            // delete path); re-inserting the same id at the same eps must
            // redirect that key at the live record
            c.btree
                .upsert(&mut self.pool, eps_key(t.eps, t.id), rid.to_u64());
        }
        // the index insert every append makes reports a live id: its old
        // record is retired like any removal and the id re-pointed
        match self.hash.insert(&mut self.pool, t.id, rid.to_u64()) {
            Err(StorageError::DuplicateKey) => {
                self.delete(t.id);
                self.index(t.id, rid);
            }
            r => r.expect("this path injects no device faults"),
        }
    }

    fn delete(&mut self, id: u64) -> bool {
        let Some(rid) = self.locate(id) else {
            return false;
        };
        // tombstone the record and drop the hash entry (both just resolved
        // through the index); the B+-tree keeps a stale entry (it has no
        // delete path) — every consumer of index rids tolerates dead
        // records, and the next rewrite rebuilds the tree from the live
        // heap. Slots are never reused, so the dead rid can never alias a
        // later record.
        self.heap
            .delete(&mut self.pool, rid)
            .expect("indexed rid resolves");
        self.hash
            .remove(&mut self.pool, id)
            .expect("indexed key removes");
        if let Some(c) = &mut self.cluster {
            if c.first_tail.is_none_or(|t| rid < t) {
                // the record sat in the ε-sorted segment: the members walk
                // counts *live* sorted records, so the boundary moves up
                c.n_sorted -= 1;
            }
        }
        self.pool.flush_all();
        true
    }

    fn locate(&mut self, id: u64) -> Option<Rid> {
        self.hash.get(&mut self.pool, id).map(Rid::from_u64)
    }

    fn with_row<R>(&mut self, rid: Rid, f: impl FnOnce(&PageRow<'_>) -> R) -> Option<R> {
        // the closure runs while the page is pinned, so no copy is made; a
        // dangling rid or an undecodable record reads as absent
        self.heap
            .get(&mut self.pool, rid, |bytes| {
                PageRow::decode(bytes).map(|row| f(&row))
            })
            .ok()?
            .ok()
    }

    fn scan_all(&mut self, mut visit: impl FnMut(&PageRow<'_>)) {
        self.heap.scan(&mut self.pool, |_, bytes| {
            visit(&PageRow::of(bytes));
            true
        });
    }

    /// Flipped labels are patched as single bytes after the scan (the scan
    /// closure holds the pool).
    fn relabel_all(&mut self, mut visit: impl FnMut(&PageRow<'_>) -> Option<Label>) {
        let mut changed: Vec<(Rid, Label)> = Vec::new();
        self.heap.scan(&mut self.pool, |rid, bytes| {
            changed.extend(visit(&PageRow::of(bytes)).map(|l| (rid, l)));
            true
        });
        for (rid, l) in changed {
            self.patch_label(rid, l);
        }
        self.pool.flush_all();
    }

    fn evacuate(&mut self) -> Vec<Entity> {
        // one sequential scan, entities materialized off the page bytes
        let mut entities = Vec::with_capacity(self.heap.len() as usize);
        self.scan_all(|row| entities.push(Entity::new(row.id, row.features().to_owned())));
        entities
    }

    fn footprint(&self) -> usize {
        0
    }

    fn save_image(&self, out: &mut Vec<u8>) {
        if let Some(c) = &self.cluster {
            out.extend_from_slice(&c.n_sorted.to_le_bytes());
            out.extend_from_slice(&c.epoch.to_le_bytes());
            out.extend_from_slice(&c.first_tail.map_or(u64::MAX, Rid::to_u64).to_le_bytes());
        }
        self.pool.disk().save_state(out);
        self.pool.save_state(out);
        self.heap.save_state(out);
        if let Some(c) = &self.cluster {
            c.btree.save_state(out);
        }
        self.hash.save_state(out);
    }

    /// Disk image first, then the pool over it, then the directories that
    /// wire records to pages.
    fn restore_image(b: &mut &[u8], clock: VirtualClock, clustered: bool) -> Option<DiskStore> {
        let control = if clustered {
            let n_sorted = wire::take_u64(b)?;
            let epoch = wire::take_u64(b)?;
            let raw = wire::take_u64(b)?;
            Some((
                n_sorted,
                epoch,
                (raw != u64::MAX).then(|| Rid::from_u64(raw)),
            ))
        } else {
            None
        };
        let disk = SimDisk::restore_state(b, clock)?;
        let pool = BufferPool::restore_state(b, disk)?;
        let heap = HeapFile::restore_state(b)?;
        let cluster = match control {
            Some((n_sorted, epoch, first_tail)) => Some(Cluster {
                btree: BTree::restore_state(b)?,
                n_sorted,
                first_tail,
                epoch,
            }),
            None => None,
        };
        let hash = HashIndex::restore_state(b)?;
        Some(DiskStore {
            pool,
            heap,
            hash,
            cluster,
            scratch: Vec::new(),
        })
    }

    fn has_tail(&self) -> bool {
        clustered(&self.cluster).first_tail.is_some()
    }

    fn scan_members(&mut self, lw: f64, mut visit: impl FnMut(&PageRow<'_>)) {
        let Cluster {
            n_sorted,
            first_tail,
            ..
        } = *clustered(&self.cluster);
        // sorted segment: stop at the low watermark, and at the segment
        // boundary regardless (the tail is visited separately below)
        let mut seen = 0u64;
        self.heap.scan(&mut self.pool, |_, bytes| {
            if seen >= n_sorted {
                return false;
            }
            seen += 1;
            let row = PageRow::of(bytes);
            if row.eps < lw {
                return false;
            }
            visit(&row);
            true
        });
        if let Some(first) = first_tail {
            self.heap.scan_from(&mut self.pool, first, |_, bytes| {
                visit(&PageRow::of(bytes));
                true
            });
        }
    }

    /// The sorted segment's rids are physically consecutive, so this is
    /// (buffered) sequential I/O; a flipped label is patched as a single
    /// byte instead of re-encoding the tuple.
    fn band_walk(
        &mut self,
        lw: f64,
        hw: f64,
        mut visit: impl FnMut(&PageRow<'_>) -> Option<Label>,
    ) {
        for rid in self.band_rids(lw, hw) {
            // a stale index entry for a removed entity is skipped; the next
            // rewrite rebuilds the tree from the live heap
            if let Ok(Some(l)) = self
                .heap
                .get(&mut self.pool, rid, |bytes| visit(&PageRow::of(bytes)))
            {
                self.patch_label(rid, l);
            }
        }
        self.pool.flush_all();
    }

    /// Entries whose heap record is gone are skipped (see
    /// [`band_walk`](Store::band_walk)).
    fn band_len(&mut self, lw: f64, hw: f64) -> u64 {
        let rids = self.band_rids(lw, hw);
        rids.into_iter()
            .filter(|&rid| self.heap.get(&mut self.pool, rid, |_| ()).is_ok())
            .count() as u64
    }

    fn take_all(&mut self) -> (Vec<HTuple>, usize) {
        // one sequential pass; the owned copy is made once per tuple for
        // the rewrite that follows
        let mut tuples = Vec::with_capacity(self.heap.len() as usize);
        self.heap.scan(&mut self.pool, |_, bytes| {
            tuples.push(PageRow::of(bytes).tuple_ref().to_owned());
            true
        });
        let split = (clustered(&self.cluster).n_sorted as usize).min(tuples.len());
        (tuples, split)
    }

    /// Reclustering is a physical rewrite: the heap is written out in the
    /// given order and both indexes are rebuilt.
    fn rewrite(&mut self, tuples: Vec<HTuple>) {
        let mut old = self.cluster.take().expect("clustered store");
        self.heap.destroy(&mut self.pool);
        old.btree.destroy(&mut self.pool);
        self.hash.destroy(&mut self.pool);
        self.hash = HashIndex::with_capacity(&mut self.pool, tuples.len());
        let mut entries: Vec<((u64, u64), u64)> = Vec::with_capacity(tuples.len());
        for t in &tuples {
            let rid = self.put(t);
            entries.push((eps_key(t.eps, t.id), rid.to_u64()));
            self.index(t.id, rid);
        }
        let btree = BTree::bulk_load(&mut self.pool, &entries);
        self.pool.flush_all();
        self.cluster = Some(Cluster {
            btree,
            n_sorted: tuples.len() as u64,
            first_tail: None,
            epoch: old.epoch + 1,
        });
    }
}
