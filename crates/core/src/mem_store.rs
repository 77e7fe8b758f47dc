//! The main-memory store (Section 3.5.1): a `Vec` of tuples — ε-sorted run
//! then unsorted tail when clustered — plus an id map.
//!
//! Because classification output is a pure function of examples +
//! entities, nothing here needs to be persistent: on memory pressure the
//! structure can simply be dropped and recomputed, which is why the paper
//! calls main memory "safe" for this view.

use std::collections::HashMap;

use hazy_learn::{Label, LinearModel};
use hazy_linalg::{decode_fvec, encode_fvec, wire};
use hazy_storage::VirtualClock;

use crate::cost::charged_margin;
use crate::entity::{Entity, HTuple};
use crate::store::{Row, Store};
use crate::view::Architecture;

impl Row for HTuple {
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
        charged_margin(clock, model, &self.f)
    }
}

/// Tuples in a `Vec`, found by id through a position map.
pub struct MemStore {
    clock: VirtualClock,
    /// `[0, sorted_len)` is sorted by eps descending; the rest is the
    /// unsorted tail of entities appended since the last rewrite. An
    /// unclustered store is all tail.
    data: Vec<HTuple>,
    sorted_len: usize,
    idmap: HashMap<u64, u32>,
    /// Whether `eps` is a cluster key worth keeping: an unclustered store's
    /// image and footprint leave it out.
    clustered: bool,
}

impl MemStore {
    /// The tuple of entity `id` — the shared-reference lookup concurrent
    /// readers use.
    pub(crate) fn get(&self, id: u64) -> Option<&HTuple> {
        Some(&self.data[*self.idmap.get(&id)? as usize])
    }

    /// Indices `[start, end)` of the sorted run intersecting `[lw, hw]`.
    fn band_range(&self, lw: f64, hw: f64) -> (usize, usize) {
        let run = &self.data[..self.sorted_len];
        (
            run.partition_point(|t| t.eps > hw),
            run.partition_point(|t| t.eps >= lw),
        )
    }

    /// Order-preserving removal of the tuple at `idx`, whose id the caller
    /// has already unmapped: the sorted run stays sorted and the tail keeps
    /// its insertion order; every tuple behind the removed slot shifts down
    /// one position.
    fn remove_at(&mut self, idx: u32) {
        self.data.remove(idx as usize);
        if (idx as usize) < self.sorted_len {
            self.sorted_len -= 1;
        }
        for v in self.idmap.values_mut() {
            if *v > idx {
                *v -= 1;
            }
        }
        self.clock.charge_cpu_ops(self.data.len() as u64);
    }

    fn reindex(&mut self) {
        self.idmap.clear();
        self.idmap
            .extend(self.data.iter().enumerate().map(|(i, t)| (t.id, i as u32)));
    }
}

impl Store for MemStore {
    type Medium = VirtualClock;
    type Row<'a> = HTuple;
    type Loc = usize;

    const NAIVE: Architecture = Architecture::NaiveMem;
    const HAZY: Architecture = Architecture::HazyMem;

    fn clock_of(medium: &VirtualClock) -> &VirtualClock {
        medium
    }

    fn load(
        clock: VirtualClock,
        tuples: impl ExactSizeIterator<Item = HTuple>,
        clustered: bool,
    ) -> MemStore {
        let mut store = MemStore {
            clock,
            data: tuples.collect(),
            sorted_len: 0,
            idmap: HashMap::new(),
            clustered,
        };
        if !clustered {
            // a clustered load is staging: the rewrite that follows indexes
            store.reindex();
        }
        store
    }

    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn append(&mut self, t: HTuple) {
        // the map insert every append makes is also the live-id test; the
        // new mapping (one past the end) shifts down with the rest
        if let Some(old) = self.idmap.insert(t.id, self.data.len() as u32) {
            self.remove_at(old);
        }
        self.data.push(t);
    }

    fn delete(&mut self, id: u64) -> bool {
        let Some(idx) = self.idmap.remove(&id) else {
            return false;
        };
        self.remove_at(idx);
        true
    }

    fn locate(&mut self, id: u64) -> Option<usize> {
        self.idmap.get(&id).map(|&i| i as usize)
    }

    fn with_row<R>(&mut self, loc: usize, f: impl FnOnce(&HTuple) -> R) -> Option<R> {
        self.data.get(loc).map(f)
    }

    fn scan_all(&mut self, visit: impl FnMut(&HTuple)) {
        self.data.iter().for_each(visit);
    }

    fn relabel_all(&mut self, mut visit: impl FnMut(&HTuple) -> Option<Label>) {
        for t in &mut self.data {
            if let Some(l) = visit(t) {
                t.label = l;
            }
        }
    }

    fn evacuate(&mut self) -> Vec<Entity> {
        // one in-memory pass (physical order is irrelevant to the consumer)
        self.clock.charge_cpu_ops(self.data.len() as u64);
        self.data
            .iter()
            .map(|t| Entity::new(t.id, t.f.clone()))
            .collect()
    }

    fn footprint(&self) -> usize {
        let fixed = if self.clustered { 8 + 8 + 1 } else { 8 + 1 };
        self.data.iter().map(|t| fixed + t.f.mem_bytes()).sum()
    }

    fn save_image(&self, out: &mut Vec<u8>) {
        if self.clustered {
            out.extend_from_slice(&(self.sorted_len as u64).to_le_bytes());
        }
        out.extend_from_slice(&(self.data.len() as u64).to_le_bytes());
        for t in &self.data {
            out.extend_from_slice(&t.id.to_le_bytes());
            if self.clustered {
                out.extend_from_slice(&t.eps.to_bits().to_le_bytes());
            }
            out.push(t.label as u8);
            encode_fvec(&t.f, out);
        }
    }

    /// The id map is rebuilt from the tuple order — derived structure, not
    /// serialized state.
    fn restore_image(b: &mut &[u8], clock: VirtualClock, clustered: bool) -> Option<MemStore> {
        let sorted_len = if clustered {
            usize::try_from(wire::take_u64(b)?).ok()?
        } else {
            0
        };
        // a tuple encodes to at least id + label + an empty feature vector,
        // plus eps when clustered
        let n = wire::take_count(b, 8 + 1 + 5 + if clustered { 8 } else { 0 })?;
        if sorted_len > n {
            return None;
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            let id = wire::take_u64(b)?;
            let eps = if clustered { wire::take_f64(b)? } else { 0.0 };
            let label = wire::take_u8(b)? as i8;
            if label != 1 && label != -1 {
                return None;
            }
            data.push(HTuple {
                id,
                label,
                eps,
                f: decode_fvec(b)?,
            });
        }
        let mut store = MemStore {
            clock,
            data,
            sorted_len,
            idmap: HashMap::with_capacity(n),
            clustered,
        };
        store.reindex();
        Some(store)
    }

    fn has_tail(&self) -> bool {
        self.data.len() > self.sorted_len
    }

    fn scan_members(&mut self, lw: f64, mut visit: impl FnMut(&HTuple)) {
        let (run, tail) = self.data.split_at(self.sorted_len);
        for t in run {
            if t.eps < lw {
                break;
            }
            visit(t);
        }
        tail.iter().for_each(visit);
    }

    fn band_walk(&mut self, lw: f64, hw: f64, mut visit: impl FnMut(&HTuple) -> Option<Label>) {
        let (start, end) = self.band_range(lw, hw);
        // two binary searches over the sorted run
        self.clock
            .charge_cpu_ops(2 * u64::from(usize::BITS - self.sorted_len.leading_zeros()));
        let (run, tail) = self.data.split_at_mut(self.sorted_len);
        for t in &mut run[start..end.max(start)] {
            if let Some(l) = visit(t) {
                t.label = l;
            }
        }
        // the tail is unordered: check every tuple's eps against the band
        for t in tail {
            self.clock.charge_cpu_ops(1);
            if t.eps >= lw && t.eps <= hw {
                if let Some(l) = visit(t) {
                    t.label = l;
                }
            }
        }
    }

    fn band_len(&mut self, lw: f64, hw: f64) -> u64 {
        let (start, end) = self.band_range(lw, hw);
        let tail = self.data[self.sorted_len..]
            .iter()
            .filter(|t| t.eps >= lw && t.eps <= hw)
            .count();
        (end - start + tail) as u64
    }

    fn take_all(&mut self) -> (Vec<HTuple>, usize) {
        (std::mem::take(&mut self.data), self.sorted_len)
    }

    fn rewrite(&mut self, tuples: Vec<HTuple>) {
        self.clock.charge_cpu_ops(tuples.len() as u64);
        self.sorted_len = tuples.len();
        self.data = tuples;
        self.reindex();
    }
}
