//! Copy-on-write chunked storage for dense model vectors.
//!
//! A published model is shared by the trainer, the watermarks and every
//! epoch readers pin, and a sparse SGD step changes a handful of its
//! components. Stored flat, each publication copied all of them (512 KB at
//! a 2^16-word vocabulary); stored as a table of `Arc`-shared chunks, a
//! clone copies the table and a step copies only the chunks it writes.

use std::sync::Arc;

/// log₂ of [`ChunkedVec::CHUNK`].
const CHUNK_BITS: u32 = 10;
const CHUNK: usize = 1 << CHUNK_BITS;
const MASK: usize = CHUNK - 1;

/// What every chunk no write has touched reads as.
static ZEROS: [f64; CHUNK] = [0.0; CHUNK];

/// A dense `f64` vector stored as a table of `Arc`-shared fixed-size
/// chunks.
///
/// * `Clone` copies the chunk table only; both copies share every chunk.
/// * A write goes through `Arc::make_mut`, so it copies a chunk only while
///   another vector still shares it.
/// * A chunk no write has touched is `None` and reads as `+0.0`: the
///   dictionary-coded vocabularies of the text views are dense from id 0,
///   so most of a wide model costs nothing to store or clone.
/// * The components past the last whole chunk live in a `tail` trimmed to
///   the length, so a vector of fewer than [`CHUNK`](Self::CHUNK)
///   components is one exactly-sized chunk. Whole chunks are fixed-size
///   arrays, which is what lets a sparse read index one without a bounds
///   check.
///
/// Every reader visits components in index order with the same operands as
/// a flat slice would, so results are bit-identical to the flat layout.
#[derive(Clone, Debug)]
pub struct ChunkedVec {
    /// Components `[j·C, (j+1)·C)` of chunk `j`.
    full: Vec<Option<Arc<[f64; CHUNK]>>>,
    /// The last `len mod C` components.
    tail: Option<Arc<[f64]>>,
    len: usize,
}

impl ChunkedVec {
    /// Components per chunk. Chosen from the `linalg/model_clone_text64k`,
    /// `linalg/margin_*` and `epoch/publish_round_text64k` micro rows; see
    /// [`ScaledDense`](crate::ScaledDense).
    pub const CHUNK: usize = CHUNK;

    /// The zero vector of length `len` (no chunk allocated).
    pub(crate) fn zeros(len: usize) -> Self {
        ChunkedVec { full: vec![None; len / CHUNK], tail: None, len }
    }

    /// Chunks `v`; all-`+0.0` chunks stay unallocated.
    pub fn from_vec(v: Vec<f64>) -> Self {
        let nonzero = |c: &[f64]| !c.iter().all(|x| x.to_bits() == 0);
        let whole = v.chunks_exact(CHUNK);
        let tail = Some(whole.remainder()).filter(|c| nonzero(c)).map(Arc::from);
        let full = whole
            .map(|c| nonzero(c).then(|| Arc::new(c.try_into().expect("a whole chunk"))))
            .collect();
        ChunkedVec { full, tail, len: v.len() }
    }

    /// Number of components.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Component `i`, `None` past the end.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<f64> {
        match self.full.get(i >> CHUNK_BITS) {
            Some(c) => Some(c.as_ref().map_or(0.0, |c| c[i & MASK])),
            None => self.get_past_whole_chunks(i),
        }
    }

    /// [`get`](Self::get) for `i` past the whole chunks: in the tail or out
    /// of range. Kept out of line so sparse reads inline only the common
    /// case.
    #[cold]
    fn get_past_whole_chunks(&self, i: usize) -> Option<f64> {
        self.slice(self.full.len())?.get(i - self.full.len() * CHUNK).copied()
    }

    /// The chunks as slices, in index order (untouched ones read as zeros).
    pub(crate) fn slices(&self) -> impl Iterator<Item = &[f64]> + Clone + '_ {
        (0..).map_while(|j| self.slice(j))
    }

    /// Chunk `j` as a slice (the tail after the whole chunks); `None` past
    /// the end.
    #[inline]
    pub(crate) fn slice(&self, j: usize) -> Option<&[f64]> {
        match self.full.get(j) {
            Some(c) => Some(c.as_deref().unwrap_or(&ZEROS)),
            None if j > self.full.len() || self.len.is_multiple_of(CHUNK) => None,
            None => Some(self.tail.as_deref().unwrap_or(&ZEROS[..self.len % CHUNK])),
        }
    }

    /// The components in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &f64> + Clone + '_ {
        self.slices().flatten()
    }

    /// Materializes the components.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        self.slices().for_each(|c| out.extend_from_slice(c));
        out
    }

    /// Grows to at least `len`, zero-filling new components.
    pub(crate) fn grow_to(&mut self, len: usize) {
        if len <= self.len {
            return;
        }
        let tail = self.tail.take();
        if len / CHUNK > self.full.len() {
            // the old tail's chunk becomes whole
            self.full.push(tail.map(|t| {
                let mut c = [0.0; CHUNK];
                c[..t.len()].copy_from_slice(&t);
                Arc::new(c)
            }));
            self.full.resize(len / CHUNK, None);
        } else {
            self.tail = tail.map(|t| {
                let mut wider = t.to_vec();
                wider.resize(len % CHUNK, 0.0);
                wider.into()
            });
        }
        self.len = len;
    }

    /// Resets every component to `+0.0`, dropping every chunk.
    pub(crate) fn clear(&mut self) {
        self.full.iter_mut().for_each(|c| *c = None);
        self.tail = None;
    }

    /// Mutable access to chunk `j` (the tail when `j` is past the whole
    /// chunks; callers index only chunks below `len`), allocating it if
    /// untouched and copying it if shared.
    pub(crate) fn chunk_mut(&mut self, j: usize) -> &mut [f64] {
        match self.full.get_mut(j) {
            Some(c) => &mut Arc::make_mut(c.get_or_insert_with(|| Arc::new([0.0; CHUNK])))[..],
            None => {
                let n = self.len % CHUNK;
                Arc::make_mut(self.tail.get_or_insert_with(|| Arc::from(&ZEROS[..n])))
            }
        }
    }

    /// Multiplies every component by `s`, copying every shared chunk once.
    pub(crate) fn scale_all(&mut self, s: f64) {
        // untouched chunks stay `+0.0` unless `s` is negative or not finite
        if (0.0 * s).to_bits() != 0 {
            (0..self.slices().count()).for_each(|j| {
                self.chunk_mut(j);
            });
        }
        let chunks = self.full.iter_mut().flatten().map(|c| &mut Arc::make_mut(c)[..]);
        for c in chunks.chain(self.tail.as_mut().map(Arc::make_mut)) {
            c.iter_mut().for_each(|x| *x *= s);
        }
    }

    /// Splits a component index into `(chunk, offset)`.
    #[inline]
    pub(crate) fn locate(i: usize) -> (usize, usize) {
        (i >> CHUNK_BITS, i & MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: usize = ChunkedVec::CHUNK;

    fn lens(v: &ChunkedVec) -> Vec<usize> {
        v.slices().map(<[f64]>::len).collect()
    }

    #[test]
    fn the_tail_is_trimmed_and_widens_on_growth() {
        let mut v = ChunkedVec::from_vec(vec![1.0; 54]);
        assert_eq!(lens(&v), [54]);
        v.grow_to(60);
        assert_eq!(lens(&v), [60]);
        v.grow_to(C + 3);
        assert_eq!(lens(&v), [C, 3]);
        assert_eq!(
            (v.get(53), v.get(54), v.get(C + 2), v.get(C + 3)),
            (Some(1.0), Some(0.0), Some(0.0), None)
        );
        assert_eq!(v.to_vec().len(), C + 3);
        v.grow_to(3 * C);
        assert_eq!(lens(&v), [C, C, C]);
    }

    #[test]
    fn untouched_chunks_stay_unallocated() {
        let mut v = ChunkedVec::zeros(4 * C + 1);
        v.chunk_mut(2)[5] = -0.0;
        let allocated = |v: &ChunkedVec| v.full.iter().map(Option::is_some).collect::<Vec<_>>();
        assert_eq!(allocated(&v), [false, false, true, false]);
        let w = ChunkedVec::from_vec(v.to_vec());
        assert_eq!(allocated(&w), [false, false, true, false]);
        assert!(w.tail.is_none());
        v.chunk_mut(4)[0] = 1.0;
        assert_eq!(v.get(4 * C), Some(1.0));
        v.clear();
        assert!(v.full.iter().all(Option::is_none) && v.tail.is_none());
        assert_eq!(v.len(), 4 * C + 1);
    }

    #[test]
    fn a_write_copies_only_a_shared_chunk() {
        let mut a = ChunkedVec::from_vec(vec![1.0; 3 * C]);
        let b = a.clone();
        a.chunk_mut(1)[0] = 2.0;
        let shared =
            |j: usize| Arc::ptr_eq(a.full[j].as_ref().unwrap(), b.full[j].as_ref().unwrap());
        assert!(shared(0) && !shared(1) && shared(2));
        assert_eq!((a.get(C), b.get(C)), (Some(2.0), Some(1.0)));
    }
}
