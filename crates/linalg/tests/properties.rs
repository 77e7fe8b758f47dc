//! Property-based tests for the vector primitives.
//!
//! These pin down the algebraic facts the rest of the engine leans on — in
//! particular Hölder's inequality, which is the entire soundness argument for
//! the paper's watermark bounds (Lemma 3.1) — and that the chunked model
//! store answers bit for bit like the flat vector it replaced, across chunk
//! boundaries.

use hazy_linalg::wire::put_f64s;
use hazy_linalg::{
    decode_fvec, decode_fvec_ref, encode_fvec, encoded_len, norm_of_slice, ChunkedVec, FeatureVec,
    Features, Norm, NormPair, OrdF64, ScaledDense,
};
use proptest::prelude::*;

fn arb_sparse(dim: u32, max_nnz: usize) -> impl Strategy<Value = FeatureVec> {
    prop::collection::vec((0..dim, -100.0f32..100.0), 0..=max_nnz)
        .prop_map(move |pairs| FeatureVec::sparse(dim, pairs))
}

fn arb_dense(max_len: usize) -> impl Strategy<Value = FeatureVec> {
    prop::collection::vec(-100.0f32..100.0, 0..=max_len).prop_map(FeatureVec::dense)
}

fn arb_fvec() -> impl Strategy<Value = FeatureVec> {
    prop_oneof![arb_sparse(64, 16), arb_dense(32)]
}

fn arb_model(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, len)
}

proptest! {
    /// `|w · f| ≤ ‖w‖_p · ‖f‖_q` for every Hölder pair the engine uses.
    #[test]
    fn holder_inequality(f in arb_fvec(), w in arb_model(64)) {
        let dot = f.dot(&w).abs();
        for pair in [NormPair::TEXT, NormPair::EUCLIDEAN, NormPair::from_p(Norm::L1)] {
            let bound = norm_of_slice(&w, pair.p) * f.norm(pair.q);
            prop_assert!(dot <= bound * (1.0 + 1e-9) + 1e-9,
                "pair {:?}: |dot|={} bound={}", pair, dot, bound);
        }
    }

    /// Norm ordering on any vector: `‖x‖_∞ ≤ ‖x‖_2 ≤ ‖x‖_1`.
    #[test]
    fn norm_chain(f in arb_fvec()) {
        let (l1, l2, li) = (f.norm(Norm::L1), f.norm(Norm::L2), f.norm(Norm::LInf));
        prop_assert!(li <= l2 * (1.0 + 1e-9) + 1e-12);
        prop_assert!(l2 <= l1 * (1.0 + 1e-9) + 1e-12);
    }

    /// Serialization round-trips every vector exactly, with the advertised
    /// length.
    #[test]
    fn serialization_round_trip(f in arb_fvec()) {
        let mut buf = Vec::new();
        encode_fvec(&f, &mut buf);
        prop_assert_eq!(buf.len(), encoded_len(&f));
        let mut slice = &buf[..];
        let back = decode_fvec(&mut slice).expect("decode");
        prop_assert_eq!(back, f);
        prop_assert!(slice.is_empty());
    }

    /// Decoding arbitrary junk never panics, and the owned and zero-copy
    /// decoders agree on whether the bytes are a valid encoding.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut slice = &bytes[..];
        let owned = decode_fvec(&mut slice);
        let mut slice = &bytes[..];
        let borrowed = decode_fvec_ref(&mut slice);
        prop_assert_eq!(owned.is_some(), borrowed.is_some(),
            "decoders disagree on acceptance of {:?}", bytes);
        if let (Some(o), Some(b)) = (owned, borrowed) {
            prop_assert_eq!(o, b.to_owned());
        }
    }

    /// The zero-copy scan path is **bit-for-bit** the owned path: decoding
    /// borrowed from the encoding and running the borrowed `dot`/`norm`
    /// kernels yields exactly the bits that owned decode + owned kernels
    /// produce, on arbitrary dense and sparse vectors — including models
    /// shorter and longer than the vector.
    #[test]
    fn zero_copy_decode_and_dot_match_owned_bitwise(
        f in arb_fvec(),
        w in arb_model(64),
        wlen in 0usize..=64,
    ) {
        let mut buf = Vec::new();
        encode_fvec(&f, &mut buf);

        let mut slice = &buf[..];
        let owned = decode_fvec(&mut slice).expect("owned decode");
        let rest_owned = slice.len();
        let mut slice = &buf[..];
        let borrowed = decode_fvec_ref(&mut slice).expect("ref decode");
        prop_assert_eq!(slice.len(), rest_owned, "decoders consumed different lengths");

        prop_assert_eq!(Features::dim(&borrowed), owned.dim());
        prop_assert_eq!(Features::nnz(&borrowed), owned.nnz());
        let w = &w[..wlen];
        prop_assert_eq!(
            Features::dot(&borrowed, &ChunkedVec::from_vec(w.to_vec())).to_bits(),
            owned.dot(w).to_bits(),
            "dot diverges on {:?}", owned
        );
        for q in [Norm::L1, Norm::L2, Norm::LInf] {
            prop_assert_eq!(
                Features::norm(&borrowed, q).to_bits(),
                owned.norm(q).to_bits(),
                "norm {:?} diverges", q
            );
        }
        prop_assert_eq!(borrowed.to_owned(), owned);
        prop_assert_eq!(
            borrowed.iter().collect::<Vec<_>>(),
            f.iter().collect::<Vec<_>>()
        );
    }

    /// Corrupting any single byte of a valid sparse encoding leaves the two
    /// decoders in agreement: both accept (value-equal) or both reject.
    #[test]
    fn decoders_agree_on_single_byte_corruptions(
        f in arb_sparse(64, 16),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut buf = Vec::new();
        encode_fvec(&f, &mut buf);
        let pos = ((buf.len() as f64 * pos_frac) as usize).min(buf.len() - 1);
        buf[pos] ^= flip;
        let mut slice = &buf[..];
        let owned = decode_fvec(&mut slice);
        let mut slice = &buf[..];
        let borrowed = decode_fvec_ref(&mut slice);
        prop_assert_eq!(owned.is_some(), borrowed.is_some(),
            "decoders disagree after flipping byte {} by {:#x}", pos, flip);
        if let (Some(o), Some(b)) = (owned, borrowed) {
            prop_assert_eq!(o, b.to_owned());
        }
    }

    /// A sparse vector and its densified twin agree on dot products and
    /// norms.
    #[test]
    fn sparse_dense_agree(f in arb_sparse(48, 12), w in arb_model(48)) {
        let d = FeatureVec::dense(f.to_dense());
        prop_assert!((f.dot(&w) - d.dot(&w)).abs() <= 1e-6 * (1.0 + f.dot(&w).abs()));
        for q in [Norm::L1, Norm::L2, Norm::LInf] {
            prop_assert!((f.norm(q) - d.norm(q)).abs() <= 1e-4);
        }
    }

    /// The scale-trick vector matches a naive implementation under a random
    /// program of scales and sparse additions.
    #[test]
    fn scaled_dense_matches_naive(
        ops in prop::collection::vec(
            (0.05f64..1.5, prop::collection::vec((0u32..32, -10.0f32..10.0), 0..6)),
            1..40,
        )
    ) {
        let mut w = ScaledDense::zeros(32);
        let mut naive = vec![0.0f64; 32];
        for (c, pairs) in ops {
            w.scale(c);
            naive.iter_mut().for_each(|x| *x *= c);
            let f = FeatureVec::sparse(32, pairs);
            w.axpy(0.7, &f);
            for (i, v) in f.iter() {
                naive[i as usize] += 0.7 * f64::from(v);
            }
        }
        for (i, &expect) in naive.iter().enumerate() {
            let tol = 1e-7 * (1.0 + expect.abs());
            prop_assert!((w.get(i) - expect).abs() <= tol,
                "component {}: {} vs {}", i, w.get(i), expect);
        }
    }

    /// The f64→u64 sortable key is a strict order embedding.
    #[test]
    fn sortable_key_is_monotone(a in -1e12f64..1e12, b in -1e12f64..1e12) {
        let (ka, kb) = (OrdF64(a).sortable_key(), OrdF64(b).sortable_key());
        prop_assert_eq!(a < b, ka < kb);
        prop_assert_eq!(a == b, ka == kb);
    }
}

const C: usize = ChunkedVec::CHUNK;

/// `ScaledDense` as it was before its components were chunked: one flat
/// `Vec<f64>`, operation for operation. The reference the chunked store
/// must match bit for bit.
#[derive(Clone, Debug)]
struct Flat {
    v: Vec<f64>,
    s: f64,
}

impl Flat {
    fn scale(&mut self, c: f64) {
        if c == 0.0 {
            self.v.iter_mut().for_each(|x| *x = 0.0);
            self.s = 1.0;
            return;
        }
        self.s *= c;
        if self.s.abs() < 1e-9 {
            let s = self.s;
            self.v.iter_mut().for_each(|x| *x *= s);
            self.s = 1.0;
        }
    }

    fn axpy(&mut self, a: f64, f: &FeatureVec) {
        if f.dim() as usize > self.v.len() {
            self.v.resize(f.dim() as usize, 0.0);
        }
        let inv = a / self.s;
        for (i, x) in f.iter() {
            self.v[i as usize] += inv * f64::from(x);
        }
    }

    fn diff_norm(&self, other: &Flat, p: Norm) -> f64 {
        let common = self.v.len().min(other.v.len());
        let (s, t) = (self.s, other.s);
        let diffs = self.v[..common]
            .iter()
            .zip(&other.v[..common])
            .map(|(&x, &y)| s * x - t * y)
            .chain(self.v[common..].iter().map(|&x| s * x - 0.0))
            .chain(other.v[common..].iter().map(|&y| 0.0 - t * y));
        match p {
            Norm::L1 => diffs.fold(0.0, |acc, d| acc + d.abs()),
            Norm::L2 => diffs.fold(0.0, |acc, d| acc + d * d).sqrt(),
            Norm::LInf => diffs.fold(0.0, |acc: f64, d| acc.max(d.abs())),
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = self.s.to_bits().to_le_bytes().to_vec();
        put_f64s(&mut out, &self.v);
        out
    }
}

fn splitmix(r: &mut u64) -> u64 {
    *r = r.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *r;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f32(r: &mut u64) -> f32 {
    (splitmix(r) % 2001) as f32 / 100.0 - 10.0
}

/// An index below `dim`, within two of a chunk boundary half the time.
fn index_near_boundary(r: &mut u64, dim: usize) -> u32 {
    let i = if splitmix(r).is_multiple_of(2) {
        (C * (1 + splitmix(r) as usize % 3) + splitmix(r) as usize % 5).saturating_sub(2)
    } else {
        splitmix(r) as usize % dim
    };
    i.min(dim - 1) as u32
}

fn sparse_near_boundaries(r: &mut u64, dim: usize) -> FeatureVec {
    let nnz = splitmix(r) % 12;
    FeatureVec::sparse(
        dim as u32,
        (0..nnz).map(|_| (index_near_boundary(r, dim), unit_f32(r))),
    )
}

fn dense_of(r: &mut u64, len: usize) -> FeatureVec {
    FeatureVec::dense((0..len).map(|_| unit_f32(r)).collect::<Vec<_>>())
}

/// Either side of one chunk boundary and a multi-chunk vector with a
/// partial last chunk, shifted by `HAZY_CRASH_SEED` when it is set so a
/// seed matrix probes other trailing-chunk lengths.
fn boundary_dims() -> [usize; 4] {
    let shift: usize = std::env::var("HAZY_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    [C - 1, C, C + 1, 3 * C + 7].map(|d| d + shift)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every observable of `w` against its flat twin, bit for bit: components,
/// checkpoint bytes, norms, `dot` with owned and borrowed dense and sparse
/// features, and `diff_norm` both ways against models of other dims.
fn check_against_flat(
    w: &ScaledDense,
    flat: &Flat,
    probes: &[FeatureVec],
    others: &[(ScaledDense, Flat)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(w.dim(), flat.v.len());
    let want: Vec<f64> = flat.v.iter().map(|&x| flat.s * x).collect();
    prop_assert_eq!(bits(&w.to_vec()), bits(&want), "components diverge");
    let mut saved = Vec::new();
    w.save_state(&mut saved);
    prop_assert!(saved == flat.save_state(), "save_state bytes diverge");
    for n in [Norm::L1, Norm::L2, Norm::LInf] {
        let flat_norm = flat.s.abs() * norm_of_slice(&flat.v, n);
        prop_assert_eq!(w.norm(n).to_bits(), flat_norm.to_bits(), "norm {:?}", n);
        for (other, other_flat) in others {
            prop_assert_eq!(
                w.diff_norm(other, n).to_bits(),
                flat.diff_norm(other_flat, n).to_bits(),
                "diff_norm {:?} against dim {}",
                n,
                other.dim()
            );
            prop_assert_eq!(
                other.diff_norm(w, n).to_bits(),
                other_flat.diff_norm(flat, n).to_bits(),
                "reverse diff_norm {:?} against dim {}",
                n,
                other.dim()
            );
        }
    }
    for f in probes {
        let mut buf = Vec::new();
        encode_fvec(f, &mut buf);
        let borrowed = decode_fvec_ref(&mut &buf[..]).expect("ref decode");
        let want = flat.s * f.dot(&flat.v);
        prop_assert_eq!(
            w.dot(f).to_bits(),
            want.to_bits(),
            "owned dot, dim {}",
            f.dim()
        );
        prop_assert_eq!(
            w.dot(&borrowed).to_bits(),
            want.to_bits(),
            "borrowed dot, dim {}",
            f.dim()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A chunked model under a random program of sparse and dense `axpy`s
    /// (indices crowding chunk boundaries), unit `add_at`s, scales — zero,
    /// ordinary, and tiny enough (of either sign) to cross the renormalize
    /// threshold — and
    /// growth answers exactly like the flat one after every step. Clones
    /// taken along the way are copy-on-write isolated: stepping the
    /// original leaves a clone's bits alone, and stepping a clone leaves
    /// the original's.
    #[test]
    fn chunked_model_matches_flat_across_chunk_boundaries(
        dim_pick in 0usize..4,
        start_small in any::<bool>(),
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..8, 0.05f64..1.5), 1..24),
    ) {
        let dim = boundary_dims()[dim_pick];
        let mut r = seed;
        let start = if start_small { dim / 2 } else { dim };
        let mut w = ScaledDense::zeros(start);
        let mut flat = Flat { v: vec![0.0; start], s: 1.0 };
        let probes = [
            sparse_near_boundaries(&mut r, dim + 3),
            dense_of(&mut r, dim - 1),
            dense_of(&mut r, dim + 2),
        ];
        let other_v: Vec<f64> = (0..dim / 2 + 1).map(|_| f64::from(unit_f32(&mut r))).collect();
        let mut others =
            vec![(ScaledDense::from_vec(other_v.clone()), Flat { v: other_v, s: 1.0 })];
        let mut clones: Vec<(ScaledDense, Flat)> = Vec::new();

        for (op, c) in ops {
            let a = (c - 0.7) * 2.0;
            match op {
                0 | 1 => {
                    let f = sparse_near_boundaries(&mut r, dim);
                    w.axpy(a, &f);
                    flat.axpy(a, &f);
                }
                2 => {
                    let len = splitmix(&mut r) as usize % (dim + 1);
                    let f = dense_of(&mut r, len);
                    w.axpy(a, &f);
                    flat.axpy(a, &f);
                }
                3 => {
                    let i = index_near_boundary(&mut r, dim);
                    w.add_at(i as usize, a);
                    flat.axpy(a, &FeatureVec::sparse(i + 1, [(i, 1.0)]));
                }
                4 => {
                    // any two cross the renormalize threshold; a negative
                    // scale turns untouched `+0.0` components into `-0.0`
                    let c = match c {
                        c if c < 0.1 => 0.0,
                        c if c < 0.3 => -c * 1e-5,
                        c => c * 1e-5,
                    };
                    w.scale(c);
                    flat.scale(c);
                }
                5 => {
                    w.scale(c);
                    flat.scale(c);
                }
                6 => clones.push((w.clone(), flat.clone())),
                _ => {
                    // step the newest clone: the original must not move
                    if let Some((cw, cf)) = clones.last_mut() {
                        let f = sparse_near_boundaries(&mut r, dim);
                        cw.axpy(a, &f);
                        cf.axpy(a, &f);
                        cw.scale(c);
                        cf.scale(c);
                    }
                }
            }
            check_against_flat(&w, &flat, &probes, &others)?;
            for (cw, cf) in &clones {
                prop_assert_eq!(bits(&cw.to_vec()), bits(&cf.v.iter().map(|&x| cf.s * x).collect::<Vec<_>>()),
                    "a clone moved when its original stepped");
            }
        }
        others.append(&mut clones);
        for (cw, cf) in &others {
            check_against_flat(cw, cf, &probes, &[(w.clone(), flat.clone())])?;
        }
    }

    /// `Features::dot` against a chunked vector is the flat `dot` bit for
    /// bit — owned and borrowed, dense and sparse — for models shorter and
    /// longer than the feature and with untouched (all-zero) chunks.
    #[test]
    fn chunked_dot_matches_flat_across_chunk_boundaries(
        dim_pick in 0usize..4,
        seed in any::<u64>(),
        wlen_pick in 0usize..4,
        zero_chunk in 0usize..4,
    ) {
        let dim = boundary_dims()[dim_pick];
        let mut r = seed;
        let wlen = boundary_dims()[wlen_pick];
        let mut w: Vec<f64> = (0..wlen).map(|_| f64::from(unit_f32(&mut r)) * 0.37).collect();
        if let Some(c) = w.chunks_mut(C).nth(zero_chunk) {
            c.fill(0.0);
        }
        let chunked = ChunkedVec::from_vec(w.clone());
        prop_assert_eq!(bits(&chunked.to_vec()), bits(&w));
        for f in [sparse_near_boundaries(&mut r, dim), dense_of(&mut r, dim)] {
            let mut buf = Vec::new();
            encode_fvec(&f, &mut buf);
            let borrowed = decode_fvec_ref(&mut &buf[..]).expect("ref decode");
            prop_assert_eq!(Features::dot(&f, &chunked).to_bits(), f.dot(&w).to_bits());
            prop_assert_eq!(Features::dot(&borrowed, &chunked).to_bits(), f.dot(&w).to_bits());
        }
    }
}
