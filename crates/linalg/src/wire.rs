//! Minimal little-endian wire helpers for durable-state serialization.
//!
//! Checkpoints and WAL records across the workspace are plain
//! little-endian byte streams. Writers append to a `Vec<u8>` with
//! `extend_from_slice(&x.to_le_bytes())`; readers use these checked
//! `take_*` helpers, which advance a `&mut &[u8]` cursor and return `None`
//! on truncation instead of panicking — a torn or corrupted stored image
//! must surface as a decode failure, never a crash.

/// Takes `n` bytes off the front of `b`, advancing it.
pub fn take_bytes<'a>(b: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if b.len() < n {
        return None;
    }
    let (head, tail) = b.split_at(n);
    *b = tail;
    Some(head)
}

/// Reads one byte.
pub fn take_u8(b: &mut &[u8]) -> Option<u8> {
    take_bytes(b, 1).map(|x| x[0])
}

/// Reads a little-endian `u32`.
pub fn take_u32(b: &mut &[u8]) -> Option<u32> {
    take_bytes(b, 4).map(|x| u32::from_le_bytes(x.try_into().expect("4 bytes")))
}

/// Reads a little-endian `u64`.
pub fn take_u64(b: &mut &[u8]) -> Option<u64> {
    take_bytes(b, 8).map(|x| u64::from_le_bytes(x.try_into().expect("8 bytes")))
}

/// Reads a little-endian `f64` (exact bit pattern — restored state must be
/// bit-identical, so floats round-trip through [`f64::to_bits`]).
pub fn take_f64(b: &mut &[u8]) -> Option<f64> {
    take_u64(b).map(f64::from_bits)
}

/// Reads a little-endian `u64` count of items that each encode to at least
/// `min_item_bytes` bytes (≥ 1; a length prefix counts bytes, so 1), and
/// rejects it when even that minimal encoding would overrun the bytes left.
/// Every decoded count goes through here (or [`take_count_u32`]) before it
/// sizes anything, so a forged count sizes at most a small multiple of the
/// input that claims it — an allocation failure aborts the process, which
/// no decoder can recover from.
pub fn take_count(b: &mut &[u8], min_item_bytes: usize) -> Option<usize> {
    let n = take_u64(b)?;
    check_count(n, b, min_item_bytes)
}

/// [`take_count`] for a `u32` prefix.
pub fn take_count_u32(b: &mut &[u8], min_item_bytes: usize) -> Option<usize> {
    let n = take_u32(b)?;
    check_count(n.into(), b, min_item_bytes)
}

fn check_count(n: u64, b: &[u8], min_item_bytes: usize) -> Option<usize> {
    debug_assert!(min_item_bytes > 0, "a zero-byte item bounds nothing");
    let n = usize::try_from(n).ok()?;
    (n.checked_mul(min_item_bytes)? <= b.len()).then_some(n)
}

/// Reads a `u64`-length-prefixed `Vec<f64>` written by [`put_f64s`].
pub fn take_f64s(b: &mut &[u8]) -> Option<Vec<f64>> {
    let n = take_count(b, 8)?;
    let raw = take_bytes(b, 8 * n)?;
    Some(
        raw.chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect(),
    )
}

/// Writes a `u64`-length-prefixed `Vec<f64>` (bit-exact).
pub fn put_f64s(out: &mut Vec<u8>, v: &[f64]) {
    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
    for &x in v {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut out = Vec::new();
        out.push(7u8);
        out.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        out.extend_from_slice(&u64::MAX.to_le_bytes());
        out.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        let mut b = &out[..];
        assert_eq!(take_u8(&mut b), Some(7));
        assert_eq!(take_u32(&mut b), Some(0xDEAD_BEEF));
        assert_eq!(take_u64(&mut b), Some(u64::MAX));
        assert_eq!(take_f64(&mut b).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert!(b.is_empty());
        assert_eq!(take_u8(&mut b), None);
    }

    #[test]
    fn f64_vec_round_trips_bit_exactly() {
        let v = vec![0.1, -0.0, f64::INFINITY, 1e-300, f64::NAN];
        let mut out = Vec::new();
        put_f64s(&mut out, &v);
        let mut b = &out[..];
        let back = take_f64s(&mut b).unwrap();
        assert!(b.is_empty());
        assert_eq!(back.len(), v.len());
        for (a, x) in back.iter().zip(v.iter()) {
            assert_eq!(a.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left() {
        let mut buf = 3u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 12]);
        assert_eq!(take_count_u32(&mut &buf[..], 4), Some(3), "exact fit");
        assert_eq!(take_count_u32(&mut &buf[..], 5), None, "one byte short");
        let mut b = &buf[..];
        take_count_u32(&mut b, 1).unwrap();
        assert_eq!(b.len(), 12, "only the prefix is consumed");
        for forged in [u32::MAX.to_le_bytes().to_vec(), u64::MAX.to_le_bytes().to_vec()] {
            assert_eq!(take_count_u32(&mut &forged[..], 1), None);
            assert_eq!(take_count(&mut &forged[..], 1), None);
        }
        // the product must not wrap past the check
        let huge = (u64::MAX / 2 + 2).to_le_bytes();
        assert_eq!(take_count(&mut &huge[..], 2), None);
        assert_eq!(take_count(&mut &[][..], 1), None, "truncated prefix");
    }

    #[test]
    fn truncation_is_none_not_panic() {
        let mut out = Vec::new();
        put_f64s(&mut out, &[1.0, 2.0]);
        for cut in 0..out.len() {
            let mut b = &out[..cut];
            assert!(take_f64s(&mut b).is_none(), "cut {cut}");
        }
    }
}
