//! Exact sorted-sample percentiles and the run-to-run spread statistics.

/// Exact percentile of an ascending slice (nearest rank; 0 for no samples).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `q` percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n)
}

/// The highest percentile of the reporting ladder that still has at least
/// ten samples beyond it — a tail estimate resting on fewer is noise.
pub fn highest_supported(n: usize) -> f64 {
    const LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];
    LADDER
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= 10)
        .unwrap_or(0.5)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so the spread this harness prints is the
/// one the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Latency samples of one operation kind, in completion order.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

/// A percentile estimate with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// The chosen quantile over segments of the per-segment exact
    /// percentile, in ns.
    pub ns: f64,
    /// Total samples.
    pub n: usize,
    /// Samples beyond the percentile inside one segment.
    pub beyond_per_segment: usize,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Exact percentile over all samples.
    pub fn exact(&self, q: f64) -> u64 {
        let mut v = self.ns.clone();
        v.sort_unstable();
        percentile(&v, q)
    }

    /// The `q` percentile as a quantile, `cut.across`, of the exact
    /// per-segment percentiles over `cut.segments` contiguous stretches of
    /// the run (nearest rank; the median for `across` = 0.5 and an odd
    /// count). Falls back to fewer segments while a segment would have
    /// under ten samples beyond `q`.
    pub fn estimate(&self, q: f64, cut: Cut) -> Estimate {
        let n = self.ns.len();
        let mut k = cut.segments.max(1);
        while k > 1 && beyond(n / k, q) < 10 {
            k -= 1;
        }
        let per = (n / k).max(1);
        let mut picks: Vec<u64> = Vec::with_capacity(k);
        for chunk in self.ns.chunks(per).take(k) {
            let mut v = chunk.to_vec();
            v.sort_unstable();
            picks.push(percentile(&v, q));
        }
        picks.sort_unstable();
        Estimate {
            ns: percentile(&picks, cut.across) as f64,
            n,
            beyond_per_segment: beyond(per.min(n), q),
        }
    }
}

/// How a latency series is cut into segments and which of the per-segment
/// percentiles is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cut {
    pub segments: usize,
    pub across: f64,
}

impl Cut {
    /// Closed loop at depth 1: a stall of the machine costs the one request
    /// in flight, so the per-segment percentiles scatter evenly and their
    /// median is the steadiest.
    pub const CLOSED_LOOP: Cut = Cut {
        segments: 20,
        across: 0.5,
    };
    /// Open loop: a stall delays every request scheduled during it (a vCPU
    /// descheduled for 20 ms, as a shared host does several times a second
    /// in a bad period, puts 400 requests of a 20 k/s schedule past any
    /// p99), so disturbance only ever adds, to whole segments at a time.
    /// Many short segments, and the first decile of them: over ten runs in
    /// such a period the median over segments spread 6.6 % on
    /// `tcp_classify`'s p99 (47 % in a worse one), the first quartile 7.2 %,
    /// the first decile 3.9 %. Not the minimum: that is a lucky-sample
    /// statistic.
    pub const OPEN_LOOP: Cut = Cut {
        segments: 60,
        across: 0.1,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.999), 7);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        // 1 000 samples: p99 has exactly 10 beyond, p99.9 only 1
        assert_eq!(beyond(1_000, 0.99), 10);
        assert_eq!(highest_supported(1_000), 0.99);
        assert_eq!(highest_supported(999), 0.9);
        // 28 800 writes: 28 beyond p99.9 — the durable_train tail
        assert_eq!(beyond(28_800, 0.999), 28);
        assert_eq!(highest_supported(28_800), 0.999);
        assert_eq!(highest_supported(100_000), 0.9999);
        assert_eq!(highest_supported(15), 0.5);
        assert_eq!(highest_supported(0), 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_median_shrugs_off_one_bad_stretch() {
        let mut s = Samples::default();
        for seg in 0..5 {
            for i in 0..2_000u64 {
                // segment 3 has a 50x tail; the others top out near 1 100
                let tail = if seg == 3 { 50_000 } else { 1_100 };
                s.push(if i % 50 == 0 { tail } else { 500 + i % 7 });
            }
        }
        let cut = Cut {
            segments: 5,
            across: 0.5,
        };
        let e = s.estimate(0.99, cut);
        assert_eq!(e.ns, 1_100.0);
        assert_eq!(e.n, 10_000);
        assert_eq!(e.beyond_per_segment, 20);
        // the pooled exact percentile does see the bad stretch
        assert_eq!(s.exact(0.999), 50_000);
    }

    #[test]
    fn open_loop_cut_shrugs_off_a_run_that_is_mostly_disturbed() {
        let mut s = Samples::default();
        for seg in 0..60 {
            for i in 0..2_000u64 {
                // four segments in five have a 50x tail
                let tail = if seg % 5 != 0 { 50_000 } else { 1_100 };
                s.push(if i % 50 == 0 { tail } else { 500 + i % 7 });
            }
        }
        assert_eq!(s.estimate(0.99, Cut::OPEN_LOOP).ns, 1_100.0);
        assert_eq!(s.estimate(0.99, Cut::CLOSED_LOOP).ns, 50_000.0);
    }

    #[test]
    fn estimate_uses_fewer_segments_when_the_tail_is_thin() {
        let mut s = Samples::default();
        for i in 0..1_500u64 {
            s.push(i);
        }
        // 5 segments of 300 would leave 3 beyond p99: falls back to one
        let cut = Cut {
            segments: 5,
            across: 0.5,
        };
        let e = s.estimate(0.99, cut);
        assert_eq!(e.beyond_per_segment, 15);
        assert_eq!(e.ns, 1_484.0);
    }
}
