//! Seeded randomness, the request-stream hash, and run provenance.

/// splitmix64: every generated input (ids, gaps, statement order, example
/// streams) descends from `--seed` through this one generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in (0, 1]: the pole of `ln` at 0 is unreachable.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (a Poisson process's gap).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -self.unit().ln() * mean
    }
}

/// Derives an independent sub-seed (corpus, warm stream, ...) from `--seed`.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed, salt).next_u64()
}

/// Arrival times (ns from phase start) of a Poisson process at `rate_per_s`
/// over `dur_s` seconds.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, dur_s: f64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let end = dur_s * 1e9;
    let mut t = rng.exp(mean_gap_ns);
    let mut out = Vec::with_capacity((rate_per_s * dur_s * 1.05) as usize + 16);
    while t < end {
        out.push(t as u64);
        t += rng.exp(mean_gap_ns);
    }
    out
}

/// FNV-1a over the generated request stream: equal for equal seeds,
/// different across seeds — the ledger's proof of which inputs ran.
#[derive(Clone, Copy, Debug)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `VmHWM` of this process in MB (Linux `/proc`); the benchmark is
/// Linux-only, like its `ppoll` client.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Words of a CPU bitmap: room for 1 024 CPUs, the size glibc's `cpu_set_t`
/// has.
const CPU_WORDS: usize = 16;

extern "C" {
    /// Linux `sched_{get,set}affinity(2)`; `pid` is a thread id, 0 the caller.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, lowest first (none if the kernel does
/// not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a live, writable bitmap of the size passed for the
    // whole call; the kernel writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins thread `tid` (0: the calling thread) to `cpu`. Best effort: where
/// the call fails the thread stays where the scheduler puts it.
pub fn pin(tid: i32, cpu: usize) {
    let mut mask = [0u64; CPU_WORDS];
    mask[cpu / 64 % CPU_WORDS] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live bitmap of the size passed for the whole call;
    // the kernel only reads it.
    unsafe {
        sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Ids of this process's threads whose name starts with `prefix` (the
/// kernel keeps the first 15 bytes of a thread's name).
pub fn threads_named(prefix: &str) -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
        .collect()
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what this run happened. The git rev is `unknown` in a
/// checkout that is not a repository (the driver's).
pub fn provenance() -> Vec<(String, crate::json::Value)> {
    use crate::json::Value;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc".into(), Value::Num(nproc as f64)),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_rev".into(),
            Value::Str(
                command_line("git", &["rev-parse", "--short", "HEAD"])
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("os".into(), Value::Str(std::env::consts::OS.into())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_has_the_requested_rate_and_is_sorted() {
        let mut r = Rng::new(7, 1);
        let s = poisson_schedule(&mut r, 20_000.0, 2.0);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.last().unwrap() < 2_000_000_000);
        // 40 000 expected, sd = 200: six sigma either way
        assert!((38_800..41_200).contains(&s.len()), "{} arrivals", s.len());
        // exponential gaps: the mean gap equals the sd of the gaps (cv = 1)
        let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.95..1.05).contains(&cv), "cv {cv}");
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = poisson_schedule(&mut Rng::new(3, 9), 5_000.0, 0.5);
        let b = poisson_schedule(&mut Rng::new(3, 9), 5_000.0, 0.5);
        let c = poisson_schedule(&mut Rng::new(4, 9), 5_000.0, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_hash_separates_streams() {
        let mut a = StreamHash::default();
        let mut b = StreamHash::default();
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
