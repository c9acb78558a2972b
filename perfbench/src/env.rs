//! Run context and shared plumbing: the outcome tally, repeated set-up,
//! seeded inputs and the process's memory high-water mark.

use std::time::Instant;

use sparse::Prng;

use crate::metrics::Metrics;
use crate::stats;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Output check tolerance for SpMV results against `Csr::spmv_ref`
/// (relative, as `kernels::spmv::max_rel_error` measures it), the one the
/// repository's cross-validation tests use: schedules that split rows sum
/// in a different order than the plain loop.
pub const SPMV_TOL: f32 = 2e-3;

/// Attempted and failed operations, plus the worst output error seen.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed: a drop, a wrong output, an unreconciled report
    /// or a clock-separation mismatch.
    pub failed: u64,
    /// Largest relative error of any checked output.
    pub max_rel_error: f64,
    /// One line per failure, printed with the results.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one attempt; `ok == false` counts a failure and keeps `why`.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(why());
            }
        }
    }

    /// Check an SpMV output against its reference; true when within
    /// tolerance.
    pub fn spmv_ok(&mut self, got: &[f32], want: &[f32]) -> bool {
        let err = kernels::spmv::max_rel_error(got, want);
        self.max_rel_error = self.max_rel_error.max(f64::from(err));
        err <= SPMV_TOL
    }

    /// Compare two bit patterns of a clock-separated quantity.
    pub fn same_bits(&mut self, what: &str, a: &[u64], b: &[u64]) {
        self.record(a == b, || format!("clock-separation guard: {what} differs"));
    }
}

/// Run `build` [`SETUP_REPEATS`] times and keep the last state; returns it
/// with the median set-up time in seconds. Earlier states are dropped
/// before the next build so peak memory holds one state.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut state = None;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), stats::median(&times))
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A derived seed for one input of a workload, so inputs stay
/// independent of each other while all following `--seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut rng = Prng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

/// A seeded dense vector with entries in `[0.5, 1.5)`.
pub fn seeded_vector(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.f32_range(0.5, 1.5)).collect()
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Size of the last-level cache in bytes, as the OS reports it.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let path = entry.path();
        let read = |f: &str| std::fs::read_to_string(path.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|k| k * 1024)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m * 1024 * 1024)
        } else {
            size.parse().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Bytes a CSR matrix and its dense operands occupy (the working set of
/// one SpMV over it).
pub fn working_set_bytes(a: &sparse::Csr<f32>) -> u64 {
    a.device_bytes() + 4 * (a.rows() + a.cols()) as u64
}

/// Context lines printed beside the numbers.
#[derive(Debug, Default)]
pub struct Context(pub Vec<(String, String)>);

impl Context {
    /// Record `key = value`.
    pub fn put(&mut self, key: &str, value: impl std::fmt::Display) {
        self.0.push((key.to_owned(), value.to_string()));
    }

    /// Record a matrix's shape under `name`.
    pub fn matrix(&mut self, name: &str, a: &sparse::Csr<f32>) {
        self.put(
            &format!("matrix.{name}"),
            format!("rows={} cols={} nnz={}", a.rows(), a.cols(), a.nnz()),
        );
    }

    /// Record the working set against the last-level cache. No bandwidth
    /// figure is derived from host runs either way.
    pub fn working_set(&mut self, bytes: u64) {
        let llc = llc_bytes();
        let verdict = match llc {
            Some(l) if bytes <= l => format!(
                "{:.1} MiB fits in the {:.0} MiB last-level cache; host times are cache-resident, no bandwidth figure is claimed",
                bytes as f64 / 1048576.0,
                l as f64 / 1048576.0
            ),
            Some(l) => format!(
                "{:.1} MiB exceeds the {:.0} MiB last-level cache; no bandwidth figure is claimed",
                bytes as f64 / 1048576.0,
                l as f64 / 1048576.0
            ),
            None => format!(
                "{:.1} MiB; last-level cache size unknown; no bandwidth figure is claimed",
                bytes as f64 / 1048576.0
            ),
        };
        self.put("working_set", verdict);
    }
}

/// Record a measured pass's host wall-clock metrics: median and p90 of the
/// per-operation wall times (with the count beyond the p90) and the
/// nonzeros `nnz` multiplied per host second.
pub fn host_wall(e2e: &mut Metrics, ctx: &mut Context, walls: &[f64], nnz: f64, ops: &str) {
    e2e.set("wall_ms_p50", stats::median(walls));
    e2e.set("wall_ms_p90", stats::tail(walls, 0.9).unwrap_or(f64::NAN));
    let beyond = stats::beyond(walls, 0.9);
    ctx.put(
        "wall_ms_p90.beyond",
        format!("{beyond} of {} {ops}", walls.len()),
    );
    e2e.set(
        "host_mnnz_per_s",
        nnz / (walls.iter().sum::<f64>() * 1e-3) / 1e6,
    );
}

/// Record simulated request latency: median and p99 (with the count
/// beyond the p99).
pub fn sim_latency(e2e: &mut Metrics, ctx: &mut Context, latency: &[f64]) {
    e2e.set("sim_p50_ms", stats::median(latency));
    e2e.set("sim_p99_ms", stats::tail(latency, 0.99).unwrap_or(f64::NAN));
    let beyond = stats::beyond(latency, 0.99);
    ctx.put(
        "sim_p99_ms.beyond",
        format!("{beyond} of {} requests", latency.len()),
    );
}
