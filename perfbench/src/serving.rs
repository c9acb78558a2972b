//! Shared serve-window plumbing: output checks, simulated latencies and
//! the serving-layer metrics of a traced pass.

use std::time::Duration;

use runtime::{Completion, MemoStats, Request, RuntimeReport, ServeResult};

use crate::env::Tally;
use crate::metrics::Metrics;
use crate::stamp::{Stage, StageTimes};

/// One traced serve window: host wall time, its stage partition and the
/// runtime's report.
#[derive(Debug)]
pub struct Window {
    /// Host wall time of the `Runtime::serve` call.
    pub wall: Duration,
    /// That wall time split into stages.
    pub stages: StageTimes,
    /// The serve's report.
    pub report: RuntimeReport,
}

/// Check one serve: the report reconciles, nothing was dropped, and every
/// `sample_every`-th completion (by id) equals its reference within
/// tolerance. `reference` maps a request to its `Csr::spmv_ref` output;
/// requests arrive with ids `requests[0].id ..`. Returns true when all
/// checks pass; the caller counts the operation.
pub fn check<'r>(
    out: &ServeResult,
    requests: &'r [Request],
    reference: impl Fn(&'r Request) -> Option<&'r [f32]>,
    sample_every: usize,
    tally: &mut Tally,
) -> bool {
    let report = &out.report;
    let mut ok = report.reconciles() && out.dropped.is_empty() && report.served == requests.len();
    let base = requests.first().map_or(0, |r| r.id);
    for c in &out.completions {
        if !(c.id - base).is_multiple_of(sample_every.max(1) as u64) {
            continue;
        }
        let want = requests.get((c.id - base) as usize).and_then(&reference);
        ok &= match (c.y.as_deref(), want) {
            (Some(got), Some(want)) => tally.spmv_ok(got, want),
            _ => false,
        };
    }
    ok
}

/// Simulated latency of every completion, in milliseconds.
pub fn latencies(out: &ServeResult) -> impl Iterator<Item = f64> + '_ {
    out.completions.iter().map(Completion::latency_ms)
}

/// Simulated kernel time of every completion (job start to job end).
pub fn kernel_ms(out: &ServeResult) -> impl Iterator<Item = f64> + '_ {
    out.completions.iter().map(|c| c.end_ms - c.start_ms)
}

/// Fill the serving-layer metrics from a traced pass's windows, and check
/// that each window's stages cover its wall time.
pub fn stage_metrics(windows: &[Window], memo_hit_rate: f64, tally: &mut Tally, m: &mut Metrics) {
    let n = windows.len().max(1) as f64;
    let mut totals = [0.0f64; 3];
    for (i, w) in windows.iter().enumerate() {
        let parts: Duration = w.stages.iter().sum();
        tally.record(parts == w.wall, || {
            format!("traced window {i}: stages cover {parts:?} of {:?}", w.wall)
        });
        for (t, s) in totals.iter_mut().zip(&w.stages) {
            *t += s.as_secs_f64() * 1e3;
        }
    }
    m.set("runtime.host.admit_ms", totals[Stage::Admit as usize] / n);
    m.set("runtime.host.replay_ms", totals[Stage::Replay as usize] / n);
    m.set(
        "runtime.host.complete_ms",
        totals[Stage::Complete as usize] / n,
    );

    let sum = |f: fn(&RuntimeReport) -> usize| windows.iter().map(|w| f(&w.report)).sum::<usize>();
    let hits = sum(|r| r.cache.hits);
    let lookups = hits + sum(|r| r.cache.misses);
    let served = sum(|r| r.served).max(1) as f64;
    m.set("runtime.plan_hit_rate", hits as f64 / lookups.max(1) as f64);
    m.set("runtime.memo_hit_rate", memo_hit_rate);
    m.set(
        "runtime.batched_frac",
        sum(|r| r.batched_requests) as f64 / served,
    );
    m.set(
        "runtime.tune_explore_frac",
        sum(|r| r.tune_explores) as f64 / served,
    );
}

/// Fingerprint-memo hit rate over the lookups between two snapshots.
pub fn memo_hit_rate(before: MemoStats, after: MemoStats) -> f64 {
    MemoStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        stamp_mismatches: after.stamp_mismatches - before.stamp_mismatches,
        evictions: after.evictions - before.evictions,
    }
    .hit_rate()
}

/// Bit patterns of a float sequence, for the clock-separation guard.
pub fn bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
    values.map(f64::to_bits).collect()
}
