//! Layer probes: timed calls into the public entry points of `sparse`,
//! `simt`, `core`, `kernels`, `baselines` and `runtime` on a workload's
//! own matrix, interleaved round-robin so machine drift hits every entry
//! point alike. Each probe fills the per-layer metrics it owns.

use std::sync::Arc;
use std::time::Instant;

use kernels::formats::PreparedOperand;
use kernels::graph::Graph;
use kernels::spmv::{spmv_with_model, DEFAULT_BLOCK};
use loops::dispatch::{candidates, KernelKind};
use loops::heuristic::Heuristic;
use loops::schedule::ScheduleKind;
use runtime::{Fingerprint, Request, Runtime, RuntimeConfig};
use simt::{CostModel, GpuSpec, HostBackend};
use sparse::{Csr, EvolvingStream, FormatKind};

use crate::env::{ms_since, Tally};
use crate::metrics::Metrics;
use crate::serving::{self, Window};
use crate::stamp::StampSink;
use crate::stats::{geomean, median};

/// The seven schedule families, with the metric each one's host tax
/// lands in.
pub const SCHEDULES: [(ScheduleKind, &str); 7] = [
    (ScheduleKind::ThreadMapped, "core.tax.thread-mapped"),
    (ScheduleKind::WorkQueue(4), "core.tax.work-queue-4"),
    (ScheduleKind::WarpMapped, "core.tax.warp-mapped"),
    (ScheduleKind::BlockMapped, "core.tax.block-mapped"),
    (ScheduleKind::GroupMapped(64), "core.tax.group-mapped-64"),
    (ScheduleKind::Lrb, "core.tax.lrb"),
    (ScheduleKind::MergePath, "core.tax.merge-path"),
];

/// PageRank convergence settings shared by the workloads.
pub const PR_TOL: f32 = 1e-6;
/// PageRank iteration cap.
pub const PR_MAX_ITERS: usize = 100;
/// L1 distance allowed between a simulated PageRank and `pagerank_ref`.
pub const PR_L1_TOL: f64 = 1e-4;

/// Repetitions for a probe on a matrix of `nnz` nonzeros: more on small
/// matrices, whose single calls are short and noisy.
pub fn reps_for(nnz: usize) -> usize {
    (4_000_000 / nnz.max(1)).clamp(3, 21)
}

/// The non-CSR formats a conversion probe times: COO always, plus every
/// format the candidate filter admits for `a`.
fn probe_formats(a: &Csr<f32>) -> Vec<FormatKind> {
    let mut formats = vec![FormatKind::Coo];
    for (_, f) in candidates(KernelKind::Spmv, a) {
        if f != FormatKind::Csr && !formats.contains(&f) {
            formats.push(f);
        }
    }
    formats
}

fn sequential<R>(f: impl FnOnce() -> R) -> R {
    simt::host::scoped(HostBackend::Sequential, f)
}

/// Kernel-level probe on `a`: the plain-loop yardstick, format
/// conversion, every schedule's launch split into `run_blocks` and the
/// rest, the CUB-like baseline, plan preparation and warm replay, and
/// fingerprinting. With `par2`, every schedule also runs once under
/// `Parallel{2}` and `simt.par2_speedup` is their geomean speedup.
pub fn kernel_layers(
    spec: &GpuSpec,
    a: &Arc<Csr<f32>>,
    x: &[f32],
    par2: bool,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let model = CostModel::standard();
    let reps = reps_for(a.nnz());
    let want = a.spmv_ref(x);
    let formats = probe_formats(a);
    let heuristic = Heuristic::paper().select(a.rows(), a.cols(), a.nnz());

    let mut ref_ms = Vec::new();
    let mut launch_ms = vec![Vec::new(); SCHEDULES.len()];
    let mut blocks_ms = vec![Vec::new(); SCHEDULES.len()];
    let mut bytes = vec![0u64; SCHEDULES.len()];
    let mut cub_ms = Vec::new();
    let mut prep_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let mut convert_ms = vec![Vec::new(); formats.len()];
    let mut fp_ms = Vec::new();

    for rep in 0..reps {
        let t = Instant::now();
        let y = std::hint::black_box(a.spmv_ref(std::hint::black_box(x)));
        ref_ms.push(ms_since(t));
        drop(y);

        for (i, (kind, _)) in SCHEDULES.iter().enumerate() {
            let t = Instant::now();
            let run = sequential(|| spmv_with_model(spec, &model, a, x, *kind, DEFAULT_BLOCK));
            let wall = ms_since(t);
            let ok = run.as_ref().is_ok_and(|r| tally.spmv_ok(&r.y, &want));
            tally.record(ok, || format!("probe {kind} launch wrong or failed"));
            if let Ok(run) = run {
                launch_ms[i].push(wall);
                blocks_ms[i].push(run.report.host_wall_ms);
                if rep == 0 {
                    bytes[i] = run.report.mem.total_bytes();
                }
            }
        }

        let t = Instant::now();
        let cub = sequential(|| baselines::cub_spmv(spec, a, x));
        cub_ms.push(ms_since(t));
        let ok = cub.as_ref().is_ok_and(|r| tally.spmv_ok(&r.y, &want));
        tally.record(ok, || "probe cub_spmv wrong or failed".to_owned());

        let t = Instant::now();
        let plan = kernels::plan::prepare(spec, &model, a, heuristic, DEFAULT_BLOCK);
        prep_ms.push(ms_since(t));
        if let Ok(plan) = plan {
            let t = Instant::now();
            let warm = sequential(|| kernels::plan::run(spec, &model, a, x, &plan));
            warm_ms.push(ms_since(t));
            let ok = warm.as_ref().is_ok_and(|r| tally.spmv_ok(&r.y, &want));
            tally.record(ok, || "probe planned launch wrong or failed".to_owned());
        } else {
            tally.record(false, || "probe plan preparation failed".to_owned());
        }
        let t = Instant::now();
        let cold = sequential(|| spmv_with_model(spec, &model, a, x, heuristic, DEFAULT_BLOCK));
        cold_ms.push(ms_since(t));
        tally.record(cold.is_ok(), || "probe cold launch failed".to_owned());

        for (i, f) in formats.iter().enumerate() {
            let t = Instant::now();
            let op = PreparedOperand::prepare(a, *f);
            convert_ms[i].push(ms_since(t));
            tally.record(op.is_ok(), || format!("probe {f} conversion failed"));
        }

        let t = Instant::now();
        std::hint::black_box(Fingerprint::of(std::hint::black_box(a)));
        fp_ms.push(ms_since(t));
    }

    let ref_med = median(&ref_ms);
    m.set("sparse.spmv_ref_ms", ref_med);
    m.set(
        "sparse.convert_ms",
        convert_ms.iter().map(|v| median(v)).sum::<f64>(),
    );
    let mut walls = Vec::new();
    let mut blocks = Vec::new();
    for (i, (_, name)) in SCHEDULES.iter().enumerate() {
        if launch_ms[i].is_empty() {
            continue;
        }
        let wall = median(&launch_ms[i]);
        let blk = median(&blocks_ms[i]);
        m.set(name, wall / ref_med);
        walls.push(wall);
        blocks.push(blk);
    }
    if !walls.is_empty() {
        let n = walls.len() as f64;
        let mean_blocks = blocks.iter().sum::<f64>() / n;
        m.set("simt.run_blocks_ms", mean_blocks);
        m.set(
            "simt.launch_rest_ms",
            walls.iter().zip(&blocks).map(|(w, b)| w - b).sum::<f64>() / n,
        );
        m.set("simt.ns_per_nnz", mean_blocks * 1e6 / a.nnz().max(1) as f64);
    }
    m.set("simt.bytes_moved", bytes.iter().sum::<u64>() as f64);
    let merge = median(&launch_ms[SCHEDULES.len() - 1]);
    m.set("core.tax_vs_cub", merge / median(&cub_ms));
    m.set("core.plan_prepare_ms", median(&prep_ms));
    if !warm_ms.is_empty() {
        m.set("core.warm_over_cold", median(&warm_ms) / median(&cold_ms));
    }
    m.set("runtime.fingerprint_ms", median(&fp_ms));
    m.set("runtime.memo_hit_us", memo_hit_us(spec, a));

    if par2 {
        let mut speedups = Vec::new();
        for (i, (kind, _)) in SCHEDULES.iter().enumerate() {
            let t = Instant::now();
            let run = simt::host::scoped(HostBackend::Parallel { threads: 2 }, || {
                spmv_with_model(spec, &model, a, x, *kind, DEFAULT_BLOCK)
            });
            let wall = ms_since(t);
            let ok = run.as_ref().is_ok_and(|r| tally.spmv_ok(&r.y, &want));
            tally.record(ok, || {
                format!("probe parallel(2) {kind} launch wrong or failed")
            });
            if let Ok(run) = run {
                tally.same_bits(
                    &format!("probe {kind} bytes, sequential vs parallel(2)"),
                    &[bytes[i]],
                    &[run.report.mem.total_bytes()],
                );
                if !launch_ms[i].is_empty() {
                    speedups.push(median(&launch_ms[i]) / wall);
                }
            }
        }
        m.set("simt.par2_speedup", geomean(&speedups));
    }
}

/// Microseconds per `Runtime::fingerprint` call on a memo hit, timed over
/// a batch of calls (one hit is shorter than the timer's resolution).
fn memo_hit_us(spec: &GpuSpec, a: &Arc<Csr<f32>>) -> f64 {
    const CALLS: usize = 2_000;
    let mut rt = Runtime::new(spec.clone(), RuntimeConfig::default());
    rt.fingerprint(a);
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(rt.fingerprint(std::hint::black_box(a)));
        }
        per_call.push(ms_since(t) * 1e3 / CALLS as f64);
    }
    median(&per_call)
}

/// Cold PageRank on `a` (as a graph), checked against `pagerank_ref`.
pub fn pagerank_layers(spec: &GpuSpec, a: &Csr<f32>, tally: &mut Tally, m: &mut Metrics) {
    let g = Graph::new(a.clone());
    let kind = Heuristic::paper().select(a.rows(), a.cols(), a.nnz());
    let reps = reps_for(a.nnz()).min(5);
    let mut wall = Vec::new();
    let mut iters = 0.0;
    for _ in 0..reps {
        let t = Instant::now();
        let run = sequential(|| kernels::pagerank::pagerank(spec, &g, kind, PR_TOL, PR_MAX_ITERS));
        wall.push(ms_since(t));
        match run {
            Ok(run) => {
                iters = run.iterations as f64;
                let ok = pagerank_ok(&g, &run.rank, tally);
                tally.record(ok, || {
                    "probe PageRank disagrees with pagerank_ref".to_owned()
                });
            }
            Err(e) => tally.record(false, || format!("probe PageRank failed: {e}")),
        }
    }
    m.set("kernels.pagerank_ms", median(&wall));
    m.set("kernels.pagerank_iters", iters);
}

/// Check ranks against `pagerank_ref` by L1 distance; records the
/// distance as a relative error (ranks sum to one).
pub fn pagerank_ok(g: &Graph, rank: &[f32], tally: &mut Tally) -> bool {
    let want = kernels::pagerank::pagerank_ref(g, f64::from(PR_TOL), PR_MAX_ITERS);
    let l1: f64 = want
        .iter()
        .zip(rank)
        .map(|(w, r)| f64::from((w - r).abs()))
        .sum();
    tally.max_rel_error = tally.max_rel_error.max(l1);
    l1 <= PR_L1_TOL
}

/// Edge batches applied through `runtime::mutate` to a private copy of
/// `a`, each after one served request so a plan exists to retire.
pub fn mutation_layers(
    spec: &GpuSpec,
    a: &Arc<Csr<f32>>,
    seed: u64,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    const BATCHES: usize = 6;
    const BATCH_EVENTS: usize = 64;
    let mut rt = Runtime::new(
        spec.clone(),
        RuntimeConfig {
            host_backend: Some(HostBackend::Sequential),
            ..RuntimeConfig::default()
        },
    );
    let mut mat = Arc::new(a.as_ref().clone());
    let mut stream = EvolvingStream::new(seed, 0.5);
    let mut wall = Vec::new();
    let (mut rebuilt, mut retired) = (0usize, 0usize);
    let mut cursor = 0.0;
    for i in 0..BATCHES {
        let x: Arc<[f32]> = sparse::dense::test_vector(mat.cols()).into();
        let req = Request {
            id: i as u64,
            tenant: 0,
            matrix: Arc::clone(&mat),
            x,
            arrival_ms: cursor,
        };
        let served = rt.serve(std::slice::from_ref(&req));
        tally.record(served.is_ok(), || "probe serve failed".to_owned());
        if let Ok(out) = served {
            cursor = out.report.makespan_ms;
        }
        drop(req);
        let batch = stream.next_batch(&mat, BATCH_EVENTS);
        let t = Instant::now();
        let out = runtime::mutate(&mut rt, &mut mat, &batch);
        wall.push(ms_since(t));
        tally.record(out.is_ok(), || "probe mutation failed".to_owned());
        if let Ok(out) = out {
            rebuilt += usize::from(out.path == sparse::ApplyPath::Rebuilt);
            retired += out.retired.map_or(0, |r| r.plans);
        }
    }
    m.set("runtime.mutate_ms", median(&wall));
    m.set("sparse.rebuilt_frac", rebuilt as f64 / BATCHES as f64);
    m.set("runtime.retired_plans", retired as f64 / BATCHES as f64);
}

/// A small traced serve on `a` for workloads that bypass the runtime:
/// fills the serving-layer metrics from a few windows.
pub fn serve_layers(spec: &GpuSpec, a: &Arc<Csr<f32>>, tally: &mut Tally, m: &mut Metrics) {
    const WINDOWS: usize = 3;
    const PER_WINDOW: usize = 4;
    let mut rt = Runtime::new(
        spec.clone(),
        RuntimeConfig {
            host_backend: Some(HostBackend::Sequential),
            keep_results: true,
            ..RuntimeConfig::default()
        },
    );
    let sink = Arc::new(StampSink::with_program_sinks());
    rt.set_trace_sink(sink.clone());
    let x: Arc<[f32]> = sparse::dense::test_vector(a.cols()).into();
    let want = a.spmv_ref(&x);
    let mut windows: Vec<Window> = Vec::new();
    let mut cursor = 0.0;
    for w in 0..WINDOWS {
        let requests: Vec<Request> = (0..PER_WINDOW)
            .map(|i| Request {
                id: (w * PER_WINDOW + i) as u64,
                tenant: 0,
                matrix: Arc::clone(a),
                x: Arc::clone(&x),
                arrival_ms: cursor + i as f64 * 0.002,
            })
            .collect();
        let (out, wall, stages) = sink.window(|| rt.serve(&requests));
        match out {
            Ok(out) => {
                let ok = serving::check(&out, &requests, |_| Some(want.as_slice()), 1, tally);
                tally.record(ok, || format!("probe serve window {w} failed its checks"));
                cursor = out.report.makespan_ms;
                windows.push(Window {
                    wall,
                    stages,
                    report: out.report,
                });
            }
            Err(e) => tally.record(false, || format!("probe serve failed: {e}")),
        }
    }
    serving::stage_metrics(&windows, rt.memo_stats().hit_rate(), tally, m);
}
