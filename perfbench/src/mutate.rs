//! `stream_mutate`: a closed loop on a seeded `powerlaw_floor` graph.
//! Each window applies one `EvolvingStream` insert/delete batch through
//! `runtime::mutate`, serves a burst of SpMV requests on the mutated
//! matrix, and warm-starts PageRank from the previous window's ranks.
//! Tuning is off and the host backend is sequential. One operation is one
//! window.
//!
//! Writes sit beside reads: every structural batch rebuilds the CSR,
//! fingerprints it again and retires plans, so the next serve misses and
//! plans again. A change that buys hit-path speed with dearer builds or
//! invalidation shows here and not in `serve_zipf`. The stream restarts
//! from the same seeded graph every `CYCLE` windows, so the graph's size
//! and the per-window work stay stationary however long a run lasts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kernels::graph::Graph;
use loops::heuristic::Heuristic;
use loops::schedule::ScheduleKind;
use runtime::{Request, Runtime, RuntimeConfig};
use simt::{GpuSpec, HostBackend};
use sparse::{ApplyPath, Csr, EvolvingStream};

use crate::env::{
    self, derive, ms_since, repeated_setup, seeded_vector, working_set_bytes, Context, Tally,
};
use crate::metrics::Metrics;
use crate::probe::{self, PR_MAX_ITERS, PR_TOL};
use crate::serving::{self, bits, Window};
use crate::stamp::{StageTimes, StampSink};
use crate::stats::{geomean, median};
use crate::{Outcome, RunSpec, MIN_OPS};

const ROWS: usize = 8_192;
const K_MIN: usize = 4;
const NNZ: usize = 49_152;
const ALPHA: f64 = 2.2;
/// Edge events per mutation batch, half inserts and half deletes, so the
/// graph churns without growing.
const BATCH_EVENTS: usize = 128;
const INSERT_FRAC: f64 = 0.5;
/// SpMV requests per window, arriving as a burst.
const REQUESTS: usize = 16;
const SPACING_MS: f64 = 0.002;
/// Windows per cycle: 1152 requests, enough for a p99 with ten samples
/// beyond it.
const CYCLE: usize = 72;
/// Every this-many-th completion of a window is checked.
const SAMPLE_EVERY: usize = 4;

/// The seeded inputs and the serving state that persists across cycles.
struct State {
    rt: Runtime,
    a0: Arc<Csr<f32>>,
    x: Arc<[f32]>,
    rank0: Vec<f32>,
    kind: ScheduleKind,
    seed: u64,
    cursor: f64,
    next_id: u64,
}

/// One window's record.
struct WindowOut {
    wall_ms: f64,
    mutate_ms: f64,
    pagerank_ms: f64,
    iterations: usize,
    /// Nonzeros multiplied: requests plus PageRank iterations.
    mnnz: f64,
    /// `Csr::spmv_ref` on the window's matrix, timed in this process.
    ref_ms: f64,
    rebuilt: bool,
    retired_plans: usize,
    latency: Vec<f64>,
    kernel: Vec<f64>,
    /// Simulated first arrival and last job end of the window.
    sim_span: (f64, f64),
    /// The traced serve of the window, in a traced pass.
    serve: Option<Window>,
}

impl State {
    fn new(seed: u64) -> Self {
        let spec = GpuSpec::v100();
        let a0 = Arc::new(sparse::gen::powerlaw_floor(
            ROWS,
            ROWS,
            K_MIN,
            NNZ,
            ALPHA,
            derive(seed, 1),
        ));
        let x: Arc<[f32]> = seeded_vector(ROWS, derive(seed, 3)).into();
        let kind = Heuristic::paper().select(a0.rows(), a0.cols(), a0.nnz());
        let rank0 = kernels::pagerank::pagerank(
            &spec,
            &Graph::new(a0.as_ref().clone()),
            kind,
            PR_TOL,
            PR_MAX_ITERS,
        )
        .expect("PageRank on the seeded graph")
        .rank;
        let rt = Runtime::new(
            spec,
            RuntimeConfig {
                keep_results: true,
                host_backend: Some(HostBackend::Sequential),
                ..RuntimeConfig::default()
            },
        );
        Self {
            rt,
            a0,
            x,
            rank0,
            kind,
            seed,
            cursor: 0.0,
            next_id: 0,
        }
    }

    /// Run one cycle of `CYCLE` windows (restarting from the seeded
    /// graph), stopping early when `stop` says so. With a sink, each
    /// serve is timed as a traced window.
    fn cycle(
        &mut self,
        sink: Option<&StampSink>,
        tally: &mut Tally,
        mut stop: impl FnMut(usize) -> bool,
    ) -> Vec<WindowOut> {
        let spec = GpuSpec::v100();
        let mut a = Arc::new(self.a0.as_ref().clone());
        let mut stream = EvolvingStream::new(derive(self.seed, 2), INSERT_FRAC);
        let mut rank = self.rank0.clone();
        let mut outs = Vec::with_capacity(CYCLE);
        for w in 0..CYCLE {
            if stop(w) {
                break;
            }
            let batch = stream.next_batch(&a, BATCH_EVENTS);
            let start_ms = self.cursor;
            let t0 = Instant::now();
            let mutation = runtime::mutate(&mut self.rt, &mut a, &batch);
            let mutate_ms = ms_since(t0);
            let requests: Vec<Request> = (0..REQUESTS)
                .map(|i| Request {
                    id: self.next_id + i as u64,
                    tenant: 0,
                    matrix: Arc::clone(&a),
                    x: Arc::clone(&self.x),
                    arrival_ms: self.cursor + i as f64 * SPACING_MS,
                })
                .collect();
            self.next_id += REQUESTS as u64;
            let (served, serve_wall, stages) = match sink {
                Some(sink) => sink.window(|| self.rt.serve(&requests)),
                None => {
                    let t = Instant::now();
                    let out = self.rt.serve(&requests);
                    (out, t.elapsed(), StageTimes::default())
                }
            };
            let t1 = Instant::now();
            let g = Graph::new(a.as_ref().clone());
            let pr =
                kernels::pagerank::pagerank_warm(&spec, &g, self.kind, PR_TOL, PR_MAX_ITERS, &rank);
            let pagerank_ms = ms_since(t1);
            let wall_ms = ms_since(t0);

            // Checks, outside the timed operation.
            let t = Instant::now();
            let want = a.spmv_ref(&self.x);
            let ref_ms = ms_since(t);
            let mut ok = true;
            let (rebuilt, retired_plans) = match &mutation {
                Ok(m) => (
                    m.path == ApplyPath::Rebuilt,
                    m.retired.map_or(0, |r| r.plans),
                ),
                Err(_) => {
                    ok = false;
                    (false, 0)
                }
            };
            let (latency, kernel, serve) = match served {
                Ok(out) => {
                    ok &= serving::check(
                        &out,
                        &requests,
                        |_| Some(want.as_slice()),
                        SAMPLE_EVERY,
                        tally,
                    );
                    self.cursor = self.cursor.max(out.report.makespan_ms);
                    let lat = serving::latencies(&out).collect();
                    let ker = serving::kernel_ms(&out).collect();
                    (
                        lat,
                        ker,
                        sink.map(|_| Window {
                            wall: serve_wall,
                            stages,
                            report: out.report,
                        }),
                    )
                }
                Err(_) => {
                    ok = false;
                    (Vec::new(), Vec::new(), None)
                }
            };
            drop(requests);
            let iterations = match pr {
                Ok(pr) => {
                    ok &= probe::pagerank_ok(&g, &pr.rank, tally);
                    rank = pr.rank;
                    pr.iterations
                }
                Err(_) => {
                    ok = false;
                    0
                }
            };
            tally.record(ok, || format!("stream_mutate window {w} failed its checks"));
            outs.push(WindowOut {
                wall_ms,
                mutate_ms,
                pagerank_ms,
                iterations,
                mnnz: ((REQUESTS + iterations) * a.nnz()) as f64,
                ref_ms,
                rebuilt,
                retired_plans,
                latency,
                kernel,
                sim_span: (start_ms, self.cursor),
                serve,
            });
        }
        outs
    }
}

/// Bit patterns of every simulated quantity of a cycle.
fn sim_bits(outs: &[WindowOut]) -> Vec<u64> {
    outs.iter()
        .flat_map(|o| bits(o.latency.iter().chain(&o.kernel).copied()))
        .collect()
}

/// Run the workload.
pub fn run(args: &RunSpec) -> Outcome {
    let spec = GpuSpec::v100();
    let mut tally = Tally::default();
    let mut ctx = Context::default();
    let (mut state, setup_s) = repeated_setup(|| State::new(args.seed));
    ctx.put("host_backend", "sequential");
    ctx.matrix("graph", &state.a0);
    ctx.working_set(working_set_bytes(&state.a0));
    ctx.put("pagerank_schedule", state.kind);
    ctx.put("window", format!("{BATCH_EVENTS}-event batch, {REQUESTS} requests, warm PageRank; {CYCLE} windows per cycle"));

    // The first cycle is the simulated-clock record; cycles continue
    // until the time is up and enough windows exist.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let first = state.cycle(None, &mut tally, |_| false);
    let mut all: Vec<WindowOut> = Vec::new();
    let mut cycles = 1;
    loop {
        let done = all.len() + first.len();
        if Instant::now() >= deadline && done >= MIN_OPS {
            break;
        }
        let more = state.cycle(None, &mut tally, |w| {
            w > 0 && Instant::now() >= deadline && done + w >= MIN_OPS
        });
        all.extend(more);
        cycles += 1;
    }
    ctx.put("cycles", cycles);
    let first_walls: Vec<f64> = first.iter().map(|o| o.wall_ms).collect();
    let sim_first = sim_bits(&first);
    let latency: Vec<f64> = first
        .iter()
        .flat_map(|o| o.latency.iter().copied())
        .collect();
    let kernel: Vec<f64> = first
        .iter()
        .flat_map(|o| o.kernel.iter().copied())
        .collect();
    let served = latency.len() as f64;
    let span =
        first.last().map_or(0.0, |o| o.sim_span.1) - first.first().map_or(0.0, |o| o.sim_span.0);
    all.splice(0..0, first);

    let walls: Vec<f64> = all.iter().map(|o| o.wall_ms).collect();
    let taxes: Vec<f64> = all
        .iter()
        .map(|o| o.wall_ms / ((REQUESTS + o.iterations) as f64 * o.ref_ms))
        .collect();
    let mut e2e = Metrics::default();
    let nnz = all.iter().map(|o| o.mnnz).sum();
    env::host_wall(&mut e2e, &mut ctx, &walls, nnz, "windows");
    e2e.set("tax_geomean", geomean(&taxes));
    e2e.set("setup_s", setup_s);
    e2e.set("sim_geomean_ms", geomean(&kernel));
    env::sim_latency(&mut e2e, &mut ctx, &latency);
    e2e.set("sim_goodput_rps", served / (span * 1e-3));

    let layers = args.trace.then(|| {
        let mut m = Metrics::default();
        let n = all.len() as f64;
        m.set(
            "runtime.mutate_ms",
            median(&all.iter().map(|o| o.mutate_ms).collect::<Vec<_>>()),
        );
        m.set(
            "sparse.rebuilt_frac",
            all.iter().filter(|o| o.rebuilt).count() as f64 / n,
        );
        m.set(
            "runtime.retired_plans",
            all.iter().map(|o| o.retired_plans as f64).sum::<f64>() / n,
        );
        m.set(
            "kernels.pagerank_ms",
            median(&all.iter().map(|o| o.pagerank_ms).collect::<Vec<_>>()),
        );
        m.set(
            "kernels.pagerank_iters",
            all.iter().map(|o| o.iterations as f64).sum::<f64>() / n,
        );

        // Traced pass: the first cycle again on a fresh state.
        let mut traced = State::new(args.seed);
        let sink = Arc::new(StampSink::with_program_sinks());
        traced.rt.set_trace_sink(sink.clone());
        let memo_before = traced.rt.memo_stats();
        let touts = traced.cycle(Some(&sink), &mut tally, |_| false);
        tally.same_bits(
            "stream_mutate untraced vs traced",
            &sim_first,
            &sim_bits(&touts),
        );
        let traced_wall: f64 = touts.iter().map(|o| o.wall_ms).sum();
        m.set(
            "trace.overhead",
            traced_wall / first_walls.iter().sum::<f64>(),
        );
        let memo = serving::memo_hit_rate(memo_before, traced.rt.memo_stats());
        let windows: Vec<Window> = touts.into_iter().filter_map(|o| o.serve).collect();
        serving::stage_metrics(&windows, memo, &mut tally, &mut m);
        ctx.put("trace.events", sink.events());

        let x = state.x.to_vec();
        probe::kernel_layers(&spec, &state.a0, &x, true, &mut tally, &mut m);
        m
    });

    Outcome {
        e2e,
        layers,
        tally,
        ctx,
    }
}
