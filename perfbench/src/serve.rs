//! `serve_zipf`: an open loop on the simulated clock. A seeded Zipf
//! stream (s = 1.1) over the `serve_bench` corpus slice runs through one
//! long-lived `Runtime::serve` with tuning on and the `Parallel{2}` host
//! backend, in fixed windows of requests, stepping through a fixed ladder
//! of arrival rates around the simulated device's capacity. One operation
//! is one serve window.
//!
//! Per-request fixed costs dominate here: memo and plan-cache hits,
//! small-grid launches, batch fusion and the executor's thread hand-off.
//! It is the only workload that runs the tuner and the parallel executor;
//! a kernel-body speed-up should move it less than it moves `spmv_sweep`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use runtime::{
    zipf_workload, Request, Runtime, RuntimeConfig, RuntimeReport, ServeResult, TuneConfig,
    WorkloadSpec,
};
use simt::{GpuSpec, HostBackend};
use sparse::Csr;

use crate::env::{self, derive, ms_since, repeated_setup, working_set_bytes, Context, Tally};
use crate::metrics::Metrics;
use crate::probe;
use crate::serving::{self, bits, Window};
use crate::stamp::StampSink;
use crate::stats::{self, geomean, median};
use crate::{Outcome, RunSpec, MIN_OPS};

/// Corpus slice, as `serve_bench` takes it: the first matrices of a
/// deterministic subset, capped in size.
const CORPUS_SUBSET: usize = 20;
const CORPUS_TAKE: usize = 10;
const MAX_NNZ: usize = 250_000;
const ZIPF_S: f64 = 1.1;

/// Requests per serve window (one operation).
pub const WINDOW: usize = 64;
/// Windows per ladder rung: 2048 requests, so a rung's p99 has twenty
/// samples beyond it.
const WINDOWS_PER_RUNG: usize = 32;
/// Warm-up windows at the nominal rate, served during set-up so the
/// tuner and the plan cache start the measured round warm.
const WARMUP_WINDOWS: usize = 16;
/// Offered arrival rates (requests per simulated second). The warm
/// one-device pool saturates near 520k req/s on this corpus: the rungs
/// sit at 48%, 77% (nominal) and 90% of that, then 135% and 163%, where
/// the backlog grows through the rung. The gap around capacity keeps the
/// pass/fail verdict of every rung the same across seeds.
pub const LADDER_RPS: [f64; 5] = [250_000.0, 400_000.0, 470_000.0, 700_000.0, 850_000.0];
/// The rung whose latencies are the headline `sim_p50_ms`/`sim_p99_ms`.
pub const NOMINAL: usize = 1;
/// Latency limit on a rung's simulated p99 for `sim_goodput_rps`.
pub const P99_LIMIT_MS: f64 = 0.25;
/// Simulated idle time between rungs, so one rung's backlog never
/// spills into the next.
const RUNG_GAP_MS: f64 = 1.0;
/// Every this-many-th completion of a window is checked against
/// `Csr::spmv_ref`.
const SAMPLE_EVERY: usize = 4;

struct Corpus {
    matrices: Vec<Arc<Csr<f32>>>,
    /// The stream's input vector for each matrix.
    xs: Vec<Vec<f32>>,
    /// `Csr::spmv_ref` of each matrix on its input vector.
    refs: Vec<Vec<f32>>,
}

fn corpus() -> Corpus {
    let matrices: Vec<Arc<Csr<f32>>> = sparse::corpus::corpus_subset(CORPUS_SUBSET)
        .iter()
        .filter(|s| s.approx_nnz() <= MAX_NNZ)
        .take(CORPUS_TAKE)
        .map(|s| Arc::new(s.build()))
        .collect();
    // `zipf_workload` pairs each matrix with this same test vector.
    let xs: Vec<Vec<f32>> = matrices
        .iter()
        .map(|a| sparse::dense::test_vector(a.cols()))
        .collect();
    let refs = matrices
        .iter()
        .zip(&xs)
        .map(|(a, x)| a.spmv_ref(x))
        .collect();
    Corpus { matrices, xs, refs }
}

/// A rung's requests with arrival times relative to the rung start.
fn stream(corpus: &Corpus, requests: usize, rate_rps: f64, seed: u64) -> Vec<Request> {
    zipf_workload(
        &corpus.matrices,
        &WorkloadSpec {
            requests,
            zipf_s: ZIPF_S,
            mean_interarrival_ms: 1e3 / rate_rps,
            seed,
        },
    )
}

/// The measured round: one stream per ladder rung.
fn ladder(corpus: &Corpus, seed: u64) -> Vec<Vec<Request>> {
    LADDER_RPS
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            stream(
                corpus,
                WINDOW * WINDOWS_PER_RUNG,
                rate,
                derive(seed, 10 + i as u64),
            )
        })
        .collect()
}

/// One long-lived runtime and its position on the simulated clock.
struct Server {
    rt: Runtime,
    corpus: Corpus,
    /// Latest job end seen, in simulated ms.
    cursor: f64,
    next_id: u64,
}

/// Per-rung simulated outcome of one round.
#[derive(Default)]
struct RungSim {
    latency: Vec<f64>,
    kernel: Vec<f64>,
    submitted: usize,
    served: usize,
    first_arrival: f64,
    last_end: f64,
}

/// Host-side record of one window.
struct WindowHost {
    wall_ms: f64,
    nnz: f64,
    /// The same products through `Csr::spmv_ref`, timed right after the
    /// window so the yardstick sees the same machine conditions.
    plain_ms: f64,
}

impl Server {
    fn new(backend: HostBackend, seed: u64) -> Self {
        let rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                keep_results: true,
                tune: TuneConfig {
                    enabled: true,
                    ..TuneConfig::default()
                },
                host_backend: Some(backend),
                ..RuntimeConfig::default()
            },
        );
        let mut s = Self {
            rt,
            corpus: corpus(),
            cursor: 0.0,
            next_id: 0,
        };
        let warm = stream(
            &s.corpus,
            WINDOW * WARMUP_WINDOWS,
            LADDER_RPS[NOMINAL],
            derive(seed, 9),
        );
        let mut tally = Tally::default();
        s.round(&[warm], &mut tally, |rt, w| {
            let out = rt.serve(w);
            (out, Duration::ZERO)
        });
        s
    }

    /// Serve `rungs` back to back in windows, timing each window with
    /// `timed`, checking every window's outputs.
    fn round(
        &mut self,
        rungs: &[Vec<Request>],
        tally: &mut Tally,
        mut timed: impl FnMut(&mut Runtime, &[Request]) -> (simt::Result<ServeResult>, Duration),
    ) -> (Vec<RungSim>, Vec<WindowHost>, Vec<RuntimeReport>) {
        let mut sims = Vec::with_capacity(rungs.len());
        let mut hosts = Vec::new();
        let mut outs = Vec::new();
        for rung in rungs {
            let start = self.cursor + RUNG_GAP_MS;
            let placed: Vec<Request> = rung
                .iter()
                .enumerate()
                .map(|(i, r)| Request {
                    id: self.next_id + i as u64,
                    arrival_ms: start + r.arrival_ms,
                    ..r.clone()
                })
                .collect();
            self.next_id += placed.len() as u64;
            let mut sim = RungSim {
                first_arrival: placed.first().map_or(start, |r| r.arrival_ms),
                ..RungSim::default()
            };
            for window in placed.chunks(WINDOW) {
                let (out, wall) = timed(&mut self.rt, window);
                sim.submitted += window.len();
                let out = match out {
                    Ok(out) => out,
                    Err(e) => {
                        tally.record(false, || format!("serve failed: {e}"));
                        continue;
                    }
                };
                let refs = &self.corpus.refs;
                let ok = serving::check(
                    &out,
                    window,
                    |r| refs.get(r.tenant as usize).map(Vec::as_slice),
                    SAMPLE_EVERY,
                    tally,
                );
                tally.record(ok, || {
                    format!("serve window at {:.3} ms failed its checks", start)
                });
                self.cursor = self.cursor.max(out.report.makespan_ms);
                sim.served += out.report.served;
                sim.last_end = sim.last_end.max(out.report.makespan_ms);
                sim.latency.extend(serving::latencies(&out));
                sim.kernel.extend(serving::kernel_ms(&out));
                let t = Instant::now();
                for r in window {
                    let x = &self.corpus.xs[r.tenant as usize];
                    std::hint::black_box(r.matrix.spmv_ref(std::hint::black_box(x)));
                }
                let plain_ms = ms_since(t);
                hosts.push(WindowHost {
                    wall_ms: wall.as_secs_f64() * 1e3,
                    nnz: window.iter().map(|r| r.matrix.nnz() as f64).sum(),
                    plain_ms,
                });
                outs.push(out.report);
            }
            sims.push(sim);
        }
        (sims, hosts, outs)
    }
}

fn timed_serve(rt: &mut Runtime, w: &[Request]) -> (simt::Result<ServeResult>, Duration) {
    let t = Instant::now();
    let out = rt.serve(w);
    (out, t.elapsed())
}

/// Bit patterns of every simulated quantity a round produced.
fn sim_bits(sims: &[RungSim]) -> Vec<u64> {
    sims.iter()
        .flat_map(|s| bits(s.latency.iter().chain(&s.kernel).copied()))
        .collect()
}

/// Run the workload.
pub fn run(args: &RunSpec) -> Outcome {
    let spec = GpuSpec::v100();
    let mut tally = Tally::default();
    let mut ctx = Context::default();
    let backend = HostBackend::Parallel { threads: 2 };
    let (mut server, setup_s) = repeated_setup(|| Server::new(backend, args.seed));
    let round = ladder(&server.corpus, args.seed);

    ctx.put(
        "host_backend",
        format!("{backend} (sequential for the guard replay)"),
    );
    ctx.put(
        "ladder_rps",
        format!("{LADDER_RPS:?}, nominal {}", LADDER_RPS[NOMINAL]),
    );
    ctx.put(
        "window",
        format!("{WINDOW} requests, {WINDOWS_PER_RUNG} windows per rung"),
    );
    let mut ws = 0;
    for (i, a) in server.corpus.matrices.iter().enumerate() {
        ctx.matrix(&format!("rank{i}"), a);
        ws += working_set_bytes(a);
    }
    ctx.working_set(ws);

    // Measured rounds: the first is the simulated-clock record; whole
    // rounds continue until the time is up and enough windows exist.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (first, mut hosts, _) = server.round(&round, &mut tally, timed_serve);
    let first_walls: Vec<f64> = hosts.iter().map(|h| h.wall_ms).collect();
    let mut rounds = 1;
    while Instant::now() < deadline || hosts.len() < MIN_OPS {
        let (_, more, _) = server.round(&round, &mut tally, timed_serve);
        hosts.extend(more);
        rounds += 1;
    }
    ctx.put("rounds", rounds);

    let walls: Vec<f64> = hosts.iter().map(|h| h.wall_ms).collect();
    let taxes: Vec<f64> = hosts.iter().map(|h| h.wall_ms / h.plain_ms).collect();
    let nominal = &first[NOMINAL];
    let mut e2e = Metrics::default();
    let nnz = hosts.iter().map(|h| h.nnz).sum();
    env::host_wall(&mut e2e, &mut ctx, &walls, nnz, "windows");
    e2e.set("tax_geomean", geomean(&taxes));
    e2e.set("setup_s", setup_s);
    e2e.set(
        "sim_geomean_ms",
        geomean(
            &first
                .iter()
                .flat_map(|s| s.kernel.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    env::sim_latency(&mut e2e, &mut ctx, &nominal.latency);
    let mut goodput = None;
    for (rate, sim) in LADDER_RPS.iter().zip(&first) {
        let p99 = stats::percentile(&sim.latency, 0.99);
        let pass = sim.served == sim.submitted && p99 <= P99_LIMIT_MS;
        ctx.put(
            &format!("rung.{rate}"),
            format!(
                "p50 {:.4} ms, p99 {p99:.4} ms, served {}/{}{}",
                median(&sim.latency),
                sim.served,
                sim.submitted,
                if pass { "" } else { " (misses the limit)" }
            ),
        );
        if pass {
            goodput = Some(sim.served as f64 / ((sim.last_end - sim.first_arrival) * 1e-3));
        }
    }
    e2e.set("sim_goodput_rps", goodput.unwrap_or(f64::NAN));

    let layers = args.trace.then(|| {
        let mut m = Metrics::default();
        let untraced = sim_bits(&first);

        // Traced pass: the same round on a fresh, identically warmed
        // runtime, with the stamping sink attached.
        let mut traced = Server::new(backend, args.seed);
        let sink = Arc::new(StampSink::with_program_sinks());
        traced.rt.set_trace_sink(sink.clone());
        let memo_before = traced.rt.memo_stats();
        let mut stages = Vec::new();
        let (tsims, thosts, touts) = traced.round(&round, &mut tally, |rt, w| {
            let (out, wall, st) = sink.window(|| rt.serve(w));
            stages.push((wall, st));
            (out, wall)
        });
        tally.same_bits(
            "serve_zipf untraced vs traced",
            &untraced,
            &sim_bits(&tsims),
        );
        let windows: Vec<Window> = stages
            .into_iter()
            .zip(touts)
            .map(|((wall, stages), report)| Window {
                wall,
                stages,
                report,
            })
            .collect();
        let memo = serving::memo_hit_rate(memo_before, traced.rt.memo_stats());
        serving::stage_metrics(&windows, memo, &mut tally, &mut m);
        ctx.put("trace.events", sink.events());
        let traced_wall: f64 = thosts.iter().map(|h| h.wall_ms).sum();
        m.set(
            "trace.overhead",
            traced_wall / first_walls.iter().sum::<f64>(),
        );
        drop(traced);

        // Guard replay on the sequential backend: same simulated clock,
        // and the per-window parallel speed-up.
        let mut seq = Server::new(HostBackend::Sequential, args.seed);
        let (ssims, shosts, _) = seq.round(&round, &mut tally, timed_serve);
        tally.same_bits(
            "serve_zipf parallel(2) vs sequential",
            &untraced,
            &sim_bits(&ssims),
        );
        let speedups: Vec<f64> = shosts
            .iter()
            .zip(&first_walls)
            .map(|(s, p)| s.wall_ms / p)
            .collect();
        m.set("simt.par2_speedup", geomean(&speedups));
        drop(seq);

        // The hottest square matrix served solo (above the batcher's tiny
        // threshold), so the probes see the solo launch path.
        let tiny = RuntimeConfig::default().tiny_nnz;
        let p = server
            .corpus
            .matrices
            .iter()
            .find(|a| a.rows() == a.cols() && a.nnz() > tiny)
            .expect("the corpus slice holds a square matrix above the tiny threshold");
        ctx.matrix("probe", p);
        let x = sparse::dense::test_vector(p.cols());
        probe::kernel_layers(&spec, p, &x, false, &mut tally, &mut m);
        probe::pagerank_layers(&spec, p, &mut tally, &mut m);
        probe::mutation_layers(&spec, p, derive(args.seed, 5), &mut tally, &mut m);
        m
    });

    Outcome {
        e2e,
        layers,
        tally,
        ctx,
    }
}
