//! `spmv_sweep`: closed loop, one SpMV launch at a time on the sequential
//! host backend, no `Runtime`. Every (schedule × format) cell runs on a
//! seeded power-law and a seeded banded matrix of ~2M nonzeros, cells
//! round-robin so machine drift hits every cell alike. One operation is
//! one launch.
//!
//! `run_blocks` dominates the launch wall time here, so this workload
//! moves with the per-lane host tax of `simt` and the schedules of
//! `core`; it bypasses the runtime's caches, batcher, tuner and parallel
//! executor, so changes there should leave it unchanged.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kernels::formats::{spmv_format, PreparedOperand};
use kernels::spmv::{SpmvRun, DEFAULT_BLOCK};
use loops::dispatch::{candidates, KernelKind};
use loops::schedule::ScheduleKind;
use simt::{CostModel, GpuSpec, HostBackend};
use sparse::{Csr, FormatKind};

use crate::env::{
    self, derive, ms_since, repeated_setup, seeded_vector, working_set_bytes, Context, Tally,
};
use crate::metrics::Metrics;
use crate::probe::{self, SCHEDULES};
use crate::stats::{self, geomean, median};
use crate::{Outcome, RunSpec, MIN_OPS};

const ROWS: usize = 200_000;
const POWERLAW_NNZ: usize = 2_000_000;
const POWERLAW_ALPHA: f64 = 1.8;
/// Half-bandwidth giving ~2.2M nonzeros at `ROWS` rows.
const BAND: usize = 5;

struct Cell {
    kind: ScheduleKind,
    op: PreparedOperand,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.kind, self.op.format())
    }
}

struct Input {
    name: &'static str,
    a: Arc<Csr<f32>>,
    x: Vec<f32>,
    want: Vec<f32>,
    cells: Vec<Cell>,
}

fn build_input(name: &'static str, a: Csr<f32>, x_seed: u64) -> Input {
    let x = seeded_vector(a.cols(), x_seed);
    let want = a.spmv_ref(&x);
    let mut cells: Vec<Cell> = SCHEDULES
        .iter()
        .map(|(kind, _)| Cell {
            kind: *kind,
            op: PreparedOperand::prepare(&a, FormatKind::Csr).expect("CSR needs no conversion"),
        })
        .collect();
    for (kind, format) in candidates(KernelKind::Spmv, &a) {
        if format != FormatKind::Csr {
            let op = PreparedOperand::prepare(&a, format)
                .expect("the candidate filter admits only convertible formats");
            cells.push(Cell { kind, op });
        }
    }
    Input {
        name,
        a: Arc::new(a),
        x,
        want,
        cells,
    }
}

fn build(seed: u64) -> Vec<Input> {
    vec![
        build_input(
            "powerlaw",
            sparse::gen::powerlaw(ROWS, ROWS, POWERLAW_NNZ, POWERLAW_ALPHA, derive(seed, 1)),
            derive(seed, 3),
        ),
        build_input(
            "banded",
            sparse::gen::banded(ROWS, BAND, derive(seed, 2)),
            derive(seed, 4),
        ),
    ]
}

fn launch(spec: &GpuSpec, model: &CostModel, input: &Input, cell: &Cell) -> simt::Result<SpmvRun> {
    spmv_format(
        spec,
        model,
        &input.a,
        &cell.op,
        &input.x,
        cell.kind,
        DEFAULT_BLOCK,
    )
}

/// One timed launch under `backend`, checked against the reference.
struct Shot {
    wall_ms: f64,
    sim_bits: u64,
    bytes: u64,
    ok: bool,
}

fn shot(
    spec: &GpuSpec,
    model: &CostModel,
    input: &Input,
    cell: &Cell,
    backend: HostBackend,
    tally: &mut Tally,
) -> Shot {
    let t = Instant::now();
    let run = simt::host::scoped(backend, || launch(spec, model, input, cell));
    let wall_ms = ms_since(t);
    match run {
        Ok(run) => Shot {
            wall_ms,
            sim_bits: run.report.elapsed_ms().to_bits(),
            bytes: run.report.mem.total_bytes(),
            ok: tally.spmv_ok(&run.y, &input.want),
        },
        Err(_) => Shot {
            wall_ms,
            sim_bits: 0,
            bytes: 0,
            ok: false,
        },
    }
}

/// Run the workload.
pub fn run(spec_args: &RunSpec) -> Outcome {
    let spec = GpuSpec::v100();
    let model = CostModel::standard();
    let mut tally = Tally::default();
    let mut ctx = Context::default();
    let (inputs, setup_s) = repeated_setup(|| build(spec_args.seed));

    ctx.put(
        "host_backend",
        "sequential (parallel(2) for the guard round)",
    );
    let mut ws = 0u64;
    for input in &inputs {
        ctx.matrix(input.name, &input.a);
        let cells: Vec<String> = input.cells.iter().map(Cell::label).collect();
        ctx.put(&format!("cells.{}", input.name), cells.join(" "));
        ws += working_set_bytes(&input.a);
    }
    ctx.working_set(ws);

    // Measured loop: whole rounds until the time is up and enough
    // launches exist for the p90 rule.
    let cells_per_round: usize = inputs.iter().map(|i| i.cells.len()).sum();
    let mut wall: Vec<Vec<Vec<f64>>> = inputs
        .iter()
        .map(|i| vec![Vec::new(); i.cells.len()])
        .collect();
    let mut first: Vec<Vec<(u64, u64)>> =
        inputs.iter().map(|i| vec![(0, 0); i.cells.len()]).collect();
    // Launch wall over `Csr::spmv_ref` wall on the same matrix, the
    // yardstick timed right after each launch so both see the same
    // machine conditions.
    let mut tax: Vec<Vec<Vec<f64>>> = wall.clone();
    let mut nnz_done = 0f64;
    let deadline = Instant::now() + Duration::from_secs_f64(spec_args.seconds);
    let mut rounds = 0usize;
    loop {
        for (ii, input) in inputs.iter().enumerate() {
            for (ci, cell) in input.cells.iter().enumerate() {
                let s = shot(
                    &spec,
                    &model,
                    input,
                    cell,
                    HostBackend::Sequential,
                    &mut tally,
                );
                // A repeated launch must reproduce the simulated clock.
                let same = rounds == 0 || first[ii][ci] == (s.sim_bits, s.bytes);
                tally.record(s.ok && same, || {
                    format!(
                        "{} {}: wrong output or unstable simulated time",
                        input.name,
                        cell.label()
                    )
                });
                if rounds == 0 {
                    first[ii][ci] = (s.sim_bits, s.bytes);
                }
                wall[ii][ci].push(s.wall_ms);
                nnz_done += input.a.nnz() as f64;
                let t = Instant::now();
                std::hint::black_box(input.a.spmv_ref(std::hint::black_box(&input.x)));
                tax[ii][ci].push(s.wall_ms / ms_since(t));
            }
        }
        rounds += 1;
        if Instant::now() >= deadline && rounds * cells_per_round >= MIN_OPS {
            break;
        }
    }
    ctx.put("rounds", rounds);

    // Clock-separation guard: each cell once more under Parallel{2}.
    let mut par2_speedup = Vec::new();
    for (ii, input) in inputs.iter().enumerate() {
        for (ci, cell) in input.cells.iter().enumerate() {
            let s = shot(
                &spec,
                &model,
                input,
                cell,
                HostBackend::Parallel { threads: 2 },
                &mut tally,
            );
            tally.record(s.ok, || {
                format!("parallel(2) {} {}: wrong output", input.name, cell.label())
            });
            tally.same_bits(
                &format!("{} {} sequential vs parallel(2)", input.name, cell.label()),
                &[first[ii][ci].0, first[ii][ci].1],
                &[s.sim_bits, s.bytes],
            );
            par2_speedup.push(median(&wall[ii][ci]) / s.wall_ms);
        }
    }

    let all: Vec<f64> = wall.iter().flatten().flatten().copied().collect();
    let sims: Vec<f64> = first
        .iter()
        .flatten()
        .map(|(bits, _)| f64::from_bits(*bits))
        .collect();
    let taxes: Vec<f64> = tax.iter().flatten().map(|t| median(t)).collect();
    let mut e2e = Metrics::default();
    env::host_wall(&mut e2e, &mut ctx, &all, nnz_done, "launches");
    e2e.set("tax_geomean", geomean(&taxes));
    e2e.set("setup_s", setup_s);
    e2e.set("sim_geomean_ms", geomean(&sims));
    e2e.set("sim_p50_ms", median(&sims));
    // One simulated time per cell: too few for a p99 with ten samples
    // beyond it, so the slowest cell stands in.
    e2e.set("sim_p99_ms", stats::percentile(&sims, 1.0));
    ctx.put(
        "sim_p99_ms",
        format!("slowest of {} cells (too few cells for a p99)", sims.len()),
    );
    e2e.set(
        "sim_goodput_rps",
        sims.len() as f64 / (sims.iter().sum::<f64>() * 1e-3),
    );

    let layers = spec_args.trace.then(|| {
        let mut m = Metrics::default();
        let sink = Arc::new(crate::stamp::StampSink::with_program_sinks());
        let mut overhead = Vec::new();
        for (ii, input) in inputs.iter().enumerate() {
            for (ci, cell) in input.cells.iter().enumerate() {
                let s = simt::tracing::scoped(sink.clone(), "spmv_sweep", || {
                    shot(
                        &spec,
                        &model,
                        input,
                        cell,
                        HostBackend::Sequential,
                        &mut tally,
                    )
                });
                tally.record(s.ok, || {
                    format!("traced {} {}: wrong output", input.name, cell.label())
                });
                tally.same_bits(
                    &format!("{} {} untraced vs traced", input.name, cell.label()),
                    &[first[ii][ci].0, first[ii][ci].1],
                    &[s.sim_bits, s.bytes],
                );
                overhead.push(s.wall_ms / median(&wall[ii][ci]));
            }
        }
        ctx.put("trace.events", sink.events());
        m.set("trace.overhead", geomean(&overhead));
        m.set("simt.par2_speedup", geomean(&par2_speedup));
        let p = &inputs[0];
        probe::kernel_layers(&spec, &p.a, &p.x, false, &mut tally, &mut m);
        probe::pagerank_layers(&spec, &p.a, &mut tally, &mut m);
        probe::mutation_layers(&spec, &p.a, derive(spec_args.seed, 5), &mut tally, &mut m);
        probe::serve_layers(&spec, &p.a, &mut tally, &mut m);
        ctx.put("probe_matrix", p.name);
        m
    });

    Outcome {
        e2e,
        layers,
        tally,
        ctx,
    }
}
