//! Two-clock benchmark for the `loops` reproduction.
//!
//! ```text
//! perfbench --workload <spmv_sweep|serve_zipf|stream_mutate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is measured with tracing off for `--seconds` of host
//! time (whole rounds, and never fewer than `MIN_OPS` operations), with
//! every output checked against a plain reference. The host wall clock
//! gives the `wall_*`, `host_*`, `tax_*` and `setup_s` metrics; the
//! deterministic simulated clock gives the `sim_*` metrics, which a
//! host-only change must leave bit-identical. With `--trace 1` a separate
//! traced pass and the layer probes add the per-layer metrics. The last
//! line of standard output is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod env;
mod metrics;
mod mutate;
mod probe;
mod serve;
mod serving;
mod stamp;
mod stats;
mod sweep;

use metrics::{Metrics, END_TO_END, HOST_WALL, PER_LAYER};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["spmv_sweep", "serve_zipf", "stream_mutate"];

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// Fewest operations a measured pass makes, so `wall_ms_p90` has at
/// least ten samples beyond it.
pub const MIN_OPS: usize = 110;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Host seconds the measured pass lasts (at least).
    pub seconds: f64,
    /// Run the traced pass and the layer probes.
    pub trace: bool,
}

/// What a workload returns.
pub struct Outcome {
    /// End-to-end metrics of the untraced pass.
    pub e2e: Metrics,
    /// Per-layer metrics, when traced.
    pub layers: Option<Metrics>,
    /// Operations attempted and failed.
    pub tally: env::Tally,
    /// Context printed beside the numbers.
    pub ctx: env::Context,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, RunSpec) {
    let mut workload = None;
    let mut spec = RunSpec {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => spec.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                spec.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(spec.seconds > 0.0 && spec.seconds.is_finite()) {
                    usage();
                }
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match workload {
        Some(w) if WORKLOADS.contains(&w.as_str()) => (w, spec),
        _ => usage(),
    }
}

fn main() {
    let (workload, spec) = parse_args();
    let mut out = match workload.as_str() {
        "spmv_sweep" => sweep::run(&spec),
        "serve_zipf" => serve::run(&spec),
        "stream_mutate" => mutate::run(&spec),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    out.e2e
        .set("peak_rss_mb", env::peak_rss_mb().unwrap_or(f64::NAN));
    if let Some(layers) = out.layers.as_mut() {
        layers.set("kernels.max_rel_error", out.tally.max_rel_error);
    }

    println!(
        "# perfbench {workload} seed={} (default {DEFAULT_SEED}) seconds={} trace={}",
        spec.seed,
        spec.seconds,
        u8::from(spec.trace)
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# nproc = {nproc}");
    println!(
        "# commit = {}",
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned())
    );
    println!("# rustc = {}", env!("PERFBENCH_RUSTC"));
    for (k, v) in &out.ctx.0 {
        println!("# {k} = {v}");
    }
    let t = &out.tally;
    println!("# end-to-end metrics (tracing off; gated)");
    print!("{}", out.e2e.table(END_TO_END));
    println!("# host wall clock (tracing off; printed, not gated)");
    print!("{}", out.e2e.table(HOST_WALL));
    println!(
        "  {:<28} {:>18.6} ratio ({} of {} operations and checks failed)",
        "fail_frac",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    if let Some(layers) = &out.layers {
        println!("# per-layer metrics (traced run and layer probes)");
        print!("{}", layers.table(PER_LAYER));
    }
    for note in &t.notes {
        println!("# failure: {note}");
    }

    let (metrics, catalogue) = match &out.layers {
        Some(layers) => (layers, PER_LAYER),
        None => (&out.e2e, END_TO_END),
    };
    let mut checked = out.e2e.check_complete(&[END_TO_END, HOST_WALL].concat());
    if let Some(layers) = &out.layers {
        checked = checked.and_then(|()| layers.check_complete(PER_LAYER));
    }
    if let Err(e) = checked {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    println!(
        "{}",
        metrics::result_line(
            t.failed == 0,
            t.attempted,
            t.failed,
            &metrics.json(catalogue)
        )
    );
}
