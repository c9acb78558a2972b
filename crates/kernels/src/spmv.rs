//! Load-balanced SpMV — the paper's benchmark application (Listing 3).
//!
//! `y = A·x` with the computation written **once**, as a [`TileExec`]
//! over [`MatrixView`], and every schedule provided by the engine
//! ([`loops::dispatch::BalancedLaunch`]) — the "single enum identifier"
//! switch of §6.2 with zero per-kernel schedule code. The same body serves
//! CSR (the entry points here) and every other storage format
//! ([`crate::formats`]); every variant runs on the simulator, charges the
//! framework's range overheads, and returns both the result vector and the
//! launch's timing report.

use loops::adapters::CsrTiles;
use loops::dispatch::{span_atoms, BalancedLaunch, Dispatch, KernelPlan, TileExec};
pub use loops::dispatch::{DEFAULT_BLOCK, MERGE_ITEMS_PER_THREAD};
use loops::schedule::{ScheduleKind, TileSpan};
use loops::view::MatrixView;
use loops::work::TileSet;
use simt::{CostModel, GlobalMem, GpuSpec, LaneCtx, LaunchReport};
use sparse::Csr;

/// Result of one simulated SpMV.
#[derive(Debug, Clone)]
pub struct SpmvRun {
    /// The output vector `y`.
    pub y: Vec<f32>,
    /// Simulated launch report (use `report.elapsed_ms()`).
    pub report: LaunchReport,
    /// Which schedule actually ran (after any clamping).
    pub schedule: ScheduleKind,
}

/// The SpMV computation, written once for all schedules and formats: a
/// flat span folds its stored entries (padded slots skipped) and either
/// stores (complete tile) or combines through `atomicAdd` (partial
/// merge-path tile — the framework-level equivalent of CUB's
/// carry-out/fixup pass); cooperative schedules compute one product per
/// atom and store each tile's segment-reduced sum exactly once.
struct ViewSpmvExec<'a, M: MatrixView> {
    m: &'a M,
    x: &'a [f32],
    y: GlobalMem<'a, f32>,
}

impl<M: MatrixView> TileExec for ViewSpmvExec<'_, M> {
    const COOPERATIVE_REDUCE: bool = true;

    #[inline(always)]
    fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
        let mut sum = 0.0f32;
        for nz in span_atoms(span, lane) {
            if let Some((c, v)) = self.m.entry(nz) {
                sum += v * self.x[c as usize];
            }
        }
        if span.complete {
            self.y.store(span.tile, sum);
            lane.write_bytes(4);
        } else if !span.atoms.is_empty() {
            self.y.fetch_add(span.tile, sum);
            lane.charge_atomic();
        }
    }

    #[inline]
    fn atom_value(&self, _lane: &LaneCtx<'_>, _tile: usize, nz: usize) -> f32 {
        self.m
            .entry(nz)
            .map_or(0.0, |(c, v)| v * self.x[c as usize])
    }

    #[inline]
    fn tile_done(&self, lane: &LaneCtx<'_>, tile: usize, sum: f32) {
        self.y.store(tile, sum);
        lane.write_bytes(4);
    }
}

/// How a launch finds its schedule: cold, from a schedule kind and block
/// size, or warm, from a prepared [`KernelPlan`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Launch<'p> {
    Cold(ScheduleKind, u32),
    Planned(&'p KernelPlan),
}

impl Launch<'_> {
    /// Threads per block (before the engine's device clamp).
    pub(crate) fn block_dim(self) -> u32 {
        match self {
            Launch::Cold(_, block_dim) => block_dim,
            Launch::Planned(plan) => plan.block_dim,
        }
    }

    /// Run `exec` over `work` under this launch.
    pub(crate) fn run<W: TileSet, E: TileExec>(
        self,
        spec: &GpuSpec,
        model: &CostModel,
        work: &W,
        exec: &E,
    ) -> simt::Result<Dispatch> {
        let launch = BalancedLaunch::new(spec, model, work).block_dim(self.block_dim());
        match self {
            Launch::Cold(kind, _) => launch.run(kind, exec),
            Launch::Planned(plan) => launch.run_planned(plan, exec),
        }
    }
}

/// `Err(InvalidWork)` unless a dense operand's inner dimension `got`
/// (`x`'s length, `B`'s rows) equals the sparse matrix's column count —
/// the check every SpMV/SpMM launch makes before allocating its output.
pub fn check_inner(operand: &str, got: usize, cols: usize) -> simt::Result<()> {
    if got == cols {
        Ok(())
    } else {
        Err(simt::LaunchError::InvalidWork {
            reason: format!("{operand} has {got} inner entries, A has {cols} columns"),
        })
    }
}

/// SpMV of any format `m` over its tile set `work` — the one launch every
/// SpMV entry point except the fused hybrid goes through.
pub(crate) fn launch_spmv<M: MatrixView, W: TileSet>(
    spec: &GpuSpec,
    model: &CostModel,
    m: &M,
    work: &W,
    x: &[f32],
    how: Launch<'_>,
) -> simt::Result<SpmvRun> {
    check_inner("x", x.len(), m.cols())?;
    let mut y = vec![0.0f32; m.rows()];
    let d = how.run(
        spec,
        model,
        work,
        &ViewSpmvExec {
            m,
            x,
            y: GlobalMem::new(&mut y),
        },
    )?;
    Ok(SpmvRun {
        y,
        report: d.report,
        schedule: d.schedule,
    })
}

/// Run SpMV with the given schedule and the standard cost model.
pub fn spmv(
    spec: &GpuSpec,
    a: &Csr<f32>,
    x: &[f32],
    kind: ScheduleKind,
) -> simt::Result<SpmvRun> {
    spmv_with_model(spec, &CostModel::standard(), a, x, kind, DEFAULT_BLOCK)
}

/// Run SpMV with full control over cost model and block size. Errors
/// with [`simt::LaunchError::InvalidWork`] when `x.len() != a.cols()`.
pub fn spmv_with_model(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    x: &[f32],
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<SpmvRun> {
    let how = Launch::Cold(kind, block_dim);
    launch_spmv(spec, model, a, &CsrTiles::new(a), x, how)
}

/// Run SpMV with a prepared [`KernelPlan`] (see [`crate::plan`]): the
/// schedule choice and any setup artifacts (merge-path partition table,
/// LRB bins) come from the plan, so a cached plan skips the setup work a
/// cold launch pays. Results are bitwise identical to the cold path for
/// the same schedule — the plan changes *when* work is found, never
/// *what order* each row's products accumulate in.
pub fn spmv_with_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    x: &[f32],
    plan: &KernelPlan,
) -> simt::Result<SpmvRun> {
    launch_spmv(spec, model, a, &CsrTiles::new(a), x, Launch::Planned(plan))
}

/// Maximum relative error between a simulated result and the reference.
pub fn max_rel_error(got: &[f32], want: &[f32]) -> f32 {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all_schedules(a: &Csr<f32>, spec: &GpuSpec) {
        let x = sparse::dense::test_vector(a.cols());
        let want = a.spmv_ref(&x);
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::BlockMapped,
            ScheduleKind::GroupMapped(16),
            ScheduleKind::GroupMapped(3), // awkward size → clamped to a divisor
            ScheduleKind::WorkQueue(1),
            ScheduleKind::WorkQueue(16),
            ScheduleKind::Lrb,
        ] {
            let run = spmv(spec, a, &x, kind).unwrap();
            let err = max_rel_error(&run.y, &want);
            assert!(
                err < 2e-3,
                "{kind}: max rel error {err} on {}x{}",
                a.rows(),
                a.cols()
            );
            assert!(run.report.elapsed_ms() > 0.0);
        }
    }

    #[test]
    fn all_schedules_agree_with_reference_on_random_matrix() {
        let a = sparse::gen::uniform(500, 400, 6_000, 11);
        check_all_schedules(&a, &GpuSpec::v100());
    }

    #[test]
    fn all_schedules_handle_power_law_imbalance() {
        let a = sparse::gen::powerlaw(800, 800, 16_000, 1.8, 12);
        check_all_schedules(&a, &GpuSpec::v100());
    }

    #[test]
    fn all_schedules_handle_empty_rows_and_tiny_matrices() {
        let a = Csr::from_triplets(5, 5, vec![(0u32, 0u32, 1.0f32), (4, 4, 2.0)]).unwrap();
        check_all_schedules(&a, &GpuSpec::v100());
        let empty = Csr::<f32>::empty(3, 3);
        check_all_schedules(&empty, &GpuSpec::v100());
    }

    #[test]
    fn all_schedules_work_on_tiny_device_and_wide_warps() {
        let a = sparse::gen::uniform(100, 100, 1_000, 13);
        check_all_schedules(&a, &GpuSpec::test_tiny());
        check_all_schedules(&a, &GpuSpec::mi100());
    }

    #[test]
    fn merge_path_beats_thread_mapped_on_hub_matrix() {
        let spec = GpuSpec::v100();
        let a = sparse::gen::hub_rows(20_000, 20_000, 2, 20_000, 2, 14);
        let x = sparse::dense::test_vector(a.cols());
        let tm = spmv(&spec, &a, &x, ScheduleKind::ThreadMapped).unwrap();
        let mp = spmv(&spec, &a, &x, ScheduleKind::MergePath).unwrap();
        assert!(
            mp.report.elapsed_ms() < tm.report.elapsed_ms() / 2.0,
            "merge-path {} ms vs thread-mapped {} ms",
            mp.report.elapsed_ms(),
            tm.report.elapsed_ms()
        );
    }

    #[test]
    fn thread_mapped_wins_on_tiny_regular_matrix() {
        // Tiny, perfectly regular: merge-path's setup cannot pay off.
        let spec = GpuSpec::v100();
        let a = sparse::gen::diagonal(64, 15);
        let x = sparse::dense::test_vector(64);
        let tm = spmv(&spec, &a, &x, ScheduleKind::ThreadMapped).unwrap();
        let mp = spmv(&spec, &a, &x, ScheduleKind::MergePath).unwrap();
        assert!(tm.report.elapsed_ms() <= mp.report.elapsed_ms());
    }

    /// ELL SpMV through the format path: thread-mapped over the padded
    /// slab with the standard cost model.
    fn ell_spmv(spec: &GpuSpec, a: &Csr<f32>, x: &[f32]) -> SpmvRun {
        let op = crate::formats::PreparedOperand::prepare(a, sparse::FormatKind::Ell).unwrap();
        let model = CostModel::standard();
        let kind = ScheduleKind::ThreadMapped;
        crate::formats::spmv_format(spec, &model, a, &op, x, kind, DEFAULT_BLOCK).unwrap()
    }

    #[test]
    fn ell_spmv_matches_csr_reference() {
        let spec = GpuSpec::v100();
        let a = sparse::gen::banded(5_000, 4, 16);
        let x = sparse::dense::test_vector(a.cols());
        let run = ell_spmv(&spec, &a, &x);
        let err = max_rel_error(&run.y, &a.spmv_ref(&x));
        assert!(err < 2e-3, "err {err}");
    }

    #[test]
    fn ell_thread_mapped_is_regular_but_pays_for_padding() {
        let spec = GpuSpec::v100();
        // Skewed matrix: ELL pads every row to the max (512 vs 8).
        // (Row count divides the block size: a ragged tail block would
        // trip the latency-exposure term — see DESIGN.md's model notes.)
        let a = sparse::gen::hub_rows(20_480, 20_480, 64, 512, 8, 17);
        let x = sparse::dense::test_vector(a.cols());
        let ell = ell_spmv(&spec, &a, &x);
        let err = max_rel_error(&ell.y, &a.spmv_ref(&x));
        assert!(err < 2e-3, "err {err}");
        let csr_tm = spmv(&spec, &a, &x, ScheduleKind::ThreadMapped).unwrap();
        // The format pre-balances every row to the same slot count, so the
        // workload is regular by construction...
        assert!(ell.report.timing.sm_utilization > 0.5);
        // ...but the padding is real work: `slots` touched, not `nnz` —
        // the §7 trade between pre-balanced formats and active schedules.
        assert!(
            ell.report.timing.total_units > 5.0 * csr_tm.report.timing.total_units,
            "53x fill should dominate: ell {} vs csr {}",
            ell.report.timing.total_units,
            csr_tm.report.timing.total_units
        );
    }

    #[test]
    fn flat_span_row_spans_are_bitwise_decomposable() {
        // Flat-span schedules process every row as one complete span,
        // folding its products left-to-right in atom order — so SpMV of
        // a row slice equals the matching slice of the full-matrix run
        // bitwise. This is the invariant sharded serving (`split_spmv`
        // over `row_slice` sub-matrices) merges on.
        // Cooperative-reduce schedules (warp/block/group-mapped)
        // interleave lane partials in batch-relative order and
        // merge-path splits rows across partial spans, so neither is
        // decomposable; `runtime::split` coerces them away.
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::rmat(10, 16, (0.55, 0.2, 0.2), 20);
        let x = sparse::dense::test_vector(a.cols());
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::WorkQueue(1),
            ScheduleKind::WorkQueue(8),
        ] {
            let full = spmv_with_model(&spec, &model, &a, &x, kind, DEFAULT_BLOCK).unwrap();
            for range in [0..300usize, 300..1_024] {
                let sliced = a.row_slice(range.clone());
                let span =
                    spmv_with_model(&spec, &model, &sliced, &x, kind, DEFAULT_BLOCK).unwrap();
                assert!(
                    span.y
                        .iter()
                        .zip(&full.y[range.clone()])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kind} {range:?}: span bits differ from full-run slice"
                );
            }
        }
    }

    #[test]
    fn x_length_checked() {
        let a = sparse::gen::uniform(10, 10, 20, 1);
        let err = spmv(&GpuSpec::v100(), &a, &[1.0; 3], ScheduleKind::MergePath).unwrap_err();
        assert!(matches!(err, simt::LaunchError::InvalidWork { .. }));
    }
}
