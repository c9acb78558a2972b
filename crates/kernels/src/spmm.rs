//! Sparse-Matrix × Dense-Matrix multiplication (paper §5.3, Listing 4).
//!
//! "A simple loop wrapped around SpMV": the kernel body is Listing 3 plus
//! one loop over the columns of `B` — and because the schedule is
//! decoupled, the *same* merge-path/thread-mapped machinery balances it
//! (the rewrite Yang et al. had to do by hand, for free). The body is a
//! flat-span [`TileExec`] over [`MatrixView`] dispatched through the
//! engine, so SpMM serves every storage format ([`crate::formats`]) and
//! inherits plan-cached warm launches ([`spmm_with_plan`]).

use crate::spmv::{check_inner, Launch, DEFAULT_BLOCK};
use loops::adapters::CsrTiles;
use loops::dispatch::{span_atoms, KernelPlan, TileExec};
use loops::ranges::step_range;
use loops::schedule::{ScheduleKind, TileSpan};
use loops::view::MatrixView;
use loops::work::TileSet;
use simt::{CostModel, GlobalMem, GpuSpec, LaneCtx, LaunchReport};
use sparse::{Csr, DenseMatrix};

/// Result of one simulated SpMM.
#[derive(Debug, Clone)]
pub struct SpmmRun {
    /// The dense output `C = A·B`.
    pub c: DenseMatrix<f32>,
    /// Simulated launch report.
    pub report: LaunchReport,
    /// The schedule the engine actually ran (after the flat-span
    /// coercion).
    pub schedule: ScheduleKind,
}

/// Listing 4's body: per span, loop over `B`'s columns; per column,
/// fold the span's stored entries (padded slots skipped). Complete tiles
/// store directly; partial merge-path tiles combine through `atomicAdd`.
struct ViewSpmmExec<'a, M: MatrixView> {
    m: &'a M,
    b: &'a DenseMatrix<f32>,
    c: GlobalMem<'a, f32>,
    n_cols: usize,
}

impl<M: MatrixView> TileExec for ViewSpmmExec<'_, M> {
    const COOPERATIVE_REDUCE: bool = false;

    #[inline]
    fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
        // Listing 4: the new loop over B's columns.
        for col in step_range(0, self.n_cols, 1) {
            let mut sum = 0.0f32;
            for nz in span_atoms(span, lane) {
                if let Some((ci, v)) = self.m.entry(nz) {
                    sum += v * self.b.get(ci as usize, col);
                }
            }
            let out = span.tile * self.n_cols + col;
            if span.complete {
                self.c.store(out, sum);
                lane.write_bytes(4);
            } else if !span.atoms.is_empty() {
                self.c.fetch_add(out, sum);
                lane.charge_atomic();
            }
        }
    }
}

/// SpMM of any format `m` over its tile set `work` — the one launch every
/// SpMM entry point goes through.
pub(crate) fn launch_spmm<M: MatrixView, W: TileSet>(
    spec: &GpuSpec,
    model: &CostModel,
    m: &M,
    work: &W,
    b: &DenseMatrix<f32>,
    how: Launch<'_>,
) -> simt::Result<SpmmRun> {
    check_inner("B", b.rows(), m.cols())?;
    let mut c = DenseMatrix::zeros(m.rows(), b.cols());
    let d = how.run(
        spec,
        model,
        work,
        &ViewSpmmExec {
            m,
            b,
            c: GlobalMem::new(c.as_mut_slice()),
            n_cols: b.cols(),
        },
    )?;
    Ok(SpmmRun {
        c,
        report: d.report,
        schedule: d.schedule,
    })
}

/// The schedule SpMM runs for `kind`. SpMM supports the flat-span
/// schedules; the cooperative schedules reduce a single scalar per tile
/// and are exposed through SpMV, so anything but merge-path falls back
/// to thread-mapped (Listing 4's default).
pub fn coerce(kind: ScheduleKind) -> ScheduleKind {
    if kind == ScheduleKind::MergePath {
        kind
    } else {
        ScheduleKind::ThreadMapped
    }
}

/// Run SpMM with the given schedule (thread-mapped or merge-path; any
/// other kind falls back to thread-mapped).
pub fn spmm(
    spec: &GpuSpec,
    a: &Csr<f32>,
    b: &DenseMatrix<f32>,
    kind: ScheduleKind,
) -> simt::Result<SpmmRun> {
    spmm_with_model(spec, &CostModel::standard(), a, b, kind)
}

/// [`spmm`] with an explicit cost model. Errors with
/// [`simt::LaunchError::InvalidWork`] when `b.rows() != a.cols()`.
pub fn spmm_with_model(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    b: &DenseMatrix<f32>,
    kind: ScheduleKind,
) -> simt::Result<SpmmRun> {
    let how = Launch::Cold(coerce(kind), DEFAULT_BLOCK);
    launch_spmm(spec, model, a, &CsrTiles::new(a), b, how)
}

/// Prepare a reusable SpMM plan for `a` (schedule choice + merge-path
/// partition table). The artifacts depend only on `a`'s sparsity
/// pattern, so one plan serves *any* dense `B` — the warm path a serving
/// runtime caches per matrix.
pub fn prepare(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    kind: ScheduleKind,
) -> simt::Result<KernelPlan> {
    crate::plan::prepare(spec, model, a, coerce(kind), DEFAULT_BLOCK)
}

/// Run SpMM under a prepared plan. Bitwise identical to [`spmm`] with
/// the plan's schedule; a cached merge-path plan skips the in-kernel
/// diagonal searches.
pub fn spmm_with_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    b: &DenseMatrix<f32>,
    plan: &KernelPlan,
) -> simt::Result<SpmmRun> {
    launch_spmm(spec, model, a, &CsrTiles::new(a), b, Launch::Planned(plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::spmm_ref;

    fn check(a: &Csr<f32>, b: &DenseMatrix<f32>, kind: ScheduleKind) {
        let run = spmm(&GpuSpec::test_tiny(), a, b, kind).unwrap();
        let want = spmm_ref(a, b);
        for r in 0..a.rows() {
            for j in 0..b.cols() {
                let (g, w) = (run.c.get(r, j), want.get(r, j));
                assert!(
                    (g - w).abs() < 1e-3 * w.abs().max(1.0),
                    "{kind}: C[{r},{j}] = {g}, want {w}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_with_both_schedules() {
        let a = sparse::gen::uniform(60, 50, 500, 41);
        let b = DenseMatrix::from_fn(50, 7, |r, c| ((r + 2 * c) as f32).sin());
        check(&a, &b, ScheduleKind::ThreadMapped);
        check(&a, &b, ScheduleKind::MergePath);
    }

    #[test]
    fn power_law_rows_still_correct_under_merge_path() {
        let a = sparse::gen::powerlaw(120, 100, 2_000, 1.8, 42);
        let b = DenseMatrix::from_fn(100, 3, |r, c| 0.01 * (r as f32) - 0.5 * (c as f32));
        check(&a, &b, ScheduleKind::MergePath);
    }

    #[test]
    fn single_column_b_degenerates_to_spmv() {
        let a = sparse::gen::uniform(80, 70, 600, 43);
        let x = sparse::dense::test_vector(70);
        let b = DenseMatrix::from_vec(70, 1, x.clone());
        let run = spmm(&GpuSpec::test_tiny(), &a, &b, ScheduleKind::MergePath).unwrap();
        let want = a.spmv_ref(&x);
        for (r, &wr) in want.iter().enumerate() {
            assert!((run.c.get(r, 0) - wr).abs() < 1e-3);
        }
    }

    #[test]
    fn spmm_costs_scale_with_b_columns() {
        let a = sparse::gen::uniform(200, 200, 3_000, 44);
        let b1 = DenseMatrix::<f32>::zeros(200, 1);
        let b8 = DenseMatrix::<f32>::zeros(200, 8);
        let r1 = spmm(&GpuSpec::v100(), &a, &b1, ScheduleKind::ThreadMapped).unwrap();
        let r8 = spmm(&GpuSpec::v100(), &a, &b8, ScheduleKind::ThreadMapped).unwrap();
        assert!(r8.report.timing.total_units > 4.0 * r1.report.timing.total_units);
    }

    #[test]
    fn planned_spmm_is_bitwise_identical_and_reusable_across_b() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(400, 400, 8_000, 1.8, 45);
        let plan = prepare(&spec, &model, &a, ScheduleKind::MergePath).unwrap();
        assert!(plan.merge_starts.is_some());
        // One plan, two different Bs.
        for seed in [0u32, 1] {
            let b = DenseMatrix::from_fn(400, 4, |r, c| ((r * 31 + c * 7 + seed as usize) as f32).cos());
            let cold = spmm_with_model(&spec, &model, &a, &b, ScheduleKind::MergePath).unwrap();
            let warm = spmm_with_plan(&spec, &model, &a, &b, &plan).unwrap();
            let bits = |m: &DenseMatrix<f32>| {
                m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&cold.c), bits(&warm.c), "seed {seed}");
            assert!(
                warm.report.timing.total_units < cold.report.timing.total_units,
                "prepartitioned SpMM should issue less work"
            );
        }
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = sparse::gen::uniform(10, 10, 20, 1);
        let b = DenseMatrix::<f32>::zeros(11, 2);
        let err = spmm(&GpuSpec::test_tiny(), &a, &b, ScheduleKind::ThreadMapped).unwrap_err();
        assert!(matches!(err, simt::LaunchError::InvalidWork { .. }));
    }
}
