//! Prepared execution plans — the unit a serving runtime caches per
//! matrix.
//!
//! The plan type itself is the engine's kernel-agnostic
//! [`KernelPlan`]: schedule choice, block size, and the pattern-only
//! setup artifacts (merge-path partition table, LRB bins). This module
//! keeps the CSR conveniences — [`prepare`] from a matrix and [`run`] to
//! replay a plan against a vector; [`crate::formats::prepare_format_plan`]
//! prepares the same plan for any storage format.
//!
//! Results are **bitwise identical** to the cold path for the same
//! schedule: artifacts only change where work is *found*, never the
//! order in which a row's products are accumulated.

use loops::adapters::CsrTiles;
use loops::dispatch::{BalancedLaunch, KernelPlan};
use loops::schedule::ScheduleKind;
use loops::work::TileSet;
use simt::{CostModel, GpuSpec};
use sparse::Csr;

use crate::spmv::{self, SpmvRun};

/// Prepare a plan for a fixed schedule.
pub fn prepare(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<KernelPlan> {
    prepare_over(spec, model, &CsrTiles::new(a), kind, block_dim)
}

/// [`prepare`] over any format's tile set.
pub(crate) fn prepare_over<W: TileSet>(
    spec: &GpuSpec,
    model: &CostModel,
    work: &W,
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<KernelPlan> {
    BalancedLaunch::new(spec, model, work)
        .block_dim(block_dim)
        .prepare(kind)
}

/// Convenience: run a prepared plan (see [`spmv::spmv_with_plan`]).
pub fn run(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    x: &[f32],
    plan: &KernelPlan,
) -> simt::Result<SpmvRun> {
    spmv::spmv_with_plan(spec, model, a, x, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::{spmv_with_model, DEFAULT_BLOCK};
    use loops::heuristic::Heuristic;

    fn bits(y: &[f32]) -> Vec<u32> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn planned_results_are_bitwise_identical_across_all_schedules() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        for a in [
            sparse::gen::uniform(300, 250, 4_000, 21),
            sparse::gen::powerlaw(600, 600, 12_000, 1.8, 22),
            Csr::<f32>::empty(4, 4),
        ] {
            let x = sparse::dense::test_vector(a.cols());
            for kind in [
                ScheduleKind::ThreadMapped,
                ScheduleKind::MergePath,
                ScheduleKind::WarpMapped,
                ScheduleKind::BlockMapped,
                ScheduleKind::GroupMapped(16),
                ScheduleKind::WorkQueue(8),
                ScheduleKind::Lrb,
            ] {
                let cold = spmv_with_model(&spec, &model, &a, &x, kind, DEFAULT_BLOCK).unwrap();
                let plan = prepare(&spec, &model, &a, kind, DEFAULT_BLOCK).unwrap();
                let warm = run(&spec, &model, &a, &x, &plan).unwrap();
                assert_eq!(
                    bits(&cold.y),
                    bits(&warm.y),
                    "{kind}: planned result differs from cold path"
                );
            }
        }
    }

    #[test]
    fn cached_merge_path_plan_skips_search_cost() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(5_000, 5_000, 120_000, 1.9, 23);
        let x = sparse::dense::test_vector(a.cols());
        let cold =
            spmv_with_model(&spec, &model, &a, &x, ScheduleKind::MergePath, DEFAULT_BLOCK).unwrap();
        let plan = prepare(&spec, &model, &a, ScheduleKind::MergePath, DEFAULT_BLOCK).unwrap();
        let warm = run(&spec, &model, &a, &x, &plan).unwrap();
        assert!(
            warm.report.timing.total_units < cold.report.timing.total_units,
            "prepartitioned launch should issue less work: warm {} vs cold {}",
            warm.report.timing.total_units,
            cold.report.timing.total_units
        );
        assert!(warm.report.elapsed_ms() <= cold.report.elapsed_ms());
    }

    #[test]
    fn cached_lrb_plan_skips_binning_launches() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(3_000, 3_000, 60_000, 1.8, 24);
        let x = sparse::dense::test_vector(a.cols());
        let cold = spmv_with_model(&spec, &model, &a, &x, ScheduleKind::Lrb, DEFAULT_BLOCK).unwrap();
        let plan = prepare(&spec, &model, &a, ScheduleKind::Lrb, DEFAULT_BLOCK).unwrap();
        assert!(plan.setup_ms > 0.0);
        let warm = run(&spec, &model, &a, &x, &plan).unwrap();
        assert_eq!(bits(&cold.y), bits(&warm.y));
        // Cold pays the binning inside its report; warm paid it once at
        // prepare time.
        assert!(
            warm.report.elapsed_ms() < cold.report.elapsed_ms(),
            "warm {} vs cold {}",
            warm.report.elapsed_ms(),
            cold.report.elapsed_ms()
        );
        assert!(cold.report.elapsed_ms() >= warm.report.elapsed_ms() + 0.5 * plan.setup_ms);
    }

    #[test]
    fn auto_prepare_follows_heuristic() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let h = Heuristic::paper();
        let auto = |a: &Csr<f32>| {
            let kind = h.select(a.rows(), a.cols(), a.nnz());
            prepare(&spec, &model, a, kind, DEFAULT_BLOCK).unwrap()
        };
        let small = sparse::gen::uniform(100, 100, 800, 25);
        let plan = auto(&small);
        assert_eq!(plan.schedule, ScheduleKind::GroupMapped(32));
        assert!(plan.merge_starts.is_none() && plan.lrb.is_none());
        let big = sparse::gen::uniform(2_000, 2_000, 40_000, 26);
        let plan = auto(&big);
        assert_eq!(plan.schedule, ScheduleKind::MergePath);
        assert!(plan.merge_starts.is_some());
        assert!(plan.artifact_bytes() > 0);
    }
}
