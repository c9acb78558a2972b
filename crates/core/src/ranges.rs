//! Flexible, composable device-side ranges (paper §5.1).
//!
//! The framework's schedules hand kernels C++-style ranges. Three are
//! provided, mirroring the paper exactly:
//!
//! * [`step_range`] — `begin..end` in steps of `step`;
//! * [`grid_stride_range`] — the specialized step range whose stride is
//!   the launch's grid size (with block- and warp-stride variants);
//! * [`infinite_range`] — `begin..∞`, for persistent-kernel-style loops.
//!
//! Ranges returned by schedules are [`Charged`]: every `next()` bills the
//! cost model's `range_overhead` to the owning lane. That per-iteration
//! charge *is* the abstraction overhead Figure 2 measures — hand-fused
//! baselines iterate raw ranges and never pay it.

use simt::LaneCtx;

/// A `begin..end` range advancing by `step` (paper's `step_range_t`).
#[derive(Debug, Clone)]
pub struct StepRange {
    next: usize,
    end: usize,
    step: usize,
}

impl Iterator for StepRange {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.next < self.end {
            let v = self.next;
            self.next += self.step;
            Some(v)
        } else {
            None
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = if self.next < self.end {
            (self.end - self.next).div_ceil(self.step)
        } else {
            0
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for StepRange {}

/// Iterate `begin..end` in steps of `step` (`step ≥ 1`).
#[inline]
pub fn step_range(begin: usize, end: usize, step: usize) -> StepRange {
    assert!(step >= 1, "step must be at least 1");
    StepRange {
        next: begin,
        end,
        step,
    }
}

/// A grid-stride range for `lane`: starts at this thread's global id plus
/// `begin`, strides by the total number of launched threads, ends at
/// `end`. The canonical "process tile `i`, then `i + gridDim*blockDim`"
/// loop of Listing 2.
#[inline]
pub fn grid_stride_range(lane: &LaneCtx<'_>, begin: usize, end: usize) -> StepRange {
    step_range(
        begin + lane.global_thread_id() as usize,
        end,
        lane.grid_size() as usize,
    )
}

/// Block-stride variant: starts at this thread's index within its block,
/// strides by the block size (for block-cooperative loops).
#[inline]
pub fn block_stride_range(lane: &LaneCtx<'_>, begin: usize, end: usize) -> StepRange {
    step_range(
        begin + lane.thread_idx() as usize,
        end,
        lane.block_dim() as usize,
    )
}

/// Warp-stride variant: starts at this thread's lane id within its warp,
/// strides by the warp size.
#[inline]
pub fn warp_stride_range(lane: &LaneCtx<'_>, begin: usize, end: usize) -> StepRange {
    step_range(
        begin + lane.lane_id() as usize,
        end,
        lane.warp_size() as usize,
    )
}

/// An unbounded counting range (paper's `infinite_range_t`), used by
/// persistent-kernel schedules that poll until work is exhausted. Pair
/// with `take_while`/`break`.
pub fn infinite_range(begin: usize) -> impl Iterator<Item = usize> {
    begin..usize::MAX
}

/// What a charged range bills per yielded element, on top of the
/// abstraction's `range_overhead`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// Only the per-iteration range overhead.
    OverheadOnly,
    /// An atom's processing cost and traffic ([`LaneCtx::charge_atom`]).
    Atom,
    /// A tile's bookkeeping cost and traffic ([`LaneCtx::charge_tile`]).
    Tile,
}

/// A range adaptor that charges the abstraction's per-iteration overhead
/// (and optionally the atom/tile unit cost) to a lane. Produced by every
/// framework schedule; never used by the hand-fused baselines.
#[derive(Debug)]
pub struct Charged<'l, 'm, I> {
    inner: I,
    lane: &'l LaneCtx<'m>,
    kind: ChargeKind,
}

impl<'l, 'm, I: Iterator> Charged<'l, 'm, I> {
    /// Attach `inner` to `lane`, charging only range overhead.
    #[inline]
    pub fn new(inner: I, lane: &'l LaneCtx<'m>) -> Self {
        Self {
            inner,
            lane,
            kind: ChargeKind::OverheadOnly,
        }
    }

    /// A range over atoms: each yield bills one atom's cost + overhead.
    #[inline]
    pub fn atoms(inner: I, lane: &'l LaneCtx<'m>) -> Self {
        Self {
            inner,
            lane,
            kind: ChargeKind::Atom,
        }
    }

    /// A range over tiles: each yield bills one tile's bookkeeping +
    /// overhead.
    #[inline]
    pub fn tiles(inner: I, lane: &'l LaneCtx<'m>) -> Self {
        Self {
            inner,
            lane,
            kind: ChargeKind::Tile,
        }
    }
}

impl<I: Iterator> Iterator for Charged<'_, '_, I> {
    type Item = I::Item;
    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        let v = self.inner.next();
        if v.is_some() {
            self.lane.charge_range_iter();
            match self.kind {
                ChargeKind::OverheadOnly => {}
                ChargeKind::Atom => self.lane.charge_atom(),
                ChargeKind::Tile => self.lane.charge_tile(),
            }
        }
        v
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::{CostModel, GpuSpec, LaunchConfig};

    #[test]
    fn step_range_basic() {
        let v: Vec<usize> = step_range(0, 10, 3).collect();
        assert_eq!(v, vec![0, 3, 6, 9]);
        assert_eq!(step_range(5, 5, 1).count(), 0);
        assert_eq!(step_range(2, 11, 4).len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_step_rejected() {
        let _ = step_range(0, 10, 0);
    }

    #[test]
    fn infinite_range_is_lazy_and_unbounded() {
        let v: Vec<usize> = infinite_range(7).take(3).collect();
        assert_eq!(v, vec![7, 8, 9]);
    }

    #[test]
    fn grid_and_block_and_warp_strides_partition_their_domains() {
        let spec = GpuSpec::test_tiny(); // warp 8
        let n = 1000usize;
        let mut cover = vec![0u32; 3 * n];
        {
            let g = simt::GlobalMem::new(&mut cover);
            simt::launch_threads(&spec, LaunchConfig::new(4, 16), |t| {
                for i in grid_stride_range(t, 0, n) {
                    g.fetch_add(i, 1);
                }
                // block/warp strides cover their domain once *per block/warp*:
                if t.block_idx() == 0 {
                    for i in block_stride_range(t, 0, n) {
                        g.fetch_add(n + i, 1);
                    }
                    if t.warp_id() == 0 {
                        for i in warp_stride_range(t, 0, n) {
                            g.fetch_add(2 * n + i, 1);
                        }
                    }
                }
            })
            .unwrap();
        }
        assert!(cover[..n].iter().all(|&c| c == 1), "grid-stride covers once");
        assert!(cover[n..2 * n].iter().all(|&c| c == 1), "block-stride");
        assert!(cover[2 * n..].iter().all(|&c| c == 1), "warp-stride");
    }

    #[test]
    fn charged_range_bills_overhead_per_iteration() {
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let mut total = vec![0.0f64; 1];
        {
            let g = simt::GlobalMem::new(&mut total);
            simt::launch_threads_with_model(&spec, &model, LaunchConfig::new(1, 8), |t| {
                let before = t.units();
                let n = Charged::new(step_range(0, 10, 1), t).count();
                assert_eq!(n, 10);
                g.store(0, t.units() - before);
            })
            .unwrap();
        }
        assert!((total[0] - 10.0 * model.range_overhead).abs() < 1e-12);
    }

    #[test]
    fn charged_is_free_under_the_fused_model() {
        let spec = GpuSpec::test_tiny();
        let model = CostModel::fused();
        let mut total = vec![0.0f64; 1];
        {
            let g = simt::GlobalMem::new(&mut total);
            simt::launch_threads_with_model(&spec, &model, LaunchConfig::new(1, 8), |t| {
                let before = t.units();
                Charged::new(step_range(0, 10, 1), t).for_each(|_| {});
                g.store(0, t.units() - before);
            })
            .unwrap();
        }
        assert_eq!(total[0], 0.0);
    }
}
