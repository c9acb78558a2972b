//! Breadth-First Search on the load-balanced traversal kernel (§5.3).
//!
//! Identical engine to SSSP — only the relaxation differs: hop depths
//! instead of weighted distances, `atomicMin` on `u32`. Built, like the
//! paper's BFS, on the neighborhood-traversal kernel rather than its own
//! bespoke scheduler.

use crate::graph::{Frontier, Graph};
use crate::traversal::{check_source, expand};
use loops::schedule::ScheduleKind;
use simt::{CostModel, GlobalMem, GpuSpec, LaunchReport};

/// Result of a simulated BFS run.
#[derive(Debug, Clone)]
pub struct BfsRun {
    /// Hop distance from the source per vertex (`u32::MAX` if
    /// unreachable).
    pub depth: Vec<u32>,
    /// Traversal iterations (levels) until the frontier emptied.
    pub iterations: usize,
    /// Accumulated launch report over all levels.
    pub report: LaunchReport,
}

/// Run BFS from `src` with the given schedule.
pub fn bfs(spec: &GpuSpec, g: &Graph, src: usize, kind: ScheduleKind) -> simt::Result<BfsRun> {
    bfs_with_model(spec, &CostModel::standard(), g, src, kind)
}

/// [`bfs`] with an explicit cost model.
pub fn bfs_with_model(
    spec: &GpuSpec,
    model: &CostModel,
    g: &Graph,
    src: usize,
    kind: ScheduleKind,
) -> simt::Result<BfsRun> {
    check_source(g, src)?;
    let n = g.num_vertices();
    let mut depth = vec![u32::MAX; n];
    depth[src] = 0;
    let mut frontier = Frontier::source(src);
    let mut level = 0u32;
    let mut total: Option<LaunchReport> = None;
    while !frontier.is_empty() && (level as usize) <= n {
        let next = level + 1;
        let mut out_flags = vec![0u32; n];
        // Wave snapshot: the frontier decision compares against the
        // depths at wave start, not `fetch_min`'s return. The return
        // value depends on which block relaxes a shared neighbor first —
        // the one cross-block ordering in the kernel — while the
        // snapshot (and the atomic's *final* value, an exact integer
        // min) is order-free, keeping results and charges bitwise
        // identical on the parallel host backend.
        let depth_before = depth.clone();
        let report = {
            let gdepth = GlobalMem::new(&mut depth);
            let gout = GlobalMem::new(&mut out_flags);
            expand(spec, model, g, &frontier, kind, |lane, edge, _src| {
                let neighbor = g.neighbor(edge);
                gdepth.fetch_min(neighbor, next);
                lane.charge_atomic();
                if depth_before[neighbor] > next {
                    gout.store(neighbor, 1);
                    lane.write_bytes(4);
                }
            })?
        };
        match &mut total {
            Some(t) => t.accumulate(&report),
            None => total = Some(report),
        }
        frontier = Frontier::from_flags(&out_flags);
        level = next;
    }
    Ok(BfsRun {
        depth,
        iterations: level as usize,
        report: total.expect("at least one level runs"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::bfs_ref;

    fn check(g: &Graph, src: usize, kind: ScheduleKind) {
        let run = bfs(&GpuSpec::test_tiny(), g, src, kind).unwrap();
        let want = bfs_ref(g.adjacency(), src);
        assert_eq!(run.depth, want, "{kind}");
    }

    #[test]
    fn matches_reference_under_every_schedule() {
        let g = Graph::from_generator(sparse::gen::rmat(8, 6, (0.57, 0.19, 0.19), 31));
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::BlockMapped,
            ScheduleKind::GroupMapped(16),
            ScheduleKind::WorkQueue(8),
            ScheduleKind::Lrb,
        ] {
            check(&g, 0, kind);
        }
    }

    #[test]
    fn long_chain_needs_one_level_per_hop() {
        // Directed chain 0→1→2→…: band(bw=1) includes both directions;
        // depth[i] == i / 1 steps outward.
        let g = Graph::from_generator(sparse::gen::banded(50, 1, 32));
        let run = bfs(&GpuSpec::test_tiny(), &g, 0, ScheduleKind::ThreadMapped).unwrap();
        assert_eq!(run.depth[49], 49);
        assert_eq!(run.iterations, 50);
    }

    #[test]
    fn unreachable_vertices_stay_max() {
        let adj =
            sparse::Csr::from_triplets(3, 3, vec![(0u32, 1u32, 1.0f32)]).unwrap();
        let g = Graph::new(adj);
        let run = bfs(&GpuSpec::test_tiny(), &g, 0, ScheduleKind::MergePath).unwrap();
        assert_eq!(run.depth, vec![0, 1, u32::MAX]);
    }

    #[test]
    fn bfs_depth_lower_bounds_weighted_sssp_hops() {
        // Sanity relation: on a graph with all weights ≥ 0.1 the weighted
        // distance is ≥ 0.1 × hop count.
        let g = Graph::from_generator(sparse::gen::uniform(150, 150, 1_200, 33));
        let b = bfs(&GpuSpec::test_tiny(), &g, 5, ScheduleKind::WarpMapped).unwrap();
        let s = crate::sssp::sssp(&GpuSpec::test_tiny(), &g, 5, ScheduleKind::WarpMapped).unwrap();
        for v in 0..150 {
            if b.depth[v] != u32::MAX {
                assert!(s.dist[v] >= 0.1 * b.depth[v] as f32 - 1e-4);
            }
        }
    }
}
