//! Load-balanced frontier expansion — the shared engine of BFS and SSSP.
//!
//! One traversal iteration visits every edge incident to the frontier.
//! Under the abstraction that is just another tile set (tiles = frontier
//! vertices, atoms = incident edges), so *the same schedules that balance
//! SpMV balance graph traversal* — the paper's §5.2.1 reuse claim,
//! demonstrated. The caller supplies the per-edge computation (Listing
//! 5's body) as a `relax` closure; the dispatch engine supplies every
//! schedule through one visit-shaped [`TileExec`].

use crate::graph::{Frontier, Graph};
use loops::dispatch::{span_atoms, BalancedLaunch, TileExec};
use loops::schedule::{ScheduleKind, TileSpan};
use loops::work::{CountedTiles, TileSet};
use simt::{CostModel, GpuSpec, LaneCtx, LaunchReport};

/// Default threads per block for traversal kernels.
pub const TRAVERSAL_BLOCK: u32 = 256;

/// A traversal source must be a vertex of `g`; anything else is
/// [`simt::LaunchError::InvalidWork`], not a panic, so serving paths can
/// refuse the call.
pub fn check_source(g: &Graph, src: usize) -> simt::Result<()> {
    let n = g.num_vertices();
    if src < n {
        Ok(())
    } else {
        Err(simt::LaunchError::InvalidWork {
            reason: format!("source {src} out of range for {n} vertices"),
        })
    }
}

/// The frontier-expansion computation: every atom is one incident edge,
/// translated from (frontier tile, atom offset) to a global edge id and
/// handed to the caller's `relax`.
struct ExpandExec<'a, F> {
    tiles: &'a CountedTiles,
    verts: &'a [u32],
    g: &'a Graph,
    relax: F,
}

impl<F> ExpandExec<'_, F> {
    fn edge_of(&self, tile: usize, atom: usize) -> usize {
        let within = atom - self.tiles.tile_offset(tile);
        self.g.edge_range(self.verts[tile] as usize).start + within
    }
}

impl<F: Fn(&LaneCtx<'_>, usize, usize) + Sync> TileExec for ExpandExec<'_, F> {
    const COOPERATIVE_REDUCE: bool = false;

    fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
        // Merge-path pads its decision grid past the last tile; such
        // spans carry no atoms for us.
        let src = if span.tile < self.verts.len() {
            self.verts[span.tile] as usize
        } else {
            return;
        };
        for atom in span_atoms(span, lane) {
            (self.relax)(lane, self.edge_of(span.tile, atom), src);
        }
    }

    fn visit(&self, lane: &LaneCtx<'_>, tile: usize, atom: usize) {
        let src = self.verts[tile] as usize;
        (self.relax)(lane, self.edge_of(tile, atom), src);
    }
}

/// Expand `frontier`: run `relax(lane, edge, source_vertex)` for every
/// edge leaving a frontier vertex, load-balanced by `kind`.
pub fn expand<F>(
    spec: &GpuSpec,
    model: &CostModel,
    g: &Graph,
    frontier: &Frontier,
    kind: ScheduleKind,
    relax: F,
) -> simt::Result<LaunchReport>
where
    F: Fn(&LaneCtx<'_>, usize, usize) + Sync,
{
    let tiles = frontier.tile_set(g);
    let exec = ExpandExec {
        tiles: &tiles,
        verts: frontier.vertices(),
        g,
        relax,
    };
    let d = BalancedLaunch::new(spec, model, &tiles)
        .block_dim(TRAVERSAL_BLOCK)
        .run(kind, &exec)?;
    Ok(d.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_incident_edge_visited_once_under_every_schedule() {
        let adj = sparse::gen::powerlaw(300, 300, 3_000, 1.9, 3);
        let g = Graph::from_generator(adj);
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        // Frontier: every third vertex.
        let flags: Vec<u32> = (0..g.num_vertices()).map(|v| u32::from(v % 3 == 0)).collect();
        let frontier = Frontier::from_flags(&flags);
        let expected: u64 = frontier
            .vertices()
            .iter()
            .map(|&v| g.degree(v as usize) as u64)
            .sum();
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::BlockMapped,
            ScheduleKind::GroupMapped(16),
            ScheduleKind::WorkQueue(4),
            ScheduleKind::Lrb,
        ] {
            let visited = AtomicU64::new(0);
            let sum_check = AtomicU64::new(0);
            expand(&spec, &model, &g, &frontier, kind, |_, edge, src| {
                visited.fetch_add(1, Ordering::Relaxed);
                // Edge must actually belong to src.
                let r = g.edge_range(src);
                assert!(r.contains(&edge), "{kind}: edge {edge} not in {r:?}");
                sum_check.fetch_add(edge as u64, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(visited.load(Ordering::Relaxed), expected, "{kind}");
        }
    }

    #[test]
    fn empty_frontier_is_a_cheap_noop() {
        let g = Graph::from_generator(sparse::gen::uniform(50, 50, 200, 9));
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let frontier = Frontier::from_flags(&[0u32; 50]);
        let r = expand(
            &spec,
            &model,
            &g,
            &frontier,
            ScheduleKind::MergePath,
            |_, _, _| panic!("no edges to relax"),
        )
        .unwrap();
        assert!(r.elapsed_ms() < 1.0);
    }
}
