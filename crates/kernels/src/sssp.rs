//! Single-Source Shortest Path (paper §5.3, Listing 5).
//!
//! Frontier-based relaxation: each iteration expands the frontier's
//! incident edges under any load-balancing schedule, relaxes distances
//! with `atomicMin`, and collects improved vertices into the next
//! frontier — Listing 5's kernel with the schedule completely hidden
//! behind the abstraction, restructured to relax against a per-wave
//! snapshot so the launch is bitwise deterministic on the parallel host
//! backend (see the comment in [`sssp_with_model`]).

use crate::graph::{Frontier, Graph};
use crate::traversal::{check_source, expand};
use loops::schedule::ScheduleKind;
use simt::{CostModel, GlobalMem, GpuSpec, LaunchReport};

/// Result of a simulated SSSP run.
#[derive(Debug, Clone)]
pub struct SsspRun {
    /// Distance from the source per vertex (`f32::INFINITY` if
    /// unreachable).
    pub dist: Vec<f32>,
    /// Traversal iterations until the frontier emptied.
    pub iterations: usize,
    /// Accumulated launch report over all iterations.
    pub report: LaunchReport,
}

/// Run SSSP from `src` with the given schedule.
pub fn sssp(
    spec: &GpuSpec,
    g: &Graph,
    src: usize,
    kind: ScheduleKind,
) -> simt::Result<SsspRun> {
    sssp_with_model(spec, &CostModel::standard(), g, src, kind)
}

/// [`sssp`] with an explicit cost model.
pub fn sssp_with_model(
    spec: &GpuSpec,
    model: &CostModel,
    g: &Graph,
    src: usize,
    kind: ScheduleKind,
) -> simt::Result<SsspRun> {
    check_source(g, src)?;
    let n = g.num_vertices();
    let mut dist = vec![f32::INFINITY; n];
    dist[src] = 0.0;
    let mut frontier = Frontier::source(src);
    let mut iterations = 0usize;
    let mut total: Option<LaunchReport> = None;
    // Bellman-Ford bound: at most |V| rounds with non-negative weights.
    while !frontier.is_empty() && iterations <= n {
        let mut out_flags = vec![0u32; n];
        // Wave snapshot (Jacobi-style): each wave relaxes against the
        // distances at wave start. Listing 5 reads `gdist` mid-wave and
        // branches on `fetch_min`'s return, both of which depend on
        // which block relaxes a shared vertex first — harmless on one
        // host thread, order-sensitive on many. The snapshot makes every
        // candidate, frontier flag, and write charge a pure function of
        // wave-start state; the atomic's *final* value is an exact f32
        // min, so the launch is bitwise identical on any host backend. A
        // vertex is flagged iff some candidate beats its wave-start
        // distance, i.e. iff its distance dropped this wave — the same
        // frontier Listing 5 builds, reached in at most |V| waves by the
        // usual Bellman-Ford argument.
        let dist_before = dist.clone();
        let report = {
            let gdist = GlobalMem::new(&mut dist);
            let gout = GlobalMem::new(&mut out_flags);
            expand(spec, model, g, &frontier, kind, |lane, edge, source| {
                let neighbor = g.neighbor(edge);
                let weight = g.edge_weight(edge);
                let neighbor_dist = dist_before[source] + weight;
                // Claim the destination as a child if we improve it.
                gdist.fetch_min(neighbor, neighbor_dist);
                lane.charge_atomic();
                if neighbor_dist < dist_before[neighbor] {
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
        iterations += 1;
    }
    Ok(SsspRun {
        dist,
        iterations,
        report: total.expect("at least one iteration runs"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sssp_ref;

    fn check(g: &Graph, src: usize, kind: ScheduleKind) {
        let spec = GpuSpec::test_tiny();
        let run = sssp(&spec, g, src, kind).unwrap();
        let want = sssp_ref(g.adjacency(), src);
        for (v, (got, want)) in run.dist.iter().zip(&want).enumerate() {
            if want.is_infinite() {
                assert!(got.is_infinite(), "{kind}: vertex {v} should be unreachable");
            } else {
                assert!(
                    (got - want).abs() < 1e-4 * want.max(1.0),
                    "{kind}: dist[{v}] = {got}, want {want}"
                );
            }
        }
        assert!(run.iterations >= 1);
    }

    #[test]
    fn matches_dijkstra_on_random_graphs_under_every_schedule() {
        let g = Graph::from_generator(sparse::gen::uniform(200, 200, 1_600, 21));
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::GroupMapped(16),
            ScheduleKind::WorkQueue(8),
        ] {
            check(&g, 0, kind);
        }
    }

    #[test]
    fn matches_dijkstra_on_power_law_graph() {
        let g = Graph::from_generator(sparse::gen::powerlaw(400, 400, 4_000, 1.8, 22));
        check(&g, 3, ScheduleKind::MergePath);
        check(&g, 3, ScheduleKind::WarpMapped);
    }

    #[test]
    fn disconnected_vertices_stay_infinite() {
        // Two components: 0→1, 2→3.
        let adj = sparse::Csr::from_triplets(
            4,
            4,
            vec![(0u32, 1u32, 2.0f32), (2, 3, 1.0)],
        )
        .unwrap();
        let g = Graph::new(adj);
        let run = sssp(&GpuSpec::test_tiny(), &g, 0, ScheduleKind::ThreadMapped).unwrap();
        assert_eq!(run.dist[0], 0.0);
        assert_eq!(run.dist[1], 2.0);
        assert!(run.dist[2].is_infinite());
        assert!(run.dist[3].is_infinite());
    }

    #[test]
    fn report_accumulates_across_iterations() {
        let g = Graph::from_generator(sparse::gen::banded(64, 1, 23));
        let run = sssp(&GpuSpec::test_tiny(), &g, 0, ScheduleKind::ThreadMapped).unwrap();
        // A band graph from vertex 0 needs many frontier waves.
        assert!(run.iterations > 10, "iterations = {}", run.iterations);
        assert!(run.report.elapsed_ms() > run.iterations as f64 * 0.0005);
    }

    #[test]
    fn source_bounds_checked() {
        let g = Graph::from_generator(sparse::gen::uniform(10, 10, 30, 2));
        let err = sssp(&GpuSpec::test_tiny(), &g, 10, ScheduleKind::ThreadMapped).unwrap_err();
        assert!(matches!(err, simt::LaunchError::InvalidWork { .. }));
    }
}
