//! The group-mapped schedule (paper §5.2.3) — the paper's novel
//! contribution, generalizing warp- and block-level load balancing
//! (§5.2.2) to cooperative groups of arbitrary size.
//!
//! Each group claims batches of `group_size` consecutive tiles. For a
//! batch, the group (1) loads every tile's atom count into scratchpad,
//! (2) runs a group-wide exclusive prefix sum over the counts, then
//! (3) processes the batch's *atoms* in parallel: lane `r` takes atoms
//! `r, r + group, r + 2·group, …` of the aggregated batch, recovering the
//! owning tile from the prefix-sum array (the paper's `get_tile(atom_id)`;
//! the host resolves it with a per-batch owner table and a per-lane
//! cursor, while the model bills the amortized search). Intra-batch
//! imbalance is flattened completely; inter-batch imbalance is left to
//! the hardware's oversubscribed block scheduler — exactly the division
//! of labour §5.2.2 describes.
//!
//! With `group_size = warp` this *is* the classic warp-mapped schedule;
//! with `group_size = block` it is block-mapped; any other power of the
//! problem's shape (including AMD's 64-wide wavefronts) is one constant
//! away — the portability argument of §5.2.3.

use crate::work::TileSet;
use simt::{GpuSpec, GroupCtx, LaneCtx, LaunchConfig};
use std::cell::Cell;

/// Group-mapped (cooperative-groups) schedule over a tile set.
#[derive(Debug, Clone, Copy)]
pub struct GroupMappedSchedule<'w, W> {
    work: &'w W,
    group_size: u32,
}

impl<'w, W: TileSet> GroupMappedSchedule<'w, W> {
    /// Create a schedule with an arbitrary group size (≥ 1, and at most
    /// 65536 lanes: `get_tile`'s owner table indexes a batch with `u16`).
    pub fn new(work: &'w W, group_size: u32) -> Self {
        assert!(group_size >= 1, "group size must be ≥ 1");
        assert!(group_size <= 1 << 16, "group size must be ≤ 65536");
        Self { work, group_size }
    }

    /// The warp-mapped schedule of §5.2.2 — group-mapped at warp width,
    /// "for free" (Table 1).
    pub fn warp_mapped(work: &'w W, spec: &GpuSpec) -> Self {
        Self::new(work, spec.warp_size)
    }

    /// The block-mapped schedule of §5.2.2 — group-mapped at block width.
    pub fn block_mapped(work: &'w W, block_dim: u32) -> Self {
        Self::new(work, block_dim)
    }

    /// Group size in lanes.
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// Shared memory a block of `block_dim` threads needs: one prefix-sum
    /// slot (`u64`) plus one reduction slot (`f32`) per lane.
    pub fn shared_bytes(&self, block_dim: u32) -> u32 {
        block_dim * (std::mem::size_of::<u64>() + std::mem::size_of::<f32>()) as u32
    }

    /// A launch where every group receives roughly one batch of tiles
    /// (rounds handle any remainder), capped at `max_blocks` for
    /// oversubscription control.
    pub fn launch_config(&self, block_dim: u32, max_blocks: u32) -> LaunchConfig {
        let groups_per_block = (block_dim / self.group_size).max(1);
        let tiles_per_block = groups_per_block as usize * self.group_size as usize;
        let grid = self
            .work
            .num_tiles()
            .div_ceil(tiles_per_block)
            .clamp(1, max_blocks as usize) as u32;
        LaunchConfig::new(grid, block_dim).with_shared(self.shared_bytes(block_dim))
    }

    // LOC-BEGIN(group_mapped)
    /// Execute `f(lane, tile, atom)` for every atom of every batch this
    /// group owns. This is the whole schedule: setup (counts + scan into
    /// scratchpad) and the balanced atom loop with `get_tile`.
    pub fn process(&self, g: &mut GroupCtx<'_>, mut f: impl FnMut(&LaneCtx<'_>, usize, usize)) {
        self.for_each_batch(g, |g, batch| {
            g.phase_for_each(|lane| batch.walk(lane, |lane, _, tile, atom| f(lane, tile, atom)));
        });
    }

    /// Setup for every batch this group owns: (1) each lane loads its
    /// tile's atom count to scratchpad, (2) a group-wide exclusive prefix
    /// sum turns the counts into batch offsets; then `body` runs the
    /// batch's phases.
    fn for_each_batch(
        &self,
        g: &mut GroupCtx<'_>,
        mut body: impl FnMut(&mut GroupCtx<'_>, &Batch<'_, W>),
    ) {
        let gs = self.group_size as usize;
        debug_assert_eq!(g.size() as usize, gs, "launch group size mismatch");
        let num_tiles = self.work.num_tiles();
        let stride = (g.num_groups_in_grid() as usize) * gs;
        let mut scan = g.alloc_shared::<u64>(gs);
        let mut owner = OWNER.take();
        let mut base = g.global_group_id() as usize * gs;
        while base < num_tiles {
            let counts = g.phase(|lane| {
                let tile = base + lane.group_rank() as usize;
                lane.charge_tile();
                lane.charge_shared();
                if tile < num_tiles {
                    self.work.atoms_in_tile(tile) as u64
                } else {
                    0
                }
            });
            scan.copy_from_slice(&counts);
            let total_atoms = g.exclusive_scan(&mut scan) as usize;
            // Host-side owner table: batch atom -> batch-relative tile,
            // filled once from the scan (the model bills get_tile below).
            owner.clear();
            for local in 0..gs {
                let end = scan.get(local + 1).map_or(total_atoms, |&s| s as usize);
                owner.resize(end, local as u16);
            }
            let batch = Batch {
                work: self.work,
                base,
                stride: gs,
                scan: &scan,
                owner: &owner,
            };
            body(g, &batch);
            base += stride;
        }
        OWNER.set(owner);
    }
    // LOC-END(group_mapped)

    /// Load-balanced *transform-reduce-by-tile*: compute `per_atom` for
    /// every atom, segment-reduce the partial results by owning tile (a
    /// group collective), and call `per_tile(lane, tile, sum)` exactly once
    /// per tile. Because every tile is wholly owned by one group batch, the
    /// per-tile result needs no global atomics — this is the cooperative
    /// composition §3.3 of the paper gestures at ("combine the results with
    /// neighboring threads").
    pub fn process_batches(
        &self,
        g: &mut GroupCtx<'_>,
        mut per_atom: impl FnMut(&LaneCtx<'_>, usize, usize) -> f32,
        mut per_tile: impl FnMut(&LaneCtx<'_>, usize, f32),
    ) {
        let num_tiles = self.work.num_tiles();
        let mut sums = g.alloc_shared::<f32>(self.group_size as usize);
        self.for_each_batch(g, |g, batch| {
            sums.iter_mut().for_each(|s| *s = 0.0);
            // Balanced atom loop accumulating per-tile partials in
            // scratchpad (lanes of a group execute phase-sequentially in
            // the simulator, so the shared accumulation is race-free; on
            // hardware this is the segmented-reduce tree charged below).
            g.phase_for_each(|lane| {
                batch.walk(lane, |lane, local, tile, atom| {
                    sums[local] += per_atom(lane, tile, atom);
                });
            });
            // Segmented reduction across lanes (tree): one collective.
            g.charge_collective_step();
            // One write per tile of the batch.
            g.phase_for_each(|lane| {
                let r = lane.group_rank() as usize;
                let tile = batch.base + r;
                if tile < num_tiles {
                    lane.charge_shared();
                    per_tile(lane, tile, sums[r]);
                }
            });
        });
    }

    /// The wrapped tile set.
    pub fn work(&self) -> &'w W {
        self.work
    }
}

thread_local! {
    /// The owner-table buffer, reused across groups, batches and launches
    /// on this host thread (a nested use simply starts a fresh one).
    static OWNER: Cell<Vec<u16>> = const { Cell::new(Vec::new()) };
}

/// One batch of a group: its first tile, the scratchpad prefix sums of
/// its tiles' atom counts, and the owner table (one entry per batch atom).
struct Batch<'b, W> {
    work: &'b W,
    base: usize,
    stride: usize,
    scan: &'b [u64],
    owner: &'b [u16],
}

// LOC-BEGIN(group_mapped)
impl<W: TileSet> Batch<'_, W> {
    /// Lane `r`'s balanced atom loop: atoms `r, r + group, r + 2·group, …`
    /// of the batch, calling `f(lane, local_tile, tile, atom)`.
    #[inline]
    fn walk(&self, lane: &LaneCtx<'_>, mut f: impl FnMut(&LaneCtx<'_>, usize, usize, usize)) {
        let total = self.owner.len();
        let (mut local, mut start, mut end, mut first_atom) = (0, 0, 0, 0);
        let mut a = lane.group_rank() as usize;
        while a < total {
            // get_tile(): strided atoms move monotonically through the
            // batch, so the lane's tile changes only when `a` crosses the
            // next prefix-sum boundary. Real implementations resume the
            // search from the previous hit, so the model charges the
            // amortized two-probe cost rather than a full log2(group) search.
            if a >= end {
                local = usize::from(self.owner[a]);
                start = self.scan[local] as usize;
                end = self.scan.get(local + 1).map_or(total, |&s| s as usize);
                first_atom = self.work.tile_offset(self.base + local);
            }
            lane.charge(lane.model().shared_access_cost * 2.0);
            lane.charge_atom();
            lane.charge_range_iter();
            f(lane, local, self.base + local, first_atom + (a - start));
            a += self.stride;
        }
    }
}
// LOC-END(group_mapped)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::CountedTiles;
    use simt::GpuSpec;

    fn check_coverage(counts: Vec<usize>, group_size: u32, grid: u32, block: u32) {
        let w = CountedTiles::from_counts(counts);
        let sched = GroupMappedSchedule::new(&w, group_size);
        let spec = GpuSpec::test_tiny();
        let mut tile_of_atom: Vec<i64> = (0..w.num_atoms()).map(|_| -1).collect();
        let expected: Vec<i64> = (0..w.num_tiles())
            .flat_map(|t| w.tile_atoms(t).map(move |_| t as i64))
            .collect();
        let mut hits = vec![0u32; w.num_atoms().max(1)];
        {
            let gh = simt::GlobalMem::new(&mut hits);
            let gt = simt::GlobalMem::new(&mut tile_of_atom);
            let cfg = LaunchConfig::new(grid, block).with_shared(sched.shared_bytes(block));
            simt::launch_groups(&spec, cfg, group_size, |g| {
                sched.process(g, |_lane, tile, atom| {
                    gh.fetch_add(atom, 1);
                    gt.store(atom, tile as i64);
                });
            })
            .unwrap();
        }
        if w.num_atoms() > 0 {
            assert!(hits.iter().all(|&h| h == 1), "atom coverage");
        }
        assert_eq!(tile_of_atom, expected, "get_tile correctness");
    }

    #[test]
    fn covers_every_atom_with_correct_tiles_across_shapes() {
        check_coverage(vec![2, 0, 3, 1, 4], 8, 1, 8);
        check_coverage(vec![2, 0, 3, 1, 4], 4, 2, 8);
        check_coverage(vec![1; 100], 8, 2, 16);
        check_coverage(vec![50, 0, 0, 0, 0, 0, 0, 7], 8, 1, 8);
        check_coverage(vec![0; 64], 8, 2, 16);
        check_coverage(vec![13], 16, 1, 16);
    }

    /// Every `(lane rank, tile, atom)` visit of one group walking all
    /// batches, in visit order, with `get_tile` as the reference binary
    /// search `scan.partition_point(|&s| s <= a) - 1`.
    fn reference_visits(w: &CountedTiles, gs: usize) -> Vec<(u32, usize, usize)> {
        let mut out = Vec::new();
        for base in (0..w.num_tiles()).step_by(gs) {
            let mut scan: Vec<u64> = (base..base + gs)
                .map(|t| {
                    if t < w.num_tiles() {
                        w.atoms_in_tile(t) as u64
                    } else {
                        0
                    }
                })
                .collect();
            let mut total = 0;
            for s in &mut scan {
                (*s, total) = (total, total + *s);
            }
            for r in 0..gs {
                for a in (r..total as usize).step_by(gs) {
                    let local = scan.partition_point(|&s| s <= a as u64) - 1;
                    let tile = base + local;
                    out.push((
                        r as u32,
                        tile,
                        w.tile_offset(tile) + a - scan[local] as usize,
                    ));
                }
            }
        }
        out
    }

    #[test]
    fn owner_table_cursor_matches_reference_binary_search() {
        for gs in [1usize, 3, 32, 64, 256] {
            // Runs of empty tiles of varied length, one hub tile, and a
            // tile count that leaves the last batch ending mid-group.
            let mut counts: Vec<usize> = (0..2 * gs)
                .map(|i| if (i / 5) % 3 == 0 { 0 } else { i % 7 })
                .collect();
            counts[gs / 2] = 40 * gs + 3;
            counts.extend((0..gs / 2 + 1).map(|i| i % 3));
            let w = CountedTiles::from_counts(counts);
            let sched = GroupMappedSchedule::new(&w, gs as u32);
            let spec = GpuSpec::test_tiny();
            let visits = std::sync::Mutex::new(Vec::new());
            let cfg = LaunchConfig::new(1, gs as u32).with_shared(sched.shared_bytes(gs as u32));
            simt::launch_groups(&spec, cfg, gs as u32, |g| {
                sched.process(g, |lane, tile, atom| {
                    visits.lock().unwrap().push((lane.group_rank(), tile, atom));
                });
            })
            .unwrap();
            assert_eq!(
                visits.into_inner().unwrap(),
                reference_visits(&w, gs),
                "group {gs}"
            );
        }
    }

    #[test]
    fn multiple_rounds_when_tiles_exceed_groups() {
        // 4 groups of 8 in flight, 100 tiles → several rounds each.
        check_coverage((0..100).map(|i| i % 5).collect(), 8, 2, 16);
    }

    #[test]
    fn warp_and_block_constructors_pick_hardware_sizes() {
        let w = CountedTiles::from_counts([1, 2, 3]);
        let spec = GpuSpec::test_tiny();
        assert_eq!(
            GroupMappedSchedule::warp_mapped(&w, &spec).group_size(),
            spec.warp_size
        );
        assert_eq!(GroupMappedSchedule::block_mapped(&w, 128).group_size(), 128);
    }

    #[test]
    fn launch_config_sizes_grid_to_one_batch_per_group() {
        let w = CountedTiles::from_counts(vec![1; 1000]);
        let sched = GroupMappedSchedule::new(&w, 8);
        let cfg = sched.launch_config(32, 10_000);
        // 4 groups per block × 8 tiles each = 32 tiles per block.
        assert_eq!(cfg.grid_dim, 1000usize.div_ceil(32) as u32);
        assert_eq!(cfg.shared_bytes, 32 * 12);
        let capped = sched.launch_config(32, 4);
        assert_eq!(capped.grid_dim, 4);
    }

    #[test]
    fn balances_a_hub_batch_across_lanes() {
        // One batch (8 tiles), one hub of 800 atoms: group-mapped splits
        // the hub across all 8 lanes, so the critical warp cost is ~1/8 of
        // thread-mapped's.
        let w = CountedTiles::from_counts([800, 1, 1, 1, 1, 1, 1, 1]);
        let spec = GpuSpec::test_tiny();
        let sched = GroupMappedSchedule::new(&w, 8);
        let cfg = sched.launch_config(8, 64);
        let group_report = simt::launch_groups(&spec, cfg, 8, |g| {
            sched.process(g, |_, _, _| {});
        })
        .unwrap();
        let tsched = crate::schedule::ThreadMappedSchedule::new(&w);
        let thread_report = simt::launch_threads(&spec, LaunchConfig::new(1, 8), |t| {
            for tile in tsched.tiles(t) {
                for _ in tsched.atoms(tile, t) {}
            }
        })
        .unwrap();
        assert!(
            group_report.timing.compute_ms < thread_report.timing.compute_ms / 2.0,
            "group {} vs thread {}",
            group_report.timing.compute_ms,
            thread_report.timing.compute_ms
        );
    }

    #[test]
    #[should_panic(expected = "≥ 1")]
    fn rejects_zero_group() {
        let w = CountedTiles::from_counts([1]);
        let _ = GroupMappedSchedule::new(&w, 0);
    }

    #[test]
    fn process_batches_reduces_exactly_once_per_tile() {
        // per_atom returns 1.0: per-tile sum must equal the tile's count.
        let counts = vec![2usize, 0, 3, 1, 4, 0, 0, 9, 5, 1, 1, 2];
        let w = CountedTiles::from_counts(counts.clone());
        let sched = GroupMappedSchedule::new(&w, 4);
        let spec = GpuSpec::test_tiny();
        let mut out = vec![-1.0f32; w.num_tiles()];
        {
            let go = simt::GlobalMem::new(&mut out);
            let cfg = LaunchConfig::new(2, 8).with_shared(2 * sched.shared_bytes(8));
            simt::launch_groups(&spec, cfg, 4, |g| {
                sched.process_batches(
                    g,
                    |_, _, _| 1.0,
                    |_, tile, sum| go.store(tile, sum),
                );
            })
            .unwrap();
        }
        let expect: Vec<f32> = counts.iter().map(|&c| c as f32).collect();
        assert_eq!(out, expect);
    }
}
