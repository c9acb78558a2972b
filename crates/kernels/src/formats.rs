//! Format-generic kernel execution (paper §5.2.1): the same fold, any
//! storage format.
//!
//! The engine already runs over any [`TileSet`](loops::work::TileSet),
//! and SpMV and SpMM are each written once against
//! [`MatrixView`](loops::view::MatrixView) ([`mod@crate::spmv`],
//! [`crate::spmm`]). This module is the per-format `match` that pairs a
//! format's view with its tile set — CSR, canonical COO, ELL, and the
//! hybrid ELL+COO split — plus the [`PreparedOperand`] conversion
//! wrapper a serving runtime caches and amortizes (free for CSR, which
//! serves from the caller's matrix).
//!
//! **Bitwise contract.** For every supported (schedule × format) cell the
//! result vector is bit-for-bit equal to the CSR path under the same
//! schedule, because the per-row fold order never changes:
//!
//! * **COO** (canonical): the derived tile offsets equal CSR's row
//!   offsets and the value/column arrays are byte-identical, so *every*
//!   schedule — including merge-path and the cooperative reducers —
//!   makes identical decisions and identical charges.
//! * **ELL**: rows are front-packed in CSR order with padding only at
//!   the end; the flat-span schedules (thread-mapped, work-queue) hand
//!   each row out as one complete span, and the fold skips padded slots,
//!   reproducing CSR's left-to-right fold exactly. Schedules that split
//!   or interleave rows (merge-path, cooperative) see the *padded*
//!   geometry and are coerced to thread-mapped.
//! * **Hybrid**: one *fused* launch of `rows + tail_nnz` threads. The
//!   low threads fold their row's constant-width slab lane (the first
//!   `width` CSR entries) and store the partial; the high threads
//!   scatter the COO tail, one entry each, in ascending entry index
//!   order. Slab stores occupy strictly lower block indices than tail
//!   adds, so the sequential backend runs every store before any add,
//!   and the parallel backend replays the deferred float adds after
//!   the workers join — both orders equal `store(p); fetch_add(v₁);
//!   fetch_add(v₂)…`, the same fold as CSR's `((p + v₁) + v₂)…`. The
//!   fused geometry is one-thread-per-tile by construction, so hybrid
//!   serves coerce to thread-mapped.
//!
//! CSC stays convertible (round-trip tests, column workloads) but is not
//! servable here: its tiles are columns, so a row fold would need a
//! scatter with a different accumulation order.

use crate::spmm::{launch_spmm, SpmmRun};
use crate::spmv::{check_inner, launch_spmv, Launch, SpmvRun, DEFAULT_BLOCK};
use loops::adapters::{CooTiles, CsrTiles, EllTiles, HybridSlabTiles};
use crate::plan::prepare_over;
use loops::dispatch::KernelPlan;
use loops::schedule::ScheduleKind;
use simt::{CostModel, GlobalMem, GpuSpec, LaunchConfig};
use sparse::{convert, Coo, Csc, Csr, DenseMatrix, Ell, FormatKind, Hybrid};

/// Modeled conversion cost per element touched, deterministic (no wall
/// clock) so replayed traces and CI byte-diffs stay stable. A format
/// conversion is a streaming permutation: each element moves ~24 bytes
/// (read the triplet, write the new layout) at device bandwidth
/// (~900 GB/s on the V100 profile) ≈ 2.5 × 10⁻⁸ ms.
pub const CONVERT_MS_PER_ELEMENT: f64 = 2.5e-8;

/// Hard safety bound on ELL fill for [`PreparedOperand::prepare`]: a
/// conversion that would inflate storage beyond this many slots per
/// nonzero fails instead of allocating a slab orders of magnitude larger
/// than the matrix. (The candidate filter is far stricter —
/// [`loops::dispatch::ELL_MAX_FILL`] — this bound only protects direct
/// callers.)
pub const ELL_SERVE_MAX_FILL: f64 = 64.0;

/// A matrix converted to a serving format, with the modeled one-time
/// conversion cost attached — the unit a runtime caches per
/// `(fingerprint, format)` and amortizes across warm hits.
#[derive(Debug, Clone)]
pub struct PreparedOperand {
    format: FormatKind,
    convert_ms: f64,
    data: OperandData,
}

#[derive(Debug, Clone)]
enum OperandData {
    /// CSR serves from the caller's matrix; nothing is materialized.
    Csr,
    Coo(Coo<f32>),
    Csc(Csc<f32>),
    Ell(Ell<f32>),
    Hybrid(Hybrid<f32>),
}

impl PreparedOperand {
    /// Convert `a` to `format`, charging the modeled one-time cost.
    ///
    /// Errors with [`simt::LaunchError::InvalidWork`] when the format
    /// cannot represent the matrix within bounds (ELL fill beyond
    /// [`ELL_SERVE_MAX_FILL`]).
    pub fn prepare(a: &Csr<f32>, format: FormatKind) -> simt::Result<Self> {
        let (data, elements) = match format {
            FormatKind::Csr => (OperandData::Csr, 0usize),
            FormatKind::Coo => (OperandData::Coo(convert::csr_to_coo(a)), a.nnz()),
            FormatKind::Csc => (OperandData::Csc(convert::csr_to_csc(a)), 2 * a.nnz()),
            FormatKind::Ell => {
                let e = Ell::from_csr(a, ELL_SERVE_MAX_FILL).map_err(|e| {
                    simt::LaunchError::InvalidWork {
                        reason: format!("ELL conversion refused: {e}"),
                    }
                })?;
                let slots = e.slots();
                (OperandData::Ell(e), slots)
            }
            FormatKind::Hybrid => {
                let h = Hybrid::from_csr_auto(a);
                let elements = h.slab_slots() + 2 * h.tail_nnz();
                (OperandData::Hybrid(h), elements)
            }
        };
        Ok(Self {
            format,
            convert_ms: elements as f64 * CONVERT_MS_PER_ELEMENT,
            data,
        })
    }

    /// The format this operand serves.
    pub fn format(&self) -> FormatKind {
        self.format
    }

    /// Modeled one-time conversion cost, charged once on the cold path
    /// and excluded from warm-hit measurements.
    pub fn convert_ms(&self) -> f64 {
        self.convert_ms
    }

    /// Whether this operand holds a converted copy of the matrix. CSR
    /// serves from the caller's matrix and holds none, so there is
    /// nothing to memoize.
    pub fn materialized(&self) -> bool {
        !matches!(self.data, OperandData::Csr)
    }

    /// The schedule that will actually run for this operand (non-CSR
    /// formats coerce, see [`coerce_for_format`]).
    pub fn effective_schedule(&self, kind: ScheduleKind) -> ScheduleKind {
        coerce_for_format(self.format, kind)
    }

    /// The materialized CSC matrix when this operand was prepared as
    /// CSC — kept for conversion/column workloads; the row-fold kernels
    /// refuse to serve it.
    pub fn csc(&self) -> Option<&Csc<f32>> {
        match &self.data {
            OperandData::Csc(m) => Some(m),
            _ => None,
        }
    }
}

/// The schedules a format actually runs. CSR and canonical COO share
/// CSR's geometry, so every schedule is legal; ELL only keeps its
/// bitwise contract under the complete-tile flat-span schedules and
/// coerces everything else to thread-mapped (mirroring SpMM's
/// merge-path coercion); hybrid always runs the fused
/// one-thread-per-tile launch, i.e. thread-mapped.
pub fn coerce_for_format(format: FormatKind, kind: ScheduleKind) -> ScheduleKind {
    match format {
        FormatKind::Csr | FormatKind::Coo | FormatKind::Csc => kind,
        FormatKind::Ell => match kind {
            ScheduleKind::ThreadMapped | ScheduleKind::WorkQueue(_) => kind,
            _ => ScheduleKind::ThreadMapped,
        },
        FormatKind::Hybrid => ScheduleKind::ThreadMapped,
    }
}

/// The fused hybrid SpMV: one launch of `rows + tail_nnz` threads.
/// Threads below `rows` fold their row's constant-width slab lane and
/// store the partial; the threads above scatter the COO tail, one entry
/// each, in ascending entry order (charged like the standalone COO
/// scatter kernel). Fusing the passes drops the second launch's
/// overhead, and the slab width is a launch constant, so — unlike a
/// CSR row — a slab row needs no row-extent read: its only bookkeeping
/// traffic is the y store.
///
/// **Bitwise contract.** The grid covers all `rows + tail_nnz` threads
/// in one pass, so slab stores occupy strictly lower block indices than
/// tail adds. The sequential backend therefore runs every store before
/// any add, and the parallel backend applies stores live and replays
/// the deferred float adds after the workers join, in (block, program)
/// order — both execute `store(p); fetch_add(v₁); fetch_add(v₂)…` per
/// row, the CSR fold.
fn hybrid_spmv_fused(
    spec: &GpuSpec,
    model: &CostModel,
    h: &Hybrid<f32>,
    x: &[f32],
    block_dim: u32,
) -> simt::Result<SpmvRun> {
    check_inner("x", x.len(), h.cols())?;
    let rows = h.rows();
    let width = h.width();
    let spill = h.tail_nnz();
    let n = rows + spill;
    let mut y = vec![0.0f32; rows];
    let (scols, svals) = (h.slab_col_indices(), h.slab_values());
    let (trows, tcols, tvals) = (
        h.tail().row_indices(),
        h.tail().col_indices(),
        h.tail().values(),
    );
    let block = block_dim.min(spec.max_threads_per_block);
    // A stored slab entry's bytes beyond its column index (value + x).
    let value_bytes = (model.bytes_per_atom as u64).saturating_sub(4);
    let report = {
        let gy = GlobalMem::new(&mut y);
        simt::launch_threads_with_model(
            spec,
            model,
            LaunchConfig::over_threads(n.max(1) as u64, block),
            |t| {
                let i = t.global_thread_id() as usize;
                if i < rows {
                    // Tile bookkeeping cycles without the row-offset
                    // read: the slab extent is `width`, a constant.
                    t.charge(t.model().tile_cost);
                    let mut sum = 0.0f32;
                    for s in i * width..(i + 1) * width {
                        t.charge(t.model().atom_cost);
                        t.charge_range_iter();
                        // Every slot reads its column index; only stored
                        // entries load the value and gather from x —
                        // padded slots skip both, so they cost 4 of the
                        // model's `bytes_per_atom` (col + val + x).
                        t.read_bytes(4);
                        let c = scols[s];
                        if c != sparse::ell::PAD {
                            t.read_bytes(value_bytes);
                            sum += svals[s] * x[c as usize];
                        }
                    }
                    gy.store(i, sum);
                    t.write_bytes(4);
                } else if i < n {
                    let k = i - rows;
                    t.charge_atom();
                    gy.fetch_add(trows[k] as usize, tvals[k] * x[tcols[k] as usize]);
                    t.charge_atomic();
                }
            },
        )?
    };
    Ok(SpmvRun {
        y,
        report,
        schedule: ScheduleKind::ThreadMapped,
    })
}

/// The hybrid SpMM's COO tail pass: one thread per tail entry (charged
/// like the fused SpMV's tail threads), contributing to every column of
/// its output row, in column order.
fn scatter_tail_spmm(
    spec: &GpuSpec,
    model: &CostModel,
    tail: &Coo<f32>,
    b: &DenseMatrix<f32>,
    c: &mut [f32],
    block_dim: u32,
) -> simt::Result<Option<simt::LaunchReport>> {
    let n = tail.nnz();
    if n == 0 {
        return Ok(None);
    }
    let n_cols = b.cols();
    let (rows, cols, vals) = (tail.row_indices(), tail.col_indices(), tail.values());
    let block = block_dim.min(spec.max_threads_per_block);
    let report = {
        let gc = GlobalMem::new(c);
        simt::launch_threads_with_model(
            spec,
            model,
            LaunchConfig::over_threads(n as u64, block),
            |t| {
                let i = t.global_thread_id() as usize;
                if i < n {
                    t.charge_atom();
                    for col in 0..n_cols {
                        gc.fetch_add(
                            rows[i] as usize * n_cols + col,
                            vals[i] * b.get(cols[i] as usize, col),
                        );
                        t.charge_atomic();
                    }
                }
            },
        )?
    };
    Ok(Some(report))
}

fn csc_not_servable() -> simt::LaunchError {
    simt::LaunchError::InvalidWork {
        reason: "CSC serves column-major traversals, not row folds".to_owned(),
    }
}

/// Run SpMV over a prepared operand with the given schedule. `a` is the
/// CSR source the operand was prepared from (the CSR cell serves from it
/// directly). Unsupported (format × schedule) combinations coerce per
/// [`coerce_for_format`]; CSC is not servable and errors, and so does an
/// `x` whose length is not `a.cols()`.
pub fn spmv_format(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    x: &[f32],
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<SpmvRun> {
    let kind = coerce_for_format(op.format, kind);
    spmv_on(spec, model, a, op, x, Launch::Cold(kind, block_dim))
}

/// Run SpMV over a prepared operand under a prepared plan — bitwise
/// identical to [`spmv_format`] with the plan's schedule.
pub fn spmv_format_with_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    x: &[f32],
    plan: &KernelPlan,
) -> simt::Result<SpmvRun> {
    spmv_on(spec, model, a, op, x, Launch::Planned(plan))
}

fn spmv_on(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    x: &[f32],
    how: Launch<'_>,
) -> simt::Result<SpmvRun> {
    match &op.data {
        OperandData::Csr => launch_spmv(spec, model, a, &CsrTiles::new(a), x, how),
        OperandData::Coo(coo) => launch_spmv(spec, model, coo, &CooTiles::try_new(coo)?, x, how),
        OperandData::Csc(_) => Err(csc_not_servable()),
        OperandData::Ell(e) => launch_spmv(spec, model, e, &EllTiles::new(e), x, how),
        OperandData::Hybrid(h) => hybrid_spmv_fused(spec, model, h, x, how.block_dim()),
    }
}

/// Prepare a reusable plan for [`spmv_format_with_plan`] or
/// [`spmm_format_with_plan`]. CSR and COO keep every schedule's
/// artifacts (their geometries are identical); the padded formats coerce
/// first, so their plans are always flat-span (no merge table, no LRB
/// bins).
pub fn prepare_format_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<KernelPlan> {
    let kind = coerce_for_format(op.format, kind);
    match &op.data {
        OperandData::Csr => crate::plan::prepare(spec, model, a, kind, block_dim),
        OperandData::Coo(coo) => {
            prepare_over(spec, model, &CooTiles::try_new(coo)?, kind, block_dim)
        }
        OperandData::Csc(_) => Err(csc_not_servable()),
        OperandData::Ell(e) => prepare_over(spec, model, &EllTiles::new(e), kind, block_dim),
        OperandData::Hybrid(h) => {
            prepare_over(spec, model, &HybridSlabTiles::new(h), kind, block_dim)
        }
    }
}

/// Run SpMM over a prepared operand. Every format runs SpMM's
/// merge-path/thread-mapped pair ([`crate::spmm::coerce`]); COO shares
/// CSR's geometry, the padded formats coerce to thread-mapped, and the
/// hybrid tail is scattered per entry per column.
pub fn spmm_format(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    b: &DenseMatrix<f32>,
    kind: ScheduleKind,
) -> simt::Result<SpmmRun> {
    let kind = coerce_for_format(op.format, crate::spmm::coerce(kind));
    spmm_on(spec, model, a, op, b, Launch::Cold(kind, DEFAULT_BLOCK))
}

/// Run SpMM over a prepared operand under a prepared plan — bitwise
/// identical to [`spmm_format`] with the plan's schedule.
pub fn spmm_format_with_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    b: &DenseMatrix<f32>,
    plan: &KernelPlan,
) -> simt::Result<SpmmRun> {
    spmm_on(spec, model, a, op, b, Launch::Planned(plan))
}

fn spmm_on(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    b: &DenseMatrix<f32>,
    how: Launch<'_>,
) -> simt::Result<SpmmRun> {
    match &op.data {
        OperandData::Csr => launch_spmm(spec, model, a, &CsrTiles::new(a), b, how),
        OperandData::Coo(coo) => launch_spmm(spec, model, coo, &CooTiles::try_new(coo)?, b, how),
        OperandData::Csc(_) => Err(csc_not_servable()),
        OperandData::Ell(e) => launch_spmm(spec, model, e, &EllTiles::new(e), b, how),
        OperandData::Hybrid(h) => {
            let mut run = launch_spmm(spec, model, h, &HybridSlabTiles::new(h), b, how)?;
            let c = run.c.as_mut_slice();
            if let Some(r) = scatter_tail_spmm(spec, model, h.tail(), b, c, DEFAULT_BLOCK)? {
                run.report.accumulate(&r);
            }
            Ok(run)
        }
    }
}

/// PageRank with a format-generic inner SpMV: the power iteration runs
/// over `Mᵀ` prepared in `format`. Bitwise-identical ranks to
/// [`crate::pagerank::pagerank`] whenever the format's SpMV is bitwise-
/// identical to CSR's under the (coerced) schedule — every iteration
/// sees identical inputs, so the fold never diverges.
pub fn pagerank_format(
    spec: &GpuSpec,
    g: &crate::graph::Graph,
    kind: ScheduleKind,
    format: FormatKind,
    tol: f32,
    max_iters: usize,
) -> simt::Result<crate::pagerank::PageRankRun> {
    crate::pagerank::check_graph(g)?;
    let n = g.num_vertices();
    let mt = crate::pagerank::normalized_transpose(g);
    let op = PreparedOperand::prepare(&mt, format)?;
    let dangling: Vec<usize> = (0..n).filter(|&u| g.degree(u) == 0).collect();
    let model = CostModel::standard();

    let mut rank = vec![1.0f32 / n as f32; n];
    let mut iterations = 0usize;
    let mut total: Option<simt::LaunchReport> = None;
    while iterations < max_iters {
        let run = spmv_format(spec, &model, &mt, &op, &rank, kind, DEFAULT_BLOCK)?;
        let dangling_mass: f32 = dangling.iter().map(|&u| rank[u]).sum();
        let teleport = (1.0 - crate::pagerank::DAMPING) / n as f32
            + crate::pagerank::DAMPING * dangling_mass / n as f32;
        let next: Vec<f32> = run
            .y
            .iter()
            .map(|&s| teleport + crate::pagerank::DAMPING * s)
            .collect();
        let delta: f32 = next.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        match &mut total {
            Some(t) => t.accumulate(&run.report),
            None => total = Some(run.report),
        }
        iterations += 1;
        if delta < tol {
            break;
        }
    }
    Ok(crate::pagerank::PageRankRun {
        rank,
        iterations,
        report: total.expect("at least one iteration"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn csr_cell_is_the_plain_spmv_path() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(300, 300, 4_000, 1.8, 5);
        let x = sparse::dense::test_vector(300);
        let op = PreparedOperand::prepare(&a, FormatKind::Csr).unwrap();
        assert_eq!(op.convert_ms(), 0.0);
        for kind in [ScheduleKind::MergePath, ScheduleKind::Lrb] {
            let f = spmv_format(&spec, &model, &a, &op, &x, kind, DEFAULT_BLOCK).unwrap();
            let c = crate::spmv::spmv_with_model(&spec, &model, &a, &x, kind, DEFAULT_BLOCK)
                .unwrap();
            assert_eq!(bits(&f.y), bits(&c.y), "{kind}");
        }
    }

    #[test]
    fn coo_cell_is_bitwise_equal_under_every_schedule() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(400, 400, 6_000, 1.7, 6);
        let x = sparse::dense::test_vector(400);
        let op = PreparedOperand::prepare(&a, FormatKind::Coo).unwrap();
        assert!(op.convert_ms() > 0.0);
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::GroupMapped(16),
            ScheduleKind::WorkQueue(8),
            ScheduleKind::Lrb,
        ] {
            let f = spmv_format(&spec, &model, &a, &op, &x, kind, DEFAULT_BLOCK).unwrap();
            let c = crate::spmv::spmv_with_model(&spec, &model, &a, &x, kind, DEFAULT_BLOCK)
                .unwrap();
            assert_eq!(bits(&f.y), bits(&c.y), "{kind}");
            assert_eq!(f.schedule, c.schedule, "{kind}");
        }
    }

    #[test]
    fn ell_and_hybrid_cells_match_csr_bitwise_under_flat_span_schedules() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        // Skewed enough that the hybrid tail is non-empty.
        let a = sparse::gen::powerlaw(500, 500, 7_000, 1.8, 7);
        let x = sparse::dense::test_vector(500);
        let op = PreparedOperand::prepare(&a, FormatKind::Ell).unwrap();
        for kind in [ScheduleKind::ThreadMapped, ScheduleKind::WorkQueue(16)] {
            let f = spmv_format(&spec, &model, &a, &op, &x, kind, DEFAULT_BLOCK).unwrap();
            let c =
                crate::spmv::spmv_with_model(&spec, &model, &a, &x, kind, DEFAULT_BLOCK).unwrap();
            assert_eq!(bits(&f.y), bits(&c.y), "ell {kind}");
        }
        // Unsupported ELL schedules coerce to thread-mapped; hybrid
        // *always* runs the fused thread-mapped launch. Both stay
        // bitwise equal to CSR's thread-mapped fold.
        let csr_tm = crate::spmv::spmv_with_model(
            &spec,
            &model,
            &a,
            &x,
            ScheduleKind::ThreadMapped,
            DEFAULT_BLOCK,
        )
        .unwrap();
        let f = spmv_format(&spec, &model, &a, &op, &x, ScheduleKind::MergePath, DEFAULT_BLOCK)
            .unwrap();
        assert_eq!(f.schedule, ScheduleKind::ThreadMapped, "ell coerced");
        assert_eq!(bits(&f.y), bits(&csr_tm.y), "ell coerced");
        let op = PreparedOperand::prepare(&a, FormatKind::Hybrid).unwrap();
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::WorkQueue(16),
            ScheduleKind::MergePath,
        ] {
            let f = spmv_format(&spec, &model, &a, &op, &x, kind, DEFAULT_BLOCK).unwrap();
            assert_eq!(f.schedule, ScheduleKind::ThreadMapped, "hybrid {kind}");
            assert_eq!(bits(&f.y), bits(&csr_tm.y), "hybrid {kind}");
        }
        // The hybrid really split: tail entries exist for this corpus.
        if let OperandData::Hybrid(h) = &op.data {
            assert!(h.tail_nnz() > 0, "test corpus should spill");
        } else {
            unreachable!()
        }
    }

    #[test]
    fn planned_format_runs_are_bitwise_identical() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(400, 400, 5_000, 1.8, 9);
        let x = sparse::dense::test_vector(400);
        for (format, kind) in [
            (FormatKind::Coo, ScheduleKind::MergePath),
            (FormatKind::Ell, ScheduleKind::ThreadMapped),
            (FormatKind::Hybrid, ScheduleKind::WorkQueue(16)),
        ] {
            let op = PreparedOperand::prepare(&a, format).unwrap();
            let plan = prepare_format_plan(&spec, &model, &a, &op, kind, DEFAULT_BLOCK).unwrap();
            let cold = spmv_format(&spec, &model, &a, &op, &x, kind, DEFAULT_BLOCK).unwrap();
            let warm = spmv_format_with_plan(&spec, &model, &a, &op, &x, &plan).unwrap();
            assert_eq!(bits(&cold.y), bits(&warm.y), "{format} {kind}");
            assert_eq!(cold.schedule, warm.schedule, "{format} {kind}");
        }
        // SpMM replays a plan on any operand too. A flat-span plan runs
        // exactly the cold launch, so the whole report must match; a
        // merge-path plan skips the in-kernel searches, so only the
        // output must.
        let b = DenseMatrix::from_fn(400, 3, |r, c| ((r * 5 + c) as f32).cos());
        let strip = |r: &simt::LaunchReport| simt::LaunchReport {
            host_wall_ms: 0.0,
            ..r.clone()
        };
        for (format, kind) in [
            (FormatKind::Coo, ScheduleKind::ThreadMapped),
            (FormatKind::Ell, ScheduleKind::ThreadMapped),
            (FormatKind::Hybrid, ScheduleKind::ThreadMapped),
            (FormatKind::Coo, ScheduleKind::MergePath),
        ] {
            let op = PreparedOperand::prepare(&a, format).unwrap();
            let plan = prepare_format_plan(&spec, &model, &a, &op, kind, DEFAULT_BLOCK).unwrap();
            let cold = spmm_format(&spec, &model, &a, &op, &b, kind).unwrap();
            let warm = spmm_format_with_plan(&spec, &model, &a, &op, &b, &plan).unwrap();
            assert_eq!(
                bits(cold.c.as_slice()),
                bits(warm.c.as_slice()),
                "{format} {kind}"
            );
            assert_eq!(cold.schedule, warm.schedule, "{format} {kind}");
            if kind == ScheduleKind::ThreadMapped {
                assert_eq!(strip(&cold.report), strip(&warm.report), "{format} {kind}");
            }
        }
    }

    #[test]
    fn spmm_format_cells_match_csr_bitwise() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(200, 200, 3_000, 1.8, 10);
        let b = DenseMatrix::from_fn(200, 3, |r, c| ((r * 7 + c) as f32).sin());
        let csr_tm = crate::spmm::spmm_with_model(&spec, &model, &a, &b, ScheduleKind::ThreadMapped)
            .unwrap();
        for format in [FormatKind::Coo, FormatKind::Ell, FormatKind::Hybrid] {
            let op = PreparedOperand::prepare(&a, format).unwrap();
            let f = spmm_format(&spec, &model, &a, &op, &b, ScheduleKind::ThreadMapped).unwrap();
            assert_eq!(
                bits(csr_tm.c.as_slice()),
                bits(f.c.as_slice()),
                "{format}"
            );
        }
        // COO also shares merge-path (identical geometry).
        let csr_mp =
            crate::spmm::spmm_with_model(&spec, &model, &a, &b, ScheduleKind::MergePath).unwrap();
        let op = PreparedOperand::prepare(&a, FormatKind::Coo).unwrap();
        let f = spmm_format(&spec, &model, &a, &op, &b, ScheduleKind::MergePath).unwrap();
        assert_eq!(bits(csr_mp.c.as_slice()), bits(f.c.as_slice()));
    }

    #[test]
    fn pagerank_format_matches_the_csr_path_bitwise() {
        let g = crate::graph::Graph::from_generator(sparse::gen::rmat(
            8,
            8,
            (0.57, 0.19, 0.19),
            21,
        ));
        let spec = GpuSpec::v100();
        let want = crate::pagerank::pagerank(&spec, &g, ScheduleKind::ThreadMapped, 1e-6, 50)
            .unwrap();
        for format in [FormatKind::Coo, FormatKind::Hybrid] {
            let run =
                pagerank_format(&spec, &g, ScheduleKind::ThreadMapped, format, 1e-6, 50).unwrap();
            assert_eq!(bits(&want.rank), bits(&run.rank), "{format}");
            assert_eq!(want.iterations, run.iterations, "{format}");
        }
    }

    #[test]
    fn csc_is_not_servable_and_says_why() {
        let a = sparse::gen::uniform(50, 50, 300, 3);
        let x = sparse::dense::test_vector(50);
        let op = PreparedOperand::prepare(&a, FormatKind::Csc).unwrap();
        let err = spmv_format(
            &GpuSpec::test_tiny(),
            &CostModel::standard(),
            &a,
            &op,
            &x,
            ScheduleKind::ThreadMapped,
            DEFAULT_BLOCK,
        )
        .unwrap_err();
        assert!(matches!(err, simt::LaunchError::InvalidWork { .. }));
    }

    #[test]
    fn ell_conversion_refuses_pathological_fill() {
        // One hub row of 5000 over 5000 rows of ~1: fill ≈ 2500.
        let a = sparse::gen::hub_rows(5_000, 5_000, 1, 5_000, 1, 30);
        let err = PreparedOperand::prepare(&a, FormatKind::Ell).unwrap_err();
        assert!(matches!(err, simt::LaunchError::InvalidWork { .. }));
    }
}
