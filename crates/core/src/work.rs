//! The work vocabulary: atoms, tiles, tile sets (paper §3.1).
//!
//! A [`TileSet`] is the common frame every sparse format is reduced to
//! before scheduling: it knows how many tiles and atoms exist and where
//! each tile's atoms live in the flat atom index space. Tiles must be
//! independent (parallelizable) and each tile's atoms must be contiguous —
//! the property CSR-like layouts give for free and which every schedule in
//! the paper relies on (row offsets *are* the tile-offset sequence).

use std::ops::Range;

/// A scheduled-work description: the paper's *tile set*.
///
/// The only required geometry is [`TileSet::tile_atoms`] — where each
/// tile's atoms live in a flat atom index space. Most tile sets are
/// **contiguous** (tile `t+1`'s atoms start where tile `t`'s end — CSR
/// row offsets are exactly this), and for those the provided
/// [`TileSet::tile_offset`] is a valid boundary sequence. The merge-path
/// schedule requires contiguity (it binary-searches the boundaries);
/// thread-, group- and queue-based schedules only need per-tile ranges
/// and therefore also accept non-contiguous views such as
/// [`SubsetTiles`].
pub trait TileSet: Sync {
    /// Number of work tiles (e.g. matrix rows).
    fn num_tiles(&self) -> usize;

    /// Number of work atoms (e.g. stored nonzeros).
    fn num_atoms(&self) -> usize;

    /// The half-open flat atom range of tile `t`.
    fn tile_atoms(&self, t: usize) -> Range<usize>;

    /// Flat atom offset at tile boundary `i`, for `i ∈ [0, num_tiles]` —
    /// meaningful for contiguous tile sets (see trait docs); schedules
    /// that rely on it (merge-path) state so.
    fn tile_offset(&self, i: usize) -> usize {
        if i >= self.num_tiles() {
            self.num_atoms()
        } else {
            self.tile_atoms(i).start
        }
    }

    /// Atom count of tile `t` — the paper's "atoms-per-tile" iterator
    /// element.
    fn atoms_in_tile(&self, t: usize) -> usize {
        self.tile_atoms(t).len()
    }

    /// `true` if this tile set is contiguous (tile boundaries form a
    /// monotone prefix of the atom space) — the precondition for
    /// merge-path.
    fn is_contiguous(&self) -> bool {
        self.tile_offset(0) == 0
            && (0..self.num_tiles()).all(|t| self.tile_atoms(t).end == self.tile_offset(t + 1))
    }

    /// Debug-check the tile-set invariants (monotone offsets, matching
    /// totals). Cheap enough to call in tests; not called on hot paths.
    fn validate(&self) -> bool {
        if self.tile_offset(0) != 0 || self.tile_offset(self.num_tiles()) != self.num_atoms() {
            return false;
        }
        (0..self.num_tiles()).all(|t| self.tile_offset(t) <= self.tile_offset(t + 1))
    }
}

/// A tile set defined directly by an offsets slice (`len = tiles + 1`),
/// e.g. CSR row offsets used verbatim.
#[derive(Debug, Clone, Copy)]
pub struct SliceTiles<'a> {
    offsets: &'a [usize],
}

impl<'a> SliceTiles<'a> {
    /// Wrap an offsets array (must be non-empty; `offsets[0] == 0`).
    pub fn new(offsets: &'a [usize]) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets must start at zero");
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { offsets }
    }
}

impl TileSet for SliceTiles<'_> {
    fn num_tiles(&self) -> usize {
        self.offsets.len() - 1
    }
    fn num_atoms(&self) -> usize {
        *self.offsets.last().expect("non-empty by construction")
    }
    #[inline]
    fn tile_atoms(&self, t: usize) -> Range<usize> {
        self.offsets[t]..self.offsets[t + 1]
    }
    #[inline]
    fn tile_offset(&self, i: usize) -> usize {
        self.offsets[i]
    }
}

/// A tile set built from an atoms-per-tile *count* sequence — the general
/// form of the paper's Listing 1, where the user supplies a transform
/// iterator yielding each tile's atom count and the framework derives the
/// offsets (a one-time prefix sum, the analogue of materializing
/// `row_offsets` for formats that lack them).
#[derive(Debug, Clone)]
pub struct CountedTiles {
    offsets: Vec<usize>,
}

impl CountedTiles {
    /// Build from any iterator of per-tile atom counts.
    pub fn from_counts(counts: impl IntoIterator<Item = usize>) -> Self {
        let mut offsets = vec![0usize];
        for c in counts {
            offsets.push(offsets.last().expect("non-empty") + c);
        }
        Self { offsets }
    }

    /// The derived offsets (`tiles + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

impl TileSet for CountedTiles {
    fn num_tiles(&self) -> usize {
        self.offsets.len() - 1
    }
    fn num_atoms(&self) -> usize {
        *self.offsets.last().expect("non-empty by construction")
    }
    #[inline]
    fn tile_atoms(&self, t: usize) -> Range<usize> {
        self.offsets[t]..self.offsets[t + 1]
    }
    #[inline]
    fn tile_offset(&self, i: usize) -> usize {
        self.offsets[i]
    }
}

/// A non-contiguous *view* of another tile set: local tile `i` is the
/// wrapped set's tile `tiles[i]`.
///
/// This is how binning/reordering schedules (e.g. Logarithmic Radix
/// Binning) present "the tiles of bin `b`" to an ordinary schedule
/// without copying any data. Not contiguous in general — merge-path
/// rejects it by contract; thread-, group- and queue-based schedules work
/// unmodified.
#[derive(Debug, Clone, Copy)]
pub struct SubsetTiles<'w, 's, W> {
    work: &'w W,
    tiles: &'s [u32],
    total_atoms: usize,
}

impl<'w, 's, W: TileSet> SubsetTiles<'w, 's, W> {
    /// View `tiles` (global tile ids) of `work` as a tile set.
    pub fn new(work: &'w W, tiles: &'s [u32]) -> Self {
        let total_atoms = tiles
            .iter()
            .map(|&t| work.atoms_in_tile(t as usize))
            .sum();
        Self {
            work,
            tiles,
            total_atoms,
        }
    }

    /// The global tile id of local tile `i`.
    pub fn global_tile(&self, i: usize) -> usize {
        self.tiles[i] as usize
    }
}

impl<W: TileSet> TileSet for SubsetTiles<'_, '_, W> {
    fn num_tiles(&self) -> usize {
        self.tiles.len()
    }
    fn num_atoms(&self) -> usize {
        self.total_atoms
    }
    #[inline]
    fn tile_atoms(&self, t: usize) -> Range<usize> {
        self.work.tile_atoms(self.tiles[t] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_tiles_exposes_offsets() {
        let offs = [0usize, 2, 2, 5];
        let w = SliceTiles::new(&offs);
        assert_eq!(w.num_tiles(), 3);
        assert_eq!(w.num_atoms(), 5);
        assert_eq!(w.tile_atoms(0), 0..2);
        assert_eq!(w.tile_atoms(1), 2..2);
        assert_eq!(w.atoms_in_tile(2), 3);
        assert!(w.validate());
    }

    #[test]
    fn counted_tiles_prefix_sums_counts() {
        let w = CountedTiles::from_counts([2, 0, 3]);
        assert_eq!(w.offsets(), &[0, 2, 2, 5]);
        assert_eq!(w.num_tiles(), 3);
        assert_eq!(w.num_atoms(), 5);
        assert_eq!(w.tile_atoms(2), 2..5);
        assert!(w.validate());
    }

    #[test]
    fn empty_tile_set() {
        let w = CountedTiles::from_counts(std::iter::empty());
        assert_eq!(w.num_tiles(), 0);
        assert_eq!(w.num_atoms(), 0);
        assert!(w.validate());
    }

    #[test]
    #[should_panic(expected = "start at zero")]
    fn slice_tiles_rejects_nonzero_start() {
        let offs = [1usize, 2];
        let _ = SliceTiles::new(&offs);
    }

    #[test]
    fn subset_tiles_view_maps_locals_to_globals() {
        let w = CountedTiles::from_counts([2, 0, 3, 1, 4]);
        let picks = [4u32, 0, 2];
        let s = SubsetTiles::new(&w, &picks);
        assert_eq!(s.num_tiles(), 3);
        assert_eq!(s.num_atoms(), 4 + 2 + 3);
        assert_eq!(s.tile_atoms(0), w.tile_atoms(4));
        assert_eq!(s.tile_atoms(1), w.tile_atoms(0));
        assert_eq!(s.global_tile(2), 2);
        // Permuted views are not contiguous (and say so).
        assert!(!s.is_contiguous());
        // The identity subset of a contiguous set stays contiguous.
        let all = [0u32, 1, 2, 3, 4];
        assert!(SubsetTiles::new(&w, &all).is_contiguous());
    }

    #[test]
    fn counted_and_slice_agree() {
        let counts = [4usize, 1, 0, 0, 7, 2];
        let counted = CountedTiles::from_counts(counts);
        let slice = SliceTiles::new(counted.offsets());
        for t in 0..counts.len() {
            assert_eq!(counted.tile_atoms(t), slice.tile_atoms(t));
        }
    }
}
