//! The memory block: a 1K×1K memristor crossbar that both stores and
//! computes.
//!
//! Functionally, a block is 1,024 rows of 32 words plus a row buffer;
//! row-parallel arithmetic applies one bit-serial operation to every row
//! of a range simultaneously (§4.1: "computations are performed inside
//! memristor cells in a row-parallel way"). Costs (time and energy) come
//! from [`crate::params`].
//!
//! # Storage layout: first-touch row tiles
//!
//! The 1,024 rows are split into 128 fixed tiles of [`TILE_ROWS`] = 8
//! rows. A tile holds all 32 columns column-major (`cells[col × 8 + r]`)
//! and is 64-byte aligned, so one column of a tile is exactly one cache
//! line. A row-parallel `Arith` names a fixed `(dst, a, b)` column
//! triple and a row range, so in every tile the range spans it touches
//! three contiguous column runs of ≤8 rows — the same shape as the
//! hardware's word-parallel bitlines. The per-op kernels below load
//! the runs into fixed 8-lane arrays, compute all lanes as one
//! straight vector loop and store the destination rows, which also
//! makes in-place shapes (`dst == a` or `dst == b`) safe. `Broadcast`
//! is a contiguous `fill` per word and tile.
//!
//! Tiles are allocated the first time anything *writes* them, from one
//! arena per block; a per-block `u8` slot table maps tile → arena
//! index. A tile that was never written reads as `0.0`, exactly like
//! the zero-filled crossbar it stands for. The paper's per-element
//! layout (§5.1, Fig. 5) reserves a whole crossbar per element but at
//! `n = 2` touches only the compute rows at the top and a few constants
//! rows from 512, so an element block holds two 2 KiB tiles instead of
//! 256 KiB of mostly-zero cells; LUT and math-table blocks fill all 128
//! tiles with no special case. Storage never feeds the cost model
//! (DESIGN §12), so the layout moves no simulated second or joule.
//!
//! The pre-layout scalar loop is retained as [`MemBlock::arith_scalar`]
//! and [`MemBlock::broadcast_scalar`] — the bit-exactness oracle the
//! kernel proptests compare against, and the whole engine when the
//! `scalar-oracle` feature is enabled (CI runs the full suite both
//! ways). Both engines share the tiled storage, so the row → tile
//! mapping itself is proptested against a flat 1,024 × 32 reference
//! model (`storage_tests` below).
//!
//! Note on precision: the functional model stores `f64` so the PIM
//! execution can be compared bit-for-bit against the native `f64` dG
//! solver; the *cost* model charges 32-bit operation prices throughout,
//! matching the paper's FP32 evaluation. Mapping correctness and numeric
//! precision are orthogonal concerns, and the tiled layout does not
//! couple them: it changes where a word lives, never what is stored in
//! it or what an operation on it is priced at.

use std::ops::Range;

use pim_isa::{AluOp, BLOCK_ROWS, WORDS_PER_ROW};

use crate::params;

/// Time and energy charged by one block operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    pub seconds: f64,
    pub joules: f64,
}

/// Rows per storage tile: one tile column is one 64-byte line of `f64`s.
pub const TILE_ROWS: usize = 8;

/// Tiles per block.
const TILES: usize = BLOCK_ROWS / TILE_ROWS;

/// Slot-table entry of a tile that was never written.
const NO_TILE: u8 = u8::MAX;

const _: () = assert!(TILES < NO_TILE as usize, "arena indices must fit the u8 slot table");

/// One tile column: [`TILE_ROWS`] rows of one word, one cache line.
type Column = [f64; TILE_ROWS];

/// [`TILE_ROWS`] rows × 32 columns, column-major: `cols[col][r]`.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
struct Tile([Column; WORDS_PER_ROW]);

/// `(tile, in-tile rows)` for each tile the rows `first..=last` span.
#[inline(always)]
fn tile_spans(first: usize, last: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    (first / TILE_ROWS..last / TILE_ROWS + 1).map(move |t| {
        let base = t * TILE_ROWS;
        (t, first.max(base) - base..last.min(base + TILE_ROWS - 1) - base + 1)
    })
}

/// One memory block.
///
/// `repr(C)` pins the field order: every op reads the arena pointer and
/// the slot table, so they lead the struct and share its first lines.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct MemBlock {
    /// Tile arena, in first-write order.
    tiles: Vec<Tile>,
    /// Tile → arena index, [`NO_TILE`] for a tile never written.
    slots: [u8; TILES],
    row_buffer: [f64; WORDS_PER_ROW],
}

impl Default for MemBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl MemBlock {
    /// Bytes of one storage tile.
    pub const TILE_BYTES: usize = std::mem::size_of::<Tile>();

    /// An all-zero block. Holds no tiles until something writes it.
    pub const fn new() -> Self {
        Self { tiles: Vec::new(), slots: [NO_TILE; TILES], row_buffer: [0.0; WORDS_PER_ROW] }
    }

    /// Bytes of cell storage this block has allocated (its tile arena).
    pub fn resident_bytes(&self) -> usize {
        self.tiles.capacity() * Self::TILE_BYTES
    }

    /// Reserves arena room for `tiles` tiles in all, for a writer that
    /// knows how many it will touch. Growing the arena later is an
    /// over-aligned reallocation: it copies into a new chunk and frees
    /// the old one, which is too small for any later tile's aligned
    /// allocation and so stays resident as a hole.
    pub fn reserve_tiles(&mut self, tiles: usize) {
        self.tiles.reserve_exact(tiles.saturating_sub(self.tiles.len()));
    }

    /// Distinct storage tiles the given rows fall in: the count a writer
    /// of exactly those rows passes to [`Self::reserve_tiles`].
    pub fn tiles_spanned(rows: impl IntoIterator<Item = usize>) -> usize {
        let mut hit = [false; TILES];
        for row in rows {
            hit[row / TILE_ROWS] = true;
        }
        hit.iter().filter(|&&h| h).count()
    }

    /// Arena index of tile `t`, allocating it zeroed on first touch.
    #[inline(always)]
    fn slot_mut(&mut self, t: usize) -> usize {
        match self.slots[t] {
            NO_TILE => self.alloc_tile(t),
            s => s as usize,
        }
    }

    #[cold]
    fn alloc_tile(&mut self, t: usize) -> usize {
        let s = self.tiles.len();
        self.tiles.push(Tile([[0.0; TILE_ROWS]; WORDS_PER_ROW]));
        self.slots[t] = s as u8;
        s
    }

    /// Word accessor (row 0..1024, col 0..32).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < BLOCK_ROWS && col < WORDS_PER_ROW);
        match self.slots[row / TILE_ROWS] {
            NO_TILE => 0.0,
            s => self.tiles[s as usize].0[col][row % TILE_ROWS],
        }
    }

    /// Word setter — host-side preload (DMA), not charged here.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < BLOCK_ROWS && col < WORDS_PER_ROW);
        let s = self.slot_mut(row / TILE_ROWS);
        self.tiles[s].0[col][row % TILE_ROWS] = value;
    }

    /// Current row-buffer contents.
    pub fn row_buffer(&self) -> &[f64; WORDS_PER_ROW] {
        &self.row_buffer
    }

    /// Overwrites the row buffer (used by inter-block copies).
    #[inline]
    pub fn load_row_buffer(&mut self, values: &[f64]) {
        assert!(values.len() <= WORDS_PER_ROW);
        self.row_buffer[..values.len()].copy_from_slice(values);
    }

    /// `Read`: cells → row buffer. One search per read.
    #[inline]
    pub fn read_to_buffer(&mut self, row: usize, offset: usize, words: usize) -> OpCost {
        assert!(offset + words <= WORDS_PER_ROW, "read crosses the row edge");
        let r = row % TILE_ROWS;
        match self.slots[row / TILE_ROWS] {
            NO_TILE => self.row_buffer[..words].fill(0.0),
            s => {
                let cols = &self.tiles[s as usize].0[offset..offset + words];
                for (w, col) in self.row_buffer[..words].iter_mut().zip(cols) {
                    *w = col[r];
                }
            }
        }
        OpCost { seconds: params::T_SEARCH, joules: params::E_SEARCH }
    }

    /// `Write`: row buffer → cells. Each bit pays the average of set and
    /// reset energy; the write takes one set plus one reset phase.
    #[inline]
    pub fn write_from_buffer(&mut self, row: usize, offset: usize, words: usize) -> OpCost {
        assert!(offset + words <= WORDS_PER_ROW, "write crosses the row edge");
        // A zero-word write stores nothing, so it allocates no tile.
        if words > 0 {
            let r = row % TILE_ROWS;
            let s = self.slot_mut(row / TILE_ROWS);
            let cols = &mut self.tiles[s].0[offset..offset + words];
            for (col, &w) in cols.iter_mut().zip(&self.row_buffer[..words]) {
                col[r] = w;
            }
        }
        let bits = (words * 32) as f64;
        OpCost {
            seconds: 2.0 * params::T_SEARCH,
            joules: bits * 0.5 * (params::E_SET + params::E_RESET),
        }
    }

    /// `Broadcast`: row buffer replicated into rows
    /// `dst_first..=dst_last` at `offset` — the constants distribution of
    /// the paper's Fig. 5 ("constants need to be copied to the scratchpad
    /// and broadcast to the first 512 rows before the computation
    /// begins"). Every destination row pays a write.
    ///
    /// Each destination word is one contiguous `fill` per tile the row
    /// range spans.
    pub fn broadcast(
        &mut self,
        dst_first: usize,
        dst_last: usize,
        offset: usize,
        words: usize,
    ) -> OpCost {
        assert!(dst_first <= dst_last && dst_last < BLOCK_ROWS, "bad broadcast range");
        assert!(offset + words <= WORDS_PER_ROW, "broadcast crosses the row edge");
        #[cfg(feature = "scalar-oracle")]
        self.broadcast_cells_scalar(dst_first, dst_last, offset, words);
        #[cfg(not(feature = "scalar-oracle"))]
        if words > 0 {
            for (t, rows) in tile_spans(dst_first, dst_last) {
                let s = self.slot_mut(t);
                let cols = &mut self.tiles[s].0;
                for w in 0..words {
                    cols[offset + w][rows.clone()].fill(self.row_buffer[w]);
                }
            }
        }
        let rows = (dst_last - dst_first + 1) as f64;
        let bits = (words * 32) as f64;
        OpCost {
            seconds: rows * 2.0 * params::T_SEARCH,
            joules: rows * bits * 0.5 * (params::E_SET + params::E_RESET),
        }
    }

    /// `Arith`: row-parallel `dst ← a op b` over `first_row..=last_row`.
    /// Every selected row computes simultaneously, so the *time* is one
    /// bit-serial pass regardless of the row count — that is the PIM's
    /// parallelism — while the *energy* scales with the rows touched.
    #[inline]
    pub fn arith(
        &mut self,
        op: AluOp,
        first_row: usize,
        last_row: usize,
        dst: usize,
        a: usize,
        b: usize,
    ) -> OpCost {
        assert!(first_row <= last_row && last_row < BLOCK_ROWS, "bad row range");
        assert!(dst < WORDS_PER_ROW && a < WORDS_PER_ROW && b < WORDS_PER_ROW);
        #[cfg(feature = "scalar-oracle")]
        self.arith_cells_scalar(op, first_row, last_row, dst, a, b);
        #[cfg(not(feature = "scalar-oracle"))]
        self.arith_cells_vector(op, first_row, last_row, dst, a, b);
        let rows = (last_row - first_row + 1) as u64;
        OpCost {
            seconds: params::nor_seconds(params::alu_cycles(op)),
            joules: params::alu_energy(op, rows),
        }
    }

    /// The word-parallel data pass: one tile kernel per [`AluOp`].
    /// `Mac` rounds twice (mul then add), exactly like the scalar
    /// oracle — no `mul_add`, which would fuse them.
    fn arith_cells_vector(
        &mut self,
        op: AluOp,
        first_row: usize,
        last_row: usize,
        dst: usize,
        a: usize,
        b: usize,
    ) {
        let (r0, r1) = (first_row, last_row);
        match op {
            AluOp::Add => self.arith_tiles(r0, r1, dst, a, b, |x, y, _| x + y),
            AluOp::Sub => self.arith_tiles(r0, r1, dst, a, b, |x, y, _| x - y),
            AluOp::Mul => self.arith_tiles(r0, r1, dst, a, b, |x, y, _| x * y),
            AluOp::Mac => self.arith_tiles(r0, r1, dst, a, b, |x, y, acc| x * y + acc),
            AluOp::Neg => self.arith_tiles(r0, r1, dst, a, b, |x, _, _| -x),
            AluOp::Mov => self.arith_tiles(r0, r1, dst, a, b, |x, _, _| x),
        }
    }

    /// Stores `f(x, y, d)` of the `(a, b, dst)` columns into `dst` over
    /// every tile `first_row..=last_row` spans, allocating the tiles it
    /// writes. Each tile's three columns are copied into fixed
    /// [`Column`] arrays before anything is stored, so `dst` may name
    /// either operand: in-place shapes (`s ← s·z`, `zero`) are about
    /// half of the Ariths the compilers emit. The kernel always computes
    /// all [`TILE_ROWS`] lanes, a fixed-width loop that vectorizes
    /// without alias checks, and stores only the rows in range.
    #[inline(always)]
    fn arith_tiles(
        &mut self,
        first_row: usize,
        last_row: usize,
        dst: usize,
        a: usize,
        b: usize,
        f: impl Fn(f64, f64, f64) -> f64,
    ) {
        let lanes = |cols: &[Column; WORDS_PER_ROW]| -> Column {
            let (x, y, d) = (cols[a], cols[b], cols[dst]);
            std::array::from_fn(|i| f(x[i], y[i], d[i]))
        };
        // A range of exactly one whole tile — every Arith the compilers
        // emit at n = 2 — stores the whole column.
        if first_row.is_multiple_of(TILE_ROWS) && last_row == first_row + TILE_ROWS - 1 {
            let s = self.slot_mut(first_row / TILE_ROWS);
            let cols = &mut self.tiles[s].0;
            cols[dst] = lanes(cols);
            return;
        }
        for (t, rows) in tile_spans(first_row, last_row) {
            let s = self.slot_mut(t);
            let cols = &mut self.tiles[s].0;
            let out = lanes(cols);
            for r in rows {
                cols[dst][r] = out[r];
            }
        }
    }

    /// The pre-vectorization row-at-a-time data pass, kept as the
    /// bit-exactness oracle.
    #[cfg(any(test, feature = "scalar-oracle"))]
    fn arith_cells_scalar(
        &mut self,
        op: AluOp,
        first_row: usize,
        last_row: usize,
        dst: usize,
        a: usize,
        b: usize,
    ) {
        for row in first_row..=last_row {
            let x = self.get(row, a);
            let y = self.get(row, b);
            let r = match op {
                AluOp::Add => x + y,
                AluOp::Sub => x - y,
                AluOp::Mul => x * y,
                AluOp::Mac => x * y + self.get(row, dst),
                AluOp::Neg => -x,
                AluOp::Mov => x,
            };
            self.set(row, dst, r);
        }
    }

    /// Scalar broadcast data pass (oracle / `scalar-oracle` engine).
    #[cfg(any(test, feature = "scalar-oracle"))]
    fn broadcast_cells_scalar(
        &mut self,
        dst_first: usize,
        dst_last: usize,
        offset: usize,
        words: usize,
    ) {
        for row in dst_first..=dst_last {
            for w in 0..words {
                self.set(row, offset + w, self.row_buffer[w]);
            }
        }
    }

    /// `Arith` through the retained scalar loop, with the same cost
    /// accounting as [`Self::arith`] — the oracle the vectorized engine
    /// is proptested bit-identical against.
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn arith_scalar(
        &mut self,
        op: AluOp,
        first_row: usize,
        last_row: usize,
        dst: usize,
        a: usize,
        b: usize,
    ) -> OpCost {
        assert!(first_row <= last_row && last_row < BLOCK_ROWS, "bad row range");
        assert!(dst < WORDS_PER_ROW && a < WORDS_PER_ROW && b < WORDS_PER_ROW);
        self.arith_cells_scalar(op, first_row, last_row, dst, a, b);
        let rows = (last_row - first_row + 1) as u64;
        OpCost {
            seconds: params::nor_seconds(params::alu_cycles(op)),
            joules: params::alu_energy(op, rows),
        }
    }

    /// `Broadcast` through the retained scalar loop (oracle twin of
    /// [`Self::broadcast`]).
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn broadcast_scalar(
        &mut self,
        dst_first: usize,
        dst_last: usize,
        offset: usize,
        words: usize,
    ) -> OpCost {
        assert!(dst_first <= dst_last && dst_last < BLOCK_ROWS, "bad broadcast range");
        assert!(offset + words <= WORDS_PER_ROW, "broadcast crosses the row edge");
        self.broadcast_cells_scalar(dst_first, dst_last, offset, words);
        let rows = (dst_last - dst_first + 1) as f64;
        let bits = (words * 32) as f64;
        OpCost {
            seconds: rows * 2.0 * params::T_SEARCH,
            joules: rows * bits * 0.5 * (params::E_SET + params::E_RESET),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip_via_buffer() {
        let mut b = MemBlock::new();
        b.set(3, 5, 1.25);
        b.set(3, 6, -2.5);
        let c1 = b.read_to_buffer(3, 5, 2);
        assert_eq!(b.row_buffer()[0], 1.25);
        assert_eq!(b.row_buffer()[1], -2.5);
        let c2 = b.write_from_buffer(10, 0, 2);
        assert_eq!(b.get(10, 0), 1.25);
        assert_eq!(b.get(10, 1), -2.5);
        assert!(c1.seconds > 0.0 && c1.joules > 0.0);
        assert!(c2.seconds > c1.seconds, "writes are slower than reads");
    }

    #[test]
    fn broadcast_replicates_and_charges_per_row() {
        let mut b = MemBlock::new();
        b.load_row_buffer(&[7.0, 8.0]);
        let c = b.broadcast(0, 511, 30, 2);
        for row in 0..512 {
            assert_eq!(b.get(row, 30), 7.0);
            assert_eq!(b.get(row, 31), 8.0);
        }
        assert_eq!(b.get(512, 30), 0.0, "rows beyond the range untouched");
        let single = b.broadcast(0, 0, 0, 2);
        assert!((c.joules / single.joules - 512.0).abs() < 1e-9);
    }

    #[test]
    fn arith_is_row_parallel_in_time_not_energy() {
        let mut b = MemBlock::new();
        for row in 0..512 {
            b.set(row, 0, row as f64);
            b.set(row, 1, 2.0);
        }
        let many = b.arith(AluOp::Mul, 0, 511, 2, 0, 1);
        for row in 0..512 {
            assert_eq!(b.get(row, 2), row as f64 * 2.0);
        }
        let mut b2 = MemBlock::new();
        let one = b2.arith(AluOp::Mul, 0, 0, 2, 0, 1);
        assert_eq!(many.seconds, one.seconds, "time independent of rows");
        assert!((many.joules / one.joules - 512.0).abs() < 1e-9, "energy scales with rows");
    }

    #[test]
    fn all_alu_ops_compute_correctly() {
        let mut b = MemBlock::new();
        b.set(0, 0, 6.0);
        b.set(0, 1, -2.0);
        b.set(0, 2, 10.0); // pre-existing dst for MAC
        b.arith(AluOp::Add, 0, 0, 3, 0, 1);
        assert_eq!(b.get(0, 3), 4.0);
        b.arith(AluOp::Sub, 0, 0, 3, 0, 1);
        assert_eq!(b.get(0, 3), 8.0);
        b.arith(AluOp::Mul, 0, 0, 3, 0, 1);
        assert_eq!(b.get(0, 3), -12.0);
        b.arith(AluOp::Mac, 0, 0, 2, 0, 1);
        assert_eq!(b.get(0, 2), -2.0); // 10 + 6·(−2)
        b.arith(AluOp::Neg, 0, 0, 3, 0, 1);
        assert_eq!(b.get(0, 3), -6.0);
        b.arith(AluOp::Mov, 0, 0, 3, 1, 0);
        assert_eq!(b.get(0, 3), -2.0);
    }

    #[test]
    fn aliased_destination_matches_the_scalar_semantics() {
        // dst == a, dst == b and dst == a == b: the tile kernel loads
        // every operand before it stores, so the results must match a
        // hand-computed row loop.
        let mut b = MemBlock::new();
        for row in 0..8 {
            b.set(row, 0, row as f64 + 1.0);
            b.set(row, 1, 3.0);
        }
        b.arith(AluOp::Mul, 0, 7, 0, 0, 1); // dst == a
        for row in 0..8 {
            assert_eq!(b.get(row, 0), (row as f64 + 1.0) * 3.0);
        }
        b.arith(AluOp::Add, 0, 7, 1, 0, 1); // dst == b
        for row in 0..8 {
            assert_eq!(b.get(row, 1), (row as f64 + 1.0) * 3.0 + 3.0);
        }
        b.arith(AluOp::Mac, 0, 7, 1, 1, 1); // dst == a == b
        for row in 0..8 {
            let v = (row as f64 + 1.0) * 3.0 + 3.0;
            assert_eq!(b.get(row, 1), v * v + v);
        }
    }

    #[test]
    fn mul_costs_more_time_than_add() {
        let mut b = MemBlock::new();
        let add = b.arith(AluOp::Add, 0, 0, 2, 0, 1);
        let mul = b.arith(AluOp::Mul, 0, 0, 2, 0, 1);
        let mac = b.arith(AluOp::Mac, 0, 0, 2, 0, 1);
        assert!(mul.seconds > add.seconds);
        assert!(mac.seconds > mul.seconds);
    }

    #[test]
    #[should_panic(expected = "crosses the row edge")]
    fn read_past_row_edge_panics() {
        let mut b = MemBlock::new();
        let _ = b.read_to_buffer(0, 31, 2);
    }

    #[test]
    #[should_panic(expected = "bad row range")]
    fn arith_bad_range_panics() {
        let mut b = MemBlock::new();
        let _ = b.arith(AluOp::Add, 5, 4, 0, 1, 2);
    }
}

#[cfg(test)]
mod oracle_tests {
    //! The vectorized kernels against the retained scalar oracle: for
    //! every [`AluOp`], arbitrary row ranges, arbitrary (including
    //! aliased) column triples, and payloads spanning NaNs, ±inf,
    //! denormals and negative zero, the two engines must agree *bit for
    //! bit* — same cell contents, same cost.

    use super::*;
    use proptest::collection::vec as prop_vec;
    use proptest::prelude::*;

    /// Payload strategy biased toward the IEEE edge cases a wave kernel
    /// never produces but a malformed program might (the finite arm is
    /// repeated to weight it; the shimmed `prop_oneof!` picks uniformly).
    pub(super) fn arb_payload() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1.0e3f64..1.0e3,
            -1.0e3f64..1.0e3,
            -1.0e3f64..1.0e3,
            -1.0e3f64..1.0e3,
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE / 8.0), // denormal
            Just(-f64::MIN_POSITIVE / 2.0),
            Just(-0.0f64),
            Just(1.0e308f64), // overflow fodder for Mul/Mac
        ]
    }

    pub(super) fn arb_op() -> impl Strategy<Value = AluOp> {
        (0usize..AluOp::ALL.len()).prop_map(|i| AluOp::ALL[i])
    }

    /// Bit-exact comparison over the whole crossbar, NaN payloads
    /// included.
    fn assert_blocks_bit_identical(v: &MemBlock, s: &MemBlock) {
        for col in 0..WORDS_PER_ROW {
            for row in 0..BLOCK_ROWS {
                let (a, b) = (v.get(row, col), s.get(row, col));
                assert!(
                    a.to_bits() == b.to_bits(),
                    "vector {a:?} != scalar {b:?} at (row {row}, col {col})"
                );
            }
        }
    }

    /// The kernel shapes a uniform row and column draw almost never
    /// produces, pinned: one whole tile, the three in-place aliasings,
    /// and ranges over several tiles with partial ends, for every
    /// [`AluOp`] over NaN, ±inf, denormal and overflow payloads.
    #[test]
    fn pinned_kernel_shapes_match_scalar_oracle() {
        let payloads = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 2.0,
            -0.0,
            1.0e308,
            1.5,
            -3.25,
            0.1,
        ];
        // (name, first_row, last_row, dst, a, b)
        let shapes = [
            ("full tile", 8, 15, 5, 0, 1),
            ("full tile, dst == a", 8, 15, 0, 0, 1),
            ("full tile, dst == b", 8, 15, 1, 0, 1),
            ("full tile, dst == a == b", 8, 15, 2, 2, 2),
            ("partial tile, dst == a == b", 2, 5, 2, 2, 2),
            ("multi-tile, partial ends", 3, 29, 5, 0, 1),
            ("multi-tile, dst == a", 3, 29, 0, 0, 1),
            ("multi-tile, dst == b", 3, 29, 1, 0, 1),
            ("multi-tile, whole tiles, dst == a == b", 0, 31, 2, 2, 2),
        ];
        for op in AluOp::ALL {
            for (name, first, last, dst, a, b) in shapes {
                let mut vec_b = MemBlock::new();
                for row in 0..40 {
                    for col in 0..6 {
                        vec_b.set(row, col, payloads[(row * 7 + col * 3) % payloads.len()]);
                    }
                }
                let mut sca_b = vec_b.clone();
                vec_b.arith_cells_vector(op, first, last, dst, a, b);
                sca_b.arith_cells_scalar(op, first, last, dst, a, b);
                for row in 0..BLOCK_ROWS {
                    for col in 0..WORDS_PER_ROW {
                        let (v, s) = (vec_b.get(row, col), sca_b.get(row, col));
                        assert!(
                            v.to_bits() == s.to_bits(),
                            "{op:?} {name}: vector {v:?} != scalar {s:?} at (row {row}, col {col})"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arith_vector_matches_scalar_oracle(
            op in arb_op(),
            r0 in 0usize..BLOCK_ROWS,
            len in 0usize..BLOCK_ROWS,
            dst in 0usize..WORDS_PER_ROW,
            a in 0usize..WORDS_PER_ROW,
            b in 0usize..WORDS_PER_ROW,
            payload in prop_vec(arb_payload(), 64),
        ) {
            let r1 = (r0 + len).min(BLOCK_ROWS - 1);
            let mut vec_b = MemBlock::new();
            for (i, &v) in payload.iter().enumerate() {
                let row = (r0 + i * 17) % BLOCK_ROWS;
                vec_b.set(row, (i * 7) % WORDS_PER_ROW, v);
            }
            let mut sca_b = vec_b.clone();
            vec_b.arith_cells_vector(op, r0, r1, dst, a, b);
            sca_b.arith_cells_scalar(op, r0, r1, dst, a, b);
            assert_blocks_bit_identical(&vec_b, &sca_b);
        }

        #[test]
        fn arith_public_entry_matches_scalar_cost_and_cells(
            op in arb_op(),
            r0 in 0usize..BLOCK_ROWS,
            len in 0usize..64,
            payload in prop_vec(arb_payload(), 16),
        ) {
            let r1 = (r0 + len).min(BLOCK_ROWS - 1);
            let mut vec_b = MemBlock::new();
            for (i, &v) in payload.iter().enumerate() {
                vec_b.set((r0 + i) % BLOCK_ROWS, i % WORDS_PER_ROW, v);
            }
            let mut sca_b = vec_b.clone();
            let cv = vec_b.arith(op, r0, r1, 5, 0, 1);
            let cs = sca_b.arith_scalar(op, r0, r1, 5, 0, 1);
            prop_assert_eq!(cv, cs, "cost model must not depend on the engine");
            assert_blocks_bit_identical(&vec_b, &sca_b);
        }

        #[test]
        fn broadcast_vector_matches_scalar_oracle(
            r0 in 0usize..BLOCK_ROWS,
            len in 0usize..BLOCK_ROWS,
            offset in 0usize..WORDS_PER_ROW,
            words in 0usize..WORDS_PER_ROW,
            buffer in prop_vec(arb_payload(), WORDS_PER_ROW),
        ) {
            let r1 = (r0 + len).min(BLOCK_ROWS - 1);
            let words = words.min(WORDS_PER_ROW - offset).max(1);
            let mut vec_b = MemBlock::new();
            vec_b.load_row_buffer(&buffer);
            let mut sca_b = vec_b.clone();
            let cv = vec_b.broadcast(r0, r1, offset, words);
            let cs = sca_b.broadcast_scalar(r0, r1, offset, words);
            prop_assert_eq!(cv, cs);
            assert_blocks_bit_identical(&vec_b, &sca_b);
        }
    }
}

#[cfg(test)]
mod storage_tests {
    //! The tiled storage against a flat, row-major 1,024 × 32 reference
    //! crossbar. Both engines share the tiles, so the scalar oracle
    //! cannot catch a wrong row → tile mapping; this model can. Random
    //! op sequences mix host writes, row-buffer reads and writes,
    //! broadcasts and arithmetic over ranges that cross tile edges, read
    //! tiles nothing ever wrote, and fill whole tables; after every op
    //! the cells must match bit for bit and the costs exactly.

    use super::oracle_tests::{arb_op, arb_payload};
    use super::*;
    use proptest::collection::vec as prop_vec;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Set {
            row: usize,
            col: usize,
            value: f64,
        },
        Read {
            row: usize,
            offset: usize,
            words: usize,
        },
        Write {
            row: usize,
            offset: usize,
            words: usize,
        },
        Broadcast {
            first: usize,
            last: usize,
            offset: usize,
            words: usize,
        },
        Arith {
            op: AluOp,
            first: usize,
            last: usize,
            dst: usize,
            a: usize,
            b: usize,
        },
        /// All 32K words, as a LUT or math-table preload writes them.
        FillTable {
            scale: f64,
        },
    }

    /// The pre-tile crossbar: every cell present, zero until written.
    struct Flat {
        cells: Vec<f64>,
        buffer: [f64; WORDS_PER_ROW],
        /// Which tiles any op has written (the tiles the block should
        /// hold — and only those).
        written: [bool; TILES],
    }

    impl Flat {
        fn new() -> Self {
            Self {
                cells: vec![0.0; BLOCK_ROWS * WORDS_PER_ROW],
                buffer: [0.0; WORDS_PER_ROW],
                written: [false; TILES],
            }
        }

        fn cell(&mut self, row: usize, col: usize) -> &mut f64 {
            self.written[row / TILE_ROWS] = true;
            &mut self.cells[row * WORDS_PER_ROW + col]
        }

        /// Applies `op` and returns the cost the paper's model charges
        /// for it (`None` for uncharged host preloads).
        fn apply(&mut self, op: &Op) -> Option<OpCost> {
            let write_joules = |bits: f64| bits * 0.5 * (params::E_SET + params::E_RESET);
            match *op {
                Op::Set { row, col, value } => *self.cell(row, col) = value,
                Op::Read { row, offset, words } => {
                    for w in 0..words {
                        self.buffer[w] = self.cells[row * WORDS_PER_ROW + offset + w];
                    }
                    return Some(OpCost { seconds: params::T_SEARCH, joules: params::E_SEARCH });
                }
                Op::Write { row, offset, words } => {
                    for w in 0..words {
                        *self.cell(row, offset + w) = self.buffer[w];
                    }
                    return Some(OpCost {
                        seconds: 2.0 * params::T_SEARCH,
                        joules: write_joules((words * 32) as f64),
                    });
                }
                Op::Broadcast { first, last, offset, words } => {
                    for row in first..=last {
                        for w in 0..words {
                            *self.cell(row, offset + w) = self.buffer[w];
                        }
                    }
                    let rows = (last - first + 1) as f64;
                    return Some(OpCost {
                        seconds: rows * 2.0 * params::T_SEARCH,
                        joules: write_joules(rows * (words * 32) as f64),
                    });
                }
                Op::Arith { op, first, last, dst, a, b } => {
                    for row in first..=last {
                        let at = |c: usize| self.cells[row * WORDS_PER_ROW + c];
                        let (x, y, d) = (at(a), at(b), at(dst));
                        *self.cell(row, dst) = match op {
                            AluOp::Add => x + y,
                            AluOp::Sub => x - y,
                            AluOp::Mul => x * y,
                            AluOp::Mac => x * y + d,
                            AluOp::Neg => -x,
                            AluOp::Mov => x,
                        };
                    }
                    return Some(OpCost {
                        seconds: params::nor_seconds(params::alu_cycles(op)),
                        joules: params::alu_energy(op, (last - first + 1) as u64),
                    });
                }
                Op::FillTable { scale } => {
                    for i in 0..BLOCK_ROWS * WORDS_PER_ROW {
                        *self.cell(i / WORDS_PER_ROW, i % WORDS_PER_ROW) = fill_value(i, scale);
                    }
                }
            }
            None
        }
    }

    fn fill_value(i: usize, scale: f64) -> f64 {
        (i as f64 - 16384.0) * scale
    }

    fn apply(block: &mut MemBlock, op: &Op) -> Option<OpCost> {
        match *op {
            Op::Set { row, col, value } => block.set(row, col, value),
            Op::Read { row, offset, words } => {
                return Some(block.read_to_buffer(row, offset, words))
            }
            Op::Write { row, offset, words } => {
                return Some(block.write_from_buffer(row, offset, words));
            }
            Op::Broadcast { first, last, offset, words } => {
                return Some(block.broadcast(first, last, offset, words));
            }
            Op::Arith { op, first, last, dst, a, b } => {
                return Some(block.arith(op, first, last, dst, a, b));
            }
            Op::FillTable { scale } => {
                for i in 0..BLOCK_ROWS * WORDS_PER_ROW {
                    block.set(i / WORDS_PER_ROW, i % WORDS_PER_ROW, fill_value(i, scale));
                }
            }
        }
        None
    }

    /// Rows concentrated on the tiles a per-element mapping uses (the
    /// compute rows from 0 and the constants rows from 512, each pair
    /// straddling a tile edge), plus anywhere in the crossbar.
    fn arb_row() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..2 * TILE_ROWS, 512usize..512 + 2 * TILE_ROWS, 0usize..BLOCK_ROWS]
    }

    /// `first..=last` ranges: short ones that often cross one tile edge,
    /// and long ones that cross many.
    fn arb_range() -> impl Strategy<Value = (usize, usize)> {
        prop_oneof![
            (arb_row(), 0usize..2 * TILE_ROWS),
            (arb_row(), 0usize..2 * TILE_ROWS),
            (0usize..BLOCK_ROWS, 0usize..BLOCK_ROWS),
        ]
        .prop_map(|(first, len)| (first, (first + len).min(BLOCK_ROWS - 1)))
    }

    /// `(offset, words)` within one row.
    fn arb_words() -> impl Strategy<Value = (usize, usize)> {
        (0usize..WORDS_PER_ROW, 0usize..=WORDS_PER_ROW)
            .prop_map(|(offset, words)| (offset, words.min(WORDS_PER_ROW - offset)))
    }

    fn arb_col() -> impl Strategy<Value = usize> {
        0usize..WORDS_PER_ROW
    }

    fn arb_set() -> impl Strategy<Value = Op> {
        (arb_row(), arb_col(), arb_payload()).prop_map(|(row, col, value)| Op::Set {
            row,
            col,
            value,
        })
    }

    fn arb_read(rows: impl Strategy<Value = usize>) -> impl Strategy<Value = Op> {
        (rows, arb_words()).prop_map(|(row, (offset, words))| Op::Read { row, offset, words })
    }

    fn arb_arith() -> impl Strategy<Value = Op> {
        (arb_op(), arb_range(), arb_col(), arb_col(), arb_col())
            .prop_map(|(op, (first, last), dst, a, b)| Op::Arith { op, first, last, dst, a, b })
    }

    /// Repeated arms weight the uniform `prop_oneof!`: host writes and
    /// arithmetic fill tiles, and the uniform-row read mostly lands on
    /// tiles nothing wrote.
    fn arb_storage_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_set(),
            arb_set(),
            arb_read(arb_row()),
            arb_read(0usize..BLOCK_ROWS),
            (arb_row(), arb_words()).prop_map(|(row, (offset, words))| Op::Write {
                row,
                offset,
                words
            }),
            (arb_range(), arb_words()).prop_map(|((first, last), (offset, words))| {
                Op::Broadcast { first, last, offset, words }
            }),
            arb_arith(),
            arb_arith(),
        ]
    }

    fn assert_matches_reference(block: &MemBlock, flat: &Flat, step: usize, op: &Op) {
        for row in 0..BLOCK_ROWS {
            for col in 0..WORDS_PER_ROW {
                let (got, want) = (block.get(row, col), flat.cells[row * WORDS_PER_ROW + col]);
                assert!(
                    got.to_bits() == want.to_bits(),
                    "after op {step} ({op:?}): cell (row {row}, col {col}) is {got:?}, \
                     the flat reference holds {want:?}"
                );
            }
        }
        for (w, (got, want)) in block.row_buffer().iter().zip(&flat.buffer).enumerate() {
            assert!(got.to_bits() == want.to_bits(), "after op {step} ({op:?}): buffer word {w}");
        }
        let expected = flat.written.iter().filter(|&&w| w).count();
        assert_eq!(block.tiles.len(), expected, "after op {step} ({op:?}): tiles held");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tiled_storage_matches_a_flat_crossbar(
            ops in prop_vec(arb_storage_op(), 1..24),
            fill in 0usize..3,
            fill_at in 0usize..24,
            scale in prop_oneof![Just(0.5f64), Just(-0.25f64), Just(1.0e-300f64)],
        ) {
            let mut ops = ops;
            // One case in three fills the whole crossbar somewhere in
            // the sequence, the way a LUT or math-table preload does.
            if fill == 0 {
                ops.insert(fill_at.min(ops.len()), Op::FillTable { scale });
            }
            let mut block = MemBlock::new();
            let mut flat = Flat::new();
            for (step, op) in ops.iter().enumerate() {
                let got = apply(&mut block, op);
                let want = flat.apply(op);
                prop_assert_eq!(got, want, "cost of op {} ({:?})", step, op);
                assert_matches_reference(&block, &flat, step, op);
            }
        }
    }

    #[test]
    fn reserved_tiles_fill_without_growing_the_arena() {
        let mut block = MemBlock::new();
        block.reserve_tiles(2);
        assert_eq!(block.resident_bytes(), 2 * MemBlock::TILE_BYTES);
        block.set(0, 0, 1.0);
        let arena = block.tiles.as_ptr();
        block.set(512, 0, 2.0);
        assert_eq!(block.tiles.as_ptr(), arena, "the second tile fits the reserve");
        block.reserve_tiles(2);
        assert_eq!(block.resident_bytes(), 2 * MemBlock::TILE_BYTES);
        assert_eq!((block.get(0, 0), block.get(512, 0)), (1.0, 2.0));
    }

    #[test]
    fn resident_bytes_count_written_tiles_only() {
        let mut block = MemBlock::new();
        let _ = block.read_to_buffer(700, 0, WORDS_PER_ROW);
        assert_eq!(block.resident_bytes(), 0, "reads allocate nothing");
        block.set(7, 0, 1.0);
        block.set(8, 0, 1.0);
        assert_eq!(
            block.resident_bytes(),
            2 * MemBlock::TILE_BYTES,
            "rows 7 and 8 straddle a tile edge"
        );
        for i in 0..BLOCK_ROWS * WORDS_PER_ROW {
            block.set(i / WORDS_PER_ROW, i % WORDS_PER_ROW, i as f64);
        }
        assert_eq!(block.resident_bytes(), TILES * MemBlock::TILE_BYTES);
        assert_eq!(MemBlock::TILE_BYTES, TILE_ROWS * WORDS_PER_ROW * 8);
    }
}
