//! Inter-block interconnects: H-tree and Bus (§4.2, Fig. 3).
//!
//! The H-tree gives every tile a 4-ary switch tree over its 256 blocks
//! (64 + 16 + 4 + 1 = 85 switches, §4.2.2); transfers whose paths share
//! no switch proceed in parallel. The bus replaces all of that with one
//! central switch: lower static power, but "only one data path can be
//! enabled", so concurrent transfers serialize.
//!
//! Transfers between tiles route through the tiles' root switches and the
//! central controller, which is modeled as one shared chip-level resource.

use pim_isa::{BlockId, BLOCKS_PER_TILE};

use crate::params::{CLOCK_HZ, HOP_ENERGY_PER_WORD, LINK_BITS_PER_CYCLE};

/// Which interconnect a chip uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum InterconnectKind {
    HTree,
    Bus,
}

impl InterconnectKind {
    pub fn name(self) -> &'static str {
        match self {
            InterconnectKind::HTree => "H-tree",
            InterconnectKind::Bus => "Bus",
        }
    }
}

/// One inter-block data movement of `words` 32-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub src: BlockId,
    pub dst: BlockId,
    pub words: u32,
}

/// A switch (or the chip-level router) occupied by a routed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// Switch `index` at `level` within `tile` (level 0 nearest the
    /// blocks).
    Switch { tile: u32, level: u8, index: u32 },
    /// The single chip-level router connecting tile roots.
    ChipRouter,
    /// The single bus switch of a tile.
    TileBus { tile: u32 },
}

/// Result of scheduling a batch of transfers that are ready at time 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// When the last transfer finishes (seconds).
    pub makespan: f64,
    /// Switch energy of all transfers (joules).
    pub energy: f64,
    /// Per-transfer completion times, in input order.
    pub finish_times: Vec<f64>,
}

/// Most switch levels an H-tree over one tile can have (fanout 2).
const MAX_LEVELS: usize = BLOCKS_PER_TILE.trailing_zeros() as usize;

/// The longest path any transfer takes: both full fanout-2 trees plus
/// the chip router.
pub(crate) const MAX_HOPS: usize = 2 * MAX_LEVELS + 1;

/// Common behavior of the two interconnects.
pub trait Interconnect {
    /// Calls `hop` on each resource (switch) a transfer occupies, in
    /// path order. The interpreter maps the hops straight to timeline
    /// slots instead of materializing a path per `Copy`/`Lut`.
    fn for_each_hop(&self, src: BlockId, dst: BlockId, hop: impl FnMut(Resource));

    /// Path length of a transfer, without materializing the path.
    fn hops(&self, src: BlockId, dst: BlockId) -> usize;

    /// The resources (switches) a transfer occupies, in path order.
    fn route(&self, src: BlockId, dst: BlockId) -> Vec<Resource> {
        let mut out = Vec::new();
        self.for_each_hop(src, dst, |r| out.push(r));
        out
    }

    /// Seconds a transfer occupies each switch on its path. Switches are
    /// cut-through: the payload streams through the whole path, so the
    /// occupancy is the serialization time of the payload on one link,
    /// independent of hop count (hop latency is a couple of cycles and is
    /// absorbed into the occupancy of the paper-scale payloads).
    fn duration(&self, transfer: &Transfer) -> f64 {
        let bits = transfer.words as u64 * 32;
        let cycles = bits.div_ceil(LINK_BITS_PER_CYCLE).max(1);
        cycles as f64 / CLOCK_HZ
    }

    /// Switch energy of one transfer: every word pays every hop.
    fn energy(&self, transfer: &Transfer) -> f64 {
        self.energy_with_hops(transfer, self.hops(transfer.src, transfer.dst))
    }

    /// [`Self::energy`] with the hop count already known (the hot path
    /// has just routed the transfer, so it passes the path length along
    /// rather than re-deriving the route).
    fn energy_with_hops(&self, transfer: &Transfer, hops: usize) -> f64 {
        let hops = hops.max(1) as f64;
        transfer.words as f64 * hops * HOP_ENERGY_PER_WORD
    }

    /// Greedy list-scheduling of a batch of transfers, honoring resource
    /// conflicts: a transfer starts when every switch on its path is free.
    fn schedule(&self, transfers: &[Transfer]) -> Schedule {
        use std::collections::HashMap;
        let mut free_at: HashMap<Resource, f64> = HashMap::new();
        let mut finish_times = Vec::with_capacity(transfers.len());
        let mut makespan = 0.0f64;
        let mut energy = 0.0;
        for t in transfers {
            let path = self.route(t.src, t.dst);
            let start =
                path.iter().map(|r| free_at.get(r).copied().unwrap_or(0.0)).fold(0.0f64, f64::max);
            let finish = start + self.duration(t);
            for r in path {
                free_at.insert(r, finish);
            }
            energy += self.energy(t);
            finish_times.push(finish);
            makespan = makespan.max(finish);
        }
        Schedule { makespan, energy, finish_times }
    }
}

/// The H-tree network: a `fanout`-ary switch tree per tile.
///
/// The fanout is a power of two, so every switch index is a shift of
/// the block's within-tile index and every dense slot is a table
/// lookup: routing takes no division, power or per-level loop.
#[derive(Debug, Clone)]
pub struct HTreeNetwork {
    /// `log2(fanout)`: the level-`l` switch above a block is its
    /// within-tile index shifted right by `shift × (l + 1)`.
    shift: u32,
    levels: u8,
    /// Dense slot of each level's first switch (see [`Self::switch_slot`]).
    slot_base: [u32; MAX_LEVELS],
}

impl HTreeNetwork {
    /// The paper's default: fanout 4 over 256 blocks → 4 levels.
    pub fn new() -> Self {
        Self::with_fanout(4)
    }

    /// Custom fanout ("the number of children of a tree node does not have
    /// to be 4; it can be higher when customizing PIM systems for
    /// larger-scale models", §4.2.1).
    ///
    /// # Panics
    /// Panics unless the fanout divides 256 into whole levels (2, 4, 16,
    /// 256).
    pub fn with_fanout(fanout: u32) -> Self {
        let tile_bits = BLOCKS_PER_TILE.trailing_zeros();
        assert!(
            fanout > 1
                && fanout.is_power_of_two()
                && tile_bits.is_multiple_of(fanout.trailing_zeros()),
            "fanout {fanout} does not evenly tile {BLOCKS_PER_TILE} blocks"
        );
        let shift = fanout.trailing_zeros();
        let levels = (tile_bits / shift) as u8;
        let mut slot_base = [0; MAX_LEVELS];
        for l in 1..levels as usize {
            slot_base[l] = slot_base[l - 1] + (BLOCKS_PER_TILE as u32 >> (shift * l as u32));
        }
        Self { shift, levels, slot_base }
    }

    /// Switch levels per tile.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Total switches in one tile: `Σ_{l=1..levels} 256 / fanout^l`
    /// (the root is the top level's only switch).
    pub fn switches_per_tile(&self) -> u32 {
        self.slot_base[self.levels as usize - 1] + 1
    }

    /// The level-`l` switch above a block (level 0 = nearest switches).
    #[inline]
    fn switch_above(&self, within_tile: u32, level: u8) -> u32 {
        within_tile >> (self.shift * (level as u32 + 1))
    }

    /// Dense within-tile slot of the level-`level` switch `index`:
    /// switches are numbered level by level from the leaves, so the slots
    /// `0..switches_per_tile()` enumerate every switch of one tile
    /// exactly once. Lets a simulator keep per-switch state in a flat
    /// array instead of a hash map.
    #[inline]
    pub fn switch_slot(&self, level: u8, index: u32) -> u32 {
        debug_assert!(level < self.levels);
        debug_assert!(index < BLOCKS_PER_TILE as u32 >> (self.shift * (level as u32 + 1)));
        self.slot_base[level as usize] + index
    }

    /// Level of the lowest common ancestor of two blocks in one tile:
    /// the first level whose switch index has shifted out the highest
    /// bit where the two within-tile indices differ.
    #[inline]
    fn lca_level(&self, sw: u32, dw: u32) -> u8 {
        (sw ^ dw).checked_ilog2().map_or(0, |bit| bit / self.shift) as u8
    }
}

impl Default for HTreeNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl Interconnect for HTreeNetwork {
    #[inline]
    fn for_each_hop(&self, src: BlockId, dst: BlockId, mut hop: impl FnMut(Resource)) {
        if src == dst {
            return;
        }
        let (st, dt) = (src.tile(), dst.tile());
        let (sw, dw) = (src.within_tile(), dst.within_tile());
        // Within a tile the path climbs to the lowest common ancestor
        // and descends, occupying the LCA once. Across tiles it climbs
        // the whole source tree, crosses the chip router and descends
        // the whole destination tree.
        let (top, down) = if st == dt {
            let lca = self.lca_level(sw, dw);
            (lca, lca)
        } else {
            (self.levels - 1, self.levels)
        };
        for l in 0..=top {
            hop(Resource::Switch { tile: st, level: l, index: self.switch_above(sw, l) });
        }
        if st != dt {
            hop(Resource::ChipRouter);
        }
        for l in (0..down).rev() {
            hop(Resource::Switch { tile: dt, level: l, index: self.switch_above(dw, l) });
        }
    }

    fn hops(&self, src: BlockId, dst: BlockId) -> usize {
        if src == dst {
            return 0;
        }
        let (st, dt) = (src.tile(), dst.tile());
        if st == dt {
            // `lca_level + 1` switches up, `lca_level` down.
            2 * self.lca_level(src.within_tile(), dst.within_tile()) as usize + 1
        } else {
            // Both full trees plus the chip router.
            2 * self.levels as usize + 1
        }
    }
}

/// The bus network: one switch per tile, chip router between tiles.
#[derive(Debug, Clone, Default)]
pub struct BusNetwork;

impl BusNetwork {
    pub fn new() -> Self {
        Self
    }
}

impl Interconnect for BusNetwork {
    #[inline]
    fn for_each_hop(&self, src: BlockId, dst: BlockId, mut hop: impl FnMut(Resource)) {
        if src == dst {
            return;
        }
        hop(Resource::TileBus { tile: src.tile() });
        if src.tile() != dst.tile() {
            hop(Resource::ChipRouter);
            hop(Resource::TileBus { tile: dst.tile() });
        }
    }

    fn hops(&self, src: BlockId, dst: BlockId) -> usize {
        if src == dst {
            0
        } else if src.tile() == dst.tile() {
            1
        } else {
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(src: u32, dst: u32, words: u32) -> Transfer {
        Transfer { src: BlockId(src), dst: BlockId(dst), words }
    }

    #[test]
    fn htree_has_85_switches_per_tile() {
        // §4.2.2: "in a 256-block memory tile, 64 + 16 + 4 + 1 = 85 H-tree
        // node switches have to be used."
        let h = HTreeNetwork::new();
        assert_eq!(h.switches_per_tile(), 85);
        assert_eq!(h.levels(), 4);
    }

    #[test]
    fn switch_slots_enumerate_every_switch_once() {
        for fanout in [2u32, 4, 16] {
            let h = HTreeNetwork::with_fanout(fanout);
            let mut seen = vec![false; h.switches_per_tile() as usize];
            let mut nodes = BLOCKS_PER_TILE as u32;
            for level in 0..h.levels() {
                nodes /= fanout;
                for index in 0..nodes {
                    let slot = h.switch_slot(level, index) as usize;
                    assert!(!seen[slot], "fanout {fanout}: slot {slot} assigned twice");
                    seen[slot] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "fanout {fanout}: unassigned slots");
        }
    }

    #[test]
    fn closed_form_routing_matches_the_loop_formulas() {
        // The shift/table forms against the division, power and
        // per-level loops they replaced, at every level and index.
        for fanout in [2u32, 4, 16] {
            let h = HTreeNetwork::with_fanout(fanout);
            let mut nodes = BLOCKS_PER_TILE as u32;
            let mut base = 0;
            for level in 0..h.levels() {
                nodes /= fanout;
                for w in 0..BLOCKS_PER_TILE as u32 {
                    assert_eq!(h.switch_above(w, level), w / fanout.pow(level as u32 + 1));
                }
                for index in 0..nodes {
                    assert_eq!(h.switch_slot(level, index), base + index, "fanout {fanout}");
                }
                base += nodes;
            }
            assert_eq!(h.switches_per_tile(), base, "fanout {fanout}");
            for sw in 0..BLOCKS_PER_TILE as u32 {
                for dw in 0..BLOCKS_PER_TILE as u32 {
                    let mut lca = 0u8;
                    while sw / fanout.pow(lca as u32 + 1) != dw / fanout.pow(lca as u32 + 1) {
                        lca += 1;
                    }
                    assert_eq!(h.lca_level(sw, dw), lca, "fanout {fanout}: {sw} → {dw}");
                }
            }
        }
    }

    #[test]
    fn htree_alternative_fanouts() {
        assert_eq!(HTreeNetwork::with_fanout(2).levels(), 8);
        assert_eq!(HTreeNetwork::with_fanout(16).levels(), 2);
        assert_eq!(HTreeNetwork::with_fanout(16).switches_per_tile(), 17);
    }

    #[test]
    #[should_panic(expected = "does not evenly tile")]
    fn htree_rejects_bad_fanout() {
        let _ = HTreeNetwork::with_fanout(3);
    }

    #[test]
    fn htree_rejects_every_fanout_that_leaves_a_partial_level() {
        // Fanout 1 never shrinks the tree (the division loop this
        // replaced spun forever on it); 8 and 32 leave a partial level.
        for fanout in [0u32, 1, 8, 32, 512] {
            let built = std::panic::catch_unwind(|| HTreeNetwork::with_fanout(fanout));
            assert!(built.is_err(), "fanout {fanout} was accepted");
        }
        assert_eq!(HTreeNetwork::with_fanout(256).levels(), 1);
    }

    #[test]
    fn route_between_siblings_uses_one_switch() {
        // Blocks 0 and 1 share their S0 switch: the whole path is that one
        // switch (Fig. 3: "the data will only pass through one S0 H-tree
        // switch").
        let h = HTreeNetwork::new();
        let path = h.route(BlockId(0), BlockId(1));
        assert_eq!(path, vec![Resource::Switch { tile: 0, level: 0, index: 0 }]);
    }

    #[test]
    fn route_across_quads_climbs_and_descends() {
        // Fig. 3's example: Block 0 → Block 5 passes S0(src quad), S1,
        // S0(dst quad) — three switches for fanout 4.
        let h = HTreeNetwork::new();
        let path = h.route(BlockId(0), BlockId(5));
        assert_eq!(
            path,
            vec![
                Resource::Switch { tile: 0, level: 0, index: 0 },
                Resource::Switch { tile: 0, level: 1, index: 0 },
                Resource::Switch { tile: 0, level: 0, index: 1 },
            ]
        );
    }

    #[test]
    fn route_is_symmetric_in_length() {
        let h = HTreeNetwork::new();
        for (a, b) in [(0u32, 255u32), (3, 200), (17, 18), (64, 128)] {
            assert_eq!(
                h.route(BlockId(a), BlockId(b)).len(),
                h.route(BlockId(b), BlockId(a)).len()
            );
        }
    }

    #[test]
    fn self_route_is_empty() {
        assert!(HTreeNetwork::new().route(BlockId(7), BlockId(7)).is_empty());
        assert!(BusNetwork::new().route(BlockId(7), BlockId(7)).is_empty());
    }

    #[test]
    fn cross_tile_route_uses_chip_router() {
        let h = HTreeNetwork::new();
        let path = h.route(BlockId(0), BlockId(256));
        assert!(path.contains(&Resource::ChipRouter));
        // 4 levels up + router + 4 levels down.
        assert_eq!(path.len(), 9);
        let b = BusNetwork::new();
        assert_eq!(b.route(BlockId(0), BlockId(256)).len(), 3);
    }

    #[test]
    fn disjoint_htree_transfers_run_in_parallel_but_bus_serializes() {
        // Fig. 3's bus example: Block 0 → 2 and Block 5 → 7 overlap on the
        // H-tree (disjoint S0 switches) but serialize on the single bus
        // switch.
        let h = HTreeNetwork::new();
        let b = BusNetwork::new();
        let batch = [t(0, 2, 32), t(5, 7, 32)];
        let hs = h.schedule(&batch);
        let bs = b.schedule(&batch);
        let single_h = h.schedule(&batch[..1]);
        let single_b = b.schedule(&batch[..1]);
        assert!(
            (hs.makespan - single_h.makespan).abs() < 1e-15,
            "H-tree must overlap disjoint transfers"
        );
        assert!((bs.makespan - 2.0 * single_b.makespan).abs() < 1e-15, "bus must serialize");
    }

    #[test]
    fn conflicting_htree_transfers_serialize() {
        // Both transfers need S0 switch 0.
        let h = HTreeNetwork::new();
        let batch = [t(0, 1, 32), t(2, 3, 32)];
        let s = h.schedule(&batch);
        let single = h.schedule(&batch[..1]);
        assert!((s.makespan - 2.0 * single.makespan).abs() < 1e-15);
    }

    #[test]
    fn duration_scales_with_words_not_hops() {
        // Cut-through switching: occupancy depends on payload size, not
        // path length (the path length costs *energy*, below).
        let h = HTreeNetwork::new();
        let near = h.duration(&t(0, 1, 32));
        let far = h.duration(&t(0, 255, 32));
        assert_eq!(near, far);
        let big = h.duration(&t(0, 1, 320));
        let ratio = big / near;
        assert!((9.5..10.5).contains(&ratio), "10× data ≈ 10× time, got {ratio}");
    }

    #[test]
    fn htree_energy_exceeds_bus_energy_per_transfer() {
        // More switch hops → more energy per transfer on the H-tree for
        // long intra-tile routes (the flip side of its parallelism).
        let h = HTreeNetwork::new();
        let b = BusNetwork::new();
        let far = t(0, 255, 32);
        assert!(h.energy(&far) > b.energy(&far));
    }

    #[test]
    fn schedule_reports_per_transfer_finish_times() {
        let b = BusNetwork::new();
        let batch = [t(0, 1, 32), t(2, 3, 32), t(4, 5, 32)];
        let s = b.schedule(&batch);
        assert_eq!(s.finish_times.len(), 3);
        assert!(s.finish_times.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.finish_times[2], s.makespan);
    }
}
