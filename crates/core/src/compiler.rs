//! Compilation of the dG kernels into PIM instruction streams.
//!
//! This is the executable form of §5 of the paper: one element per memory
//! block (the naive acoustic mapping), nodes on rows, variables on
//! columns, with the Fig. 5 execution timeline:
//!
//! * **Volume** — derivative dot-products built from per-coefficient
//!   *gather* passes (intra-block row data movement staging the line
//!   value and the `dshape` coefficient into dedicated columns) followed
//!   by one row-parallel MAC each: all nodes advance their dot-product
//!   simultaneously,
//! * **Flux** — per face: neighbor interface traces fetched with
//!   Read → Copy → Write triples over the interconnect (the `I₀…I₄`
//!   sequence of Fig. 3), then a row-parallel flux evaluation whose
//!   result is folded into the contributions through the face's 0/1 mask
//!   column,
//! * **Integration** — the LSRK stage as four row-parallel operations per
//!   variable using broadcast `A`, `B`, `dt` constants.
//!
//! The emitted streams run on the `pim-sim` functional chip and reproduce
//! the native solver's arithmetic to floating-point-roundoff tolerance
//! (the only deliberate deviation: the PIM multiplies by host-precomputed
//! reciprocals where the CPU code divides, since bit-serial NOR division
//! is exactly what the paper offloads to the host, §4.3).

use pim_isa::{AluOp, BlockId, Instr, InstrStream};
use pim_math::{
    eval as math_eval, MathPlacement, MathSite, Placement, RecipDest, SiteParams, SqrtDest,
    ITERS_PER_STAGE,
};
use pim_sim::PimChip;
use wavesim_dg::kernels::flux::FluxTopology;
use wavesim_dg::physics::acoustic_vars;
use wavesim_dg::{AcousticMaterial, FluxKind, Lsrk5, State};
use wavesim_mesh::{ElemId, Face, HexMesh, Neighbor};
use wavesim_numerics::gll::GllRule;
use wavesim_numerics::lagrange::DiffMatrix;
use wavesim_numerics::tensor::{node_coords, node_index};

use crate::layout::AcousticLayout;

/// Staging-row columns for host-precomputed element-wide constants
/// (first constants row).
mod staging {
    pub const NEG_KAPPA_J: usize = 0;
    pub const NEG_INV_RHO_J: usize = 1;
    pub const HALF: usize = 2;
    pub const Z: usize = 3;
    /// `−jac_inv` — staged only for the on-PIM reciprocal lane, which
    /// multiplies it with its freshly computed `1/ρ` to produce
    /// [`NEG_INV_RHO_J`] on chip.
    pub const NEG_JAC: usize = 4;
    pub const KAPPA: usize = 6;
    pub const INV_RHO: usize = 7;
    pub const LIFT: usize = 8;
    pub const DT: usize = 9;
    pub const A0: usize = 10;
    pub const B0: usize = 15;
}

/// Per-face Riemann interface constants live on two further staging rows
/// (faces 0–2 on the first, 3–5 on the second). Each face holds three
/// constants — the neighbor impedance `Z⁺`, the product `Z⁻Z⁺` and the
/// reciprocal `1/(Z⁻+Z⁺)` — fetched from the impedance-pair look-up
/// table with `Lut` instructions (§4.3) before the time loop begins.
/// The LUT indices the fetches consume sit in the same rows at
/// `INDEX_BASE`, as Algorithm 1 requires (index and destination share
/// the row address).
mod face_staging {
    /// Constants per face: Z⁺, Z⁻Z⁺, 1/(Z⁻+Z⁺).
    pub const CONSTS_PER_FACE: usize = 3;
    /// First destination column of a face's constants within its row.
    pub fn dest_col(face_code: usize, k: usize) -> usize {
        (face_code % 3) * CONSTS_PER_FACE + k
    }
    /// First index column of a face's LUT indices within its row.
    pub const INDEX_BASE: usize = 16;
    pub fn index_col(face_code: usize, k: usize) -> usize {
        INDEX_BASE + (face_code % 3) * CONSTS_PER_FACE + k
    }
    /// Which of the two face-staging rows a face uses (0 or 1).
    pub fn row_offset(face_code: usize) -> usize {
        face_code / 3
    }
}

/// LUT entries per impedance pair (3 constants, padded to 4 for aligned
/// indexing).
const LUT_STRIDE: usize = 4;

/// The one-block-per-element acoustic mapping (naive technique `N` of
/// Table 5), with uniform material — the configuration the paper's Fig. 5
/// walks through.
pub struct AcousticMapping {
    mesh: HexMesh,
    layout: AcousticLayout,
    rule: GllRule,
    d: DiffMatrix,
    topo: FluxTopology,
    materials: Vec<AcousticMaterial>,
    flux_kind: FluxKind,
    jac_inv: f64,
    lift: f64,
    /// Deduplicated impedance pairs (own, neighbor-or-wall) across all
    /// element faces; indexes the LUT contents.
    pairs: Vec<(f64, f64)>,
    /// Per-element, per-face pair index.
    face_pair: Vec<[usize; 6]>,
    /// Element → block placement (identity by default; the batched
    /// runner remaps resident elements into the available window).
    block_map: Vec<u32>,
    /// Per-op transcendental placement (`None` = legacy host-exact
    /// constants, the bit-identical default).
    math: Option<MathPlacement>,
}

impl AcousticMapping {
    /// Builds the mapping for `n` nodes per axis (n³ ≤ 512) with
    /// per-element materials.
    ///
    /// # Panics
    /// Panics if `materials.len()` differs from the element count.
    pub fn new(
        mesh: HexMesh,
        n: usize,
        flux_kind: FluxKind,
        materials: Vec<AcousticMaterial>,
    ) -> Self {
        assert_eq!(materials.len(), mesh.num_elements(), "one material per element");
        let layout = AcousticLayout::new(n);
        let rule = GllRule::new(n);
        let d = DiffMatrix::for_gll(&rule);
        let topo = FluxTopology::new(n);
        let geom = wavesim_mesh::ElementGeometry::new(mesh.h(), &rule);
        let jac_inv = geom.jacobian_inverse_domain();
        let lift = geom.lift_factor(rule.weights()[0]);

        // Deduplicate the (own Z, neighbor Z) impedance pairs across all
        // faces: the LUT holds one entry set per distinct pair.
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        let mut face_pair = Vec::with_capacity(mesh.num_elements());
        for e in 0..mesh.num_elements() {
            let zm = materials[e].impedance();
            let mut per_face = [0usize; 6];
            for face in Face::ALL {
                let zp = match mesh.neighbor(ElemId(e), face) {
                    Neighbor::Element(nb) => materials[nb.index()].impedance(),
                    Neighbor::Boundary => zm,
                };
                let key = (zm, zp);
                let idx = pairs.iter().position(|&p| p == key).unwrap_or_else(|| {
                    pairs.push(key);
                    pairs.len() - 1
                });
                per_face[face.code()] = idx;
            }
            face_pair.push(per_face);
        }
        assert!(
            pairs.len() * LUT_STRIDE <= pim_isa::BLOCK_ROWS * pim_isa::WORDS_PER_ROW,
            "too many distinct impedance pairs for one LUT block"
        );

        let block_map = (0..mesh.num_elements() as u32).collect();
        Self {
            mesh,
            layout,
            rule,
            d,
            topo,
            materials,
            flux_kind,
            jac_inv,
            lift,
            pairs,
            face_pair,
            block_map,
            math: None,
        }
    }

    /// Builds the mapping with one material everywhere — the paper's
    /// Fig. 5 walkthrough configuration.
    pub fn uniform(
        mesh: HexMesh,
        n: usize,
        flux_kind: FluxKind,
        material: AcousticMaterial,
    ) -> Self {
        let materials = vec![material; mesh.num_elements()];
        Self::new(mesh, n, flux_kind, materials)
    }

    /// The reserved look-up-table block (the first block after every
    /// placed element; §4.3: "look-up tables are implemented with
    /// ordinary memory blocks").
    pub fn lut_block(&self) -> BlockId {
        BlockId(self.block_map.iter().copied().max().unwrap_or(0) + 1)
    }

    /// The reserved `1/√x` seed-table block for the on-PIM math lanes —
    /// the block right after the impedance-pair LUT. Only used (and only
    /// loaded) when a placement with an on-PIM lane is installed.
    pub fn math_block(&self) -> BlockId {
        BlockId(self.lut_block().0 + 1)
    }

    /// Installs the per-op transcendental placement. `None` (the
    /// default) keeps the legacy host-exact staged constants; any on-PIM
    /// lane makes [`Self::preload_static_subset`] stage raw operands
    /// instead and reserves [`Self::math_block`] for the seed table.
    pub fn set_math_placement(&mut self, placement: Option<MathPlacement>) {
        self.math = placement;
    }

    /// The installed per-op placement, if any.
    pub fn math_placement(&self) -> Option<MathPlacement> {
        self.math
    }

    /// Blocks the chip must provide beyond the shard window: parked slot
    /// and impedance LUT, plus the seed-table block when math runs
    /// on-PIM.
    pub fn extra_blocks(&self) -> u32 {
        if self.math.is_some_and(|p| p.any_onpim()) {
            3
        } else {
            2
        }
    }

    /// One element's math placement site: the sqrt lane on the constants
    /// staging row, the reciprocal lane on the first face-staging row
    /// (columns 25..31 are free on both). `math_block` is
    /// [`Self::math_block`], hoisted by the caller: it scans the block map.
    fn math_site(&self, elem: usize, math_block: u32) -> MathSite {
        let row = self.layout.const_staging_row() as u16;
        MathSite { block: self.block_of(elem), row, aux_row: row + 1, math_block }
    }

    /// The sqrt lane's raw operand for an element: `κρ` (so `√x` is the
    /// impedance `Z`).
    fn sqrt_operand(&self, elem: usize) -> f64 {
        let m = self.materials[elem];
        m.kappa * m.rho
    }

    /// The reciprocal lane's raw operand: `ρ` (so `1/x` is `1/ρ`).
    fn recip_operand(&self, elem: usize) -> f64 {
        self.materials[elem].rho
    }

    /// The op-site summary the placement cost model prices for a shard:
    /// the host op counts per element per stage and the operand ranges
    /// of the two transcendentals (out-of-range operands pin an op to
    /// the host).
    pub fn math_site_params(&self, elems: &[usize]) -> SiteParams {
        let w = wavesim_dg::opcount::acoustic_workload(self.n(), self.flux_kind);
        let mut sqrt_range = (f64::INFINITY, f64::NEG_INFINITY);
        let mut recip_range = (f64::INFINITY, f64::NEG_INFINITY);
        for &e in elems {
            let s = self.sqrt_operand(e);
            let r = self.recip_operand(e);
            sqrt_range = (sqrt_range.0.min(s), sqrt_range.1.max(s));
            recip_range = (recip_range.0.min(r), recip_range.1.max(r));
        }
        SiteParams {
            elems: elems.len(),
            sqrts_per_elem: w.flux.host_sqrts,
            // The host also refreshes 1/ρ and −jac/ρ alongside the flux
            // reciprocal; the opcount's per-stage div stands for them.
            divs_per_elem: w.flux.host_divs.max(1),
            sqrt_operands: sqrt_range,
            recip_operands: recip_range,
        }
    }

    /// The one-time on-PIM math setup stream for a subset: range
    /// reduction, `Lut` seed fetch, `x/2` precompute per element (empty
    /// without an on-PIM lane). Runs after
    /// [`Self::preload_static_subset`] has staged the raw operands.
    pub fn compile_math_setup_for(&self, elems: &[usize]) -> InstrStream {
        let mut s = InstrStream::new();
        let Some(p) = self.math.filter(|p| p.any_onpim()) else { return s };
        let math_block = self.math_block().0;
        for &e in elems {
            self.math_site(e, math_block).emit_setup(&mut s, p);
        }
        s.push(Instr::Sync);
        s
    }

    /// The per-stage on-PIM refinement stream for a subset: Newton steps
    /// refining the seeds in place, then the finalize multiplies that
    /// write the staged `Z`, `1/ρ` and `−jac/ρ` constants the kernels
    /// broadcast. Must run before the stage's Volume stream.
    pub fn compile_math_stage_for(&self, elems: &[usize]) -> InstrStream {
        let mut s = InstrStream::new();
        let Some(p) = self.math.filter(|p| p.any_onpim()) else { return s };
        let sqrt_dest = SqrtDest { col: staging::Z as u8 };
        let recip_dest = RecipDest {
            inv_col: staging::INV_RHO as u8,
            neg_jac_col: staging::NEG_JAC as u8,
            neg_col: staging::NEG_INV_RHO_J as u8,
        };
        let math_block = self.math_block().0;
        for &e in elems {
            self.math_site(e, math_block).emit_stage(&mut s, p, Some(sqrt_dest), Some(recip_dest));
        }
        s.push(Instr::Sync);
        s
    }

    /// Number of distinct impedance pairs in the LUT.
    pub fn num_impedance_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Nodes per axis.
    pub fn n(&self) -> usize {
        self.layout.n
    }

    /// Nodes per element.
    pub fn nodes(&self) -> usize {
        self.layout.nodes()
    }

    /// The memory block hosting an element (identity placement unless a
    /// block map was installed by the batched runner).
    pub fn block_of(&self, elem: usize) -> BlockId {
        BlockId(self.block_map[elem])
    }

    /// Installs an element → block placement (used by `crate::batched` to
    /// pack a resident batch plus its boundary slices into a small chip).
    ///
    /// # Panics
    /// Panics if the map's length differs from the element count.
    pub fn set_block_map(&mut self, map: Vec<u32>) {
        assert_eq!(map.len(), self.mesh.num_elements(), "one block per element");
        self.block_map = map;
    }

    /// Installs the cluster shard placement: residents pack from block 0,
    /// ghost (halo) elements follow, and *all* other elements share one
    /// parked slot just past the window. Parked elements are never
    /// addressed by shard-restricted streams, and sharing a single slot
    /// keeps [`Self::lut_block`] (max + 1) within small chips even when
    /// the full mesh is far larger than the shard — unlike the batched
    /// runner's distinct parking, which assumes the mesh fits the chip.
    ///
    /// Returns the window size (`residents.len() + ghosts.len()`); the
    /// chip must provide `window + `[`Self::extra_blocks`] blocks
    /// (window, parked slot, LUT, and the math seed table when a lane
    /// runs on-PIM).
    ///
    /// # Panics
    /// Panics if an element appears twice across `residents`/`ghosts`.
    pub fn install_shard_map(&mut self, residents: &[usize], ghosts: &[usize]) -> u32 {
        let total = self.mesh.num_elements();
        let mut map = vec![0u32; total];
        let mut windowed = vec![false; total];
        let mut next = 0u32;
        for &e in residents.iter().chain(ghosts) {
            assert!(!windowed[e], "element {e} appears twice in the shard window");
            windowed[e] = true;
            map[e] = next;
            next += 1;
        }
        let window = next;
        for (e, slot) in map.iter_mut().enumerate() {
            if !windowed[e] {
                *slot = window;
            }
        }
        self.block_map = map;
        window
    }

    /// Blocks required (one per element).
    pub fn blocks_required(&self) -> usize {
        self.mesh.num_elements()
    }

    /// Preloads everything the paper loads "before the computation
    /// begins" (§4.3, §5.1): the state variables, the `dshape` rows, the
    /// face masks and the staged constants.
    pub fn preload(&self, chip: &mut PimChip, state: &State, dt: f64) {
        let elems: Vec<usize> = (0..self.mesh.num_elements()).collect();
        self.preload_static_subset(chip, dt, &elems);
        self.load_vars_subset(chip, state, &elems);
        self.zero_dynamic_subset(chip, &elems);
    }

    /// Preloads the per-element *static* data (dshape, masks, staged
    /// constants, LUT indices) for a subset of elements, plus the shared
    /// impedance-pair LUT block.
    pub fn preload_static_subset(&self, chip: &mut PimChip, dt: f64, elems: &[usize]) {
        let n = self.n();
        let nodes = self.nodes();
        let staging_row = self.layout.const_staging_row();

        // The impedance-pair look-up table: "Contents of look-up tables
        // will be loaded to the reserved memory blocks before the
        // computation begins" (§4.3). Entry layout per pair p:
        //   [4p+0] = Z⁺, [4p+1] = Z⁻Z⁺, [4p+2] = 1/(Z⁻+Z⁺).
        let lut = self.lut_block();
        let math_block = self.math_block();
        let sqrt_pim = self.math.is_some_and(|p| p.sqrt == Placement::OnPim);
        let recip_pim = self.math.is_some_and(|p| p.reciprocal == Placement::OnPim);
        // When an op runs on-PIM, the interface constants derived from it
        // go through the same LUT + Newton arithmetic (the functional
        // mirror of the emitted sequence), so the pair table stays
        // consistent with the chip-computed staged constants. Operands
        // outside the seed table's range fall back to the exact host
        // value — the same per-op fallback the placement guard applies.
        let imp = |z: f64| {
            if sqrt_pim {
                math_eval::sqrt_eval(z * z, ITERS_PER_STAGE).unwrap_or(z)
            } else {
                z
            }
        };
        let recip = |x: f64| {
            if recip_pim {
                math_eval::recip_eval(x, ITERS_PER_STAGE).unwrap_or(1.0 / x)
            } else {
                1.0 / x
            }
        };
        for (pidx, &(zm, zp)) in self.pairs.iter().enumerate() {
            let base = pidx * LUT_STRIDE;
            let (zm, zp) = (imp(zm), imp(zp));
            let values = [zp, zm * zp, recip(zm + zp)];
            let b = chip.block_mut(lut);
            for (k, &v) in values.iter().enumerate() {
                let w = base + k;
                b.set(w / pim_isa::WORDS_PER_ROW, w % pim_isa::WORDS_PER_ROW, v);
            }
        }

        // The on-PIM math lanes' seed table: the f32-quantized `1/√x`
        // samples fill the reserved block exactly (32K words).
        if sqrt_pim || recip_pim {
            let b = chip.block_mut(math_block);
            for i in 0..pim_math::table::TABLE_ENTRIES {
                b.set(
                    i / pim_isa::WORDS_PER_ROW,
                    i % pim_isa::WORDS_PER_ROW,
                    pim_math::table::seed_at(i),
                );
            }
        }

        // Element blocks write their compute rows and the constants rows
        // through the last face-staging row; reserving those tiles spares
        // each arena a growth.
        let last_row = staging_row + 1 + face_staging::row_offset(Face::ALL.len() - 1);
        let tiles = crate::layout::element_tiles(nodes, last_row);
        for &e in elems {
            let block = self.block_of(e);
            let m = self.materials[e];
            let z = m.impedance();
            let b = chip.block_mut(block);
            b.reserve_tiles(tiles);
            // Face masks: 1.0 on face rows.
            for f in 0..6 {
                for node in 0..nodes {
                    b.set(node, AcousticLayout::mask_col(f), 0.0);
                }
            }
            for face in Face::ALL {
                for &node in self.topo.face_table(face) {
                    b.set(node, AcousticLayout::mask_col(face.code()), 1.0);
                }
            }
            // dshape rows.
            for a in 0..n {
                for mcol in 0..n {
                    b.set(self.layout.dshape_row(a), mcol, self.d.get(a, mcol));
                }
            }
            // Staged element-wide constants (host-computed, including
            // the reciprocals the paper's host offload provides).
            let consts: [(usize, f64); 8] = [
                (staging::NEG_KAPPA_J, -(m.kappa * self.jac_inv)),
                (staging::NEG_INV_RHO_J, -(self.jac_inv / m.rho)),
                (staging::HALF, 0.5),
                (staging::Z, z),
                (staging::KAPPA, m.kappa),
                (staging::INV_RHO, 1.0 / m.rho),
                (staging::LIFT, self.lift),
                (staging::DT, dt),
            ];
            for (col, value) in consts {
                // Constants an on-PIM lane computes itself are not
                // host-staged: the chip's own finalize multiplies write
                // them each stage.
                let on_pim = (sqrt_pim && col == staging::Z)
                    || (recip_pim && (col == staging::INV_RHO || col == staging::NEG_INV_RHO_J));
                if !on_pim {
                    b.set(staging_row, col, value);
                }
            }
            if recip_pim {
                b.set(staging_row, staging::NEG_JAC, -self.jac_inv);
            }
            if let Some(p) = self.math {
                let site = self.math_site(e, math_block.0);
                for (row, col, v) in
                    site.staged_values(p, self.sqrt_operand(e), self.recip_operand(e))
                {
                    b.set(row as usize, col as usize, v);
                }
            }
            for s in 0..Lsrk5::STAGES {
                b.set(staging_row, staging::A0 + s, Lsrk5::A[s]);
                b.set(staging_row, staging::B0 + s, Lsrk5::B[s]);
            }
            // LUT indices for the per-face interface constants: the
            // "indexes for accessing look-up tables are generated in
            // memory blocks" (§4.3) — here the host seeds them once.
            for face in Face::ALL {
                let f = face.code();
                let row = staging_row + 1 + face_staging::row_offset(f);
                let pair = self.face_pair[e][f];
                for k in 0..face_staging::CONSTS_PER_FACE {
                    b.set(row, face_staging::index_col(f, k), (pair * LUT_STRIDE + k) as f64);
                }
            }
        }
    }

    /// Loads the variables of a subset of elements (the batching `load
    /// the inputs of the second batch` DMA of §6.1.1, host side).
    pub fn load_vars_subset(&self, chip: &mut PimChip, state: &State, elems: &[usize]) {
        for &e in elems {
            let block = self.block_of(e);
            let b = chip.block_mut(block);
            for node in 0..self.nodes() {
                for v in 0..AcousticLayout::NUM_VARS {
                    b.set(node, AcousticLayout::var_col(v), state.value(e, v, node));
                }
            }
        }
    }

    /// Loads LSRK auxiliaries for a subset of elements.
    pub fn load_aux_subset(&self, chip: &mut PimChip, aux: &State, elems: &[usize]) {
        for &e in elems {
            let block = self.block_of(e);
            let b = chip.block_mut(block);
            for node in 0..self.nodes() {
                for v in 0..AcousticLayout::NUM_VARS {
                    b.set(node, AcousticLayout::aux_col(v), aux.value(e, v, node));
                }
            }
        }
    }

    /// Loads contributions for a subset of elements (resuming a batched
    /// Flux pass after a swap).
    pub fn load_contribs_subset(&self, chip: &mut PimChip, contribs: &State, elems: &[usize]) {
        for &e in elems {
            let block = self.block_of(e);
            let b = chip.block_mut(block);
            for node in 0..self.nodes() {
                for v in 0..AcousticLayout::NUM_VARS {
                    b.set(node, AcousticLayout::contrib_col(v), contribs.value(e, v, node));
                }
            }
        }
    }

    /// Zeroes aux, contribution and ghost columns for a subset.
    pub fn zero_dynamic_subset(&self, chip: &mut PimChip, elems: &[usize]) {
        for &e in elems {
            let block = self.block_of(e);
            let b = chip.block_mut(block);
            for node in 0..self.nodes() {
                for v in 0..AcousticLayout::NUM_VARS {
                    b.set(node, AcousticLayout::aux_col(v), 0.0);
                    b.set(node, AcousticLayout::contrib_col(v), 0.0);
                    b.set(node, AcousticLayout::ghost_col(v), 0.0);
                }
            }
        }
    }

    /// DMA stream charging the halo *send* snapshot: one `StoreOffchip`
    /// per boundary element, moving its four fp32 variables out through
    /// the off-chip port toward the inter-chip link. The functional copy
    /// is [`Self::extract_vars_subset`]; this stream is its price on the
    /// chip's off-chip lane.
    pub fn compile_halo_store_for(&self, elems: &[usize]) -> InstrStream {
        self.compile_halo_dma_for(elems, false)
    }

    /// DMA stream charging the halo *receive*: one `LoadOffchip` per
    /// ghost element, landing the neighbors' pre-stage variables in the
    /// ghost blocks. Because the DMA occupies the ghost block, any Flux
    /// instruction reading that block waits for the data — the dependency
    /// that keeps the overlapped schedule bit-equal to the native solver.
    pub fn compile_halo_load_for(&self, elems: &[usize]) -> InstrStream {
        self.compile_halo_dma_for(elems, true)
    }

    fn compile_halo_dma_for(&self, elems: &[usize], load: bool) -> InstrStream {
        let bytes = (self.nodes() * AcousticLayout::NUM_VARS * 4) as u32;
        let mut s = InstrStream::new();
        for &e in elems {
            let block = self.block_of(e);
            s.push(if load {
                Instr::LoadOffchip { block, bytes }
            } else {
                Instr::StoreOffchip { block, bytes }
            });
        }
        s
    }

    /// Reads a column family of a subset back into `into`.
    fn extract_cols(
        &self,
        chip: &mut PimChip,
        elems: &[usize],
        col_of: impl Fn(usize) -> usize,
        into: &mut State,
    ) {
        for &e in elems {
            let block = self.block_of(e);
            for node in 0..self.nodes() {
                for v in 0..AcousticLayout::NUM_VARS {
                    let value = chip.block(block).get(node, col_of(v));
                    into.set_value(e, v, node, value);
                }
            }
        }
    }

    /// Reads variables of a subset (the batching "store the outputs" DMA).
    pub fn extract_vars_subset(&self, chip: &mut PimChip, elems: &[usize], into: &mut State) {
        self.extract_cols(chip, elems, AcousticLayout::var_col, into);
    }

    /// Reads auxiliaries of a subset.
    pub fn extract_aux_subset(&self, chip: &mut PimChip, elems: &[usize], into: &mut State) {
        self.extract_cols(chip, elems, AcousticLayout::aux_col, into);
    }

    /// Reads contributions of a subset.
    pub fn extract_contribs_subset(&self, chip: &mut PimChip, elems: &[usize], into: &mut State) {
        self.extract_cols(chip, elems, AcousticLayout::contrib_col, into);
    }

    /// Compiles the one-time LUT setup stream: one `Lut` instruction per
    /// (element, face, constant) that resolves the staged index against
    /// the impedance-pair table and deposits the constant next to it
    /// (Fig. 4 / Algorithm 1 in action). Empty for the central flux,
    /// which needs no interface impedances.
    pub fn compile_lut_setup(&self) -> InstrStream {
        let elems: Vec<usize> = (0..self.mesh.num_elements()).collect();
        self.compile_lut_setup_for(&elems)
    }

    /// LUT setup for a subset of elements (re-run after a batch swap: a
    /// reloaded block needs its interface constants refreshed).
    pub fn compile_lut_setup_for(&self, elems: &[usize]) -> InstrStream {
        let mut s = InstrStream::new();
        if self.flux_kind == FluxKind::Central {
            return s;
        }
        let staging_row = self.layout.const_staging_row();
        let lut_block = self.lut_block().0;
        for &e in elems {
            for face in Face::ALL {
                let f = face.code();
                let row_in_block = staging_row + 1 + face_staging::row_offset(f);
                let global_row =
                    (self.block_of(e).0 as usize * pim_isa::BLOCK_ROWS + row_in_block) as u32;
                for k in 0..face_staging::CONSTS_PER_FACE {
                    s.push(Instr::Lut {
                        row: global_row,
                        offset_s: face_staging::index_col(f, k) as u8,
                        lut_block,
                        offset_d: face_staging::dest_col(f, k) as u8,
                    });
                }
            }
        }
        s.push(Instr::Sync);
        s
    }

    /// Reads the variables back out of the chip.
    pub fn extract_state(&self, chip: &mut PimChip) -> State {
        let mut state =
            State::zeros(self.mesh.num_elements(), AcousticLayout::NUM_VARS, self.nodes());
        for e in 0..self.mesh.num_elements() {
            let block = self.block_of(e);
            for node in 0..self.nodes() {
                for v in 0..AcousticLayout::NUM_VARS {
                    let value = chip.block(block).get(node, AcousticLayout::var_col(v));
                    state.set_value(e, v, node, value);
                }
            }
        }
        state
    }

    // ---- emission helpers ----

    /// One row-parallel ALU op over the compute rows of a block.
    fn arith(
        &self,
        s: &mut InstrStream,
        block: BlockId,
        op: AluOp,
        dst: usize,
        a: usize,
        b: usize,
    ) {
        s.push(Instr::Arith {
            block,
            op,
            first_row: 0,
            last_row: (self.nodes() - 1) as u16,
            dst: dst as u8,
            a: a as u8,
            b: b as u8,
        });
    }

    /// Intra-block gather: for each (src_row, src_col, dst_row, dst_col),
    /// a Read/Write pair through the row buffer.
    fn gather(
        &self,
        s: &mut InstrStream,
        block: BlockId,
        pairs: impl Iterator<Item = (usize, usize, usize, usize)>,
    ) {
        for (src_row, src_col, dst_row, dst_col) in pairs {
            s.push(Instr::Read { block, row: src_row as u16, offset: src_col as u8, words: 1 });
            s.push(Instr::Write { block, row: dst_row as u16, offset: dst_col as u8, words: 1 });
        }
    }

    /// Broadcast a constant from an arbitrary staging row into a bank
    /// column of the compute rows.
    fn broadcast_from(
        &self,
        s: &mut InstrStream,
        block: BlockId,
        src_row: usize,
        src_col: usize,
        dst_col: usize,
    ) {
        s.push(Instr::Read { block, row: src_row as u16, offset: src_col as u8, words: 1 });
        s.push(Instr::Broadcast {
            block,
            dst_first: 0,
            dst_last: (self.nodes() - 1) as u16,
            offset: dst_col as u8,
            words: 1,
        });
    }

    /// Broadcast an element-wide staged constant into a bank column.
    fn broadcast_const(&self, s: &mut InstrStream, block: BlockId, src_col: usize, dst_col: usize) {
        s.push(Instr::Read {
            block,
            row: self.layout.const_staging_row() as u16,
            offset: src_col as u8,
            words: 1,
        });
        s.push(Instr::Broadcast {
            block,
            dst_first: 0,
            dst_last: (self.nodes() - 1) as u16,
            offset: dst_col as u8,
            words: 1,
        });
    }

    /// Zero a column: `dst ← dst − dst`.
    fn zero(&self, s: &mut InstrStream, block: BlockId, col: usize) {
        self.arith(s, block, AluOp::Sub, col, col, col);
    }

    // ---- Volume ----

    /// Emits the Volume kernel for one element (Fig. 5 left timeline).
    pub fn emit_volume(&self, s: &mut InstrStream, elem: usize) {
        let block = self.block_of(elem);
        let c0 = AcousticLayout::const_col(0);
        let c1 = AcousticLayout::const_col(1);
        self.broadcast_const(s, block, staging::NEG_KAPPA_J, c0);
        self.broadcast_const(s, block, staging::NEG_INV_RHO_J, c1);

        for v in 0..AcousticLayout::NUM_VARS {
            self.zero(s, block, AcousticLayout::contrib_col(v));
        }

        let deriv = AcousticLayout::scratch_col(0);

        // grad p → velocity contributions (matches the native kernel's
        // loop order: axes x, y, z).
        for axis in 0..3 {
            self.emit_derivative(s, block, axis, AcousticLayout::var_col(acoustic_vars::P), deriv);
            // contrib_v[axis] = deriv × (−jac_inv/ρ).
            self.arith(
                s,
                block,
                AluOp::Mul,
                AcousticLayout::contrib_col(acoustic_vars::VX + axis),
                deriv,
                c1,
            );
        }
        // div v → pressure contribution.
        for axis in 0..3 {
            self.emit_derivative(
                s,
                block,
                axis,
                AcousticLayout::var_col(acoustic_vars::VX + axis),
                deriv,
            );
            // contrib_p += deriv × (−κ·jac_inv).
            self.arith(
                s,
                block,
                AluOp::Mac,
                AcousticLayout::contrib_col(acoustic_vars::P),
                deriv,
                c0,
            );
        }
    }

    /// One tensor-product derivative along `axis` of the variable in
    /// column `src_col`, accumulated into `deriv_col`: per coefficient m,
    /// gather the `dshape` entry and the m-th line value, then one
    /// row-parallel MAC.
    fn emit_derivative(
        &self,
        s: &mut InstrStream,
        block: BlockId,
        axis: usize,
        src_col: usize,
        deriv_col: usize,
    ) {
        let n = self.n();
        let nodes = self.nodes();
        self.zero(s, block, deriv_col);
        for m in 0..n {
            // Coefficient gather: row r needs dshape[comp(r, axis)][m].
            self.gather(
                s,
                block,
                (0..nodes).map(|r| {
                    let (i, j, k) = node_coords(n, r);
                    let a = [i, j, k][axis];
                    (self.layout.dshape_row(a), m, r, AcousticLayout::COEFF)
                }),
            );
            // Value gather: row r needs u[line(r) with axis-component m].
            self.gather(
                s,
                block,
                (0..nodes).map(move |r| {
                    let (i, j, k) = node_coords(n, r);
                    let src = match axis {
                        0 => node_index(n, m, j, k),
                        1 => node_index(n, i, m, k),
                        _ => node_index(n, i, j, m),
                    };
                    (src, src_col, r, AcousticLayout::VALUE)
                }),
            );
            // deriv += value × coeff, all rows at once.
            self.arith(
                s,
                block,
                AluOp::Mac,
                deriv_col,
                AcousticLayout::VALUE,
                AcousticLayout::COEFF,
            );
        }
    }

    // ---- Flux ----

    /// Emits the Flux kernel for one element: per face, the neighbor
    /// trace fetch (inter-block) and the masked row-parallel flux update.
    pub fn emit_flux(&self, s: &mut InstrStream, elem: usize) {
        self.emit_flux_consts(s, elem);
        for face in Face::ALL {
            self.emit_ghost_fetch(s, elem, face);
            self.emit_face_flux(s, self.block_of(elem), face);
        }
    }

    /// Kernel-wide constant bank for Flux: the element's own impedance
    /// and 1/ρ live in the gather columns (free during Flux); the
    /// per-face interface constants rotate through the bank inside
    /// `emit_face_flux`.
    fn emit_flux_consts(&self, s: &mut InstrStream, elem: usize) {
        let block = self.block_of(elem);
        match self.flux_kind {
            FluxKind::Riemann => {
                self.broadcast_const(s, block, staging::Z, AcousticLayout::COEFF);
                self.broadcast_const(s, block, staging::INV_RHO, AcousticLayout::VALUE);
            }
            FluxKind::Central => {
                self.broadcast_const(s, block, staging::HALF, AcousticLayout::const_col(0));
                self.broadcast_const(s, block, staging::KAPPA, AcousticLayout::const_col(3));
                self.broadcast_const(s, block, staging::INV_RHO, AcousticLayout::COEFF);
                self.broadcast_const(s, block, staging::LIFT, AcousticLayout::VALUE);
            }
        }
    }

    /// Fetches the neighbor's interface trace into the ghost columns
    /// (Read at the neighbor, Copy over the interconnect, Write at home —
    /// the Fig. 3 `I₀…I₄` procedure), or synthesizes the rigid-wall
    /// mirror ghost locally.
    fn emit_ghost_fetch(&self, s: &mut InstrStream, elem: usize, face: Face) {
        let block = self.block_of(elem);
        let own_table = self.topo.face_table(face);
        match self.mesh.neighbor(ElemId(elem), face) {
            Neighbor::Element(nb) => {
                let nb_block = self.block_of(nb.index());
                let nb_table = self.topo.face_table(face.opposite());
                for t in 0..self.topo.nodes_per_face() {
                    s.push(Instr::Read {
                        block: nb_block,
                        row: nb_table[t] as u16,
                        offset: AcousticLayout::VARS as u8,
                        words: AcousticLayout::NUM_VARS as u8,
                    });
                    s.push(Instr::Copy {
                        src: nb_block,
                        dst: block,
                        words: AcousticLayout::NUM_VARS as u16,
                    });
                    s.push(Instr::Write {
                        block,
                        row: own_table[t] as u16,
                        offset: AcousticLayout::GHOST as u8,
                        words: AcousticLayout::NUM_VARS as u8,
                    });
                }
            }
            Neighbor::Boundary => {
                // Mirror ghost: copy own variables, negate the normal
                // velocity (row-parallel; non-face rows are masked later).
                for v in 0..AcousticLayout::NUM_VARS {
                    self.arith(
                        s,
                        block,
                        AluOp::Mov,
                        AcousticLayout::ghost_col(v),
                        AcousticLayout::var_col(v),
                        AcousticLayout::var_col(v),
                    );
                }
                let vaxis = acoustic_vars::VX + face.axis().index();
                self.arith(
                    s,
                    block,
                    AluOp::Neg,
                    AcousticLayout::ghost_col(vaxis),
                    AcousticLayout::ghost_col(vaxis),
                    AcousticLayout::ghost_col(vaxis),
                );
            }
        }
    }

    /// The row-parallel flux evaluation for one face, masked into the
    /// contributions. Mirrors `Acoustic::face_flux` + lift term for term.
    fn emit_face_flux(&self, s: &mut InstrStream, block: BlockId, face: Face) {
        use acoustic_vars::{P, VX};
        let axis = face.axis().index();
        let plus = face.is_plus();
        let f = face.code();
        let mask = AcousticLayout::mask_col(f);
        let p_col = AcousticLayout::var_col(P);
        let gp = AcousticLayout::ghost_col(P);
        let v_col = AcousticLayout::var_col(VX + axis);
        let gv = AcousticLayout::ghost_col(VX + axis);
        let s0 = AcousticLayout::scratch_col(0);
        let s1 = AcousticLayout::scratch_col(1);
        let s2 = AcousticLayout::scratch_col(2);
        let s3 = AcousticLayout::scratch_col(3);
        // Tangential ghost velocities never feed the acoustic flux —
        // their columns double as extra scratch.
        let t4 = AcousticLayout::ghost_col(VX + (axis + 1) % 3);

        let sign_op = if plus { AluOp::Mov } else { AluOp::Neg };
        // v_n⁻ and v_n⁺ (normal components, sign folded in).
        self.arith(s, block, sign_op, s0, v_col, v_col);
        self.arith(s, block, sign_op, s1, gv, gv);

        let (p_star, vn_star) = match self.flux_kind {
            FluxKind::Riemann => {
                // Rotate this face's LUT-provided interface constants
                // (Z⁺, Z⁻Z⁺, 1/(Z⁻+Z⁺)) plus κ into the bank; the own
                // impedance Z⁻ sits in COEFF for the whole kernel.
                let face_row = self.layout.const_staging_row() + 1 + face_staging::row_offset(f);
                let (zp, zz, inv, c3) = (
                    AcousticLayout::const_col(0),
                    AcousticLayout::const_col(1),
                    AcousticLayout::const_col(2),
                    AcousticLayout::const_col(3),
                );
                let zm = AcousticLayout::COEFF;
                self.broadcast_from(s, block, face_row, face_staging::dest_col(f, 0), zp);
                self.broadcast_from(s, block, face_row, face_staging::dest_col(f, 1), zz);
                self.broadcast_from(s, block, face_row, face_staging::dest_col(f, 2), inv);
                self.broadcast_const(s, block, staging::KAPPA, c3);
                // p* = ((Z⁺·p⁻ + Z⁻·p⁺) + Z⁻Z⁺(v_n⁻ − v_n⁺)) / (Z⁻+Z⁺)
                self.arith(s, block, AluOp::Sub, s2, s0, s1);
                self.arith(s, block, AluOp::Mul, s2, s2, zz);
                self.arith(s, block, AluOp::Mul, s3, p_col, zp);
                self.arith(s, block, AluOp::Mul, t4, gp, zm);
                self.arith(s, block, AluOp::Add, s3, s3, t4);
                self.arith(s, block, AluOp::Add, s3, s3, s2);
                self.arith(s, block, AluOp::Mul, s3, s3, inv);
                // v_n* = ((Z⁻·v_n⁻ + Z⁺·v_n⁺) + (p⁻ − p⁺)) / (Z⁻+Z⁺)
                self.arith(s, block, AluOp::Mul, s2, s0, zm);
                self.arith(s, block, AluOp::Mul, t4, s1, zp);
                self.arith(s, block, AluOp::Add, s2, s2, t4);
                self.arith(s, block, AluOp::Sub, t4, p_col, gp);
                self.arith(s, block, AluOp::Add, s2, s2, t4);
                self.arith(s, block, AluOp::Mul, s2, s2, inv);
                (s3, s2)
            }
            FluxKind::Central => {
                let half = AcousticLayout::const_col(0);
                self.arith(s, block, AluOp::Add, s3, p_col, gp);
                self.arith(s, block, AluOp::Mul, s3, s3, half);
                self.arith(s, block, AluOp::Add, s2, s0, s1);
                self.arith(s, block, AluOp::Mul, s2, s2, half);
                (s3, s2)
            }
        };

        let kappa = AcousticLayout::const_col(3);
        let inv_rho = match self.flux_kind {
            FluxKind::Riemann => AcousticLayout::VALUE,
            FluxKind::Central => AcousticLayout::COEFF,
        };

        // out_p = κ (v_n⁻ − v_n*)
        self.arith(s, block, AluOp::Sub, s0, s0, vn_star);
        self.arith(s, block, AluOp::Mul, s0, s0, kappa);
        // coeff = (p⁻ − p*) / ρ, directed along the normal (±axis).
        self.arith(s, block, AluOp::Sub, s1, p_col, p_star);
        self.arith(s, block, AluOp::Mul, s1, s1, inv_rho);
        if !plus {
            self.arith(s, block, AluOp::Neg, s1, s1, s1);
        }
        // The lift constant rotates into κ's slot once κ is consumed
        // (Riemann runs out of bank columns otherwise).
        let lift = match self.flux_kind {
            FluxKind::Riemann => {
                self.broadcast_const(s, block, staging::LIFT, kappa);
                kappa
            }
            FluxKind::Central => AcousticLayout::VALUE,
        };
        // Masked lift accumulation into the contributions.
        self.arith(s, block, AluOp::Mul, s0, s0, mask);
        self.arith(s, block, AluOp::Mac, AcousticLayout::contrib_col(P), s0, lift);
        self.arith(s, block, AluOp::Mul, s1, s1, mask);
        self.arith(s, block, AluOp::Mac, AcousticLayout::contrib_col(VX + axis), s1, lift);
    }

    // ---- Integration ----

    /// Emits the Integration kernel (LSRK stage `stage`) for one element.
    pub fn emit_integration(&self, s: &mut InstrStream, elem: usize, stage: usize) {
        let block = self.block_of(elem);
        let a_col = AcousticLayout::const_col(0);
        let b_col = AcousticLayout::const_col(1);
        let dt_col = AcousticLayout::const_col(2);
        self.broadcast_const(s, block, staging::A0 + stage, a_col);
        self.broadcast_const(s, block, staging::B0 + stage, b_col);
        self.broadcast_const(s, block, staging::DT, dt_col);
        let t = AcousticLayout::scratch_col(0);
        for v in 0..AcousticLayout::NUM_VARS {
            let aux = AcousticLayout::aux_col(v);
            let contrib = AcousticLayout::contrib_col(v);
            let var = AcousticLayout::var_col(v);
            // aux = A·aux + dt·contrib
            self.arith(s, block, AluOp::Mul, aux, aux, a_col);
            self.arith(s, block, AluOp::Mul, t, contrib, dt_col);
            self.arith(s, block, AluOp::Add, aux, aux, t);
            // u += B·aux
            self.arith(s, block, AluOp::Mul, t, aux, b_col);
            self.arith(s, block, AluOp::Add, var, var, t);
        }
    }

    /// Compiles one full LSRK stage for the whole mesh: Volume for every
    /// element, the *phased* Flux schedule (fetch phases separated from
    /// compute phases, §6.3 — measured ~7× faster on the executor than
    /// interleaving fetch and compute per element, with identical
    /// numerics), then Integration. The flux of element A reads element
    /// B's *pre-stage* variables, so all variable updates wait for every
    /// flux fetch — the inter-element synchronization of §1.
    pub fn compile_stage(&self, stage: usize) -> InstrStream {
        let elems: Vec<usize> = (0..self.mesh.num_elements()).collect();
        let mut s = InstrStream::new();
        s.extend_from(&self.compile_volume_for(&elems));
        s.extend_from(&self.compile_flux_phased_for(&elems));
        s.push(Instr::Sync);
        s.extend_from(&self.compile_integration_for(&elems, stage));
        s
    }

    /// Volume kernel for a subset of elements.
    pub fn compile_volume_for(&self, elems: &[usize]) -> InstrStream {
        let mut s = InstrStream::new();
        for &e in elems {
            self.emit_volume(&mut s, e);
        }
        s.push(Instr::Sync);
        s
    }

    /// Flux kernel for a subset of elements (their neighbors' blocks must
    /// hold pre-stage variables — the batched runner guarantees this by
    /// loading the boundary slices of §6.1.2 alongside).
    pub fn compile_flux_for(&self, elems: &[usize]) -> InstrStream {
        let mut s = InstrStream::new();
        for &e in elems {
            self.emit_flux(&mut s, e);
        }
        s.push(Instr::Sync);
        s
    }

    /// Flux kernel for a subset of elements with the §6.3 *phased*
    /// schedule: for each face direction, first every element's neighbor
    /// fetch, then every element's compute. The sequential schedule of
    /// [`Self::compile_flux_for`] makes element A's fetch contend with
    /// element B's compute on B's block; phasing removes that contention
    /// — the functional realization of "the neighboring-element data
    /// fetching in Flux and the computation … can be processed in
    /// parallel" and the ±-direction split of Fig. 10.
    pub fn compile_flux_phased_for(&self, elems: &[usize]) -> InstrStream {
        let mut s = InstrStream::new();
        for &e in elems {
            self.emit_flux_consts(&mut s, e);
        }
        for face in Face::ALL {
            for &e in elems {
                self.emit_ghost_fetch(&mut s, e, face);
            }
            s.push(Instr::Sync);
            for &e in elems {
                self.emit_face_flux(&mut s, self.block_of(e), face);
            }
            s.push(Instr::Sync);
        }
        s
    }

    /// Integration kernel (LSRK stage `stage`) for a subset of elements.
    pub fn compile_integration_for(&self, elems: &[usize], stage: usize) -> InstrStream {
        let mut s = InstrStream::new();
        for &e in elems {
            self.emit_integration(&mut s, e, stage);
        }
        s.push(Instr::Sync);
        s
    }

    /// Compiles one full time-step: five stages (§2.2: "There are five
    /// integration steps in each time-step").
    pub fn compile_step(&self) -> Vec<InstrStream> {
        (0..Lsrk5::STAGES).map(|stage| self.compile_stage(stage)).collect()
    }

    /// The GLL rule in use (for building matching native solvers).
    pub fn rule(&self) -> &GllRule {
        &self.rule
    }

    /// The mesh.
    pub fn mesh(&self) -> &HexMesh {
        &self.mesh
    }
}

/// Convenience: does this mesh + boundary combination fit the functional
/// chip configuration?
pub fn fits_chip(mesh: &HexMesh, capacity_blocks: u64) -> bool {
    (mesh.num_elements() as u64) <= capacity_blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::ChipConfig;
    use wavesim_mesh::Boundary;

    fn mapping(flux: FluxKind) -> AcousticMapping {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        AcousticMapping::uniform(mesh, 3, flux, AcousticMaterial::new(2.0, 0.5))
    }

    #[test]
    fn stage_stream_shape() {
        let m = mapping(FluxKind::Riemann);
        let s = m.compile_stage(0);
        let st = s.stats();
        // 8 elements, each with inter-block ghost fetches: 6 faces × 9
        // face nodes × 1 copy.
        assert_eq!(st.copies, 8 * 6 * 9);
        assert!(st.ariths > 0);
        // Phased flux: one sync after Volume, two per face phase (6
        // faces), one before and one after Integration.
        assert_eq!(st.syncs, 15);
        // Every copy moves the 4 acoustic variables.
        assert_eq!(st.copy_words, st.copies * 4);
    }

    #[test]
    fn preload_and_extract_round_trip() {
        let m = mapping(FluxKind::Central);
        let mut chip = PimChip::new(ChipConfig::default_2gb());
        let mut state = State::zeros(8, 4, 27);
        state.fill_with(|e, v, n| (e * 100 + v * 10 + n) as f64 * 0.01);
        m.preload(&mut chip, &state, 1e-3);
        let out = m.extract_state(&mut chip);
        assert_eq!(out.max_abs_diff(&state), 0.0);
    }

    #[test]
    fn shard_map_packs_window_and_shares_one_parked_slot() {
        // Level-2 mesh (64 elements), a 16-element shard with 8 ghosts:
        // the parked 40 elements must all share slot 24 so the LUT lands
        // at 25 regardless of mesh size.
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let mut m = AcousticMapping::uniform(mesh, 3, FluxKind::Riemann, AcousticMaterial::UNIT);
        let residents: Vec<usize> = (0..16).collect();
        let ghosts: Vec<usize> = (16..24).collect();
        let window = m.install_shard_map(&residents, &ghosts);
        assert_eq!(window, 24);
        for (i, &e) in residents.iter().chain(&ghosts).enumerate() {
            assert_eq!(m.block_of(e).0, i as u32);
        }
        for e in 24..64 {
            assert_eq!(m.block_of(e).0, window);
        }
        assert_eq!(m.lut_block().0, window + 1);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn shard_map_rejects_overlapping_window() {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let mut m = AcousticMapping::uniform(mesh, 3, FluxKind::Riemann, AcousticMaterial::UNIT);
        let _ = m.install_shard_map(&[0, 1], &[1]);
    }

    #[test]
    fn central_stream_is_smaller_than_riemann() {
        let c = mapping(FluxKind::Central).compile_stage(0);
        let r = mapping(FluxKind::Riemann).compile_stage(0);
        assert!(
            c.stats().ariths < r.stats().ariths,
            "central {} vs riemann {}",
            c.stats().ariths,
            r.stats().ariths
        );
    }

    #[test]
    fn legacy_mapping_emits_no_math_streams_and_reserves_no_extra_block() {
        let m = mapping(FluxKind::Riemann);
        assert_eq!(m.extra_blocks(), 2);
        let elems: Vec<usize> = (0..8).collect();
        assert!(m.compile_math_setup_for(&elems).instrs().is_empty());
        assert!(m.compile_math_stage_for(&elems).instrs().is_empty());
        // All-host placements also stay stream-free but are recorded.
        let mut m = mapping(FluxKind::Riemann);
        m.set_math_placement(Some(MathPlacement::all_host()));
        assert_eq!(m.extra_blocks(), 2);
        assert!(m.compile_math_stage_for(&elems).instrs().is_empty());
    }

    #[test]
    fn on_pim_math_streams_reproduce_the_eval_mirrors_bit_exactly() {
        let mut m = mapping(FluxKind::Riemann);
        m.set_math_placement(Some(MathPlacement::all_onpim()));
        assert_eq!(m.extra_blocks(), 3);
        let mut chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        let elems: Vec<usize> = (0..8).collect();
        m.preload_static_subset(&mut chip, 1e-3, &elems);
        chip.execute(&m.compile_math_setup_for(&elems));
        chip.execute(&m.compile_math_stage_for(&elems));

        // κ = 2.0, ρ = 0.5 → sqrt operand κρ = 1.0, recip operand 0.5.
        let row = m.layout.const_staging_row();
        let b = chip.block(BlockId(0));
        let z = b.get(row, staging::Z);
        let inv_rho = b.get(row, staging::INV_RHO);
        let neg = b.get(row, staging::NEG_INV_RHO_J);
        let neg_jac = b.get(row, staging::NEG_JAC);
        assert_eq!(z, math_eval::sqrt_eval(1.0, ITERS_PER_STAGE).unwrap());
        assert_eq!(inv_rho, math_eval::recip_eval(0.5, ITERS_PER_STAGE).unwrap());
        assert_eq!(neg, inv_rho * neg_jac);

        // A second stage refines the seeds in place (two more steps).
        chip.execute(&m.compile_math_stage_for(&elems));
        let z2 = chip.block(BlockId(0)).get(row, staging::Z);
        assert_eq!(z2, math_eval::sqrt_eval(1.0, 2 * ITERS_PER_STAGE).unwrap());
        assert!((z2 - 1.0).abs() <= (z - 1.0).abs());
    }

    #[test]
    fn on_pim_preload_skips_host_exact_constants_for_pim_lanes() {
        let mut m = mapping(FluxKind::Riemann);
        m.set_math_placement(Some(MathPlacement {
            sqrt: Placement::OnPim,
            reciprocal: Placement::Host,
        }));
        let mut chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload_static_subset(&mut chip, 1e-3, &[0]);
        let row = m.layout.const_staging_row();
        let b = chip.block(BlockId(0));
        // Z left for the chip to produce; the host-placed reciprocal
        // constants stay exact.
        assert_eq!(b.get(row, staging::Z), 0.0);
        assert_eq!(b.get(row, staging::INV_RHO), 1.0 / 0.5);
    }

    #[test]
    fn math_site_params_capture_opcounts_and_operand_ranges() {
        let m = mapping(FluxKind::Riemann);
        let p = m.math_site_params(&[0, 1, 2]);
        assert_eq!(p.elems, 3);
        assert_eq!(p.sqrts_per_elem, 1);
        assert_eq!(p.divs_per_elem, 1);
        assert_eq!(p.sqrt_operands, (1.0, 1.0)); // κρ = 2.0 · 0.5
        assert_eq!(p.recip_operands, (0.5, 0.5));
        assert!(p.sqrt_supported() && p.recip_supported());
    }

    #[test]
    fn wall_mesh_emits_no_boundary_copies_at_walls() {
        let mesh = HexMesh::refinement_level(0, Boundary::Wall);
        let m = AcousticMapping::uniform(mesh, 3, FluxKind::Riemann, AcousticMaterial::UNIT);
        let s = m.compile_stage(0);
        // Single element, all 6 faces are walls: zero inter-block copies.
        assert_eq!(s.stats().copies, 0);
    }
}
