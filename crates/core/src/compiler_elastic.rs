//! Compilation of the *elastic* dG kernels under row-size expansion
//! (`E_r`): four memory blocks per element (§5.1, §6.2.2, Fig. 9).
//!
//! The nine elastic variables cannot share one block's 32-word rows
//! (`crate::layout::ElasticLayout`), so they are distributed over three
//! data blocks — velocity (vx, vy, vz), diagonal stress (sxx, syy, szz)
//! and shear stress (sxy, sxz, syz) — plus one buffer block for neighbor
//! data, exactly the Fig. 9 arrangement. The price is cross-block
//! traffic:
//!
//! * **Volume** — the velocity block computes all nine velocity
//!   derivatives and ships the six assembled stress contributions to the
//!   stress blocks; the stress blocks compute their nine stress
//!   derivatives and ship velocity-contribution partials back (the
//!   "inter-block memcpy" of Fig. 8, in its elastic form: "more
//!   inter-block memcpy … will happen for Volume in the elastic wave
//!   simulation", §6.2.2),
//! * **Flux** — neighbor traces land in the buffer block and are
//!   redistributed; the normal (P-characteristic) interface problem is
//!   solved where the normal traction lives (the diagonal block), the
//!   tangential (S-characteristic) ones where the shear tractions live,
//!   and the resulting traction jumps ship back to the velocity block,
//! * **Integration** — splits perfectly: each block updates its own
//!   three variables.
//!
//! Cross-block partial sums necessarily re-associate a few floating-point
//! reductions, so the functional validation for this mapping is
//! tolerance-based (~1e-12 relative) rather than bit-exact — true of any
//! real distributed execution of the same dataflow.

use pim_isa::{AluOp, BlockId, Instr, InstrStream};
use pim_math::{eval as math_eval, MathPlacement, Placement, ITERS_PER_STAGE};
use pim_sim::PimChip;
use wavesim_dg::kernels::flux::FluxTopology;
use wavesim_dg::{ElasticMaterial, FluxKind, Lsrk5, State};
use wavesim_mesh::{ElemId, Face, HexMesh, Neighbor};
use wavesim_numerics::gll::GllRule;
use wavesim_numerics::lagrange::DiffMatrix;
use wavesim_numerics::tensor::{node_coords, node_index};

use crate::layout::{ElasticBlockLayout as L, ElasticRole};

/// Element-wide staging-row columns.
mod estaging {
    pub const L2M_J: usize = 0; // (λ+2μ)·jac_inv
    pub const LAM_J: usize = 1; // λ·jac_inv
    pub const MU_J: usize = 2; // μ·jac_inv
    pub const INVRHO_J: usize = 3; // jac_inv/ρ
    pub const TWO_MU: usize = 4; // 2μ
    pub const LAM: usize = 5; // λ
    pub const MU: usize = 6; // μ
    pub const INVRHO: usize = 7; // 1/ρ
    pub const LIFT: usize = 8;
    pub const DT: usize = 9;
    pub const A0: usize = 10;
    pub const B0: usize = 15;
    pub const HALF: usize = 20;
    pub const ZPM: usize = 21; // own P impedance
    pub const ZSM: usize = 22; // own S impedance
}

/// Per-face staging: two faces per row; per face six constants
/// (ZPP, ZZP, INVP, ZSP, ZZS, INVS) and their six LUT indices.
mod eface {
    pub const CONSTS_PER_FACE: usize = 6;
    pub const INDEX_BASE: usize = 16;

    pub fn dest_col(f: usize, k: usize) -> usize {
        (f % 2) * CONSTS_PER_FACE + k
    }
    pub fn index_col(f: usize, k: usize) -> usize {
        INDEX_BASE + (f % 2) * CONSTS_PER_FACE + k
    }
}

/// LUT entries per impedance pair (6 constants, padded to 8).
const LUT_STRIDE: usize = 8;

/// Shear-slot of the unordered axis pair {a, b}.
fn shear_slot(a: usize, b: usize) -> usize {
    match (a.min(b), a.max(b)) {
        (0, 1) => 0, // sxy
        (0, 2) => 1, // sxz
        (1, 2) => 2, // syz
        _ => panic!("shear slot needs two distinct axes"),
    }
}

/// The two tangential axes of a face axis, ascending.
fn tangential(axis: usize) -> [usize; 2] {
    match axis {
        0 => [1, 2],
        1 => [0, 2],
        2 => [0, 1],
        _ => unreachable!(),
    }
}

/// The four-block elastic mapping.
pub struct ElasticMapping {
    mesh: HexMesh,
    layout: L,
    rule: GllRule,
    d: DiffMatrix,
    topo: FluxTopology,
    materials: Vec<ElasticMaterial>,
    flux_kind: FluxKind,
    jac_inv: f64,
    lift: f64,
    pairs: Vec<(ElasticMaterial, ElasticMaterial)>,
    face_pair: Vec<[usize; 6]>,
    /// Element → quartet placement (identity by default; the batched
    /// runner remaps resident elements into the available window).
    quartet_map: Vec<u32>,
    /// Transcendental placement. `None` (the default) preloads host-exact
    /// constants, bit-identical to the pre-math-subsystem behavior. When
    /// an op is PIM-placed, the preload routes its derived constants
    /// through the `pim_math` fixed-point mirrors so the four-block
    /// mapping prices the same accuracy contract as the one-block one
    /// (full on-chip refinement streams for this mapping are an open
    /// follow-up; see ROADMAP).
    math: Option<MathPlacement>,
}

impl ElasticMapping {
    /// Builds the mapping with per-element materials.
    pub fn new(
        mesh: HexMesh,
        n: usize,
        flux_kind: FluxKind,
        materials: Vec<ElasticMaterial>,
    ) -> Self {
        assert_eq!(materials.len(), mesh.num_elements(), "one material per element");
        let layout = L::new(n);
        let rule = GllRule::new(n);
        let d = DiffMatrix::for_gll(&rule);
        let topo = FluxTopology::new(n);
        let geom = wavesim_mesh::ElementGeometry::new(mesh.h(), &rule);
        let jac_inv = geom.jacobian_inverse_domain();
        let lift = geom.lift_factor(rule.weights()[0]);

        let mut pairs: Vec<(ElasticMaterial, ElasticMaterial)> = Vec::new();
        let mut face_pair = Vec::with_capacity(mesh.num_elements());
        for e in 0..mesh.num_elements() {
            let own = materials[e];
            let mut per_face = [0usize; 6];
            for face in Face::ALL {
                let nb = match mesh.neighbor(ElemId(e), face) {
                    Neighbor::Element(nb) => materials[nb.index()],
                    Neighbor::Boundary => own,
                };
                let key = (own, nb);
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
            "too many distinct material pairs for one LUT block"
        );

        let quartet_map = (0..mesh.num_elements() as u32).collect();
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
            quartet_map,
            math: None,
        }
    }

    /// One material everywhere.
    pub fn uniform(
        mesh: HexMesh,
        n: usize,
        flux_kind: FluxKind,
        material: ElasticMaterial,
    ) -> Self {
        let materials = vec![material; mesh.num_elements()];
        Self::new(mesh, n, flux_kind, materials)
    }

    pub fn n(&self) -> usize {
        self.layout.n
    }

    pub fn nodes(&self) -> usize {
        self.layout.nodes()
    }

    pub fn mesh(&self) -> &HexMesh {
        &self.mesh
    }

    /// The block of `role` for element `e` (four consecutive blocks per
    /// element, so the quartet shares its lowest H-tree switch).
    pub fn block_of(&self, e: usize, role: ElasticRole) -> BlockId {
        BlockId(self.quartet_map[e] * 4 + role.offset() as u32)
    }

    /// Installs an element → quartet placement (for the batched runner).
    ///
    /// # Panics
    /// Panics if the map's length differs from the element count.
    pub fn set_quartet_map(&mut self, map: Vec<u32>) {
        assert_eq!(map.len(), self.mesh.num_elements(), "one quartet per element");
        self.quartet_map = map;
    }

    /// The reserved LUT block (just past the highest placed quartet).
    pub fn lut_block(&self) -> BlockId {
        BlockId((self.quartet_map.iter().copied().max().unwrap_or(0) + 1) * 4)
    }

    /// Blocks required (4 per element + 1 LUT).
    pub fn blocks_required(&self) -> usize {
        self.mesh.num_elements() * 4 + 1
    }

    /// Distinct material pairs in the LUT.
    pub fn num_material_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Selects the transcendental placement for subsequent preloads.
    pub fn set_math_placement(&mut self, placement: Option<MathPlacement>) {
        self.math = placement;
    }

    pub fn math_placement(&self) -> Option<MathPlacement> {
        self.math
    }

    // ---- preload / extract ----

    /// Preloads variables, dshape, masks, staged constants, LUT contents
    /// and LUT indices for the whole mesh.
    pub fn preload(&self, chip: &mut PimChip, state: &State, dt: f64) {
        let elems: Vec<usize> = (0..self.mesh.num_elements()).collect();
        self.preload_static_subset(chip, dt, &elems);
        self.load_vars_subset(chip, state, &elems);
        self.zero_dynamic_subset(chip, &elems);
    }

    /// Per-element static data (dshape, masks, staged constants, LUT
    /// indices) for a subset, plus the shared material-pair LUT block.
    pub fn preload_static_subset(&self, chip: &mut PimChip, dt: f64, elems: &[usize]) {
        let n = self.n();
        let nodes = self.nodes();
        let staging = self.layout.const_staging_row();

        // PIM-placed ops route their derived constants through the
        // fixed-point mirrors; host-placed ops keep the exact values
        // (both closures are identity-exact when the op is host-placed,
        // so the default path stays bit-identical).
        let sqrt_pim = self.math.is_some_and(|p| p.sqrt == Placement::OnPim);
        let recip_pim = self.math.is_some_and(|p| p.reciprocal == Placement::OnPim);
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

        // LUT contents.
        let lut = self.lut_block();
        for (pidx, &(own, nb)) in self.pairs.iter().enumerate() {
            let (zpm, zpp) = (imp(own.p_impedance()), imp(nb.p_impedance()));
            let (zsm, zsp) = (imp(own.s_impedance()), imp(nb.s_impedance()));
            let values = [zpp, zpm * zpp, recip(zpm + zpp), zsp, zsm * zsp, recip(zsm + zsp)];
            let b = chip.block_mut(lut);
            for (k, &v) in values.iter().enumerate() {
                let w = pidx * LUT_STRIDE + k;
                b.set(w / pim_isa::WORDS_PER_ROW, w % pim_isa::WORDS_PER_ROW, v);
            }
        }

        // These blocks write the compute rows and the constants rows
        // through the last face-staging row; reserving those tiles spares
        // each arena a growth.
        let last_row = self.layout.face_staging_row(Face::ALL.len() - 1);
        let tiles = crate::layout::element_tiles(nodes, last_row);
        for &e in elems {
            let m = self.materials[e];
            // `jac_inv / ρ` keeps its fused form on the default path; the
            // PIM-placed form factors through the mirrored reciprocal.
            let invrho_j =
                if recip_pim { self.jac_inv * recip(m.rho) } else { self.jac_inv / m.rho };
            for role in [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress] {
                let block = self.block_of(e, role);
                let b = chip.block_mut(block);
                b.reserve_tiles(tiles);
                for node in 0..nodes {
                    for f in 0..6 {
                        b.set(node, L::mask_col(f), 0.0);
                    }
                }
                for face in Face::ALL {
                    for &node in self.topo.face_table(face) {
                        b.set(node, L::mask_col(face.code()), 1.0);
                    }
                }
                for a in 0..n {
                    for mcol in 0..n {
                        b.set(self.layout.dshape_row(a), mcol, self.d.get(a, mcol));
                    }
                }
                let consts: [(usize, f64); 13] = [
                    (estaging::L2M_J, (m.lambda + 2.0 * m.mu) * self.jac_inv),
                    (estaging::LAM_J, m.lambda * self.jac_inv),
                    (estaging::MU_J, m.mu * self.jac_inv),
                    (estaging::INVRHO_J, invrho_j),
                    (estaging::TWO_MU, 2.0 * m.mu),
                    (estaging::LAM, m.lambda),
                    (estaging::MU, m.mu),
                    (estaging::INVRHO, recip(m.rho)),
                    (estaging::LIFT, self.lift),
                    (estaging::DT, dt),
                    (estaging::HALF, 0.5),
                    (estaging::ZPM, imp(m.p_impedance())),
                    (estaging::ZSM, imp(m.s_impedance())),
                ];
                for (col, v) in consts {
                    b.set(staging, col, v);
                }
                for s in 0..Lsrk5::STAGES {
                    b.set(staging, estaging::A0 + s, Lsrk5::A[s]);
                    b.set(staging, estaging::B0 + s, Lsrk5::B[s]);
                }
                for face in Face::ALL {
                    let f = face.code();
                    let row = self.layout.face_staging_row(f);
                    let pair = self.face_pair[e][f];
                    for k in 0..eface::CONSTS_PER_FACE {
                        b.set(row, eface::index_col(f, k), (pair * LUT_STRIDE + k) as f64);
                    }
                }
            }
        }
    }

    /// Column-family loader shared by the subset DMA helpers.
    fn load_cols(
        &self,
        chip: &mut PimChip,
        source: &State,
        elems: &[usize],
        col_of: impl Fn(usize) -> usize,
    ) {
        for &e in elems {
            for role in [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress] {
                let block = self.block_of(e, role);
                let vars = role.vars();
                let b = chip.block_mut(block);
                for node in 0..self.nodes() {
                    for (slot, &var) in vars.iter().enumerate() {
                        b.set(node, col_of(slot), source.value(e, var, node));
                    }
                }
            }
        }
    }

    /// Loads variables for a subset (the batching DMA, host side).
    pub fn load_vars_subset(&self, chip: &mut PimChip, state: &State, elems: &[usize]) {
        self.load_cols(chip, state, elems, L::var_col);
    }

    /// Loads LSRK auxiliaries for a subset.
    pub fn load_aux_subset(&self, chip: &mut PimChip, aux: &State, elems: &[usize]) {
        self.load_cols(chip, aux, elems, L::aux_col);
    }

    /// Loads contributions for a subset.
    pub fn load_contribs_subset(&self, chip: &mut PimChip, contribs: &State, elems: &[usize]) {
        self.load_cols(chip, contribs, elems, L::contrib_col);
    }

    /// Zeroes aux/contribution/ghost/transfer columns for a subset.
    pub fn zero_dynamic_subset(&self, chip: &mut PimChip, elems: &[usize]) {
        for &e in elems {
            for role in [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress] {
                let block = self.block_of(e, role);
                let b = chip.block_mut(block);
                for node in 0..self.nodes() {
                    for slot in 0..3 {
                        b.set(node, L::aux_col(slot), 0.0);
                        b.set(node, L::contrib_col(slot), 0.0);
                        b.set(node, L::ghost_col(slot), 0.0);
                        b.set(node, L::xfer_col(slot), 0.0);
                    }
                }
            }
        }
    }

    /// Column-family extractor shared by the subset DMA helpers.
    fn extract_cols(
        &self,
        chip: &mut PimChip,
        elems: &[usize],
        col_of: impl Fn(usize) -> usize,
        into: &mut State,
    ) {
        for &e in elems {
            for role in [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress] {
                let block = self.block_of(e, role);
                for (slot, &var) in role.vars().iter().enumerate() {
                    for node in 0..self.nodes() {
                        let v = chip.block(block).get(node, col_of(slot));
                        into.set_value(e, var, node, v);
                    }
                }
            }
        }
    }

    /// Reads variables of a subset.
    pub fn extract_vars_subset(&self, chip: &mut PimChip, elems: &[usize], into: &mut State) {
        self.extract_cols(chip, elems, L::var_col, into);
    }

    /// Reads auxiliaries of a subset.
    pub fn extract_aux_subset(&self, chip: &mut PimChip, elems: &[usize], into: &mut State) {
        self.extract_cols(chip, elems, L::aux_col, into);
    }

    /// Reads contributions of a subset.
    pub fn extract_contribs_subset(&self, chip: &mut PimChip, elems: &[usize], into: &mut State) {
        self.extract_cols(chip, elems, L::contrib_col, into);
    }

    /// Reads the nine variables back into a `State`.
    pub fn extract_state(&self, chip: &mut PimChip) -> State {
        let mut state = State::zeros(self.mesh.num_elements(), 9, self.nodes());
        for e in 0..self.mesh.num_elements() {
            for role in [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress] {
                let block = self.block_of(e, role);
                for (slot, &var) in role.vars().iter().enumerate() {
                    for node in 0..self.nodes() {
                        let v = chip.block(block).get(node, L::var_col(slot));
                        state.set_value(e, var, node, v);
                    }
                }
            }
        }
        state
    }

    // ---- emission helpers ----

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

    fn bc(&self, s: &mut InstrStream, block: BlockId, src_col: usize, dst_col: usize) {
        self.broadcast_from(s, block, self.layout.const_staging_row(), src_col, dst_col);
    }

    fn zero(&self, s: &mut InstrStream, block: BlockId, col: usize) {
        self.arith(s, block, AluOp::Sub, col, col, col);
    }

    /// Ships a column between sibling blocks: Read → Copy → Write per
    /// row. `rows` selects which rows travel (all rows for Volume,
    /// face rows only for Flux).
    fn ship_column(
        &self,
        s: &mut InstrStream,
        src: BlockId,
        src_col: usize,
        dst: BlockId,
        dst_col: usize,
        rows: &[usize],
    ) {
        for &row in rows {
            s.push(Instr::Read { block: src, row: row as u16, offset: src_col as u8, words: 1 });
            s.push(Instr::Copy { src, dst, words: 1 });
            s.push(Instr::Write { block: dst, row: row as u16, offset: dst_col as u8, words: 1 });
        }
    }

    /// One tensor-product derivative pass inside `block` (same gather +
    /// row-parallel MAC scheme as the acoustic compiler).
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
            for r in 0..nodes {
                let (i, j, k) = node_coords(n, r);
                let a = [i, j, k][axis];
                s.push(Instr::Read {
                    block,
                    row: self.layout.dshape_row(a) as u16,
                    offset: m as u8,
                    words: 1,
                });
                s.push(Instr::Write { block, row: r as u16, offset: L::COEFF as u8, words: 1 });
            }
            for r in 0..nodes {
                let (i, j, k) = node_coords(n, r);
                let src = match axis {
                    0 => node_index(n, m, j, k),
                    1 => node_index(n, i, m, k),
                    _ => node_index(n, i, j, m),
                };
                s.push(Instr::Read { block, row: src as u16, offset: src_col as u8, words: 1 });
                s.push(Instr::Write { block, row: r as u16, offset: L::VALUE as u8, words: 1 });
            }
            self.arith(s, block, AluOp::Mac, deriv_col, L::VALUE, L::COEFF);
        }
    }

    // ---- Volume ----

    /// Emits the four-block Volume kernel for one element.
    pub fn emit_volume(&self, s: &mut InstrStream, e: usize) {
        let vb = self.block_of(e, ElasticRole::Velocity);
        let db = self.block_of(e, ElasticRole::DiagStress);
        let sb = self.block_of(e, ElasticRole::ShearStress);
        let all_rows: Vec<usize> = (0..self.nodes()).collect();
        let (c0, c1, c2) = (L::const_col(0), L::const_col(1), L::const_col(2));
        let s0 = L::scratch_col(0);

        // --- Phase A: velocity block assembles the six stress
        // contributions from its nine velocity derivatives. Outgoing
        // space: ghost columns (diag) + xfer columns (shear), both free
        // until Flux.
        self.bc(s, vb, estaging::L2M_J, c0);
        self.bc(s, vb, estaging::LAM_J, c1);
        self.bc(s, vb, estaging::MU_J, c2);
        let out_diag = [L::ghost_col(0), L::ghost_col(1), L::ghost_col(2)];
        let out_shear = [L::xfer_col(0), L::xfer_col(1), L::xfer_col(2)];
        for col in out_diag.iter().chain(&out_shear) {
            self.zero(s, vb, *col);
        }
        // Diagonal passes (native scatter order): ∂ᵢvᵢ feeds all three
        // diagonal contributions.
        for (axis, vslot) in [(0usize, 0usize), (1, 1), (2, 2)] {
            self.emit_derivative(s, vb, axis, L::var_col(vslot), s0);
            #[allow(clippy::needless_range_loop)]
            for target in 0..3 {
                let c = if target == vslot { c0 } else { c1 };
                self.arith(s, vb, AluOp::Mac, out_diag[target], s0, c);
            }
        }
        // Shear passes (native order): sxy ← ∂y vx, ∂x vy; sxz ← ∂z vx,
        // ∂x vz; syz ← ∂z vy, ∂y vz.
        for (axis, vslot, shear) in
            [(1usize, 0usize, 0usize), (0, 1, 0), (2, 0, 1), (0, 2, 1), (2, 1, 2), (1, 2, 2)]
        {
            self.emit_derivative(s, vb, axis, L::var_col(vslot), s0);
            self.arith(s, vb, AluOp::Mac, out_shear[shear], s0, c2);
        }
        // Ship the assembled stress contributions into the stress
        // blocks' contribution columns (overwriting: Volume runs first).
        for slot in 0..3 {
            self.ship_column(s, vb, out_diag[slot], db, L::contrib_col(slot), &all_rows);
            self.ship_column(s, vb, out_shear[slot], sb, L::contrib_col(slot), &all_rows);
        }

        // --- Phase B: diagonal block computes its velocity partials
        // (∂x sxx → vx, ∂y syy → vy, ∂z szz → vz).
        self.bc(s, db, estaging::INVRHO_J, c0);
        for (axis, slot) in [(0usize, 0usize), (1, 1), (2, 2)] {
            self.emit_derivative(s, db, axis, L::var_col(slot), s0);
            self.arith(s, db, AluOp::Mul, L::xfer_col(slot), s0, c0);
        }
        for slot in 0..3 {
            self.ship_column(s, db, L::xfer_col(slot), vb, L::xfer_col(slot), &all_rows);
        }

        // --- Phase C: shear block computes the remaining velocity
        // partials (two derivatives per velocity).
        self.bc(s, sb, estaging::INVRHO_J, c0);
        for (slot, passes) in [
            (0usize, [(1usize, 0usize), (2, 1)]), // vx ← ∂y sxy + ∂z sxz
            (1, [(0, 0), (2, 2)]),                // vy ← ∂x sxy + ∂z syz
            (2, [(0, 1), (1, 2)]),                // vz ← ∂x sxz + ∂y syz
        ] {
            self.zero(s, sb, L::xfer_col(slot));
            for (axis, src_slot) in passes {
                self.emit_derivative(s, sb, axis, L::var_col(src_slot), s0);
                self.arith(s, sb, AluOp::Mac, L::xfer_col(slot), s0, c0);
            }
        }
        for slot in 0..3 {
            self.ship_column(s, sb, L::xfer_col(slot), vb, L::ghost_col(slot), &all_rows);
        }

        // --- Phase D: velocity block reduces the partials.
        for slot in 0..3 {
            self.arith(
                s,
                vb,
                AluOp::Add,
                L::contrib_col(slot),
                L::xfer_col(slot),
                L::ghost_col(slot),
            );
        }
    }

    // ---- Flux ----

    /// Emits the four-block Flux kernel for one element.
    pub fn emit_flux(&self, s: &mut InstrStream, e: usize) {
        let vb = self.block_of(e, ElasticRole::Velocity);
        let sb = self.block_of(e, ElasticRole::ShearStress);

        // Kernel-wide constants in the gather columns (free during Flux).
        self.bc(s, vb, estaging::INVRHO, L::COEFF);
        self.bc(s, vb, estaging::LIFT, L::VALUE);
        self.bc(s, sb, estaging::MU, L::COEFF);
        self.bc(s, sb, estaging::LIFT, L::VALUE);

        for face in Face::ALL {
            self.emit_ghost_fetch(s, e, face);
            self.emit_face_flux(s, e, face);
        }
    }

    /// Fetches the neighbor's nine variables into the buffer block, then
    /// redistributes each variable group to its data block (Fig. 9: the
    /// long-haul transfer lands once in the buffer; the short sibling
    /// hops fan it out).
    fn emit_ghost_fetch(&self, s: &mut InstrStream, e: usize, face: Face) {
        let gb = self.block_of(e, ElasticRole::Buffer);
        let own_table = self.topo.face_table(face);
        let roles = [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress];
        match self.mesh.neighbor(ElemId(e), face) {
            Neighbor::Element(nb) => {
                let nb_table = self.topo.face_table(face.opposite());
                for t in 0..self.topo.nodes_per_face() {
                    for (g, role) in roles.iter().enumerate() {
                        let src = self.block_of(nb.index(), *role);
                        s.push(Instr::Read {
                            block: src,
                            row: nb_table[t] as u16,
                            offset: L::VARS as u8,
                            words: 3,
                        });
                        s.push(Instr::Copy { src, dst: gb, words: 3 });
                        s.push(Instr::Write {
                            block: gb,
                            row: own_table[t] as u16,
                            offset: (3 * g) as u8,
                            words: 3,
                        });
                    }
                }
                // Redistribute to the data blocks' ghost columns.
                #[allow(clippy::needless_range_loop)]
                for t in 0..self.topo.nodes_per_face() {
                    for (g, role) in roles.iter().enumerate() {
                        let dst = self.block_of(e, *role);
                        s.push(Instr::Read {
                            block: gb,
                            row: own_table[t] as u16,
                            offset: (3 * g) as u8,
                            words: 3,
                        });
                        s.push(Instr::Copy { src: gb, dst, words: 3 });
                        s.push(Instr::Write {
                            block: dst,
                            row: own_table[t] as u16,
                            offset: L::GHOST as u8,
                            words: 3,
                        });
                    }
                }
            }
            Neighbor::Boundary => {
                // Rigid wall (native `Elastic::wall_ghost`): v⁺ = −v,
                // S⁺ = S — synthesized locally, row-parallel.
                let vb = self.block_of(e, ElasticRole::Velocity);
                for slot in 0..3 {
                    self.arith(
                        s,
                        vb,
                        AluOp::Neg,
                        L::ghost_col(slot),
                        L::var_col(slot),
                        L::var_col(slot),
                    );
                }
                for role in [ElasticRole::DiagStress, ElasticRole::ShearStress] {
                    let b = self.block_of(e, role);
                    for slot in 0..3 {
                        self.arith(
                            s,
                            b,
                            AluOp::Mov,
                            L::ghost_col(slot),
                            L::var_col(slot),
                            L::var_col(slot),
                        );
                    }
                }
            }
        }
    }

    /// The per-face flux computation: normal part in the diagonal block,
    /// tangential parts in the shear block, velocity updates in the
    /// velocity block.
    fn emit_face_flux(&self, s: &mut InstrStream, e: usize, face: Face) {
        let vb = self.block_of(e, ElasticRole::Velocity);
        let db = self.block_of(e, ElasticRole::DiagStress);
        let sb = self.block_of(e, ElasticRole::ShearStress);
        let axis = face.axis().index();
        let plus = face.is_plus();
        let f = face.code();
        let mask = L::mask_col(f);
        let face_rows: Vec<usize> = self.topo.face_table(face).to_vec();
        let sign_op = if plus { AluOp::Mov } else { AluOp::Neg };
        let (s0, s1, s2, s3) =
            (L::scratch_col(0), L::scratch_col(1), L::scratch_col(2), L::scratch_col(3));
        let (c0, c1, c2, c3) = (L::const_col(0), L::const_col(1), L::const_col(2), L::const_col(3));
        let face_row = self.layout.face_staging_row(f);

        // --- Velocity block: normal traces, shipped to the diag block.
        self.arith(s, vb, sign_op, s0, L::var_col(axis), L::var_col(axis));
        self.arith(s, vb, sign_op, s1, L::ghost_col(axis), L::ghost_col(axis));
        self.ship_column(s, vb, s0, db, L::xfer_col(0), &face_rows);
        self.ship_column(s, vb, s1, db, L::xfer_col(1), &face_rows);

        // --- Diagonal block: the P-characteristic interface problem.
        let tn_m = L::var_col(axis); // t_n⁻ = s_aa
        let tn_p = L::ghost_col(axis);
        let (vn_m, vn_p) = (L::xfer_col(0), L::xfer_col(1));
        let (tn_star, vn_star) = match self.flux_kind {
            FluxKind::Riemann => {
                self.broadcast_from(s, db, face_row, eface::dest_col(f, 0), c0); // Z_p⁺
                self.broadcast_from(s, db, face_row, eface::dest_col(f, 1), c1); // Z_p⁻Z_p⁺
                self.broadcast_from(s, db, face_row, eface::dest_col(f, 2), c2); // 1/(Z_p⁻+Z_p⁺)
                self.bc(s, db, estaging::ZPM, c3);
                // t_n* = ((Z⁺t_n⁻ + Z⁻t_n⁺) − Z⁻Z⁺(v_n⁻ − v_n⁺))·inv
                self.arith(s, db, AluOp::Sub, s2, vn_m, vn_p);
                self.arith(s, db, AluOp::Mul, s2, s2, c1);
                self.arith(s, db, AluOp::Mul, s0, tn_m, c0);
                self.arith(s, db, AluOp::Mul, s3, tn_p, c3);
                self.arith(s, db, AluOp::Add, s0, s0, s3);
                self.arith(s, db, AluOp::Sub, s0, s0, s2);
                self.arith(s, db, AluOp::Mul, s0, s0, c2);
                // v_n* = ((Z⁻v_n⁻ + Z⁺v_n⁺) − (t_n⁻ − t_n⁺))·inv
                self.arith(s, db, AluOp::Mul, s1, vn_m, c3);
                self.arith(s, db, AluOp::Mul, s3, vn_p, c0);
                self.arith(s, db, AluOp::Add, s1, s1, s3);
                self.arith(s, db, AluOp::Sub, s3, tn_m, tn_p);
                self.arith(s, db, AluOp::Sub, s1, s1, s3);
                self.arith(s, db, AluOp::Mul, s1, s1, c2);
                (s0, s1)
            }
            FluxKind::Central => {
                self.bc(s, db, estaging::HALF, c0);
                self.arith(s, db, AluOp::Add, s0, tn_m, tn_p);
                self.arith(s, db, AluOp::Mul, s0, s0, c0);
                self.arith(s, db, AluOp::Add, s1, vn_m, vn_p);
                self.arith(s, db, AluOp::Mul, s1, s1, c0);
                (s0, s1)
            }
        };
        // Δt_n → velocity block; w = v_n* − v_n⁻ drives the stress rows.
        self.arith(s, db, AluOp::Sub, s3, tn_star, tn_m);
        self.ship_column(s, db, s3, vb, L::xfer_col(0), &face_rows);
        self.arith(s, db, AluOp::Sub, s2, vn_star, vn_m); // w
                                                          // out_aa = 2μ·w + λ·w; out_bb = out_cc = λ·w.
        self.bc(s, db, estaging::TWO_MU, c0);
        self.bc(s, db, estaging::LAM, c1);
        self.bc(s, db, estaging::LIFT, c2);
        self.arith(s, db, AluOp::Mul, s0, s2, c0);
        self.arith(s, db, AluOp::Mul, s1, s2, c1);
        self.arith(s, db, AluOp::Add, s0, s0, s1);
        self.arith(s, db, AluOp::Mul, s0, s0, mask);
        self.arith(s, db, AluOp::Mac, L::contrib_col(axis), s0, c2);
        self.arith(s, db, AluOp::Mul, s1, s1, mask);
        for t in tangential(axis) {
            self.arith(s, db, AluOp::Mac, L::contrib_col(t), s1, c2);
        }

        // --- Shear block: the two S-characteristic problems.
        if self.flux_kind == FluxKind::Riemann {
            self.broadcast_from(s, sb, face_row, eface::dest_col(f, 3), c0); // Z_s⁺
            self.broadcast_from(s, sb, face_row, eface::dest_col(f, 4), c1); // Z_s⁻Z_s⁺
            self.broadcast_from(s, sb, face_row, eface::dest_col(f, 5), c2); // 1/(Z_s⁻+Z_s⁺)
            self.bc(s, sb, estaging::ZSM, c3);
        } else {
            self.bc(s, sb, estaging::HALF, c0);
        }
        for (ti, t_axis) in tangential(axis).into_iter().enumerate() {
            let st = shear_slot(axis, t_axis);
            // Tangential traces: t_t⁻ = ±s_at, v_t from the velocity block.
            self.ship_column(s, vb, L::var_col(t_axis), sb, L::xfer_col(0), &face_rows);
            self.ship_column(s, vb, L::ghost_col(t_axis), sb, L::xfer_col(1), &face_rows);
            let (vt_m, vt_p) = (L::xfer_col(0), L::xfer_col(1));
            self.arith(s, sb, sign_op, s0, L::var_col(st), L::var_col(st)); // t_t⁻
            self.arith(s, sb, sign_op, s1, L::ghost_col(st), L::ghost_col(st)); // t_t⁺
            let t4 = L::SPARE;
            let (tt_star, vt_star) = match self.flux_kind {
                FluxKind::Riemann => {
                    // t_t* = ((Z⁺t_t⁻ + Z⁻t_t⁺) − Z⁻Z⁺(v_t⁻ − v_t⁺))·inv
                    self.arith(s, sb, AluOp::Sub, s2, vt_m, vt_p);
                    self.arith(s, sb, AluOp::Mul, s2, s2, c1);
                    self.arith(s, sb, AluOp::Mul, s3, s0, c0);
                    self.arith(s, sb, AluOp::Mul, t4, s1, c3);
                    self.arith(s, sb, AluOp::Add, s3, s3, t4);
                    self.arith(s, sb, AluOp::Sub, s3, s3, s2);
                    self.arith(s, sb, AluOp::Mul, s3, s3, c2);
                    // v_t* = ((Z⁻v_t⁻ + Z⁺v_t⁺) − (t_t⁻ − t_t⁺))·inv
                    self.arith(s, sb, AluOp::Mul, s2, vt_m, c3);
                    self.arith(s, sb, AluOp::Mul, t4, vt_p, c0);
                    self.arith(s, sb, AluOp::Add, s2, s2, t4);
                    self.arith(s, sb, AluOp::Sub, t4, s0, s1);
                    self.arith(s, sb, AluOp::Sub, s2, s2, t4);
                    self.arith(s, sb, AluOp::Mul, s2, s2, c2);
                    (s3, s2)
                }
                FluxKind::Central => {
                    self.arith(s, sb, AluOp::Add, s3, s0, s1);
                    self.arith(s, sb, AluOp::Mul, s3, s3, c0);
                    self.arith(s, sb, AluOp::Add, s2, vt_m, vt_p);
                    self.arith(s, sb, AluOp::Mul, s2, s2, c0);
                    (s3, s2)
                }
            };
            // Δt_t → velocity block (xfer 1 and 2 for the two axes).
            self.arith(s, sb, AluOp::Sub, t4, tt_star, s0);
            self.ship_column(s, sb, t4, vb, L::xfer_col(1 + ti), &face_rows);
            // out_s_at = μ · (v_t* − v_t⁻) · n_a, masked and lifted.
            self.arith(s, sb, AluOp::Sub, s2, vt_star, vt_m);
            if !plus {
                self.arith(s, sb, AluOp::Neg, s2, s2, s2);
            }
            self.arith(s, sb, AluOp::Mul, s2, s2, L::COEFF); // × μ
            self.arith(s, sb, AluOp::Mul, s2, s2, mask);
            self.arith(s, sb, AluOp::Mac, L::contrib_col(st), s2, L::VALUE);
        }

        // --- Velocity block: out_v = (t* − t⁻)/ρ per component.
        // Normal component carries the face sign; tangential ones do not.
        self.arith(s, vb, sign_op, s0, L::xfer_col(0), L::xfer_col(0));
        self.arith(s, vb, AluOp::Mul, s0, s0, L::COEFF);
        self.arith(s, vb, AluOp::Mul, s0, s0, mask);
        self.arith(s, vb, AluOp::Mac, L::contrib_col(axis), s0, L::VALUE);
        for (ti, t_axis) in tangential(axis).into_iter().enumerate() {
            self.arith(s, vb, AluOp::Mul, s0, L::xfer_col(1 + ti), L::COEFF);
            self.arith(s, vb, AluOp::Mul, s0, s0, mask);
            self.arith(s, vb, AluOp::Mac, L::contrib_col(t_axis), s0, L::VALUE);
        }
    }

    // ---- Integration ----

    /// Emits the Integration kernel: each data block updates its own
    /// three variables ("we simply distribute … since there is no
    /// inter-block data dependency", §6.2.1).
    pub fn emit_integration(&self, s: &mut InstrStream, e: usize, stage: usize) {
        for role in [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress] {
            let block = self.block_of(e, role);
            let (a_col, b_col, dt_col) = (L::const_col(0), L::const_col(1), L::const_col(2));
            self.bc(s, block, estaging::A0 + stage, a_col);
            self.bc(s, block, estaging::B0 + stage, b_col);
            self.bc(s, block, estaging::DT, dt_col);
            let t = L::scratch_col(0);
            for slot in 0..3 {
                let aux = L::aux_col(slot);
                let contrib = L::contrib_col(slot);
                let var = L::var_col(slot);
                self.arith(s, block, AluOp::Mul, aux, aux, a_col);
                self.arith(s, block, AluOp::Mul, t, contrib, dt_col);
                self.arith(s, block, AluOp::Add, aux, aux, t);
                self.arith(s, block, AluOp::Mul, t, aux, b_col);
                self.arith(s, block, AluOp::Add, var, var, t);
            }
        }
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

    /// Flux kernel for a subset of elements.
    pub fn compile_flux_for(&self, elems: &[usize]) -> InstrStream {
        let mut s = InstrStream::new();
        for &e in elems {
            self.emit_flux(&mut s, e);
        }
        s.push(Instr::Sync);
        s
    }

    /// Integration kernel for a subset of elements.
    pub fn compile_integration_for(&self, elems: &[usize], stage: usize) -> InstrStream {
        let mut s = InstrStream::new();
        for &e in elems {
            self.emit_integration(&mut s, e, stage);
        }
        s.push(Instr::Sync);
        s
    }

    /// Compiles the one-time LUT setup (empty for the central flux).
    pub fn compile_lut_setup(&self) -> InstrStream {
        let elems: Vec<usize> = (0..self.mesh.num_elements()).collect();
        self.compile_lut_setup_for(&elems)
    }

    /// LUT setup for a subset of elements.
    pub fn compile_lut_setup_for(&self, elems: &[usize]) -> InstrStream {
        let mut s = InstrStream::new();
        if self.flux_kind == FluxKind::Central {
            return s;
        }
        let lut_block = self.lut_block().0;
        for &e in elems {
            for role in [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress] {
                let block = self.block_of(e, role);
                for face in Face::ALL {
                    let f = face.code();
                    let row_in_block = self.layout.face_staging_row(f);
                    let global_row = block.0 as usize * pim_isa::BLOCK_ROWS + row_in_block;
                    for k in 0..eface::CONSTS_PER_FACE {
                        s.push(Instr::Lut {
                            row: global_row as u32,
                            offset_s: eface::index_col(f, k) as u8,
                            lut_block,
                            offset_d: eface::dest_col(f, k) as u8,
                        });
                    }
                }
            }
        }
        s.push(Instr::Sync);
        s
    }

    /// Compiles one LSRK stage for the whole mesh.
    pub fn compile_stage(&self, stage: usize) -> InstrStream {
        let mut s = InstrStream::new();
        for e in 0..self.mesh.num_elements() {
            self.emit_volume(&mut s, e);
        }
        s.push(Instr::Sync);
        for e in 0..self.mesh.num_elements() {
            self.emit_flux(&mut s, e);
        }
        s.push(Instr::Sync);
        for e in 0..self.mesh.num_elements() {
            self.emit_integration(&mut s, e, stage);
        }
        s.push(Instr::Sync);
        s
    }

    /// Compiles one full time-step: five stages.
    pub fn compile_step(&self) -> Vec<InstrStream> {
        (0..Lsrk5::STAGES).map(|stage| self.compile_stage(stage)).collect()
    }

    /// The axes helper for tests.
    pub fn rule(&self) -> &GllRule {
        &self.rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shear_slot_mapping() {
        assert_eq!(shear_slot(0, 1), 0);
        assert_eq!(shear_slot(1, 0), 0);
        assert_eq!(shear_slot(0, 2), 1);
        assert_eq!(shear_slot(2, 1), 2);
    }

    #[test]
    fn tangential_axes_are_the_complement() {
        for a in 0..3 {
            let t = tangential(a);
            assert!(!t.contains(&a));
            assert!(t[0] < t[1]);
        }
    }

    #[test]
    fn block_assignment_is_four_per_element() {
        let mesh = HexMesh::refinement_level(1, wavesim_mesh::Boundary::Periodic);
        let m = ElasticMapping::uniform(mesh, 3, FluxKind::Central, ElasticMaterial::UNIT);
        assert_eq!(m.blocks_required(), 8 * 4 + 1);
        let b0 = m.block_of(2, ElasticRole::Velocity);
        let b3 = m.block_of(2, ElasticRole::Buffer);
        assert_eq!(b0.0, 8);
        assert_eq!(b3.0, 11);
        // The quartet shares its level-0 H-tree switch (consecutive ids
        // within a fanout-4 quad).
        assert_eq!(b0.0 / 4, b3.0 / 4);
    }

    #[test]
    fn stage_stream_uses_all_four_blocks() {
        let mesh = HexMesh::refinement_level(1, wavesim_mesh::Boundary::Periodic);
        let m = ElasticMapping::uniform(mesh, 3, FluxKind::Riemann, ElasticMaterial::UNIT);
        let s = m.compile_stage(0);
        let st = s.stats();
        assert!(st.copies > 0, "cross-block volume/flux exchange required");
        assert!(st.ariths > 0);
        assert_eq!(st.syncs, 3);
    }

    #[test]
    fn pim_placed_math_routes_preloaded_constants_through_the_mirrors() {
        let mesh = HexMesh::refinement_level(1, wavesim_mesh::Boundary::Periodic);
        let mat = ElasticMaterial::new(2.0, 1.0, 1.0);
        let mut m = ElasticMapping::uniform(mesh, 2, FluxKind::Riemann, mat);
        let state = State::zeros(m.mesh().num_elements(), 9, m.nodes());

        let mut exact_chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload(&mut exact_chip, &state, 1e-3);
        m.set_math_placement(Some(MathPlacement::all_onpim()));
        let mut pim_chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload(&mut pim_chip, &state, 1e-3);

        let staging = m.layout.const_staging_row();
        let vb = m.block_of(0, ElasticRole::Velocity);
        let zpm_exact = exact_chip.block(vb).get(staging, estaging::ZPM);
        let zpm_pim = pim_chip.block(vb).get(staging, estaging::ZPM);
        assert_eq!(zpm_exact, mat.p_impedance(), "default path must stay host-exact");
        let z = mat.p_impedance();
        assert_eq!(
            zpm_pim,
            math_eval::sqrt_eval(z * z, ITERS_PER_STAGE).unwrap(),
            "PIM-placed impedance must equal the fixed-point mirror"
        );
        assert!((zpm_pim - zpm_exact).abs() / zpm_exact < 1e-6);

        let inv_exact = exact_chip.block(vb).get(staging, estaging::INVRHO);
        let inv_pim = pim_chip.block(vb).get(staging, estaging::INVRHO);
        assert_eq!(inv_exact, 1.0 / mat.rho);
        assert_eq!(inv_pim, math_eval::recip_eval(mat.rho, ITERS_PER_STAGE).unwrap());
        assert!((inv_pim - inv_exact).abs() < 1e-6);
    }

    #[test]
    fn elastic_streams_are_heavier_than_acoustic() {
        // §6.2.2: "more inter-block memcpy … will happen for Volume in
        // the elastic wave simulation".
        let mesh = HexMesh::refinement_level(1, wavesim_mesh::Boundary::Periodic);
        let e = ElasticMapping::uniform(mesh.clone(), 3, FluxKind::Riemann, ElasticMaterial::UNIT)
            .compile_stage(0);
        let a = crate::compiler::AcousticMapping::uniform(
            mesh,
            3,
            FluxKind::Riemann,
            wavesim_dg::AcousticMaterial::UNIT,
        )
        .compile_stage(0);
        assert!(e.stats().copies > a.stats().copies);
        assert!(e.stats().ariths > a.stats().ariths);
    }
}
