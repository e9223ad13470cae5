//! Compilation of the *expanded* acoustic mapping (`E_p`, §6.2.1,
//! Figs. 8–9): one element spread over four memory blocks to quadruple
//! the per-element parallelism when the chip has room (Table 5's 2 GB+
//! acoustic rows).
//!
//! Roles: the pressure block owns `p` and doubles as the Fig. 9 neighbor
//! buffer; each of the three velocity blocks owns one velocity component
//! *plus a duplicated copy of `p`* — the paper's "overhead of data
//! duplication and inter-block data movement":
//!
//! * **Volume** (Fig. 8) — every stage starts by re-broadcasting the
//!   freshly-integrated `p` column to the velocity blocks. Block `a`
//!   then computes `grad_p[a]` (its own velocity contribution, fully
//!   local) and `div_v[a]` (its pressure partial, shipped back — "the
//!   div_v has to be transferred across blocks"),
//! * **Flux** (Fig. 9) — the pressure/buffer block receives the
//!   neighbor's `(p, v_a)` trace and forwards it to axis block `a`,
//!   which handles its two faces and accumulates a masked pressure
//!   partial for the final cross-block reduction,
//! * **Integration** — perfectly split: each block updates its own
//!   variable ("there is no inter-block data dependency", §6.2.1).
//!
//! The cross-block pressure reductions re-associate floating-point sums
//! (the Volume one happens to stay bit-exact; the Flux one does not), so
//! validation is tolerance-based like the elastic mapping's.

use pim_isa::{AluOp, BlockId, Instr, InstrStream};
use pim_math::{eval as math_eval, MathPlacement, Placement, ITERS_PER_STAGE};
use pim_sim::PimChip;
use wavesim_dg::kernels::flux::FluxTopology;
use wavesim_dg::physics::acoustic_vars;
use wavesim_dg::{AcousticMaterial, FluxKind, Lsrk5, State};
use wavesim_mesh::{ElemId, Face, HexMesh, Neighbor};
use wavesim_numerics::gll::GllRule;
use wavesim_numerics::lagrange::DiffMatrix;
use wavesim_numerics::tensor::{node_coords, node_index};

/// Column map of the pressure (buffer) block.
mod pcol {
    pub const P: usize = 0;
    pub const AUX: usize = 1;
    pub const CONTRIB: usize = 2;
    /// Incoming pressure partials from the three velocity blocks.
    pub const INCOMING: usize = 3; // 3,4,5
    /// Neighbor-trace buffer (p, v_a), refilled per face.
    pub const BUFFER: usize = 6; // 6,7
    pub const MASK: usize = 8; // 8..14
    pub const SCRATCH: usize = 16;
    pub const CONST: usize = 20;
}

/// Column map of a velocity block (axis `a`).
mod vcol {
    pub const V: usize = 0;
    pub const AUX: usize = 1;
    pub const CONTRIB: usize = 2;
    /// Duplicated pressure copy, refreshed every stage.
    pub const P_COPY: usize = 3;
    pub const GHOST_P: usize = 4;
    pub const GHOST_V: usize = 5;
    /// Outgoing Volume pressure partial (div_v term).
    pub const VOL_PARTIAL: usize = 6;
    /// Accumulated Flux pressure partial for this axis's two faces.
    pub const FLUX_PARTIAL: usize = 7;
    pub const MASK: usize = 8; // 8..14
    pub const COEFF: usize = 14;
    pub const VALUE: usize = 15;
    pub const SCRATCH: usize = 16;
    pub const CONST: usize = 20;
}

/// Element-wide staging columns (same row discipline as the other
/// mappings; shared between block roles for simplicity).
mod xstaging {
    pub const NEG_KAPPA_J: usize = 0;
    pub const NEG_INV_RHO_J: usize = 1;
    pub const HALF: usize = 2;
    pub const Z: usize = 3;
    pub const KAPPA: usize = 6;
    pub const INV_RHO: usize = 7;
    pub const LIFT: usize = 8;
    pub const DT: usize = 9;
    pub const A0: usize = 10;
    pub const B0: usize = 15;
}

/// Per-face Riemann constants (Z⁺, Z⁻Z⁺, 1/(Z⁻+Z⁺)), three faces per
/// staging row as in the one-block acoustic mapping.
mod xface {
    pub const CONSTS_PER_FACE: usize = 3;
    pub const INDEX_BASE: usize = 16;
    pub fn dest_col(f: usize, k: usize) -> usize {
        (f % 3) * CONSTS_PER_FACE + k
    }
    pub fn index_col(f: usize, k: usize) -> usize {
        INDEX_BASE + (f % 3) * CONSTS_PER_FACE + k
    }
    pub fn row_offset(f: usize) -> usize {
        f / 3
    }
}

const LUT_STRIDE: usize = 4;
const CONST_ROWS: usize = 512;

/// The four-block expanded acoustic mapping.
pub struct ExpandedAcousticMapping {
    mesh: HexMesh,
    n: usize,
    rule: GllRule,
    d: DiffMatrix,
    topo: FluxTopology,
    materials: Vec<AcousticMaterial>,
    flux_kind: FluxKind,
    jac_inv: f64,
    lift: f64,
    pairs: Vec<(f64, f64)>,
    face_pair: Vec<[usize; 6]>,
    /// Transcendental placement (`None` = host-exact constants, the
    /// bit-identical default). PIM-placed ops preload mirrored values;
    /// full on-chip streams for the four-block mapping are a ROADMAP
    /// follow-up.
    math: Option<MathPlacement>,
}

impl ExpandedAcousticMapping {
    pub fn new(
        mesh: HexMesh,
        n: usize,
        flux_kind: FluxKind,
        materials: Vec<AcousticMaterial>,
    ) -> Self {
        assert_eq!(materials.len(), mesh.num_elements(), "one material per element");
        assert!(n >= 2 && n * n * n <= 512);
        let rule = GllRule::new(n);
        let d = DiffMatrix::for_gll(&rule);
        let topo = FluxTopology::new(n);
        let geom = wavesim_mesh::ElementGeometry::new(mesh.h(), &rule);
        let jac_inv = geom.jacobian_inverse_domain();
        let lift = geom.lift_factor(rule.weights()[0]);

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

        Self {
            mesh,
            n,
            rule,
            d,
            topo,
            materials,
            flux_kind,
            jac_inv,
            lift,
            pairs,
            face_pair,
            math: None,
        }
    }

    pub fn uniform(
        mesh: HexMesh,
        n: usize,
        flux_kind: FluxKind,
        material: AcousticMaterial,
    ) -> Self {
        let materials = vec![material; mesh.num_elements()];
        Self::new(mesh, n, flux_kind, materials)
    }

    pub fn nodes(&self) -> usize {
        self.n * self.n * self.n
    }

    pub fn mesh(&self) -> &HexMesh {
        &self.mesh
    }

    /// The pressure/buffer block of element `e`.
    pub fn p_block(&self, e: usize) -> BlockId {
        BlockId((e * 4) as u32)
    }

    /// The velocity block of axis `a` (0..3) of element `e`.
    pub fn v_block(&self, e: usize, a: usize) -> BlockId {
        assert!(a < 3);
        BlockId((e * 4 + 1 + a) as u32)
    }

    pub fn lut_block(&self) -> BlockId {
        BlockId((self.mesh.num_elements() * 4) as u32)
    }

    pub fn blocks_required(&self) -> usize {
        self.mesh.num_elements() * 4 + 1
    }

    /// Selects the transcendental placement for subsequent preloads.
    pub fn set_math_placement(&mut self, placement: Option<MathPlacement>) {
        self.math = placement;
    }

    pub fn math_placement(&self) -> Option<MathPlacement> {
        self.math
    }

    fn staging_row(&self) -> usize {
        CONST_ROWS + self.n
    }

    fn face_staging_row(&self, f: usize) -> usize {
        self.staging_row() + 1 + xface::row_offset(f)
    }

    fn dshape_row(&self, a: usize) -> usize {
        CONST_ROWS + a
    }

    // ---- preload / extract ----

    pub fn preload(&self, chip: &mut PimChip, state: &State, dt: f64) {
        assert_eq!(state.num_elements(), self.mesh.num_elements());
        assert_eq!(state.num_vars(), 4);
        assert_eq!(state.nodes_per_element(), self.nodes());
        use acoustic_vars::{P, VX};
        let nodes = self.nodes();

        // Identity-exact closures when an op is host-placed, fixed-point
        // mirrors when it is PIM-placed (same contract as the one-block
        // mapping's preload).
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

        // LUT contents (same pair table as the one-block mapping).
        let lut = self.lut_block();
        for (pidx, &(zm, zp)) in self.pairs.iter().enumerate() {
            let (zm, zp) = (imp(zm), imp(zp));
            let values = [zp, zm * zp, recip(zm + zp)];
            let b = chip.block_mut(lut);
            for (k, &v) in values.iter().enumerate() {
                let w = pidx * LUT_STRIDE + k;
                b.set(w / pim_isa::WORDS_PER_ROW, w % pim_isa::WORDS_PER_ROW, v);
            }
        }

        // Each of the four blocks writes its compute rows and the
        // constants rows through the last face-staging row; reserving
        // those tiles spares each arena a growth.
        let last_row = self.face_staging_row(Face::ALL.len() - 1);
        let tiles = crate::layout::element_tiles(nodes, last_row);
        for e in 0..self.mesh.num_elements() {
            let m = self.materials[e];
            let z = imp(m.impedance());
            // The fused `jac_inv / ρ` form survives on the default path;
            // the PIM-placed form factors through the mirrored reciprocal.
            let neg_invrho_j =
                if recip_pim { -(self.jac_inv * recip(m.rho)) } else { -(self.jac_inv / m.rho) };
            let consts: [(usize, f64); 8] = [
                (xstaging::NEG_KAPPA_J, -(m.kappa * self.jac_inv)),
                (xstaging::NEG_INV_RHO_J, neg_invrho_j),
                (xstaging::HALF, 0.5),
                (xstaging::Z, z),
                (xstaging::KAPPA, m.kappa),
                (xstaging::INV_RHO, recip(m.rho)),
                (xstaging::LIFT, self.lift),
                (xstaging::DT, dt),
            ];
            // Shared preload for all four blocks: dshape, masks, staged
            // constants, LUT indices — "constants have to be copied to
            // the four blocks" (§6.2.1).
            let mut blocks = vec![self.p_block(e)];
            for a in 0..3 {
                blocks.push(self.v_block(e, a));
            }
            for &block in &blocks {
                let b = chip.block_mut(block);
                b.reserve_tiles(tiles);
                for a in 0..self.n {
                    for mcol in 0..self.n {
                        b.set(self.dshape_row(a), mcol, self.d.get(a, mcol));
                    }
                }
                for (col, v) in consts {
                    b.set(self.staging_row(), col, v);
                }
                for s in 0..Lsrk5::STAGES {
                    b.set(self.staging_row(), xstaging::A0 + s, Lsrk5::A[s]);
                    b.set(self.staging_row(), xstaging::B0 + s, Lsrk5::B[s]);
                }
                for face in Face::ALL {
                    let f = face.code();
                    let pair = self.face_pair[e][f];
                    for k in 0..xface::CONSTS_PER_FACE {
                        b.set(
                            self.face_staging_row(f),
                            xface::index_col(f, k),
                            (pair * LUT_STRIDE + k) as f64,
                        );
                    }
                    for node in 0..nodes {
                        // pcol::MASK == vcol::MASK, one write serves both.
                        b.set(node, pcol::MASK + f, 0.0);
                    }
                }
                for face in Face::ALL {
                    for &node in self.topo.face_table(face) {
                        b.set(node, pcol::MASK + face.code(), 1.0);
                    }
                }
            }
            // Variables.
            let pb = self.p_block(e);
            for node in 0..nodes {
                let b = chip.block_mut(pb);
                b.set(node, pcol::P, state.value(e, P, node));
                b.set(node, pcol::AUX, 0.0);
                b.set(node, pcol::CONTRIB, 0.0);
                for k in 0..3 {
                    b.set(node, pcol::INCOMING + k, 0.0);
                }
            }
            for a in 0..3 {
                let vb = self.v_block(e, a);
                let b = chip.block_mut(vb);
                for node in 0..nodes {
                    b.set(node, vcol::V, state.value(e, VX + a, node));
                    b.set(node, vcol::AUX, 0.0);
                    b.set(node, vcol::CONTRIB, 0.0);
                    b.set(node, vcol::P_COPY, 0.0);
                    b.set(node, vcol::GHOST_P, 0.0);
                    b.set(node, vcol::GHOST_V, 0.0);
                    b.set(node, vcol::VOL_PARTIAL, 0.0);
                    b.set(node, vcol::FLUX_PARTIAL, 0.0);
                }
            }
        }
    }

    pub fn extract_state(&self, chip: &mut PimChip) -> State {
        use acoustic_vars::{P, VX};
        let mut state = State::zeros(self.mesh.num_elements(), 4, self.nodes());
        for e in 0..self.mesh.num_elements() {
            for node in 0..self.nodes() {
                let v = chip.block(self.p_block(e)).get(node, pcol::P);
                state.set_value(e, P, node, v);
            }
            for a in 0..3 {
                let vb = self.v_block(e, a);
                for node in 0..self.nodes() {
                    let v = chip.block(vb).get(node, vcol::V);
                    state.set_value(e, VX + a, node, v);
                }
            }
        }
        state
    }

    // ---- helpers ----

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
        self.broadcast_from(s, block, self.staging_row(), src_col, dst_col);
    }

    fn zero(&self, s: &mut InstrStream, block: BlockId, col: usize) {
        self.arith(s, block, AluOp::Sub, col, col, col);
    }

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

    fn emit_derivative(
        &self,
        s: &mut InstrStream,
        block: BlockId,
        axis: usize,
        src_col: usize,
        deriv_col: usize,
    ) {
        let n = self.n;
        let nodes = self.nodes();
        self.zero(s, block, deriv_col);
        for m in 0..n {
            for r in 0..nodes {
                let (i, j, k) = node_coords(n, r);
                let a = [i, j, k][axis];
                s.push(Instr::Read {
                    block,
                    row: self.dshape_row(a) as u16,
                    offset: m as u8,
                    words: 1,
                });
                s.push(Instr::Write { block, row: r as u16, offset: vcol::COEFF as u8, words: 1 });
            }
            for r in 0..nodes {
                let (i, j, k) = node_coords(n, r);
                let src = match axis {
                    0 => node_index(n, m, j, k),
                    1 => node_index(n, i, m, k),
                    _ => node_index(n, i, j, m),
                };
                s.push(Instr::Read { block, row: src as u16, offset: src_col as u8, words: 1 });
                s.push(Instr::Write { block, row: r as u16, offset: vcol::VALUE as u8, words: 1 });
            }
            self.arith(s, block, AluOp::Mac, deriv_col, vcol::VALUE, vcol::COEFF);
        }
    }

    // ---- kernels ----

    /// The Fig. 8 Volume: duplicate p, per-axis local work, div_v
    /// exchange and reduction.
    pub fn emit_volume(&self, s: &mut InstrStream, e: usize) {
        let pb = self.p_block(e);
        let all_rows: Vec<usize> = (0..self.nodes()).collect();
        let (c0, c1) = (vcol::CONST, vcol::CONST + 1);
        let s0 = vcol::SCRATCH;

        // Data duplication: fresh p into every velocity block.
        for a in 0..3 {
            self.ship_column(s, pb, pcol::P, self.v_block(e, a), vcol::P_COPY, &all_rows);
        }
        // Per-axis local volume work (these three blocks now proceed
        // independently — the parallelism the expansion buys).
        for a in 0..3 {
            let vb = self.v_block(e, a);
            self.bc(s, vb, xstaging::NEG_KAPPA_J, c0);
            self.bc(s, vb, xstaging::NEG_INV_RHO_J, c1);
            // grad_p[a] → own velocity contribution (fully local).
            self.emit_derivative(s, vb, a, vcol::P_COPY, s0);
            self.arith(s, vb, AluOp::Mul, vcol::CONTRIB, s0, c1);
            // div_v[a] partial → pressure block.
            self.emit_derivative(s, vb, a, vcol::V, s0);
            self.arith(s, vb, AluOp::Mul, vcol::VOL_PARTIAL, s0, c0);
            self.ship_column(s, vb, vcol::VOL_PARTIAL, pb, pcol::INCOMING + a, &all_rows);
        }
        // Reduce: contrib_p = ((in_x + in_y) + in_z).
        self.arith(s, pb, AluOp::Add, pcol::CONTRIB, pcol::INCOMING, pcol::INCOMING + 1);
        self.arith(s, pb, AluOp::Add, pcol::CONTRIB, pcol::CONTRIB, pcol::INCOMING + 2);
    }

    /// The Fig. 9 Flux: buffer-block fetch, per-axis compute, pressure
    /// partial reduction.
    pub fn emit_flux(&self, s: &mut InstrStream, e: usize) {
        let pb = self.p_block(e);

        for a in 0..3 {
            let vb = self.v_block(e, a);
            self.zero(s, vb, vcol::FLUX_PARTIAL);
            self.bc(s, vb, xstaging::INV_RHO, vcol::COEFF);
        }

        for face in Face::ALL {
            let axis = face.axis().index();
            let plus = face.is_plus();
            let f = face.code();
            let vb = self.v_block(e, axis);
            let own_table = self.topo.face_table(face);

            // Fetch (p, v_axis) through the buffer block, then forward
            // to the axis block (Fig. 9's two-hop path: the long
            // haul lands once, the sibling hop fans out).
            match self.mesh.neighbor(ElemId(e), face) {
                Neighbor::Element(nb) => {
                    let nb_table = self.topo.face_table(face.opposite());
                    for t in 0..self.topo.nodes_per_face() {
                        let src_p = self.p_block(nb.index());
                        s.push(Instr::Read {
                            block: src_p,
                            row: nb_table[t] as u16,
                            offset: pcol::P as u8,
                            words: 1,
                        });
                        s.push(Instr::Copy { src: src_p, dst: pb, words: 1 });
                        s.push(Instr::Write {
                            block: pb,
                            row: own_table[t] as u16,
                            offset: pcol::BUFFER as u8,
                            words: 1,
                        });
                        let src_v = self.v_block(nb.index(), axis);
                        s.push(Instr::Read {
                            block: src_v,
                            row: nb_table[t] as u16,
                            offset: vcol::V as u8,
                            words: 1,
                        });
                        s.push(Instr::Copy { src: src_v, dst: pb, words: 1 });
                        s.push(Instr::Write {
                            block: pb,
                            row: own_table[t] as u16,
                            offset: (pcol::BUFFER + 1) as u8,
                            words: 1,
                        });
                    }
                    #[allow(clippy::needless_range_loop)]
                    for t in 0..self.topo.nodes_per_face() {
                        s.push(Instr::Read {
                            block: pb,
                            row: own_table[t] as u16,
                            offset: pcol::BUFFER as u8,
                            words: 2,
                        });
                        s.push(Instr::Copy { src: pb, dst: vb, words: 2 });
                        s.push(Instr::Write {
                            block: vb,
                            row: own_table[t] as u16,
                            offset: vcol::GHOST_P as u8,
                            words: 2,
                        });
                    }
                }
                Neighbor::Boundary => {
                    // Mirror ghost, locally in the axis block.
                    self.arith(s, vb, AluOp::Mov, vcol::GHOST_P, vcol::P_COPY, vcol::P_COPY);
                    self.arith(s, vb, AluOp::Neg, vcol::GHOST_V, vcol::V, vcol::V);
                }
            }

            // Row-parallel flux in the axis block (mirrors the one-block
            // mapping's sequence with remapped columns).
            self.emit_axis_face_flux(s, vb, f, plus);
        }

        // Pressure partial reduction.
        let all_rows: Vec<usize> = (0..self.nodes()).collect();
        for a in 0..3 {
            self.ship_column(
                s,
                self.v_block(e, a),
                vcol::FLUX_PARTIAL,
                pb,
                pcol::INCOMING + a,
                &all_rows,
            );
        }
        for a in 0..3 {
            self.arith(s, pb, AluOp::Add, pcol::CONTRIB, pcol::CONTRIB, pcol::INCOMING + a);
        }
    }

    fn emit_axis_face_flux(&self, s: &mut InstrStream, vb: BlockId, f: usize, plus: bool) {
        let mask = vcol::MASK + f;
        let (s0, s1, s2, s3) =
            (vcol::SCRATCH, vcol::SCRATCH + 1, vcol::SCRATCH + 2, vcol::SCRATCH + 3);
        let (c0, c1, c2, c3) = (vcol::CONST, vcol::CONST + 1, vcol::CONST + 2, vcol::CONST + 3);
        let sign_op = if plus { AluOp::Mov } else { AluOp::Neg };

        self.arith(s, vb, sign_op, s0, vcol::V, vcol::V);
        self.arith(s, vb, sign_op, s1, vcol::GHOST_V, vcol::GHOST_V);

        let (p_star, vn_star) = match self.flux_kind {
            FluxKind::Riemann => {
                let face_row = self.face_staging_row(f);
                self.broadcast_from(s, vb, face_row, xface::dest_col(f, 0), c0); // Z⁺
                self.broadcast_from(s, vb, face_row, xface::dest_col(f, 1), c1); // Z⁻Z⁺
                self.broadcast_from(s, vb, face_row, xface::dest_col(f, 2), c2); // inv
                self.bc(s, vb, xstaging::Z, c3); // Z⁻
                self.arith(s, vb, AluOp::Sub, s2, s0, s1);
                self.arith(s, vb, AluOp::Mul, s2, s2, c1);
                self.arith(s, vb, AluOp::Mul, s3, vcol::P_COPY, c0);
                self.arith(s, vb, AluOp::Mul, vcol::VALUE, vcol::GHOST_P, c3);
                self.arith(s, vb, AluOp::Add, s3, s3, vcol::VALUE);
                self.arith(s, vb, AluOp::Add, s3, s3, s2);
                self.arith(s, vb, AluOp::Mul, s3, s3, c2);
                self.arith(s, vb, AluOp::Mul, s2, s0, c3);
                self.arith(s, vb, AluOp::Mul, vcol::VALUE, s1, c0);
                self.arith(s, vb, AluOp::Add, s2, s2, vcol::VALUE);
                self.arith(s, vb, AluOp::Sub, vcol::VALUE, vcol::P_COPY, vcol::GHOST_P);
                self.arith(s, vb, AluOp::Add, s2, s2, vcol::VALUE);
                self.arith(s, vb, AluOp::Mul, s2, s2, c2);
                (s3, s2)
            }
            FluxKind::Central => {
                self.bc(s, vb, xstaging::HALF, c0);
                self.arith(s, vb, AluOp::Add, s3, vcol::P_COPY, vcol::GHOST_P);
                self.arith(s, vb, AluOp::Mul, s3, s3, c0);
                self.arith(s, vb, AluOp::Add, s2, s0, s1);
                self.arith(s, vb, AluOp::Mul, s2, s2, c0);
                (s3, s2)
            }
        };

        // out_p = κ(v_n⁻ − v_n*); out_v = ±(p⁻ − p*)/ρ.
        self.bc(s, vb, xstaging::KAPPA, c3);
        self.arith(s, vb, AluOp::Sub, s0, s0, vn_star);
        self.arith(s, vb, AluOp::Mul, s0, s0, c3);
        self.arith(s, vb, AluOp::Sub, s1, vcol::P_COPY, p_star);
        self.arith(s, vb, AluOp::Mul, s1, s1, vcol::COEFF); // × 1/ρ
        if !plus {
            self.arith(s, vb, AluOp::Neg, s1, s1, s1);
        }
        self.bc(s, vb, xstaging::LIFT, c3);
        self.arith(s, vb, AluOp::Mul, s0, s0, mask);
        self.arith(s, vb, AluOp::Mac, vcol::FLUX_PARTIAL, s0, c3);
        self.arith(s, vb, AluOp::Mul, s1, s1, mask);
        self.arith(s, vb, AluOp::Mac, vcol::CONTRIB, s1, c3);
    }

    /// Perfectly-split Integration: each block updates its own variable.
    pub fn emit_integration(&self, s: &mut InstrStream, e: usize, stage: usize) {
        let blocks_and_cols: Vec<(BlockId, usize, usize, usize)> =
            std::iter::once((self.p_block(e), pcol::P, pcol::AUX, pcol::CONTRIB))
                .chain((0..3).map(|a| (self.v_block(e, a), vcol::V, vcol::AUX, vcol::CONTRIB)))
                .collect();
        for (block, var, aux, contrib) in blocks_and_cols {
            let (a_col, b_col, dt_col, t) =
                (pcol::CONST, pcol::CONST + 1, pcol::CONST + 2, pcol::SCRATCH);
            self.bc(s, block, xstaging::A0 + stage, a_col);
            self.bc(s, block, xstaging::B0 + stage, b_col);
            self.bc(s, block, xstaging::DT, dt_col);
            self.arith(s, block, AluOp::Mul, aux, aux, a_col);
            self.arith(s, block, AluOp::Mul, t, contrib, dt_col);
            self.arith(s, block, AluOp::Add, aux, aux, t);
            self.arith(s, block, AluOp::Mul, t, aux, b_col);
            self.arith(s, block, AluOp::Add, var, var, t);
        }
    }

    /// One-time LUT setup (per velocity block; faces are computed there).
    pub fn compile_lut_setup(&self) -> InstrStream {
        let mut s = InstrStream::new();
        if self.flux_kind == FluxKind::Central {
            return s;
        }
        let lut_block = self.lut_block().0;
        for e in 0..self.mesh.num_elements() {
            for face in Face::ALL {
                let f = face.code();
                let vb = self.v_block(e, face.axis().index());
                let row_in_block = self.face_staging_row(f);
                let global_row = vb.0 as usize * pim_isa::BLOCK_ROWS + row_in_block;
                for k in 0..xface::CONSTS_PER_FACE {
                    s.push(Instr::Lut {
                        row: global_row as u32,
                        offset_s: xface::index_col(f, k) as u8,
                        lut_block,
                        offset_d: xface::dest_col(f, k) as u8,
                    });
                }
            }
        }
        s.push(Instr::Sync);
        s
    }

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

    pub fn compile_step(&self) -> Vec<InstrStream> {
        (0..Lsrk5::STAGES).map(|stage| self.compile_stage(stage)).collect()
    }

    pub fn rule(&self) -> &GllRule {
        &self.rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_mesh::Boundary;

    #[test]
    fn block_roles_are_consecutive() {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let m =
            ExpandedAcousticMapping::uniform(mesh, 3, FluxKind::Central, AcousticMaterial::UNIT);
        assert_eq!(m.p_block(0).0, 0);
        assert_eq!(m.v_block(0, 2).0, 3);
        assert_eq!(m.p_block(5).0, 20);
        assert_eq!(m.blocks_required(), 33);
        // The quartet shares a fanout-4 quad (one S0 switch).
        assert_eq!(m.p_block(5).0 / 4, m.v_block(5, 2).0 / 4);
    }

    #[test]
    fn pim_placed_math_routes_preloaded_constants_through_the_mirrors() {
        use wavesim_dg::State;
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let mat = AcousticMaterial::new(2.0, 2.0); // Z = 2, in table range
        let mut m = ExpandedAcousticMapping::uniform(mesh, 3, FluxKind::Riemann, mat);
        let state = State::zeros(m.mesh().num_elements(), 4, m.nodes());

        let mut exact_chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload(&mut exact_chip, &state, 1e-3);
        m.set_math_placement(Some(MathPlacement::all_onpim()));
        let mut pim_chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload(&mut pim_chip, &state, 1e-3);

        let row = m.staging_row();
        let b = m.v_block(0, 0);
        let z_exact = exact_chip.block(b).get(row, xstaging::Z);
        let z_pim = pim_chip.block(b).get(row, xstaging::Z);
        assert_eq!(z_exact, mat.impedance(), "default path must stay host-exact");
        let z = mat.impedance();
        assert_eq!(
            z_pim,
            math_eval::sqrt_eval(z * z, ITERS_PER_STAGE).unwrap(),
            "PIM-placed impedance must equal the fixed-point mirror"
        );
        assert!((z_pim - z_exact).abs() / z_exact < 1e-6);

        let ir_exact = exact_chip.block(b).get(row, xstaging::INV_RHO);
        let ir_pim = pim_chip.block(b).get(row, xstaging::INV_RHO);
        assert_eq!(ir_exact, 1.0 / mat.rho);
        assert_eq!(ir_pim, math_eval::recip_eval(mat.rho, ITERS_PER_STAGE).unwrap());
        assert!((ir_pim - ir_exact).abs() < 1e-6);
    }

    #[test]
    fn expanded_stream_has_more_copies_than_naive() {
        // §6.2.1: expansion trades inter-block data movement for
        // parallelism: the p-duplication and div_v exchange show up as
        // extra copies.
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let exp = ExpandedAcousticMapping::uniform(
            mesh.clone(),
            3,
            FluxKind::Riemann,
            AcousticMaterial::UNIT,
        )
        .compile_stage(0);
        let naive = crate::compiler::AcousticMapping::uniform(
            mesh,
            3,
            FluxKind::Riemann,
            AcousticMaterial::UNIT,
        )
        .compile_stage(0);
        assert!(exp.stats().copies > naive.stats().copies);
    }
}
