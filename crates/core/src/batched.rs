//! Functional execution of a *batched* acoustic simulation (§6.1):
//! a model larger than the chip, processed per kernel in resident
//! batches of y-slices with off-chip swaps between them.
//!
//! The paper's scheme (Figs. 6–7) batches each kernel separately:
//!
//! * **Volume** and **Integration** "simply mean executing our initial
//!   solution multiple times, since there is no inter-element data
//!   dependency" (§6.1.1) — load a batch, compute, store, next batch;
//! * **Flux** partitions the mesh into y-slices. x- and z-flux are
//!   intra-slice; the y-direction needs the neighboring slice, so each
//!   batch is loaded *together with its boundary slices* (step 5 of
//!   Fig. 7: "store Slice 0 and load Slice 16") so every resident
//!   element sees its neighbors' pre-stage variables.
//!
//! Crucially, Flux of **every** batch completes before Integration of
//! **any** batch — otherwise a batch-boundary face would mix pre- and
//! post-stage values. Host-side `State` arrays play the role of the
//! off-chip HBM2 DRAM, and the contributions travel through them
//! between kernel passes, exactly the extra DRAM traffic the paper's
//! batching overhead model charges.

use pim_isa::{Instr, InstrStream};
use pim_sim::PimChip;
use wavesim_dg::{AcousticMaterial, FluxKind, Lsrk5, State};
use wavesim_mesh::{Boundary, HexMesh};

use crate::compiler::AcousticMapping;
use crate::program_cache::StageProgram;

/// The y-slice partition of a batched run (shared by the acoustic and
/// elastic runners), with every pass's block map built once.
pub(crate) struct BatchPlan {
    /// Element lists per batch (whole y-slices).
    pub(crate) batches: Vec<Vec<usize>>,
    /// Per batch: the residents followed by the out-of-batch boundary
    /// elements whose variables must be resident during its Flux pass.
    pub(crate) visible: Vec<Vec<usize>>,
    /// Per batch: the block maps of its batch-only passes (Volume,
    /// Integration) and of its Flux pass.
    maps: Vec<[Vec<u32>; 2]>,
}

/// The block map of one batch pass: `placed` packs from slot 0, and
/// everything else is parked past the window in element order.
fn batch_map(total: usize, placed: &[usize]) -> Vec<u32> {
    let mut map = vec![u32::MAX; total];
    for (slot, &e) in placed.iter().enumerate() {
        map[e] = slot as u32;
    }
    for (next, slot) in (placed.len() as u32..).zip(map.iter_mut().filter(|s| **s == u32::MAX)) {
        *slot = next;
    }
    map
}

impl BatchPlan {
    /// Splits `mesh` into `num_batches` groups of consecutive y-slices.
    /// Each element takes `blocks_per_element` blocks, and a batch plus
    /// its boundary slices plus the LUT's slot must fit `capacity_blocks`.
    ///
    /// # Panics
    /// Panics on fewer than two batches, an uneven slice split, or a
    /// capacity violation.
    pub(crate) fn new(
        mesh: &HexMesh,
        num_batches: usize,
        capacity_blocks: usize,
        blocks_per_element: usize,
        unit: &str,
    ) -> Self {
        let slices = mesh.num_slices();
        assert!(num_batches >= 2, "batching needs at least two batches");
        assert_eq!(slices % num_batches, 0, "slices must split evenly into batches");
        let slices_per_batch = slices / num_batches;
        let periodic = mesh.boundary() == Boundary::Periodic;
        let elements_of = |s: usize| mesh.slice_elements(s).map(|e| e.index());

        let mut plan = Self { batches: Vec::new(), visible: Vec::new(), maps: Vec::new() };
        for b in 0..num_batches {
            let (first, last) = (b * slices_per_batch, (b + 1) * slices_per_batch - 1);
            let elems: Vec<usize> = (first..=last).flat_map(elements_of).collect();
            // Boundary slices: the y-neighbors just outside the batch,
            // wrapping only on periodic meshes (a wall needs no neighbor).
            let below = if first > 0 { Some(first - 1) } else { periodic.then(|| slices - 1) };
            let above = if last + 1 < slices { Some(last + 1) } else { periodic.then_some(0) };
            let mut extra: Vec<usize> = [below, above]
                .into_iter()
                .flatten()
                .filter(|s| !(first..=last).contains(s))
                .flat_map(elements_of)
                .collect();
            extra.sort_unstable();
            extra.dedup();
            assert!(
                (elems.len() + extra.len() + 1) * blocks_per_element <= capacity_blocks,
                "batch {b}: {} resident + {} boundary {unit} exceed {capacity_blocks} blocks",
                elems.len(),
                extra.len()
            );
            let total = mesh.num_elements();
            let visible: Vec<usize> = elems.iter().chain(&extra).copied().collect();
            plan.maps.push([batch_map(total, &elems), batch_map(total, &visible)]);
            plan.batches.push(elems);
            plan.visible.push(visible);
        }
        plan
    }

    /// Installs batch `b`'s block map for `kernel`: residents first,
    /// then (for LUT setup and Flux) its boundary elements, everything
    /// else parked past the window (never touched during this pass).
    pub(crate) fn install<M: BatchKernels>(&self, mapping: &mut M, b: usize, kernel: BatchKernel) {
        let flux = matches!(kernel, BatchKernel::LutSetup | BatchKernel::Flux);
        mapping.install(self.maps[b][flux as usize].clone());
    }
}

/// One kernel of a batch pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum BatchKernel {
    Volume,
    LutSetup,
    Flux,
    Integration(usize),
}

/// The kernels of a batch's four cached programs: Volume, LUT setup and
/// Flux, then Integration with one variant per LSRK stage.
fn program_kernels() -> [Vec<BatchKernel>; 4] {
    use BatchKernel::*;
    [vec![Volume], vec![LutSetup], vec![Flux], (0..Lsrk5::STAGES).map(Integration).collect()]
}

/// What the batch program cache needs from a mapping: installing a
/// block map and compiling a kernel for a subset of elements. A subset
/// must compile to its elements' single-element streams concatenated,
/// with the closing `Sync` they end in (if any) kept once, at the end.
pub(crate) trait BatchKernels {
    fn install(&mut self, map: Vec<u32>);
    fn compile(&self, kernel: BatchKernel, elems: &[usize]) -> InstrStream;

    /// Whether compiling `kernel` for `elems` reproduces `stream`. It
    /// compiles one element at a time, so a batch whose program is
    /// already cached never materializes a second copy.
    fn reproduces(&self, kernel: BatchKernel, elems: &[usize], stream: &InstrStream) -> bool {
        let mut rest = stream.instrs();
        for &e in elems {
            let one = self.compile(kernel, &[e]);
            let body = one.instrs().strip_suffix(&[Instr::Sync]).unwrap_or(one.instrs());
            let Some(tail) = rest.strip_prefix(body) else { return false };
            rest = tail;
        }
        matches!(rest, [] | [Instr::Sync])
    }
}

/// The acoustic and elastic mappings name their subset compilers alike;
/// only the map setter differs.
macro_rules! impl_batch_kernels {
    ($mapping:ty, $set_map:ident) => {
        impl BatchKernels for $mapping {
            fn install(&mut self, map: Vec<u32>) {
                self.$set_map(map);
            }

            fn compile(&self, kernel: BatchKernel, elems: &[usize]) -> InstrStream {
                match kernel {
                    BatchKernel::Volume => self.compile_volume_for(elems),
                    BatchKernel::LutSetup => self.compile_lut_setup_for(elems),
                    BatchKernel::Flux => self.compile_flux_for(elems),
                    BatchKernel::Integration(stage) => self.compile_integration_for(elems, stage),
                }
            }
        }
    };
}

impl_batch_kernels!(AcousticMapping, set_block_map);
impl_batch_kernels!(crate::compiler_elastic::ElasticMapping, set_quartet_map);

/// Every batch's kernel programs, compiled once at construction and
/// replayed every pass. Each batch's maps are a pure function of the
/// partition, so every stream of every pass is known before the time
/// loop. Programs are interned by content: batches whose streams are
/// byte-equal (the translation-symmetric batches of a periodic mesh)
/// share one copy, and the equality check compiles element by element,
/// so the cache holds only the memory of its distinct programs. Debug
/// builds check each batch's replay of each kernel, and of each
/// Integration stage, once against a fresh compile.
pub(crate) struct BatchPrograms {
    /// Distinct programs; Volume, LUT setup and Flux have one variant.
    pool: Vec<StageProgram>,
    /// Per batch: the pool indices of its programs, in
    /// [`program_kernels`] order.
    slots: Vec<[usize; 4]>,
    #[cfg(debug_assertions)]
    verified: std::collections::HashSet<(usize, BatchKernel)>,
}

impl BatchPrograms {
    pub(crate) fn compile<M: BatchKernels>(mapping: &mut M, plan: &BatchPlan) -> Self {
        let mut pool: Vec<StageProgram> = Vec::new();
        let mut slots = vec![[0; 4]; plan.batches.len()];
        for (b, res) in plan.batches.iter().enumerate() {
            for (slot, kernels) in program_kernels().iter().enumerate() {
                plan.install(mapping, b, kernels[0]);
                let m = &*mapping;
                let cached = pool.iter_mut().position(|p| {
                    p.num_stages() == kernels.len()
                        && kernels
                            .iter()
                            .enumerate()
                            .all(|(s, &k)| m.reproduces(k, res, p.for_stage(s)))
                });
                slots[b][slot] = cached.unwrap_or_else(|| {
                    pool.push(StageProgram::new(
                        kernels.iter().map(|&k| m.compile(k, res)).collect(),
                    ));
                    pool.len() - 1
                });
            }
        }
        Self {
            pool,
            slots,
            #[cfg(debug_assertions)]
            verified: Default::default(),
        }
    }

    /// Batch `b`'s cached stream for `kernel`. `mapping` must hold the
    /// pass's map and `res` the batch's residents: debug builds compare
    /// the first replay with a fresh compile from them.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn get<M: BatchKernels>(
        &mut self,
        mapping: &M,
        b: usize,
        kernel: BatchKernel,
        res: &[usize],
    ) -> &InstrStream {
        let (slot, stage) = match kernel {
            BatchKernel::Volume => (0, 0),
            BatchKernel::LutSetup => (1, 0),
            BatchKernel::Flux => (2, 0),
            BatchKernel::Integration(stage) => (3, stage),
        };
        let stream = self.pool[self.slots[b][slot]].for_stage(stage);
        #[cfg(debug_assertions)]
        if self.verified.insert((b, kernel)) {
            assert_eq!(
                stream,
                &mapping.compile(kernel, res),
                "cached {kernel:?} replay of batch {b} diverged from a fresh compile"
            );
        }
        stream
    }

    /// Cached instructions across the distinct programs (one
    /// Integration variant each; the others are patch rows).
    pub(crate) fn num_instrs(&self) -> u64 {
        self.pool.iter().map(|p| p.len() as u64).sum()
    }
}

/// A batched acoustic simulation runner: the functional counterpart of
/// the `B` technique rows of Table 5.
pub struct BatchedAcousticRunner {
    mapping: AcousticMapping,
    plan: BatchPlan,
    programs: BatchPrograms,
    dt: f64,
    /// Off-chip state (the host-side HBM2 image).
    vars: State,
    aux: State,
    contribs: State,
}

impl BatchedAcousticRunner {
    /// Builds a runner that splits the mesh into `num_batches` groups of
    /// consecutive y-slices.
    ///
    /// # Panics
    /// Panics if the slice count is not divisible by `num_batches`, or a
    /// batch plus its boundary slices would not fit `capacity_blocks`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mesh: HexMesh,
        n: usize,
        flux_kind: FluxKind,
        material: AcousticMaterial,
        initial: &State,
        dt: f64,
        num_batches: usize,
        capacity_blocks: usize,
    ) -> Self {
        let plan = BatchPlan::new(&mesh, num_batches, capacity_blocks, 1, "elements");
        let materials = vec![material; mesh.num_elements()];
        let mut mapping = AcousticMapping::new(mesh, n, flux_kind, materials);
        let programs = BatchPrograms::compile(&mut mapping, &plan);
        Self {
            mapping,
            plan,
            programs,
            dt,
            vars: initial.clone(),
            aux: State::zeros(initial.num_elements(), 4, initial.nodes_per_element()),
            contribs: State::zeros(initial.num_elements(), 4, initial.nodes_per_element()),
        }
    }

    /// Number of batches.
    pub fn num_batches(&self) -> usize {
        self.plan.batches.len()
    }

    /// The current off-chip variable state.
    pub fn vars(&self) -> &State {
        &self.vars
    }

    /// Advances one time-step: five LSRK stages, each as three batched
    /// kernel passes with off-chip swaps. The streams replay from the
    /// program cache; the per-pass map install still places the batch
    /// for the host-side data movers.
    ///
    /// When tracing is enabled, each kernel pass (load → compute →
    /// store, per Figs. 6–7) is recorded as one kernel window on the
    /// chip's simulated clock, plus an `RkStage` span around each LSRK
    /// stage.
    pub fn step(&mut self, chip: &mut PimChip) {
        use crate::tracehooks::{begin_kernel_span, end_kernel_span};
        use pim_trace::Kernel;

        let (m, plan, programs) = (&mut self.mapping, &self.plan, &mut self.programs);
        for stage in 0..Lsrk5::STAGES {
            let stage_t0 = begin_kernel_span(chip);

            // --- Volume pass (Fig. 6): per batch, load → compute → store.
            let t0 = begin_kernel_span(chip);
            for (b, res) in plan.batches.iter().enumerate() {
                plan.install(m, b, BatchKernel::Volume);
                m.preload_static_subset(chip, self.dt, res);
                m.load_vars_subset(chip, &self.vars, res);
                chip.execute(programs.get(m, b, BatchKernel::Volume, res));
                m.extract_contribs_subset(chip, res, &mut self.contribs);
            }
            end_kernel_span(chip, Kernel::Volume, stage as u8, t0);

            // --- Flux pass (Fig. 7): per batch, load batch + boundary
            // slices, accumulate flux into the stored contributions.
            let t0 = begin_kernel_span(chip);
            for (b, (res, all)) in plan.batches.iter().zip(&plan.visible).enumerate() {
                plan.install(m, b, BatchKernel::Flux);
                m.preload_static_subset(chip, self.dt, all);
                // Pre-stage variables for everyone visible this pass.
                m.load_vars_subset(chip, &self.vars, all);
                // Resume the residents' contributions from off-chip.
                m.load_contribs_subset(chip, &self.contribs, res);
                chip.execute(programs.get(m, b, BatchKernel::LutSetup, res));
                chip.execute(programs.get(m, b, BatchKernel::Flux, res));
                m.extract_contribs_subset(chip, res, &mut self.contribs);
            }
            end_kernel_span(chip, Kernel::Flux, stage as u8, t0);

            // --- Integration pass (Fig. 6): per batch, with aux state.
            let t0 = begin_kernel_span(chip);
            for (b, res) in plan.batches.iter().enumerate() {
                plan.install(m, b, BatchKernel::Integration(stage));
                m.preload_static_subset(chip, self.dt, res);
                m.load_vars_subset(chip, &self.vars, res);
                m.load_aux_subset(chip, &self.aux, res);
                m.load_contribs_subset(chip, &self.contribs, res);
                chip.execute(programs.get(m, b, BatchKernel::Integration(stage), res));
                m.extract_vars_subset(chip, res, &mut self.vars);
                m.extract_aux_subset(chip, res, &mut self.aux);
            }
            end_kernel_span(chip, Kernel::Integration, stage as u8, t0);

            end_kernel_span(chip, Kernel::RkStage, stage as u8, stage_t0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_mesh::Boundary;

    fn runner(capacity: usize) -> BatchedAcousticRunner {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let s = State::zeros(8, 4, 27);
        BatchedAcousticRunner::new(
            mesh,
            3,
            FluxKind::Central,
            AcousticMaterial::UNIT,
            &s,
            1e-3,
            2,
            capacity,
        )
    }

    #[test]
    fn batches_partition_the_mesh() {
        let r = runner(64);
        assert_eq!(r.num_batches(), 2);
        let mut all: Vec<usize> = r.plan.batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        // Each batch of a 2-slice mesh half has exactly the other half
        // as boundary (periodic wrap, level 1 → only 2 slices).
        assert_eq!(r.plan.visible[0].len() - r.plan.batches[0].len(), 4);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn capacity_violations_are_caught() {
        // Too small: 4 residents + 4 boundary + LUT.
        let _ = runner(4);
    }
}
