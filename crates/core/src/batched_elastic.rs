//! Functional batched execution of the *elastic* simulation: the
//! `E_r & B` rows of Table 5 (row-expanded elements, four blocks each,
//! in resident batches of y-slices).
//!
//! Same kernel-pass discipline as [`crate::batched`] — Volume of every
//! batch, then Flux of every batch (with boundary slices resident), then
//! Integration of every batch — and the same shared partition and
//! compile-once program cache ([`crate::batched::BatchPrograms`]):
//! each pass installs its prebuilt map, moves the data, and replays the
//! batch's interned stream. Every resident element occupies a *quartet*
//! of blocks, so the capacity accounting is in quartets.

use pim_sim::PimChip;
use wavesim_dg::{ElasticMaterial, FluxKind, Lsrk5, State};
use wavesim_mesh::HexMesh;

use crate::batched::{BatchKernel, BatchPlan, BatchPrograms};
use crate::compiler_elastic::ElasticMapping;

/// Batched elastic runner: the functional counterpart of Table 5's
/// `E_r&B` cells.
pub struct BatchedElasticRunner {
    mapping: ElasticMapping,
    plan: BatchPlan,
    programs: BatchPrograms,
    dt: f64,
    vars: State,
    aux: State,
    contribs: State,
}

impl BatchedElasticRunner {
    /// Splits the mesh into `num_batches` groups of consecutive
    /// y-slices. `capacity_blocks` is in memory blocks (4 per resident
    /// element + 1 LUT block must fit).
    ///
    /// # Panics
    /// Panics on uneven slice splits or capacity violations.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mesh: HexMesh,
        n: usize,
        flux_kind: FluxKind,
        material: ElasticMaterial,
        initial: &State,
        dt: f64,
        num_batches: usize,
        capacity_blocks: usize,
    ) -> Self {
        let plan = BatchPlan::new(&mesh, num_batches, capacity_blocks, 4, "quartets");
        let materials = vec![material; mesh.num_elements()];
        let mut mapping = ElasticMapping::new(mesh, n, flux_kind, materials);
        let programs = BatchPrograms::compile(&mut mapping, &plan);
        Self {
            mapping,
            plan,
            programs,
            dt,
            vars: initial.clone(),
            aux: State::zeros(initial.num_elements(), 9, initial.nodes_per_element()),
            contribs: State::zeros(initial.num_elements(), 9, initial.nodes_per_element()),
        }
    }

    pub fn num_batches(&self) -> usize {
        self.plan.batches.len()
    }

    pub fn vars(&self) -> &State {
        &self.vars
    }

    /// Instructions held by the program cache: each distinct stream
    /// once, one Integration variant per distinct program.
    pub fn cached_instrs(&self) -> u64 {
        self.programs.num_instrs()
    }

    /// One time-step: five LSRK stages, each as three batched passes.
    pub fn step(&mut self, chip: &mut PimChip) {
        let (m, plan, programs) = (&mut self.mapping, &self.plan, &mut self.programs);
        for stage in 0..Lsrk5::STAGES {
            for (b, res) in plan.batches.iter().enumerate() {
                plan.install(m, b, BatchKernel::Volume);
                m.preload_static_subset(chip, self.dt, res);
                m.load_vars_subset(chip, &self.vars, res);
                m.zero_dynamic_subset(chip, res);
                chip.execute(programs.get(m, b, BatchKernel::Volume, res));
                m.extract_contribs_subset(chip, res, &mut self.contribs);
            }
            for (b, (res, all)) in plan.batches.iter().zip(&plan.visible).enumerate() {
                plan.install(m, b, BatchKernel::Flux);
                m.preload_static_subset(chip, self.dt, all);
                m.load_vars_subset(chip, &self.vars, all);
                m.load_contribs_subset(chip, &self.contribs, res);
                chip.execute(programs.get(m, b, BatchKernel::LutSetup, res));
                chip.execute(programs.get(m, b, BatchKernel::Flux, res));
                m.extract_contribs_subset(chip, res, &mut self.contribs);
            }
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_mesh::Boundary;

    fn runner(capacity: usize) -> BatchedElasticRunner {
        let mesh = HexMesh::refinement_level(1, Boundary::Wall);
        let s = State::zeros(8, 9, 27);
        BatchedElasticRunner::new(
            mesh,
            3,
            FluxKind::Central,
            ElasticMaterial::UNIT,
            &s,
            1e-3,
            2,
            capacity,
        )
    }

    #[test]
    fn quartet_capacity_accounting() {
        // 4 residents + 4 boundary quartets + LUT = 36 blocks.
        assert_eq!(runner(36).num_batches(), 2);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn undersized_window_is_rejected() {
        let _ = runner(35);
    }
}
