//! Functional validation of batching (§6.1): a level-2 mesh (64
//! elements) run in two and four batches on a window far smaller than
//! the mesh must produce the same trajectory as the unbatched native
//! solver — proving the Fig. 6/7 kernel-pass ordering (all Flux before
//! any Integration, boundary slices resident) is semantically airtight.

use pim_sim::{ChipConfig, PimChip};
use wave_pim::batched::BatchedAcousticRunner;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

const TAU: f64 = 2.0 * std::f64::consts::PI;

fn run_case(boundary: Boundary, flux: FluxKind, num_batches: usize, steps: usize, capacity: usize) {
    let mesh = HexMesh::refinement_level(2, boundary); // 64 elements, 4 slices
    let material = AcousticMaterial::new(2.0, 1.0);
    let n = 3;
    let dt = 1.0e-3;

    let mut native = Solver::<Acoustic>::uniform(mesh.clone(), n, flux, material);
    native.set_initial(|v, x| match v {
        0 => (TAU * x.x).sin() + 0.5 * (TAU * x.y).cos(),
        1 => 0.2 * (TAU * x.y).sin(),
        2 => -0.3 * (TAU * x.z).cos(),
        _ => 0.1 * (TAU * x.x).cos(),
    });

    assert!(capacity < 64 + 1, "the window must be genuinely smaller than the problem");
    let mut runner = BatchedAcousticRunner::new(
        mesh,
        n,
        flux,
        material,
        native.state(),
        dt,
        num_batches,
        capacity,
    );
    let mut chip = PimChip::new(ChipConfig::default_2gb());
    for _ in 0..steps {
        runner.step(&mut chip);
    }
    native.run(dt, steps);

    let diff = native.state().max_abs_diff(runner.vars());
    let scale = native.state().max_abs().max(1e-30);
    assert!(diff / scale < 1e-12, "{boundary:?}/{flux:?}/{num_batches} batches: |Δ|∞ = {diff:.3e}");
}

#[test]
fn two_batches_match_native_riemann_walls() {
    // Walls: each 2-slice batch needs one boundary slice (the other side
    // is the wall), so 3 of 4 slices are resident: 48 + 1 blocks.
    run_case(Boundary::Wall, FluxKind::Riemann, 2, 2, 49);
}

#[test]
fn two_batches_match_native_central_walls() {
    run_case(Boundary::Wall, FluxKind::Central, 2, 2, 49);
}

#[test]
fn four_batches_match_native_periodic() {
    // One slice per batch, periodic wrap: every y-face is a batch
    // boundary and each pass holds 3 of 4 slices.
    run_case(Boundary::Periodic, FluxKind::Riemann, 4, 1, 49);
}

#[test]
fn four_batches_match_native_walls() {
    run_case(Boundary::Wall, FluxKind::Riemann, 4, 1, 49);
}

#[test]
fn batched_elastic_matches_native() {
    // The E_r&B cells of Table 5, functionally: a 64-element elastic
    // model (256 blocks + LUT needed) run in two batches on a 196-block
    // window.
    use wave_pim::batched_elastic::BatchedElasticRunner;
    use wavesim_dg::{Elastic, ElasticMaterial};

    let mesh = HexMesh::refinement_level(2, Boundary::Wall);
    let material = ElasticMaterial::new(2.0, 1.0, 1.0);
    let n = 3;
    let dt = 8.0e-4;

    let mut native = Solver::<Elastic>::uniform(mesh.clone(), n, FluxKind::Riemann, material);
    native.set_initial(|v, x| match v {
        0..=2 => 0.2 * (TAU * x.x).sin() * (v as f64 + 1.0),
        _ => 0.1 * (TAU * x.y).cos() * ((v as f64) - 4.0),
    });

    // 2 batches: 32 resident + 16 boundary elements = 48 quartets + LUT.
    let capacity = 48 * 4 + 4;
    assert!(capacity < 64 * 4 + 1, "window must be smaller than the problem");
    let mut runner = BatchedElasticRunner::new(
        mesh,
        n,
        FluxKind::Riemann,
        material,
        native.state(),
        dt,
        2,
        capacity,
    );
    let mut chip = PimChip::new(ChipConfig::default_2gb());
    runner.step(&mut chip);
    native.run(dt, 1);

    let diff = native.state().max_abs_diff(runner.vars());
    let scale = native.state().max_abs().max(1e-30);
    assert!(diff / scale < 1e-11, "batched elastic |Δ|∞ = {diff:.3e}");
}

/// The elastic runner replays compile-once, interned streams. This runs
/// it next to a loop that recompiles every pass through `ElasticMapping`'s
/// public API on the same partition and placements, and requires the
/// state, every energy-ledger field and the simulated clock to be
/// bit-identical. The runner's cache must hold each distinct stream
/// once: one Volume stream, and `flux_streams` Flux streams.
fn elastic_replay_matches_recompiling(boundary: Boundary, num_batches: usize, flux_streams: usize) {
    use pim_isa::InstrStream;
    use wave_pim::batched_elastic::BatchedElasticRunner;
    use wave_pim::compiler_elastic::ElasticMapping;
    use wavesim_dg::{Elastic, ElasticMaterial, Lsrk5, State};

    let mesh = HexMesh::refinement_level(2, boundary);
    let material = ElasticMaterial::new(2.0, 1.0, 1.0);
    let (n, dt, steps) = (2, 8.0e-4, 2);
    let mut native = Solver::<Elastic>::uniform(mesh.clone(), n, FluxKind::Riemann, material);
    native.set_initial(|v, x| 0.1 * (TAU * (x.x + 0.3 * x.y)).sin() * (v as f64 - 3.5));
    let initial = native.state().clone();

    let mut runner = BatchedElasticRunner::new(
        mesh.clone(),
        n,
        FluxKind::Riemann,
        material,
        &initial,
        dt,
        num_batches,
        4 * 65,
    );
    let mut replayed = PimChip::new(ChipConfig::default_2gb());
    for _ in 0..steps {
        runner.step(&mut replayed);
    }

    // The reference: consecutive y-slices per batch, the y-neighbor
    // slices (wrapping only when periodic) as boundary, residents then
    // boundary then everything else in the quartet map.
    let slices = mesh.num_slices();
    let per = slices / num_batches;
    let periodic = boundary == Boundary::Periodic;
    let elements_of = |s: usize| mesh.slice_elements(s).map(|e| e.index()).collect::<Vec<_>>();
    let map_for = |placed: &[usize]| {
        let mut map = vec![0u32; mesh.num_elements()];
        let parked = (0..mesh.num_elements()).filter(|e| !placed.contains(e));
        for (slot, e) in placed.iter().copied().chain(parked).enumerate() {
            map[e] = slot as u32;
        }
        map
    };
    let mut passes = Vec::new();
    for b in 0..num_batches {
        let (first, last) = (b * per, b * per + per - 1);
        let res: Vec<usize> = (first..=last).flat_map(elements_of).collect();
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
        let all: Vec<usize> = res.iter().chain(&extra).copied().collect();
        passes.push((map_for(&res), map_for(&all), res, all));
    }
    let (elements, nodes) = (mesh.num_elements(), initial.nodes_per_element());
    let mut m = ElasticMapping::new(mesh, n, FluxKind::Riemann, vec![material; elements]);
    let chip = &mut PimChip::new(ChipConfig::default_2gb());
    let (mut vars, mut aux, mut contribs) =
        (initial.clone(), State::zeros(elements, 9, nodes), State::zeros(elements, 9, nodes));
    for _ in 0..steps {
        for stage in 0..Lsrk5::STAGES {
            for (map, _, res, _) in &passes {
                m.set_quartet_map(map.clone());
                m.preload_static_subset(chip, dt, res);
                m.load_vars_subset(chip, &vars, res);
                m.zero_dynamic_subset(chip, res);
                chip.execute(&m.compile_volume_for(res));
                m.extract_contribs_subset(chip, res, &mut contribs);
            }
            for (_, map, res, all) in &passes {
                m.set_quartet_map(map.clone());
                m.preload_static_subset(chip, dt, all);
                m.load_vars_subset(chip, &vars, all);
                m.load_contribs_subset(chip, &contribs, res);
                chip.execute(&m.compile_lut_setup_for(res));
                chip.execute(&m.compile_flux_for(res));
                m.extract_contribs_subset(chip, res, &mut contribs);
            }
            for (map, _, res, _) in &passes {
                m.set_quartet_map(map.clone());
                m.preload_static_subset(chip, dt, res);
                m.load_vars_subset(chip, &vars, res);
                m.load_aux_subset(chip, &aux, res);
                m.load_contribs_subset(chip, &contribs, res);
                chip.execute(&m.compile_integration_for(res, stage));
                m.extract_vars_subset(chip, res, &mut vars);
                m.extract_aux_subset(chip, res, &mut aux);
            }
        }
    }

    let case = format!("{boundary:?}, {num_batches} batches");
    let mut distinct: [Vec<InstrStream>; 4] = Default::default();
    for (map, flux_map, res, _) in &passes {
        m.set_quartet_map(map.clone());
        let (volume, integration) = (m.compile_volume_for(res), m.compile_integration_for(res, 0));
        m.set_quartet_map(flux_map.clone());
        let streams = [volume, integration, m.compile_lut_setup_for(res), m.compile_flux_for(res)];
        for (kind, s) in streams.into_iter().enumerate() {
            if !distinct[kind].contains(&s) {
                distinct[kind].push(s);
            }
        }
    }
    assert_eq!((distinct[0].len(), distinct[3].len()), (1, flux_streams), "{case}: distinct");
    let held: u64 = distinct.iter().flatten().map(|s| s.len() as u64).sum();
    assert_eq!(runner.cached_instrs(), held, "{case}: interned instructions");

    let bits = |s: &State| s.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_ne!(bits(&initial), bits(&vars), "{case}: the reference must advance");
    assert_eq!(bits(runner.vars()), bits(&vars), "{case}: state");
    let ledger = |c: &PimChip| {
        let l = c.finish().ledger;
        [l.compute, l.reads, l.writes, l.interconnect, l.offchip, l.host, l.static_energy]
            .map(f64::to_bits)
    };
    assert_eq!(ledger(&replayed), ledger(chip), "{case}: energy ledger");
    assert_eq!(replayed.elapsed().to_bits(), chip.elapsed().to_bits(), "{case}: elapsed");
}

#[test]
fn elastic_replay_matches_recompiling_periodic_two_batches() {
    elastic_replay_matches_recompiling(Boundary::Periodic, 2, 1);
}

#[test]
fn elastic_replay_matches_recompiling_walls_two_batches() {
    elastic_replay_matches_recompiling(Boundary::Wall, 2, 2);
}

#[test]
fn elastic_replay_matches_recompiling_periodic_four_batches() {
    elastic_replay_matches_recompiling(Boundary::Periodic, 4, 2);
}
