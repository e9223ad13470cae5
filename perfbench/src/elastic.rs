//! The batched elastic workload: the nine-variable elastic problem on
//! the four-block `E_r` mapping, run by `BatchedElasticRunner` in two
//! batches of y-slices on one 2 GB chip whose window holds 1,540 blocks
//! (one batch plus its boundary slices, as quartets, plus the LUT).

use std::hint::black_box;

use pim_sim::{ChipConfig, PimChip};
use wave_pim::batched_elastic::BatchedElasticRunner;
use wave_pim::compiler_elastic::ElasticMapping;
use wavesim_dg::{Elastic, ElasticMaterial, FluxKind, Lsrk5, Solver, State};
use wavesim_mesh::{Boundary, HexMesh};

use crate::common::{num, rss_mb, Modes, Report, Spans};
use crate::{
    execute_seconds, overhead_pairs, report_span_layers, trace_off, trace_on, Live, SimMark,
    Workload, CHECK_STEPS, OVERHEAD_PAIRS,
};

const LEVEL: u32 = 3;
const N: usize = 2;
const DT: f64 = 8e-4;
const BATCHES: usize = 2;
const WINDOW_BLOCKS: usize = 1540;
/// Batched PIM state vs the native dG solver (the `batched_run`
/// example's bound).
const NATIVE_BOUND: f64 = 1e-11;

fn material() -> ElasticMaterial {
    ElasticMaterial::new(2.0, 1.0, 1.0)
}

fn mesh() -> HexMesh {
    HexMesh::refinement_level(LEVEL, Boundary::Periodic)
}

fn chip() -> PimChip {
    PimChip::new(ChipConfig::default_2gb())
}

pub struct ElasticWorkload;

pub struct LiveElastic {
    runner: BatchedElasticRunner,
    chip: PimChip,
    native: Solver<Elastic>,
    native_steps: usize,
}

fn mark(chip: &PimChip) -> SimMark {
    SimMark::new(
        chip.elapsed().max(chip.offchip_time()),
        &[chip.finish().ledger],
        chip.total_block_busy_seconds(),
    )
}

impl Live for LiveElastic {
    fn step(&mut self) {
        self.runner.step(&mut self.chip);
    }

    fn mark(&self) -> SimMark {
        mark(&self.chip)
    }

    fn state(&mut self) -> State {
        self.runner.vars().clone()
    }

    fn native_diff(&mut self, state: &State, steps: usize) -> f64 {
        self.native.run(DT, steps - self.native_steps);
        self.native_steps = steps;
        state.max_abs_diff(self.native.state())
    }

    fn native_bound(&self) -> f64 {
        NATIVE_BOUND
    }
}

fn native(mesh: &HexMesh, modes: &Modes) -> Solver<Elastic> {
    let mut native = Solver::<Elastic>::uniform(mesh.clone(), N, FluxKind::Riemann, material());
    native.set_initial(|v, x| modes.value(v, x));
    native
}

fn construct(mesh: &HexMesh, initial: &State) -> BatchedElasticRunner {
    BatchedElasticRunner::new(
        mesh.clone(),
        N,
        FluxKind::Riemann,
        material(),
        initial,
        DT,
        BATCHES,
        WINDOW_BLOCKS,
    )
}

/// `BatchedElasticRunner::step`, call for call, on a mapping and chip of
/// the benchmark's own, with a span around every call into `core` and
/// `pim`. Its state must stay bit-identical to the runner's.
struct Replay {
    mapping: ElasticMapping,
    chip: PimChip,
    batches: Vec<Vec<usize>>,
    boundary: Vec<Vec<usize>>,
    vars: State,
    aux: State,
    contribs: State,
    /// Instructions executed so far.
    instrs: u64,
}

impl Replay {
    /// The runner's batch split: consecutive y-slices per batch, and the
    /// neighbouring slices (wrapping, on the periodic mesh) as boundary.
    fn new(mesh: &HexMesh, initial: &State) -> Self {
        let slices = mesh.num_slices();
        let per_batch = slices / BATCHES;
        let mut batches = Vec::new();
        let mut boundary = Vec::new();
        for b in 0..BATCHES {
            let (first, last) = (b * per_batch, b * per_batch + per_batch - 1);
            let elems: Vec<usize> =
                (first..=last).flat_map(|s| mesh.slice_elements(s).map(|e| e.index())).collect();
            let below = if first > 0 { first - 1 } else { slices - 1 };
            let above = if last + 1 < slices { last + 1 } else { 0 };
            let mut extra: Vec<usize> = [below, above]
                .into_iter()
                .filter(|s| !(first..=last).contains(s))
                .flat_map(|s| mesh.slice_elements(s).map(|e| e.index()))
                .collect();
            extra.sort_unstable();
            extra.dedup();
            batches.push(elems);
            boundary.push(extra);
        }
        let (elements, nodes) = (initial.num_elements(), initial.nodes_per_element());
        Self {
            mapping: ElasticMapping::new(
                mesh.clone(),
                N,
                FluxKind::Riemann,
                vec![material(); elements],
            ),
            chip: chip(),
            batches,
            boundary,
            vars: initial.clone(),
            aux: State::zeros(elements, 9, nodes),
            contribs: State::zeros(elements, 9, nodes),
            instrs: 0,
        }
    }

    /// Residents pack from quartet 0, then the boundary elements, then
    /// everything else parked past the window.
    fn install_map(&mut self, batch: usize, with_boundary: bool) -> (Vec<usize>, Vec<usize>) {
        let residents = self.batches[batch].clone();
        let extras = if with_boundary { self.boundary[batch].clone() } else { Vec::new() };
        let mut map = vec![0u32; self.vars.num_elements()];
        let mut next = 0u32;
        for &e in residents.iter().chain(&extras) {
            map[e] = next;
            next += 1;
        }
        for (e, slot) in map.iter_mut().enumerate() {
            if !residents.contains(&e) && !extras.contains(&e) {
                *slot = next;
                next += 1;
            }
        }
        self.mapping.set_quartet_map(map);
        (residents, extras)
    }

    fn execute(&mut self, spans: &mut Spans, span: &'static str, stream: &pim_isa::InstrStream) {
        let chip = &mut self.chip;
        spans.time(span, || chip.execute(stream));
        self.instrs += stream.len() as u64;
    }

    fn step(&mut self, spans: &mut Spans) {
        for stage in 0..Lsrk5::STAGES {
            for b in 0..BATCHES {
                let (res, _) = spans.time("core.install_map", || self.install_map(b, false));
                let (m, chip) = (&self.mapping, &mut self.chip);
                spans.time("core.preload", || m.preload_static_subset(chip, DT, &res));
                spans.time("core.copy", || {
                    m.load_vars_subset(chip, &self.vars, &res);
                    m.zero_dynamic_subset(chip, &res);
                });
                let volume = spans.time("core.compile.volume", || m.compile_volume_for(&res));
                self.execute(spans, "pim.execute.volume", &volume);
                let (m, chip) = (&self.mapping, &mut self.chip);
                spans.time("core.copy", || {
                    m.extract_contribs_subset(chip, &res, &mut self.contribs)
                });
            }
            for b in 0..BATCHES {
                let (res, extras) = spans.time("core.install_map", || self.install_map(b, true));
                let all: Vec<usize> = res.iter().chain(&extras).copied().collect();
                let (m, chip) = (&self.mapping, &mut self.chip);
                spans.time("core.preload", || m.preload_static_subset(chip, DT, &all));
                spans.time("core.copy", || {
                    m.load_vars_subset(chip, &self.vars, &all);
                    m.load_contribs_subset(chip, &self.contribs, &res);
                });
                // The LUT setup serves Flux's impedance constants, so its
                // compile and execution count as Flux.
                let (lut, flux) = spans.time("core.compile.flux", || {
                    (m.compile_lut_setup_for(&res), m.compile_flux_for(&res))
                });
                self.execute(spans, "pim.execute.flux", &lut);
                self.execute(spans, "pim.execute.flux", &flux);
                let (m, chip) = (&self.mapping, &mut self.chip);
                spans.time("core.copy", || {
                    m.extract_contribs_subset(chip, &res, &mut self.contribs)
                });
            }
            for b in 0..BATCHES {
                let (res, _) = spans.time("core.install_map", || self.install_map(b, false));
                let (m, chip) = (&self.mapping, &mut self.chip);
                spans.time("core.preload", || m.preload_static_subset(chip, DT, &res));
                spans.time("core.copy", || {
                    m.load_vars_subset(chip, &self.vars, &res);
                    m.load_aux_subset(chip, &self.aux, &res);
                    m.load_contribs_subset(chip, &self.contribs, &res);
                });
                let integration = spans
                    .time("core.compile.integration", || m.compile_integration_for(&res, stage));
                self.execute(spans, "pim.execute.integration", &integration);
                let (m, chip) = (&self.mapping, &mut self.chip);
                spans.time("core.copy", || {
                    m.extract_vars_subset(chip, &res, &mut self.vars);
                    m.extract_aux_subset(chip, &res, &mut self.aux);
                });
            }
        }
    }
}

impl Workload for ElasticWorkload {
    type Live = LiveElastic;

    fn num_vars(&self) -> usize {
        9
    }

    fn set_up(&self, modes: &Modes) -> (LiveElastic, SimMark) {
        let mesh = mesh();
        let native = native(&mesh, modes);
        let runner = construct(&mesh, native.state());
        let chip = chip();
        let start = mark(&chip);
        (LiveElastic { runner, chip, native, native_steps: 0 }, start)
    }

    fn traced(&self, modes: &Modes, report: &mut Report) {
        let mut spans = Spans::new();
        let mesh = spans.time("mesh.build", mesh);
        for _ in 1..3 {
            black_box(spans.time("mesh.build", || black_box(self::mesh())));
        }
        let native = native(&mesh, modes);
        let window_steps = 1 + CHECK_STEPS;

        // The replay runs first, while the process holds nothing else,
        // so its RSS growth is not masked by freed pages.
        let rss0 = rss_mb();
        let mut replay = Replay::new(&mesh, native.state());
        let mut shard_rss = 0.0;
        for step in 0..window_steps {
            let id = spans.begin("core.replay_step");
            replay.step(&mut spans);
            spans.end(id);
            if step == 0 {
                shard_rss = rss_mb() - rss0;
            }
        }

        let (runner, chip) =
            spans.time("runtime.construct", || (construct(&mesh, native.state()), chip()));
        let mut live = LiveElastic { runner, chip, native, native_steps: 0 };
        let start = live.mark();
        trace_on();
        spans.time("runtime.first_step", || live.step());
        for _ in 0..CHECK_STEPS {
            spans.time("runner.step.traced", || live.step());
        }
        let (events, mut dropped) = trace_off();
        let end = live.mark();
        let sim = start.window(&end, window_steps);
        let checked = live.state();
        let replay_diff = checked.max_abs_diff(&replay.vars);
        for _ in 0..window_steps {
            spans.time("dg.step", || live.native.step(DT));
        }
        live.native_steps = window_steps;
        let native_diff = checked.max_abs_diff(live.native.state());
        dropped += overhead_pairs(&mut live, &mut spans);

        let per_step = 1.0 / window_steps as f64;
        report_span_layers(report, &spans, per_step, per_step);
        // Compile, preload and copies: the host work this workload
        // repeats every pass.
        let host_layers = [
            "core.preload",
            "core.copy",
            "core.compile.volume",
            "core.compile.flux",
            "core.compile.integration",
        ]
        .iter()
        .map(|k| spans.total(k))
        .sum::<f64>()
            * per_step;
        let stages = (window_steps * Lsrk5::STAGES) as f64;
        report.metric("core.instrs_per_stage", replay.instrs as f64 / stages, "count");
        report.metric("core.patch_sites", 0.0, "count");
        report.metric(
            "pim.ns_per_instr",
            1e9 * execute_seconds(&spans) / replay.instrs as f64,
            "ns",
        );
        report.metric("pim.shard_rss_mb", shard_rss, "MB");
        sim.report_layers(report);
        // No cluster runtime, halo, estimator or lens window on this
        // workload: these read 0 and are listed as not applicable.
        let not_applicable = [
            ("runtime.step_s", "s"),
            ("runtime.halo_bytes_per_stage", "B"),
            ("runtime.halo_messages_per_stage", "count"),
            ("runtime.halo_link_s_per_stage", "sim_s"),
            ("runtime.exposed_halo_s_per_stage", "sim_s"),
            ("runtime.max_skew_s", "sim_s"),
            ("runtime.estimate_ratio", "ratio"),
            ("lens.compute.volume_s", "sim_s"),
            ("lens.compute.flux_s", "sim_s"),
            ("lens.compute.integration_s", "sim_s"),
            ("lens.link_serialization_s", "sim_s"),
            ("lens.inbound_ghost_wait_s", "sim_s"),
            ("lens.dma_s", "sim_s"),
            ("lens.fence_idle_s", "sim_s"),
            ("lens.host_preprocess_s", "sim_s"),
        ];
        for (name, unit) in not_applicable {
            report.metric(name, 0.0, unit);
        }
        report.metric("trace.events_per_step", events.len() as f64 / window_steps as f64, "count");
        report.metric("trace.dropped", dropped as f64, "count");

        report.check("native_max_abs_diff", native_diff, NATIVE_BOUND);
        report.check("replay_max_abs_diff", replay_diff, 0.0);
        report.check("trace_dropped_events", dropped as f64, 0.0);
        report.steps = 2 * window_steps + 2 * OVERHEAD_PAIRS;

        let names: Vec<String> = not_applicable.iter().map(|(n, _)| format!("\"{n}\"")).collect();
        report.record("not_applicable", format!("[{}]", names.join(", ")));
        report.record(
            "host_layers",
            format!(
                "{{\"compile_preload_copy_s_per_step\": {}, \"share_of_step_s\": {}, \
                 \"sim_stage_s\": {}}}",
                num(host_layers),
                num(host_layers / spans.median("runner.step")),
                num(sim.stage_s),
            ),
        );
        report.record("spans", spans.json());
    }
}
