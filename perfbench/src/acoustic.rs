//! The two cluster workloads: the level-4 acoustic problem on the
//! pipelined `ClusterRunner`, once on four chips at the default link
//! (compute-bound) and once on sixteen chips behind a link narrowed to
//! 1/256 of the default (halo-bound).

use std::hint::black_box;

use pim_cluster::{estimate_cluster_on, ClusterConfig, ClusterRunner, KernelProbe};
use pim_sim::{ChipConfig, PimChip};
use wave_pim::compiler::AcousticMapping;
use wave_pim::program_cache::StageProgram;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Lsrk5, Solver, State};
use wavesim_mesh::{Boundary, HexMesh, SlicePartition};

use crate::common::{num, rss_mb, Modes, Report, Spans};
use crate::{
    execute_seconds, overhead_pairs, report_span_layers, trace_off, trace_on, Live, SimMark,
    Workload, CHECK_STEPS, OVERHEAD_PAIRS,
};

const N: usize = 2;
const DT: f64 = 1e-3;
/// Merged PIM state vs the native dG solver.
const NATIVE_BOUND: f64 = 1e-12;
/// Lens blame must sum to the makespan within this many seconds.
const BLAME_BOUND: f64 = 1e-9;
/// Steps of one shard replayed for the core and pim layer spans.
const REPLAY_STEPS: usize = 2;

fn material() -> AcousticMaterial {
    AcousticMaterial::new(2.0, 1.0)
}

pub struct ClusterWorkload {
    pub level: u32,
    pub chips: usize,
    /// Link bandwidth as a share of the default inter-chip link.
    pub link_share: f64,
}

/// A constructed cluster, the native reference it is checked against,
/// and the simulated clock at the end of construction.
pub struct LiveCluster {
    runner: ClusterRunner,
    native: Solver<Acoustic>,
    native_steps: usize,
}

impl Live for LiveCluster {
    fn step(&mut self) {
        self.runner.step();
    }

    fn mark(&self) -> SimMark {
        let ledgers: Vec<_> = self.runner.finish_reports().into_iter().map(|r| r.ledger).collect();
        SimMark::new(
            self.runner.elapsed(),
            &ledgers,
            self.runner.capacity_busy_seconds().iter().sum(),
        )
    }

    fn state(&mut self) -> State {
        self.runner.state()
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

impl ClusterWorkload {
    fn mesh(&self) -> HexMesh {
        HexMesh::refinement_level(self.level, Boundary::Periodic)
    }

    fn chip(&self) -> ChipConfig {
        ChipConfig::default_2gb()
    }

    fn config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::uniform(self.chips, self.chip());
        config.link.bandwidth *= self.link_share;
        config
    }

    /// The native solver holding the seeded initial condition; the
    /// runner receives only its `State`.
    fn native(&self, mesh: &HexMesh, modes: &Modes) -> Solver<Acoustic> {
        let mut native =
            Solver::<Acoustic>::uniform(mesh.clone(), N, FluxKind::Riemann, material());
        native.set_initial(|v, x| modes.value(v, x));
        native
    }

    fn construct(&self, mesh: &HexMesh, initial: &State) -> ClusterRunner {
        ClusterRunner::new(mesh, N, FluxKind::Riemann, material(), initial, DT, self.config())
    }

    /// Replays shard 0's compiled streams on a chip of its own, with a
    /// span around every call into `core` and `pim`. The ghost blocks
    /// receive this shard's own send set instead of the neighbours', so
    /// the replayed values are not a solution, but every instruction and
    /// copy the cluster issues for this shard per stage is issued here
    /// in the same order. Returns the instructions executed and the RSS
    /// growth (MiB) from preloading and first-executing the shard.
    fn replay_shard(&self, mesh: &HexMesh, initial: &State, spans: &mut Spans) -> (u64, f64) {
        let partition = SlicePartition::new(mesh, self.chips);
        let shard = &partition.shards()[0];
        let res: Vec<usize> = shard.elements.iter().map(|e| e.index()).collect();
        let gho: Vec<usize> = shard.ghosts.iter().map(|e| e.index()).collect();
        let snd: Vec<usize> =
            shard.boundary_elements(&partition).iter().map(|e| e.index()).collect();

        let rss0 = rss_mb();
        let mut mapping = AcousticMapping::uniform(mesh.clone(), N, FluxKind::Riemann, material());
        mapping.install_shard_map(&res, &gho);
        let mut chip = PimChip::new(self.chip());
        spans.time("core.preload", || {
            mapping.preload_static_subset(&mut chip, DT, &res);
            mapping.load_vars_subset(&mut chip, initial, &res);
            mapping.load_vars_subset(&mut chip, initial, &gho);
            mapping.zero_dynamic_subset(&mut chip, &res);
        });
        let lut = spans.time("core.compile.lut", || mapping.compile_lut_setup_for(&res));
        spans.time("pim.execute.lut", || chip.execute(&lut));

        let volume = spans.time("core.compile.volume", || mapping.compile_volume_for(&res));
        let flux = spans.time("core.compile.flux", || mapping.compile_flux_phased_for(&res));
        let mut integration = spans.time("core.compile.integration", || {
            StageProgram::new(
                (0..Lsrk5::STAGES).map(|s| mapping.compile_integration_for(&res, s)).collect(),
            )
        });
        let (store, load) = spans.time("core.compile.halo", || {
            (mapping.compile_halo_store_for(&snd), mapping.compile_halo_load_for(&gho))
        });

        let mut staging = initial.clone();
        let mut instrs = 0u64;
        let mut rss1 = rss0;
        for step in 0..REPLAY_STEPS {
            for stage in 0..Lsrk5::STAGES {
                spans.time("core.copy", || {
                    mapping.extract_vars_subset(&mut chip, &snd, &mut staging);
                });
                spans.time("pim.execute.halo", || chip.execute(&store));
                spans.time("core.copy", || mapping.load_vars_subset(&mut chip, &staging, &gho));
                spans.time("pim.execute.halo", || chip.execute(&load));
                spans.time("pim.execute.volume", || chip.execute(&volume));
                spans.time("pim.execute.flux", || chip.execute(&flux));
                let stream = integration.for_stage(stage);
                spans.time("pim.execute.integration", || chip.execute(stream));
                instrs +=
                    (store.len() + load.len() + volume.len() + flux.len() + stream.len()) as u64;
            }
            if step == 0 {
                rss1 = rss_mb();
            }
        }
        (instrs, rss1 - rss0)
    }
}

impl Workload for ClusterWorkload {
    type Live = LiveCluster;

    fn num_vars(&self) -> usize {
        4
    }

    fn set_up(&self, modes: &Modes) -> (LiveCluster, SimMark) {
        let mesh = self.mesh();
        let native = self.native(&mesh, modes);
        let runner = self.construct(&mesh, native.state());
        let live = LiveCluster { runner, native, native_steps: 0 };
        let start = live.mark();
        (live, start)
    }

    fn traced(&self, modes: &Modes, report: &mut Report) {
        let mut spans = Spans::new();
        let mesh = spans.time("mesh.build", || self.mesh());
        for _ in 1..3 {
            black_box(spans.time("mesh.build", || black_box(self.mesh())));
        }
        let native = self.native(&mesh, modes);

        // The shard replay runs first, while the process holds nothing
        // else, so its RSS growth is not masked by freed pages.
        let (replay_instrs, shard_rss) = self.replay_shard(&mesh, native.state(), &mut spans);
        let replay_exec = execute_seconds(&spans);

        let runner = spans.time("runtime.construct", || self.construct(&mesh, native.state()));
        let mut live = LiveCluster { runner, native, native_steps: 0 };
        let start = live.mark();

        // The traced window is the untraced run's checked window: the
        // first step plus CHECK_STEPS steps, so lens blame per stage
        // sums to the same sim_stage_s.
        trace_on();
        spans.time("runtime.first_step", || live.step());
        for _ in 0..CHECK_STEPS {
            spans.time("runner.step.traced", || live.step());
        }
        let (events, mut dropped) = trace_off();
        let end = live.mark();
        let pids = live.runner.trace_pids();
        let window_steps = 1 + CHECK_STEPS;
        let stages = (window_steps * Lsrk5::STAGES) as f64;
        let analysis = pim_lens::analyze(&events, &pids, start.elapsed, end.elapsed);
        let residual = (analysis.blame_total() - analysis.makespan).abs();

        let halo = live.runner.halo_stats().clone();
        let sim = start.window(&end, window_steps);
        let checked = live.state();
        for _ in 0..window_steps {
            spans.time("dg.step", || live.native.step(DT));
        }
        live.native_steps = window_steps;
        let native_diff = checked.max_abs_diff(live.native.state());

        dropped += overhead_pairs(&mut live, &mut spans);

        let probe = KernelProbe::measure(N, FluxKind::Riemann, self.chip());
        let estimate =
            estimate_cluster_on(&mesh, self.level, self.chips, self.config().link, &probe);

        let blame = |k: &str| analysis.blame.get(k).copied().unwrap_or(0.0) / stages;
        report_span_layers(report, &spans, 1.0, 1.0 / REPLAY_STEPS as f64);
        report.metric("core.instrs_per_stage", live.runner.cached_instrs() as f64, "count");
        report.metric("core.patch_sites", live.runner.patch_sites() as f64, "count");
        report.metric("pim.ns_per_instr", 1e9 * replay_exec / replay_instrs as f64, "ns");
        report.metric("pim.shard_rss_mb", shard_rss, "MB");
        sim.report_layers(report);
        report.metric("runtime.step_s", spans.median("runner.step"), "s");
        let halo_stages = halo.stages.max(1) as f64;
        report.metric("runtime.halo_bytes_per_stage", halo.payload_bytes as f64 / halo_stages, "B");
        report.metric(
            "runtime.halo_messages_per_stage",
            halo.messages as f64 / halo_stages,
            "count",
        );
        report.metric("runtime.halo_link_s_per_stage", halo.seconds_per_stage(), "sim_s");
        report.metric(
            "runtime.exposed_halo_s_per_stage",
            halo.exposed_seconds_per_stage(),
            "sim_s",
        );
        report.metric("runtime.max_skew_s", halo.max_skew_seconds, "sim_s");
        report.metric(
            "runtime.estimate_ratio",
            estimate.pipelined_stage_seconds / sim.stage_s,
            "ratio",
        );
        for (name, category) in [
            ("lens.compute.volume_s", "compute:Volume"),
            ("lens.compute.flux_s", "compute:Flux"),
            ("lens.compute.integration_s", "compute:Integration"),
            ("lens.link_serialization_s", "link_serialization"),
            ("lens.inbound_ghost_wait_s", "inbound_ghost_wait"),
            ("lens.dma_s", "dma"),
            ("lens.fence_idle_s", "fence_idle"),
            ("lens.host_preprocess_s", "host_preprocess"),
        ] {
            report.metric(name, blame(category), "sim_s");
        }
        report.metric("trace.events_per_step", events.len() as f64 / window_steps as f64, "count");
        report.metric("trace.dropped", dropped as f64, "count");

        report.check("native_max_abs_diff", native_diff, NATIVE_BOUND);
        report.check("lens_blame_residual_s", residual, BLAME_BOUND);
        report.check("trace_dropped_events", dropped as f64, 0.0);
        report.steps = REPLAY_STEPS + window_steps + 2 * OVERHEAD_PAIRS;

        let share = |k: &str| analysis.share(k);
        report.record(
            "lens_shares",
            format!(
                "{{\"compute\": {}, \"link_serialization\": {}, \"inbound_ghost_wait\": {}, \
                 \"sim_stage_s\": {}, \"makespan_per_stage\": {}}}",
                num(analysis.compute_share()),
                num(share("link_serialization")),
                num(share("inbound_ghost_wait")),
                num(sim.stage_s),
                num(analysis.makespan / stages),
            ),
        );
        report.record("spans", spans.json());
    }
}
