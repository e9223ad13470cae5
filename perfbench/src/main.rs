//! The Wave-PIM benchmark binary. One invocation runs one workload in
//! this process and ends its standard output with two JSON lines: the
//! run record (timing samples, digest, checks, spans) and the result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `perfbench/run.py` builds this binary and is the command the
//! benchmark is run with; see `perfbench/METRICS.md` for what each
//! metric means and which layer and workload it belongs to.

mod acoustic;
mod common;
mod elastic;

use std::time::Instant;

use pim_sim::EnergyLedger;
use wavesim_dg::{Lsrk5, State};

use crate::acoustic::ClusterWorkload;
use crate::common::{digest, peak_rss_mb, Modes, Report, Spans, Timing};
use crate::elastic::ElasticWorkload;

/// Time steps after the first whose simulated clock, energy and state
/// are checked: the deterministic window every run shares, whatever
/// `--seconds` is.
pub const CHECK_STEPS: usize = 2;

/// Set-ups per untraced run, each in a fresh process; `setup_s` is their
/// median.
const SETUP_PROCESSES: usize = 5;

/// The simulated clock, dynamic energy by mechanism and block-busy time
/// of a runner at one instant.
pub struct SimMark {
    pub elapsed: f64,
    /// compute, reads, writes, interconnect, offchip, host.
    energy: [f64; 6],
    busy: f64,
}

const ENERGY_FIELDS: [&str; 6] = [
    "pim.energy_j.compute",
    "pim.energy_j.reads",
    "pim.energy_j.writes",
    "pim.energy_j.interconnect",
    "pim.energy_j.offchip",
    "pim.energy_j.host",
];

impl SimMark {
    pub fn new(elapsed: f64, ledgers: &[EnergyLedger], busy: f64) -> Self {
        let mut energy = [0.0; 6];
        for l in ledgers {
            for (e, v) in energy.iter_mut().zip([
                l.compute,
                l.reads,
                l.writes,
                l.interconnect,
                l.offchip,
                l.host,
            ]) {
                *e += v;
            }
        }
        Self { elapsed, energy, busy }
    }

    /// The simulated metrics of the window from `self` to `end`, which
    /// spans `steps` time steps.
    pub fn window(&self, end: &SimMark, steps: usize) -> SimWindow {
        let stages = (steps * Lsrk5::STAGES) as f64;
        let mut energy = [0.0; 6];
        for (e, (a, b)) in energy.iter_mut().zip(self.energy.iter().zip(&end.energy)) {
            *e = (b - a) / steps as f64;
        }
        SimWindow {
            stage_s: (end.elapsed - self.elapsed) / stages,
            step_j: energy.iter().sum(),
            energy,
            busy_per_stage: (end.busy - self.busy) / stages,
        }
    }
}

/// Simulated metrics over a window of whole time steps.
pub struct SimWindow {
    /// Simulated makespan per LSRK stage, seconds.
    pub stage_s: f64,
    /// Simulated dynamic energy per time step, joules.
    pub step_j: f64,
    /// `step_j` by mechanism, in [`ENERGY_FIELDS`] order.
    energy: [f64; 6],
    /// Block-busy seconds per stage, summed over every block and chip.
    busy_per_stage: f64,
}

impl SimWindow {
    /// The `pim` layer's simulated energy and busy metrics.
    pub fn report_layers(&self, report: &mut Report) {
        for (name, v) in ENERGY_FIELDS.into_iter().zip(self.energy) {
            report.metric(name, v, "J");
        }
        report.metric("pim.block_busy_s", self.busy_per_stage, "sim_s");
    }
}

/// The layer metrics both kinds of workload take from the same spans.
/// `once` scales the compile and preload spans and `per_step` the copy
/// and execute spans, to each workload's basis (see METRICS.md).
pub fn report_span_layers(report: &mut Report, spans: &Spans, once: f64, per_step: f64) {
    report.metric("mesh.build_s", spans.median("mesh.build"), "s");
    report.metric("dg.step_s", spans.median("dg.step"), "s");
    report.metric("core.preload_s", spans.total("core.preload") * once, "s");
    for kernel in ["volume", "flux", "integration", "halo"] {
        let compile = spans.total(&format!("core.compile.{kernel}")) * once;
        report.metric(format!("core.compile_s.{kernel}"), compile, "s");
        let execute = spans.total(&format!("pim.execute.{kernel}")) * per_step;
        report.metric(format!("pim.execute_s.{kernel}"), execute, "s");
    }
    report.metric("core.copy_s", spans.total("core.copy") * per_step, "s");
    report.metric("runtime.construct_s", spans.total("runtime.construct"), "s");
    report.metric("runtime.first_step_s", spans.total("runtime.first_step"), "s");
    let overhead = spans.median("runner.step.traced") / spans.median("runner.step") - 1.0;
    report.metric("trace.overhead", overhead, "ratio");
}

/// Host seconds of every `pim.execute.*` span.
pub fn execute_seconds(spans: &Spans) -> f64 {
    ["volume", "flux", "integration", "halo"]
        .iter()
        .map(|k| spans.total(&format!("pim.execute.{k}")))
        .sum()
}

/// A constructed workload, ready to step.
pub trait Live {
    fn step(&mut self);
    fn mark(&self) -> SimMark;
    /// The merged variable state.
    fn state(&mut self) -> State;
    /// Advances the native reference to `steps` time steps and returns
    /// its max-norm distance from `state`.
    fn native_diff(&mut self, state: &State, steps: usize) -> f64;
    fn native_bound(&self) -> f64;
}

pub trait Workload {
    type Live: Live;
    /// Builds the mesh, the seeded initial condition and the runner;
    /// returns it with the simulated clock at the end of construction.
    fn set_up(&self, modes: &Modes) -> (Self::Live, SimMark);
    /// The traced run: per-layer metrics from spans around the calls
    /// into each layer.
    fn traced(&self, modes: &Modes, report: &mut Report);
    /// Variables per node of the state the workload evolves.
    fn num_vars(&self) -> usize;
}

/// Untraced/traced step pairs the traced run alternates after its
/// checked window, for `trace.overhead`.
pub const OVERHEAD_PAIRS: usize = 3;

/// Trace ring capacity (events per thread) of the traced run.
const RING_EVENTS: usize = 1 << 21;

/// Starts recording the program's summary-lane trace.
pub fn trace_on() {
    pim_trace::set_ring_capacity(RING_EVENTS);
    pim_trace::set_summary_lanes_only(true);
    let _ = pim_trace::drain();
    pim_trace::enable();
}

/// Stops the trace and returns its events and the count it dropped.
pub fn trace_off() -> (Vec<pim_trace::Event>, u64) {
    pim_trace::disable();
    pim_trace::set_summary_lanes_only(false);
    pim_trace::drain()
}

/// Alternates untraced (`runner.step`) and traced (`runner.step.traced`)
/// steps, so that host drift affects both sides of `trace.overhead`
/// alike. Returns the events the traced steps dropped.
pub fn overhead_pairs(live: &mut impl Live, spans: &mut Spans) -> u64 {
    let mut dropped = 0;
    for _ in 0..OVERHEAD_PAIRS {
        spans.time("runner.step", || live.step());
        trace_on();
        spans.time("runner.step.traced", || live.step());
        dropped += trace_off().1;
    }
    dropped
}

/// Sets up once — mesh, initial condition, runner and first step — and
/// returns the runner, the simulated clock at the end of construction
/// and the host seconds it took.
fn set_up_and_step<W: Workload>(w: &W, modes: &Modes) -> (W::Live, SimMark, f64) {
    let t0 = Instant::now();
    let (mut live, start) = w.set_up(modes);
    live.step();
    (live, start, t0.elapsed().as_secs_f64())
}

/// `setup_s` samples from fresh processes: this binary re-run with
/// `--setup-only 1`, one after another, each waited for. A fresh process
/// pays the page faults and lazy allocation a later set-up in the same
/// process would find already paid.
fn cold_setups(args: &Args) -> Vec<f64> {
    let exe = std::env::current_exe().expect("the benchmark binary knows its own path");
    (1..SETUP_PROCESSES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", "1", "--trace", "0", "--setup-only", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("the set-up process starts");
            assert!(out.status.success(), "the set-up process failed: {}", out.status);
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .expect("the set-up process prints its set-up seconds")
        })
        .collect()
}

/// The untraced run: end-to-end metrics, the digest and the checks.
fn untraced<W: Workload>(w: &W, args: &Args, modes: &Modes, report: &mut Report) {
    let mut setups = cold_setups(args);
    let (mut live, start, setup) = set_up_and_step(w, modes);
    setups.push(setup);

    // Timed steps: first the checked window, then more until the
    // timed steps add up to `--seconds`.
    fn timed_step(live: &mut impl Live, steps: &mut Vec<f64>) {
        let t0 = Instant::now();
        live.step();
        steps.push(t0.elapsed().as_secs_f64());
    }
    let mut steps = Vec::new();
    for _ in 0..CHECK_STEPS {
        timed_step(&mut live, &mut steps);
    }
    let sim = start.window(&live.mark(), 1 + CHECK_STEPS);
    let checked = live.state();
    let checked_digest = digest(&checked, sim.stage_s, sim.step_j);
    let bound = live.native_bound();
    report.check("native_max_abs_diff", live.native_diff(&checked, 1 + CHECK_STEPS), bound);
    while steps.iter().sum::<f64>() < args.seconds {
        timed_step(&mut live, &mut steps);
    }
    let last = live.state();
    let total_steps = 1 + steps.len();
    report.check("native_max_abs_diff_final", live.native_diff(&last, total_steps), bound);
    report.steps = SETUP_PROCESSES + steps.len();

    let setup = Timing::of(&setups);
    let step = Timing::of(&steps);
    report.metric("setup_s", setup.median, "s");
    report.metric("step_s", step.median, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("sim_stage_s", sim.stage_s, "sim_s");
    report.metric("sim_step_j", sim.step_j, "J");
    report.record("setup_s", setup.json());
    report.record("step_s", step.json());
    report.record("digest", format!("\"{checked_digest}\""));
    report.record("checked_steps", (1 + CHECK_STEPS).to_string());
    report.record("total_steps", total_steps.to_string());
}

const WORKLOADS: [&str; 3] = ["acoustic_l4x4", "acoustic_l4x16_narrow", "elastic_l3_batched"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Only set up once and print the set-up seconds (see
    /// [`cold_setups`]).
    setup_only: bool,
}

impl Args {
    fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut setup_only) = (None, None, None, false);
        for pair in args.chunks(2) {
            let [key, value] = pair else { usage() };
            match key.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    workload = Some(value.clone())
                }
                "--seed" => seed = value.parse::<u64>().ok(),
                "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
                "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
                "--setup-only" => setup_only = value == "1",
                _ => usage(),
            }
        }
        match (workload, seed, seconds, trace) {
            (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
                Self { workload, seed, seconds, trace, setup_only }
            }
            _ => usage(),
        }
    }
}

fn run<W: Workload>(w: &W, args: &Args) {
    let modes = Modes::new(args.seed, w.num_vars());
    if args.setup_only {
        let (_, _, seconds) = set_up_and_step(w, &modes);
        println!("{seconds:?}");
        return;
    }
    let mut report = Report::new();
    if args.trace {
        w.traced(&modes, &mut report);
    } else {
        untraced(w, args, &modes, &mut report);
    }
    report.record("seed", args.seed.to_string());
    report.record("workers", rayon::current_num_threads().to_string());
    report.print();
}

fn main() {
    let args = Args::parse();
    match args.workload.as_str() {
        "acoustic_l4x4" => run(&ClusterWorkload { level: 4, chips: 4, link_share: 1.0 }, &args),
        "acoustic_l4x16_narrow" => {
            run(&ClusterWorkload { level: 4, chips: 16, link_share: 1.0 / 256.0 }, &args)
        }
        _ => run(&ElasticWorkload, &args),
    }
}
