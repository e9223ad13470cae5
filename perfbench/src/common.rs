//! Shared pieces of the benchmark: seeded initial conditions, timing
//! statistics, process memory readings, the bit-identity digest, the
//! span recorder of the traced run, and the JSON the binary prints.

use std::fmt::Write as _;
use std::time::Instant;

use wavesim_dg::State;
use wavesim_numerics::Vec3;

/// SplitMix64: a small, well-mixed generator, so the same `--seed`
/// gives the same inputs on every host.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One Fourier mode of the initial condition.
struct Mode {
    wave: [f64; 3],
    amplitude: f64,
    phase: f64,
}

/// The seeded initial condition: per variable, a sum of a few plane-wave
/// modes with integer wave vectors (so the field is periodic on the unit
/// cube) and seeded amplitudes and phases.
pub struct Modes(Vec<Vec<Mode>>);

/// Modes per variable.
const MODES_PER_VAR: usize = 3;

impl Modes {
    pub fn new(seed: u64, num_vars: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let vars = (0..num_vars)
            .map(|_| {
                (0..MODES_PER_VAR)
                    .map(|_| {
                        // ±1 or ±2, from the two low bits of one draw.
                        let mut component = || {
                            let bits = rng.next_u64();
                            let k = 1.0 + (bits & 1) as f64;
                            if bits & 2 == 0 {
                                k
                            } else {
                                -k
                            }
                        };
                        let wave = [component(), component(), component()];
                        Mode {
                            wave,
                            amplitude: 0.05 + 0.45 * rng.unit(),
                            phase: std::f64::consts::TAU * rng.unit(),
                        }
                    })
                    .collect()
            })
            .collect();
        Self(vars)
    }

    pub fn value(&self, var: usize, x: Vec3) -> f64 {
        self.0[var]
            .iter()
            .map(|m| {
                let arg = m.wave[0] * x.x + m.wave[1] * x.y + m.wave[2] * x.z;
                m.amplitude * (std::f64::consts::TAU * arg + m.phase).sin()
            })
            .sum()
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A timing sample summarised as its median, its count and — only when
/// at least ten samples lie beyond it — the highest such percentile.
pub struct Timing {
    pub median: f64,
    pub samples: usize,
    /// `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
    /// The samples, in the order they were taken.
    values: Vec<f64>,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        // Only a percentile above the median is a tail: at least 21
        // samples, so that ten lie beyond it.
        let tail = (n > 20).then(|| (100.0 * (n - 10) as f64 / n as f64, s[n - 11]));
        Self { median: median(samples), samples: n, tail, values: samples.to_vec() }
    }

    pub fn json(&self) -> String {
        let mut out = format!("{{\"median\": {}, \"samples\": {}", num(self.median), self.samples);
        if let Some((p, v)) = self.tail {
            let _ = write!(out, ", \"tail_percentile\": {}, \"tail\": {}", num(p), num(v));
        }
        let values: Vec<String> = self.values.iter().map(|v| num(*v)).collect();
        let _ = write!(out, ", \"in_order\": [{}]}}", values.join(", "));
        out
    }
}

/// One field of `/proc/self/status`, in MiB (the kernel reports kB).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the bits of every state value, then of the two simulated
/// end-to-end metrics: equal digests mean a bit-identical state and a
/// simulated clock and ledger that did not move.
pub fn digest(state: &State, sim_stage_s: f64, sim_step_j: f64) -> String {
    let h = state.as_slice().iter().fold(FNV_OFFSET, |h, v| fnv1a(h, v.to_bits()));
    let h = fnv1a(fnv1a(h, sim_stage_s.to_bits()), sim_step_j.to_bits());
    format!("{h:016x}")
}

/// One recorded span: a named host-time interval and the span that was
/// open when it began.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    t0: f64,
    t1: f64,
}

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its own calls into each layer; nothing inside the
/// program is instrumented.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span that encloses later spans until [`Self::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let t0 = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, parent: self.open.last().copied(), t0, t1: t0 });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close in the order they opened");
        self.spans[id].t1 = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans.iter().filter(move |s| s.name == name).map(|s| s.t1 - s.t0)
    }

    /// Summed duration of every span named `name`, seconds (0 when
    /// there is none).
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).fold(0.0, |a, d| a + d)
    }

    /// Median duration of the spans named `name`, seconds.
    pub fn median(&self, name: &str) -> f64 {
        let d: Vec<f64> = self.durations(name).collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// Per span name: count, total and self time (total minus the part
    /// covered by direct children), as a JSON object for the run record.
    pub fn json(&self) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.t1 - s.t0;
            }
        }
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let (mut count, mut total, mut self_time) = (0usize, 0.0, 0.0);
            for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == *name) {
                count += 1;
                total += s.t1 - s.t0;
                self_time += s.t1 - s.t0 - child_time[id];
            }
            let _ = write!(
                out,
                "{}\"{name}\": {{\"count\": {count}, \"total_s\": {}, \"self_s\": {}}}",
                if i > 0 { ", " } else { "" },
                num(total),
                num(self_time),
            );
        }
        out.push('}');
        out
    }
}

/// A number in JSON, with every digit Rust's shortest round-trip
/// formatting gives; `null` when it is not finite (a broken run, which a
/// check then reports as failed).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// One named correctness check: a measured value against its bound.
pub struct Check {
    pub name: &'static str,
    pub value: f64,
    pub bound: f64,
}

impl Check {
    pub fn passed(&self) -> bool {
        self.value <= self.bound
    }
}

/// The metrics and checks of one run, rendered as the two JSON lines the
/// binary ends with: the run record, then the result.
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<Check>,
    record: Vec<(&'static str, String)>,
    /// Timed operations (time steps) the run performed.
    pub steps: usize,
}

impl Report {
    pub fn new() -> Self {
        Self { metrics: Vec::new(), checks: Vec::new(), record: Vec::new(), steps: 0 }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn check(&mut self, name: &'static str, value: f64, bound: f64) {
        self.checks.push(Check { name, value, bound });
    }

    /// Adds a raw JSON value to the run record.
    pub fn record(&mut self, key: &'static str, json: String) {
        self.record.push((key, json));
    }

    /// Prints the record line and then the result line. Every time step
    /// and every check is an attempted operation; a failed check is a
    /// failed one.
    pub fn print(&self) {
        let mut record = String::from("{\"record\": {");
        for (key, json) in &self.record {
            let _ = write!(record, "\"{key}\": {json}, ");
        }
        record.push_str("\"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            let _ = write!(
                record,
                "{}{{\"name\": \"{}\", \"value\": {}, \"bound\": {}, \"passed\": {}}}",
                if i > 0 { ", " } else { "" },
                c.name,
                num(c.value),
                num(c.bound),
                c.passed()
            );
        }
        record.push_str("]}}");
        println!("{record}");

        let failed = self.checks.iter().filter(|c| !c.passed()).count();
        let mut result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0,
            self.steps + self.checks.len()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let _ = write!(
                result,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" },
                num(*value)
            );
        }
        result.push_str("}}");
        println!("{result}");
    }
}
