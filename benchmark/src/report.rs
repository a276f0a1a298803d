//! Runs a workload for a time budget and turns its passes into the
//! end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Serialize, Value};

use crate::cpu::{timed, SpeedProbe, PROBES_PER_GAP};
use crate::stats::{median, windowed_tail, TAIL_WINDOW};
use crate::workload::{Mode, Pass, Prepared, Workload, WORKERS};

/// A JSON object with `entries` in order.
pub fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Fewest set-ups per run; `setup_s` is the median of their CPU times.
pub const MIN_SETUPS: usize = 3;
/// Cheap set-ups repeat until this much time has passed, so their median
/// rests on enough samples to be steady.
pub const SETUP_BUDGET_S: f64 = 2.0;
/// Most set-ups per run.
pub const MAX_SETUPS: usize = 1000;
/// Fewest steps an untraced run measures: two tail windows.
pub const MIN_STEPS: usize = 2 * TAIL_WINDOW;

/// The end-to-end metrics, with their units, in report order. These are
/// the bounded metrics of the result line. Their timings are process CPU
/// time scaled to a calm host (see [`crate::cpu`]): on a shared host, wall
/// time and raw CPU time move with the host's load by more than any bound
/// could allow.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_cpu_s", "s"),
    ("step_cpu_p50_ms", "ms"),
    ("step_cpu_tail_ms", "ms"),
    ("samples_per_cpu_s", "1/s"),
    ("uplink_bytes", "B"),
    ("downlink_bytes", "B"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end figures printed in the table and the record but not in the
/// result line: the wall-time counterparts of the CPU timings, which a user
/// waits for but which move with the host's load; the host slowdown the
/// CPU timings were divided by; accuracies, which are a
/// function of the seed's data, so their spread across seeds says nothing
/// about the program's speed (they are guarded by the output checks
/// instead); and the failure fraction, the result line's `failed` over
/// `attempted`.
pub const REPORTED: [(&str, &str); 9] = [
    ("setup_wall_s", "s"),
    ("run_s", "s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("samples_per_s", "1/s"),
    ("host_slowdown", "ratio"),
    ("acc_avg", "%"),
    ("acc_last", "%"),
    ("failed_frac", "ratio"),
];

/// The per-layer metrics, with their units, in report order. Time and
/// count figures are per pass (a whole run, or one block of sweeps).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("data.generate_ms", "ms"),
    ("core.train_client.calls", "count"),
    ("core.train_client.busy_ms", "ms"),
    ("core.train_client.p50_ms", "ms"),
    ("core.predict_domain.calls", "count"),
    ("core.predict_domain.rows", "count"),
    ("core.predict_domain.busy_ms", "ms"),
    ("core.on_round_end.busy_ms", "ms"),
    ("core.round_ctx.busy_ms", "ms"),
    ("core.round_broadcast.busy_ms", "ms"),
    ("core.merge_client.busy_ms", "ms"),
    ("core.eval_ctx.busy_ms", "ms"),
    ("replica.core.train_client.busy_ms", "ms"),
    ("replica.core.on_round_end.busy_ms", "ms"),
    ("replica.core.merge_client.busy_ms", "ms"),
    ("fed.runner.self_ms", "ms"),
    ("fed.phase.broadcast_ms", "ms"),
    ("fed.phase.train_ms", "ms"),
    ("fed.phase.aggregate_ms", "ms"),
    ("fed.phase.merge_ms", "ms"),
    ("fed.phase.eval_ms", "ms"),
    ("fed.pool.train.busy_frac", "ratio"),
    ("fed.pool.train.idle_ms", "ms"),
    ("fed.pool.eval.busy_frac", "ratio"),
    ("fed.pool.eval.idle_ms", "ms"),
    ("wire.server.send.busy_ms", "ms"),
    ("wire.server.send.frames", "count"),
    ("wire.server.recv.busy_ms", "ms"),
    ("wire.server.recv.frames", "count"),
    ("wire.replica.send.busy_ms", "ms"),
    ("wire.replica.send.frames", "count"),
    ("wire.replica.recv.busy_ms", "ms"),
    ("wire.replica.recv.frames", "count"),
    ("wire.bytes.model_broadcast", "B"),
    ("wire.bytes.client_model_update", "B"),
    ("wire.bytes.compressed_model_update", "B"),
    ("wire.bytes.global_prompt_broadcast", "B"),
    ("wire.bytes.prompt_upload", "B"),
    ("wire.uplink_compression_ratio", "ratio"),
    ("fed.net.reactor.polls", "count"),
    ("fed.net.reactor.wakeups", "count"),
    ("fed.net.useful_wakeup_ratio", "ratio"),
    ("nn.scratch.reuse_ratio", "ratio"),
    ("nn.scratch.peak_pool_mib", "MiB"),
    ("telemetry.overhead_frac", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// Extra detail, such as which percentile a tail is.
    pub note: Option<String>,
}

/// Everything one run of one workload measured.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Wall seconds of each set-up, in order.
    pub setups_s: Vec<f64>,
    /// Process CPU seconds of each set-up, in order.
    pub setups_cpu_s: Vec<f64>,
    /// Passes run, in order.
    pub passes: Vec<Pass>,
    /// Seconds of CPU time the hypervisor took from this machine's CPUs
    /// while the passes ran (`steal` in `/proc/stat`), summed over CPUs;
    /// a run with much of it measured the host, not the program.
    pub host_steal_s: f64,
    /// CPU milliseconds of each host speed probe (untraced runs).
    pub probe_ms: Vec<f64>,
    /// Failed output checks, with a reason each.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// The [`REPORTED`] figures (untraced run).
    pub reported: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Sessions, replicas and sweeps attempted.
    pub attempted: u64,
    /// Late sessions, errored replicas and failed sweeps.
    pub failed: u64,
}

impl Outcome {
    /// Every metric the table and the record show.
    pub fn shown(&self) -> impl Iterator<Item = &Metric> {
        self.metrics().iter().chain(&self.reported)
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The metrics of the result line: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics(&self) -> &[Metric] {
        if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative steal time of all CPUs, in seconds (0 where `/proc/stat`
/// has none). The kernel counts it in ticks of 1/100 s.
fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Sets the workload up several times, then runs passes until `seconds`
/// have passed (and, untraced, at least [`MIN_STEPS`] steps were
/// measured), and checks every pass's outputs.
///
/// Untraced, every pass is a counting pass, a [`SpeedProbe`] runs before,
/// between and after the passes, and the end-to-end metrics are filled.
/// Traced, bare and timing passes alternate: the bare passes are
/// the undecorated reference the timing passes must match, and the
/// per-layer metrics are filled.
pub fn measure(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    // The untraced run's timings are scaled by the host's speed, probed
    // before, between and after its passes. The probe's buffer is
    // allocated before anything else, so it never sets a new peak.
    let mut probe = (!trace).then(SpeedProbe::new);
    let mut setup_s = Vec::new();
    let mut setup_cpu_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut prepared = None;
    let setups = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setups.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let ((setup, ms), wall, cpu) = timed(|| Prepared::setup(workload, seed));
        setup_s.push(wall);
        setup_cpu_s.push(cpu);
        generate_ms.push(ms);
        prepared = Some(setup);
    }
    let mut prepared = prepared.expect("at least one set-up");
    let min_steps = if trace { 0 } else { MIN_STEPS };

    let modes: &[Mode] = if trace {
        &[Mode::Bare, Mode::Timing]
    } else {
        &[Mode::Counting]
    };
    let start = Instant::now();
    let steal_before = host_steal_s();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        if let Some(p) = probe.as_mut() {
            p.sample(PROBES_PER_GAP);
        }
        for &mode in modes {
            passes.push(prepared.pass(mode));
        }
        let steps: usize = passes
            .iter()
            .filter(|p| p.mode != Mode::Timing)
            .map(|p| p.steps_ms.len())
            .sum();
        if start.elapsed().as_secs_f64() >= seconds && steps >= min_steps {
            break;
        }
    }
    if let Some(p) = probe.as_mut() {
        p.sample(PROBES_PER_GAP);
    }
    let host_steal_s = host_steal_s() - steal_before;
    let probe_ms = probe
        .as_ref()
        .map_or(Vec::new(), |p| p.samples_ms().to_vec());

    let mut failures = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        failures.extend(pass.failures.iter().map(|f| format!("pass {i}: {f}")));
        if pass.fingerprint != passes[0].fingerprint {
            failures.push(format!(
                "pass {i} ({:?}) produced different accuracies, final_global or \
                 per-kind wire bytes than pass 0 ({:?})",
                pass.mode, passes[0].mode
            ));
        }
    }
    failures.extend(prepared.final_checks(&passes[0]));

    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let measured: Vec<&Pass> = passes.iter().filter(|p| p.mode != Mode::Timing).collect();
    let (end_to_end, reported) = if trace {
        (Vec::new(), Vec::new())
    } else {
        let slowdown = probe.as_ref().map_or(1.0, SpeedProbe::slowdown);
        end_to_end(
            &setup_s,
            &setup_cpu_s,
            &measured,
            slowdown,
            failed,
            attempted,
        )
    };
    let per_layer = if trace {
        per_layer(&generate_ms, &passes, &mut failures)
    } else {
        Vec::new()
    };
    Outcome {
        workload,
        trace,
        setups_s: setup_s,
        setups_cpu_s: setup_cpu_s,
        passes,
        host_steal_s,
        probe_ms,
        failures,
        end_to_end,
        reported,
        per_layer,
        attempted,
        failed,
    }
}

fn metric(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
        note: None,
    }
}

/// The median pass time, median step, windowed step tail and median
/// samples rate of `passes`, each with its sample count and the tail's
/// note, for one clock: `seconds` and `steps` read a pass's time on it.
fn timings(
    passes: &[&Pass],
    seconds: impl Fn(&Pass) -> f64,
    steps: impl Fn(&Pass) -> &[f64],
) -> ([(f64, usize); 4], String) {
    let totals: Vec<f64> = passes.iter().map(|p| seconds(p)).collect();
    let steps: Vec<f64> = passes
        .iter()
        .flat_map(|p| steps(p).iter().copied())
        .collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.samples as f64 / seconds(p))
        .collect();
    let (tail, windows) = windowed_tail(&steps).expect("a run measures whole tail windows");
    let note = format!(
        "p{} of each {TAIL_WINDOW}-step window, median of {windows}",
        tail.pct
    );
    let values = [
        (median(&totals), totals.len()),
        (median(&steps), steps.len()),
        (tail.value, windows * TAIL_WINDOW),
        (median(&rates), rates.len()),
    ];
    (values, note)
}

fn metrics<const N: usize>(
    names: &[(&str, &'static str); N],
    values: [(f64, usize); N],
    tail_note: &str,
) -> Vec<Metric> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| {
            let mut m = metric(name, unit, value, samples);
            if name.contains("tail") {
                m.note = Some(tail_note.to_string());
            }
            m
        })
        .collect()
}

/// The end-to-end metrics and the [`REPORTED`] figures. The bounded CPU
/// timings are divided by `slowdown`, the host's measured slowdown against
/// its calm speed, and the CPU rate multiplied by it.
fn end_to_end(
    setup_s: &[f64],
    setup_cpu_s: &[f64],
    passes: &[&Pass],
    slowdown: f64,
    failed: u64,
    attempted: u64,
) -> (Vec<Metric>, Vec<Metric>) {
    let first = passes[0];
    let (cpu, cpu_note) = timings(passes, |p| p.cpu_s, |p| &p.steps_cpu_ms);
    let (wall, wall_note) = timings(passes, |p| p.wall_s, |p| &p.steps_ms);
    let scaled = |(value, samples): (f64, usize)| (value / slowdown, samples);
    let bounded = [
        scaled((median(setup_cpu_s), setup_cpu_s.len())),
        scaled(cpu[0]),
        scaled(cpu[1]),
        scaled(cpu[2]),
        (cpu[3].0 * slowdown, cpu[3].1),
        (first.uplink_bytes as f64, 1),
        (first.downlink_bytes as f64, 1),
        (peak_rss_mib(), 1),
    ];
    let reported = [
        (median(setup_s), setup_s.len()),
        wall[0],
        wall[1],
        wall[2],
        wall[3],
        (slowdown, 1),
        (first.acc_avg, 1),
        (first.acc_last, 1),
        (failed as f64 / attempted.max(1) as f64, attempted as usize),
    ];
    (
        metrics(&END_TO_END, bounded, &cpu_note),
        metrics(&REPORTED, reported, &wall_note),
    )
}

fn per_layer(generate_ms: &[f64], passes: &[Pass], failures: &mut Vec<String>) -> Vec<Metric> {
    let timed: Vec<&Pass> = passes.iter().filter(|p| p.mode == Mode::Timing).collect();
    let bare: Vec<f64> = passes
        .iter()
        .filter(|p| p.mode == Mode::Bare)
        .map(|p| p.wall_s)
        .collect();
    let timed_walls: Vec<f64> = timed.iter().map(|p| p.wall_s).collect();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for pass in &timed {
        for (name, v) in &pass.layers {
            *values.entry(name.clone()).or_insert(0.0) += v / timed.len() as f64;
        }
    }
    values.insert("data.generate_ms".into(), median(generate_ms));
    values.insert(
        "telemetry.overhead_frac".into(),
        median(&timed_walls) / median(&bare) - 1.0,
    );
    for name in values.keys() {
        if !PER_LAYER.iter().any(|&(n, _)| n == name) {
            failures.push(format!(
                "layer metric {name} is missing from the metric list"
            ));
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples = match name {
                "data.generate_ms" => generate_ms.len(),
                _ => timed.len(),
            };
            match values.get(name) {
                Some(&v) => metric(name, unit, v, samples),
                None => {
                    failures.push(format!("layer metric {name} was not measured"));
                    metric(name, unit, 0.0, 0)
                }
            }
        })
        .collect()
}

/// The host and run stamp carried by every record.
pub fn stamp(meta: &refil_bench::BenchMeta, workload: &str, seed: u64, trace: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    object([
        ("workload", workload.ser()),
        ("seed", seed.ser()),
        ("trace", trace.ser()),
        ("meta", meta.ser()),
        ("nproc", nproc.ser()),
        ("workers", WORKERS.ser()),
    ])
}

/// The detailed record of one run: stamp, every metric with its sample
/// count, the failure base and the failed checks.
pub fn record(outcome: &Outcome, stamp: Value) -> Value {
    let metrics = outcome.shown().map(|m| {
        let mut entry = vec![
            ("value", m.value.ser()),
            ("unit", m.unit.ser()),
            ("samples", m.samples.ser()),
        ];
        if let Some(note) = &m.note {
            entry.push(("percentile", note.ser()));
        }
        (m.name.as_str(), object(entry))
    });
    let failures = object([
        ("failed", outcome.failed.ser()),
        ("attempted", outcome.attempted.ser()),
        (
            "base",
            "late sessions + errored replicas + failed sweeps, over \
             sessions attempted + replicas started + sweeps attempted"
                .ser(),
        ),
    ]);
    object([(
        "record",
        object([
            ("stamp", stamp),
            ("step", outcome.workload.step().ser()),
            ("setups_s", outcome.setups_s.ser()),
            ("setups_cpu_s", outcome.setups_cpu_s.ser()),
            ("host_steal_s", outcome.host_steal_s.ser()),
            ("probe_ms", outcome.probe_ms.ser()),
            ("passes", outcome.passes.len().ser()),
            (
                "pass_walls_s",
                outcome
                    .passes
                    .iter()
                    .map(|p| p.wall_s)
                    .collect::<Vec<_>>()
                    .ser(),
            ),
            ("metrics", object(metrics)),
            ("failures", failures),
            ("failed_checks", outcome.failures.ser()),
        ]),
    )])
}

/// Human-readable lines, one per metric.
pub fn table(outcome: &Outcome) -> Vec<String> {
    outcome
        .shown()
        .map(|m| {
            format!(
                "{:<18} {:<36} {:>16.4} {:<6} n={}{}",
                outcome.workload.name(),
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.note.as_ref().map_or(String::new(), |n| format!(" ({n})")),
            )
        })
        .collect()
}
