//! The three workloads and the passes that measure them.
//!
//! A *pass* is one unit of measured work: a whole federated run for the
//! round workloads, [`SWEEPS_PER_PASS`] evaluation sweeps for the inference
//! workload. Every pass runs in one of three modes: bare (no decorator, the
//! untouched program), counting (decorators that count samples and rows but
//! read no wall clock; the end-to-end metrics come from these passes) or timing
//! (decorators that time every seam, with the runner's telemetry collecting,
//! for the per-layer metrics).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use refil_bench::datasets::{DatasetChoice, Scale};
use refil_bench::methods::{build_method, method_config, MethodChoice};
use refil_continual::MethodConfig;
use refil_data::FdilDataset;
use refil_fed::{
    client_handshake, connect, run_clients_pumped, ArenaStats, ClientOptions, Endpoint, FdilRunner,
    FdilStrategy, Link, NetListener, PoolStats, RoundReport, RunConfig, RunResult, Telemetry,
    TelemetrySummary, WireConfig, WireQuant,
};
use refil_wire::RunEnd;

use crate::cpu::process_cpu_ns;
use crate::trace::{
    Dir, Key, Role, Seam, Side, TracedLink, TracedListener, TracedStrategy, Tracer,
};

/// Worker threads the in-process workloads run with.
pub const WORKERS: usize = 2;
/// Evaluation sweeps in one pass of `infer_domainnet`.
pub const SWEEPS_PER_PASS: usize = 10;
/// Replicas pumped from one thread on `serve_prompt_only`.
pub const REPLICAS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process RefFiL training on Digits-Five.
    TrainDigits,
    /// Repeated evaluation sweeps of a trained FedDomainNet model.
    InferDomainNet,
    /// A served prompt-only federation over TCP loopback.
    ServePromptOnly,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TrainDigits,
        Workload::InferDomainNet,
        Workload::ServePromptOnly,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDigits => "train_digits",
            Workload::InferDomainNet => "infer_domainnet",
            Workload::ServePromptOnly => "serve_prompt_only",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one step of this workload is.
    pub fn step(self) -> &'static str {
        match self {
            Workload::InferDomainNet => "sweep",
            _ => "round",
        }
    }
}

/// How a pass is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The program as is: no decorator, telemetry disabled.
    Bare,
    /// Counting decorators, telemetry disabled.
    Counting,
    /// Timing decorators, telemetry collecting.
    Timing,
}

impl Mode {
    fn tracer(self) -> Option<Arc<Tracer>> {
        match self {
            Mode::Bare => None,
            Mode::Counting => Some(Tracer::counting()),
            Mode::Timing => Some(Tracer::timing()),
        }
    }

    fn telemetry(self) -> Telemetry {
        if self == Mode::Timing {
            Telemetry::collecting()
        } else {
            Telemetry::disabled()
        }
    }
}

/// The semantic outputs of a pass, compared bit for bit across passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Accuracy matrix (round workloads) or one sweep's per-domain
    /// accuracies (inference), as `f32` bits.
    pub accuracies: Vec<Vec<u32>>,
    /// Final global parameters as `f32` bits (empty for inference).
    pub final_global: Vec<u32>,
    /// Bytes per wire message kind.
    pub wire_bytes: BTreeMap<String, u64>,
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// How the pass was instrumented.
    pub mode: Mode,
    /// Wall seconds of the measured call(s).
    pub wall_s: f64,
    /// Process CPU seconds of the measured call(s), every thread.
    pub cpu_s: f64,
    /// Wall milliseconds per step (round or sweep).
    pub steps_ms: Vec<f64>,
    /// Process CPU milliseconds per step. A round's step runs from the end
    /// of the previous round's `on_round_end` (or the start of the pass) to
    /// the end of its own, so it holds the previous task's end and
    /// evaluation where there is one. Empty on bare passes, which have no
    /// decorator to mark round ends.
    pub steps_cpu_ms: Vec<f64>,
    /// Training samples × epochs plus inference rows (0 on bare passes).
    pub samples: u64,
    /// Sessions, replicas or sweeps attempted.
    pub attempted: u64,
    /// Late sessions, errored replicas or failed sweeps.
    pub failed: u64,
    /// Mean accuracy (%): the run's `Avg`, or the sweep's domain mean.
    pub acc_avg: f64,
    /// Last accuracy (%): the run's `Last`, or the sweep's last domain.
    pub acc_last: f64,
    /// Client→server bytes.
    pub uplink_bytes: u64,
    /// Server→client bytes.
    pub downlink_bytes: u64,
    /// Semantic outputs for the equality checks.
    pub fingerprint: Fingerprint,
    /// Per-layer metrics (timing passes only).
    pub layers: BTreeMap<String, f64>,
    /// Output checks this pass failed, with a reason each.
    pub failures: Vec<String>,
}

/// A workload after set-up, ready to run passes.
pub enum Prepared {
    /// See [`Workload::TrainDigits`].
    TrainDigits(TrainDigits),
    /// See [`Workload::InferDomainNet`].
    InferDomainNet(InferDomainNet),
    /// See [`Workload::ServePromptOnly`].
    ServePromptOnly(ServePromptOnly),
}

impl Prepared {
    /// Builds `workload`'s inputs from `seed`; also returns the
    /// milliseconds its dataset generation took.
    pub fn setup(workload: Workload, seed: u64) -> (Prepared, f64) {
        match workload {
            Workload::TrainDigits => {
                let (w, ms) = TrainDigits::setup(seed);
                (Prepared::TrainDigits(w), ms)
            }
            Workload::InferDomainNet => {
                let (w, ms) = InferDomainNet::setup(seed);
                (Prepared::InferDomainNet(w), ms)
            }
            Workload::ServePromptOnly => {
                let (w, ms) = ServePromptOnly::setup(seed);
                (Prepared::ServePromptOnly(w), ms)
            }
        }
    }

    /// Runs one pass.
    pub fn pass(&mut self, mode: Mode) -> Pass {
        match self {
            Prepared::TrainDigits(w) => w.pass(mode),
            Prepared::InferDomainNet(w) => w.pass(mode),
            Prepared::ServePromptOnly(w) => w.pass(mode),
        }
    }

    /// Output checks that need work outside the passes (an in-process
    /// reference run for the served workload), as failure reasons.
    pub fn final_checks(&self, reference: &Pass) -> Vec<String> {
        match self {
            Prepared::ServePromptOnly(w) => w.check_against_in_process(reference),
            _ => Vec::new(),
        }
    }
}

fn generate(choice: DatasetChoice, scale: &Scale, seed: u64) -> (FdilDataset, f64) {
    let t = Instant::now();
    let ds = choice.generate(scale, seed, false);
    (ds, t.elapsed().as_secs_f64() * 1e3)
}

fn wrap(
    strategy: Box<dyn FdilStrategy>,
    tracer: &Option<Arc<Tracer>>,
    role: Role,
) -> Box<dyn FdilStrategy> {
    match tracer {
        Some(t) => Box::new(TracedStrategy::new(strategy, Arc::clone(t), role)),
        None => strategy,
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn wire_bytes(rounds: &[RoundReport]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for r in rounds {
        for (kind, bytes) in &r.wire_bytes {
            *out.entry(kind.clone()).or_insert(0) += bytes;
        }
    }
    out
}

/// The output check on a pass's mean accuracy: a model that learned
/// nothing scores chance (`100 / classes` %), so a mean below 1.5 times
/// that means the run no longer trains or predicts. The margin clears
/// chance-level noise on the smallest test set here (FedDomainNet's 3,861
/// rows) and stays below every trained model seen, the weakest being
/// `infer_domainnet`'s one-epoch model at about 2.7 times chance.
fn accuracy_floor(acc_avg: f64, classes: usize) -> Option<String> {
    let floor = 1.5 * 100.0 / classes as f64;
    (acc_avg.is_nan() || acc_avg < floor)
        .then(|| format!("mean accuracy {acc_avg:.2}% is below 1.5 times chance ({floor:.2}%)"))
}

/// A pass over a whole federated run, minus the workload-specific parts.
/// `window` is the tracer's clock at the start and end of the run, `cpu`
/// the process CPU clock.
fn run_pass(
    mode: Mode,
    classes: usize,
    result: &RunResult,
    wall: Duration,
    tracer: &Option<Arc<Tracer>>,
    window: (u64, u64),
    cpu: (u64, u64),
) -> Pass {
    let mut failures = Vec::new();
    let per_kind = wire_bytes(&result.rounds);
    let ledger: u64 = per_kind.values().sum();
    let traffic = result.traffic.up_bytes + result.traffic.down_bytes;
    if ledger != traffic {
        failures.push(format!(
            "per-kind wire bytes sum to {ledger}, traffic totals to {traffic}"
        ));
    }
    failures.extend(accuracy_floor(f64::from(result.avg_accuracy()), classes));
    let late: u64 = result.rounds.iter().map(|r| r.clients_late).sum();
    let trained: u64 = result.rounds.iter().map(|r| r.clients_trained).sum();
    let samples = tracer.as_ref().map_or(0, |t| {
        [Role::Server, Role::Replica]
            .into_iter()
            .map(|role| {
                t.items(Key::Core(role, Seam::TrainClient))
                    + t.items(Key::Core(role, Seam::PredictDomain))
            })
            .sum()
    });
    let layers = match tracer {
        Some(t) if t.is_timing() => {
            let mut layers = core_layers(t, window);
            round_layers(&mut layers, &result.rounds, &result.telemetry);
            layers
        }
        _ => BTreeMap::new(),
    };
    let steps_cpu_ms = tracer.as_ref().map_or_else(Vec::new, |t| {
        let marks = t.round_ends_cpu_ns();
        std::iter::once(cpu.0)
            .chain(marks.iter().copied())
            .zip(&marks)
            .map(|(from, &to)| to.saturating_sub(from) as f64 / 1e6)
            .collect()
    });
    Pass {
        mode,
        wall_s: wall.as_secs_f64(),
        cpu_s: cpu.1.saturating_sub(cpu.0) as f64 / 1e9,
        steps_cpu_ms,
        steps_ms: result
            .rounds
            .iter()
            .map(|r| r.wall_ns as f64 / 1e6)
            .collect(),
        samples,
        attempted: trained + late,
        failed: late,
        acc_avg: f64::from(result.avg_accuracy()),
        acc_last: f64::from(result.last_accuracy()),
        uplink_bytes: result.traffic.up_bytes,
        downlink_bytes: result.traffic.down_bytes,
        fingerprint: Fingerprint {
            accuracies: result.domain_acc.iter().map(|row| bits(row)).collect(),
            final_global: bits(&result.final_global),
            wire_bytes: per_kind,
        },
        layers,
        failures,
    }
}

/// The wire message kinds reported as `wire.bytes.<kind>`: every kind the
/// three workloads move.
pub const WIRE_KINDS: [&str; 5] = [
    "model_broadcast",
    "client_model_update",
    "compressed_model_update",
    "global_prompt_broadcast",
    "prompt_upload",
];

/// Strategy seams reported as `<name>.busy_ms`.
const BUSY: [(&str, Role, Seam); 10] = [
    ("core.train_client", Role::Server, Seam::TrainClient),
    ("core.predict_domain", Role::Server, Seam::PredictDomain),
    ("core.on_round_end", Role::Server, Seam::OnRoundEnd),
    ("core.round_ctx", Role::Server, Seam::RoundCtx),
    ("core.round_broadcast", Role::Server, Seam::RoundBroadcast),
    ("core.merge_client", Role::Server, Seam::MergeClient),
    ("core.eval_ctx", Role::Server, Seam::EvalCtx),
    (
        "replica.core.train_client",
        Role::Replica,
        Seam::TrainClient,
    ),
    ("replica.core.on_round_end", Role::Replica, Seam::OnRoundEnd),
    (
        "replica.core.merge_client",
        Role::Replica,
        Seam::MergeClient,
    ),
];

/// Layer metrics read from the decorators.
fn core_layers(t: &Tracer, (start, end): (u64, u64)) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for (name, role, seam) in BUSY {
        m.insert(format!("{name}.busy_ms"), t.busy_ms(Key::Core(role, seam)));
    }
    let train = Key::Core(Role::Server, Seam::TrainClient);
    let predict = Key::Core(Role::Server, Seam::PredictDomain);
    m.insert("core.train_client.calls".into(), t.calls(train) as f64);
    m.insert("core.train_client.p50_ms".into(), t.train_client_p50_ms());
    m.insert("core.predict_domain.calls".into(), t.calls(predict) as f64);
    m.insert("core.predict_domain.rows".into(), t.items(predict) as f64);
    let uncovered = end
        .saturating_sub(start)
        .saturating_sub(t.covered_ns(start, end));
    m.insert("fed.runner.self_ms".into(), uncovered as f64 / 1e6);
    for (side, side_name) in [(Side::Server, "server"), (Side::Replica, "replica")] {
        for (dir, dir_name) in [(Dir::Send, "send"), (Dir::Recv, "recv")] {
            let key = Key::Wire(side, dir);
            let name = format!("wire.{side_name}.{dir_name}");
            m.insert(format!("{name}.busy_ms"), t.busy_ms(key));
            m.insert(format!("{name}.frames"), t.items(key) as f64);
        }
    }
    m
}

fn pool_totals(pools: &[&PoolStats]) -> (f64, f64) {
    let (mut busy, mut idle) = (0u64, 0u64);
    for w in pools.iter().flat_map(|p| &p.workers) {
        busy += w.busy_ns;
        idle += w.idle_ns;
    }
    let frac = if busy + idle == 0 {
        0.0
    } else {
        busy as f64 / (busy + idle) as f64
    };
    (frac, idle as f64 / 1e6)
}

fn put_pool(m: &mut BTreeMap<String, f64>, name: &str, pools: &[&PoolStats]) {
    let (frac, idle_ms) = pool_totals(pools);
    m.insert(format!("fed.pool.{name}.busy_frac"), frac);
    m.insert(format!("fed.pool.{name}.idle_ms"), idle_ms);
}

fn put_scratch(m: &mut BTreeMap<String, f64>, scratch: &ArenaStats) {
    m.insert("nn.scratch.reuse_ratio".into(), scratch.reuse_ratio());
    m.insert(
        "nn.scratch.peak_pool_mib".into(),
        scratch.peak_pool_bytes as f64 / (1024.0 * 1024.0),
    );
}

/// Layer metrics read from the counters a federated run returns.
fn round_layers(m: &mut BTreeMap<String, f64>, rounds: &[RoundReport], summary: &TelemetrySummary) {
    let ms = |f: fn(&RoundReport) -> u64| rounds.iter().map(f).sum::<u64>() as f64 / 1e6;
    m.insert("fed.phase.broadcast_ms".into(), ms(|r| r.phases.broadcast));
    m.insert("fed.phase.train_ms".into(), ms(|r| r.phases.train));
    m.insert("fed.phase.aggregate_ms".into(), ms(|r| r.phases.aggregate));
    m.insert("fed.phase.merge_ms".into(), ms(|r| r.phases.merge));
    m.insert("fed.phase.eval_ms".into(), ms(|r| r.phases.eval));
    let train: Vec<&PoolStats> = rounds
        .iter()
        .filter_map(|r| r.train_pool.as_ref())
        .collect();
    let eval: Vec<&PoolStats> = rounds.iter().filter_map(|r| r.eval_pool.as_ref()).collect();
    put_pool(m, "train", &train);
    put_pool(m, "eval", &eval);
    let per_kind = wire_bytes(rounds);
    for kind in WIRE_KINDS {
        m.insert(
            format!("wire.bytes.{kind}"),
            per_kind.get(kind).copied().unwrap_or(0) as f64,
        );
    }
    let raw: u64 = rounds.iter().map(|r| r.uplink_raw_bytes).sum();
    let encoded: u64 = rounds.iter().map(|r| r.uplink_encoded_bytes).sum();
    m.insert(
        "wire.uplink_compression_ratio".into(),
        if encoded == 0 {
            0.0
        } else {
            raw as f64 / encoded as f64
        },
    );
    let polls = summary.counter("net.reactor.polls");
    let wakeups = summary.counter("net.reactor.wakeups");
    m.insert("fed.net.reactor.polls".into(), polls as f64);
    m.insert("fed.net.reactor.wakeups".into(), wakeups as f64);
    let frames = m.get("wire.server.recv.frames").copied().unwrap_or(0.0);
    m.insert(
        "fed.net.useful_wakeup_ratio".into(),
        if wakeups == 0 {
            0.0
        } else {
            frames / wakeups as f64
        },
    );
    let mut scratch = ArenaStats::default();
    for r in rounds {
        scratch.merge(&r.scratch);
    }
    put_scratch(m, &scratch);
}

/// `train_digits`: RefFiL on Digits-Five at `Scale::bench()` through the
/// default in-process loopback path, [`WORKERS`] workers, dense uplinks.
pub struct TrainDigits {
    dataset: FdilDataset,
    method: MethodConfig,
    cfg: RunConfig,
}

impl TrainDigits {
    fn setup(seed: u64) -> (Self, f64) {
        let choice = DatasetChoice::DigitsFive;
        let scale = Scale::bench();
        let (dataset, ms) = generate(choice, &scale, seed);
        let method = method_config(choice, dataset.num_domains(), seed ^ 7);
        let mut cfg = choice.run_config(&scale, seed);
        cfg.threads = WORKERS;
        (
            Self {
                dataset,
                method,
                cfg,
            },
            ms,
        )
    }

    fn pass(&self, mode: Mode) -> Pass {
        let tracer = mode.tracer();
        let mut strategy = wrap(
            build_method(MethodChoice::RefFiL, self.method),
            &tracer,
            Role::Server,
        );
        let runner = FdilRunner::new(self.cfg).telemetry(&mode.telemetry());
        let start = tracer.as_ref().map_or(0, |t| t.now_ns());
        let cpu_start = process_cpu_ns();
        let t = Instant::now();
        let result = runner.run(&self.dataset, strategy.as_mut());
        let wall = t.elapsed();
        let cpu_end = process_cpu_ns();
        let end = tracer.as_ref().map_or(0, |t| t.now_ns());
        run_pass(
            mode,
            self.dataset.classes,
            &result,
            wall,
            &tracer,
            (start, end),
            (cpu_start, cpu_end),
        )
    }
}

/// `infer_domainnet`: a RefFiL model trained on FedDomainNet in set-up,
/// then swept over every test row of all six domains, [`WORKERS`] workers.
pub struct InferDomainNet {
    dataset: FdilDataset,
    strategy: Option<Box<dyn FdilStrategy>>,
    global: Vec<f32>,
    cfg: RunConfig,
    uplink_bytes: u64,
    downlink_bytes: u64,
}

impl InferDomainNet {
    fn setup(seed: u64) -> (Self, f64) {
        let choice = DatasetChoice::FedDomainNet;
        let scale = Scale {
            rounds: 1,
            epochs: 1,
            ..Scale::bench()
        };
        let (dataset, ms) = generate(choice, &scale, seed);
        let method = method_config(choice, dataset.num_domains(), seed ^ 7);
        let mut cfg = choice.run_config(&scale, seed);
        cfg.threads = WORKERS;
        let mut strategy = build_method(MethodChoice::RefFiL, method);
        let trained = FdilRunner::new(cfg).run(&dataset, strategy.as_mut());
        (
            Self {
                dataset,
                strategy: Some(strategy),
                global: trained.final_global,
                cfg,
                uplink_bytes: trained.traffic.up_bytes,
                downlink_bytes: trained.traffic.down_bytes,
            },
            ms,
        )
    }

    /// Test rows one sweep predicts.
    fn rows_per_sweep(&self) -> u64 {
        self.dataset
            .domains
            .iter()
            .map(|d| d.test.len() as u64)
            .sum()
    }

    fn pass(&mut self, mode: Mode) -> Pass {
        let tracer = mode.tracer();
        let bare = self
            .strategy
            .take()
            .expect("strategy returned after every pass");
        let (traced, bare) = match &tracer {
            Some(t) => (
                Some(TracedStrategy::new(bare, Arc::clone(t), Role::Server)),
                None,
            ),
            None => (None, Some(bare)),
        };
        let strategy: &dyn FdilStrategy = match (&traced, &bare) {
            (Some(t), _) => t,
            (None, Some(b)) => b.as_ref(),
            (None, None) => unreachable!("one of the two holds the strategy"),
        };
        let runner = FdilRunner::new(self.cfg).telemetry(&mode.telemetry());
        let task = self.dataset.num_domains() - 1;
        let mut failures = Vec::new();
        let mut failed = 0;
        let mut steps_ms = Vec::with_capacity(SWEEPS_PER_PASS);
        let mut steps_cpu_ms = Vec::with_capacity(SWEEPS_PER_PASS);
        let mut first: Option<Vec<f32>> = None;
        let mut eval_pools = Vec::new();
        let mut scratch = ArenaStats::default();
        let start = tracer.as_ref().map_or(0, |t| t.now_ns());
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        for _ in 0..SWEEPS_PER_PASS {
            let cpu = process_cpu_ns();
            let t = Instant::now();
            let sweep = catch_unwind(AssertUnwindSafe(|| {
                if mode == Mode::Timing {
                    runner.evaluate_task_profiled(strategy, &self.global, &self.dataset, task)
                } else {
                    let acc = runner.evaluate_task(strategy, &self.global, &self.dataset, task);
                    (acc, None, ArenaStats::default())
                }
            }));
            steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
            steps_cpu_ms.push((process_cpu_ns() - cpu) as f64 / 1e6);
            match sweep {
                Ok((acc, pool, arena)) if acc.len() == task + 1 => {
                    eval_pools.extend(pool);
                    scratch.merge(&arena);
                    match &first {
                        None => first = Some(acc),
                        Some(f) if bits(f) != bits(&acc) => {
                            failures
                                .push("a sweep's accuracies differ from the first sweep's".into());
                        }
                        Some(_) => {}
                    }
                }
                _ => failed += 1,
            }
        }
        let wall = t0.elapsed();
        let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
        let end = tracer.as_ref().map_or(0, |t| t.now_ns());
        let acc = first.unwrap_or_default();
        let acc_avg = acc.iter().map(|&a| f64::from(a)).sum::<f64>() / acc.len().max(1) as f64;
        failures.extend(accuracy_floor(acc_avg, self.dataset.classes));
        let samples = tracer
            .as_ref()
            .map_or(0, |t| t.items(Key::Core(Role::Server, Seam::PredictDomain)));
        let expected = self.rows_per_sweep() * (SWEEPS_PER_PASS as u64 - failed);
        if tracer.is_some() && samples != expected {
            failures.push(format!(
                "predicted {samples} rows, the sweeps hold {expected}"
            ));
        }
        let layers = match &tracer {
            Some(t) if t.is_timing() => {
                let mut m = core_layers(t, (start, end));
                round_layers(&mut m, &[], &TelemetrySummary::default());
                let pools: Vec<&PoolStats> = eval_pools.iter().collect();
                put_pool(&mut m, "eval", &pools);
                put_scratch(&mut m, &scratch);
                m
            }
            _ => BTreeMap::new(),
        };
        self.strategy = traced.map(TracedStrategy::into_inner).or(bare);
        Pass {
            mode,
            wall_s: wall.as_secs_f64(),
            cpu_s,
            steps_ms,
            steps_cpu_ms,
            samples,
            attempted: SWEEPS_PER_PASS as u64,
            failed,
            acc_avg,
            acc_last: acc.last().map_or(0.0, |&a| f64::from(a)),
            uplink_bytes: self.uplink_bytes,
            downlink_bytes: self.downlink_bytes,
            fingerprint: Fingerprint {
                accuracies: vec![bits(&acc)],
                final_global: Vec::new(),
                wire_bytes: BTreeMap::new(),
            },
            layers,
            failures,
        }
    }
}

/// `serve_prompt_only`: `FdilRunner::serve` on a TCP loopback listener with
/// one worker, [`REPLICAS`] replicas pumped from one thread, RefFiL
/// prompt-only with `delta+int8+topk0.5` uplinks.
pub struct ServePromptOnly {
    dataset: FdilDataset,
    method: MethodConfig,
    cfg: RunConfig,
}

impl ServePromptOnly {
    const METHOD: MethodChoice = MethodChoice::RefFiLPromptOnly;

    fn setup(seed: u64) -> (Self, f64) {
        let choice = DatasetChoice::DigitsFive;
        let scale = Scale {
            data_scale: 0.004,
            client_scale: 1.0,
            rounds: 10,
            ..Scale::bench()
        };
        let (dataset, ms) = generate(choice, &scale, seed);
        let method = method_config(choice, dataset.num_domains(), seed ^ 7);
        let mut cfg = choice.run_config(&scale, seed);
        cfg.threads = 1;
        cfg.net.min_peers = REPLICAS;
        cfg.wire = WireConfig {
            delta: true,
            quant: WireQuant::Int8,
            topk_fraction: 0.5,
        };
        (
            Self {
                dataset,
                method,
                cfg,
            },
            ms,
        )
    }

    fn pass(&self, mode: Mode) -> Pass {
        let tracer = mode.tracer();
        let listener = NetListener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))
            .expect("binding a loopback TCP listener");
        let endpoint = listener.local_endpoint();
        let mut strategy = wrap(
            build_method(Self::METHOD, self.method),
            &tracer,
            Role::Server,
        );
        let runner = FdilRunner::new(self.cfg).telemetry(&mode.telemetry());
        let cpu_start = process_cpu_ns();
        let (result, wall, window, replica_errors) = std::thread::scope(|s| {
            let pump = s.spawn(|| self.pump(&endpoint, &tracer));
            let start = tracer.as_ref().map_or(0, |t| t.now_ns());
            let t = Instant::now();
            let result = match &tracer {
                Some(tr) => {
                    let traced = TracedListener::new(listener, Arc::clone(tr));
                    runner.serve(
                        &self.dataset,
                        strategy.as_mut(),
                        &traced,
                        Self::METHOD.cli_name(),
                    )
                }
                None => runner.serve(
                    &self.dataset,
                    strategy.as_mut(),
                    &listener,
                    Self::METHOD.cli_name(),
                ),
            };
            let wall = t.elapsed();
            let end = tracer.as_ref().map_or(0, |t| t.now_ns());
            let errors = pump.join().unwrap_or_else(|_| {
                eprintln!("replica pump thread panicked");
                REPLICAS as u64
            });
            (result, wall, (start, end), errors)
        });
        let cpu = (cpu_start, process_cpu_ns());
        let mut pass = run_pass(
            mode,
            self.dataset.classes,
            &result,
            wall,
            &tracer,
            window,
            cpu,
        );
        pass.attempted += REPLICAS as u64;
        pass.failed += replica_errors;
        pass
    }

    /// Connects the replicas, runs them to the end of the federation from
    /// this one thread, and returns how many ended in an error.
    fn pump(&self, endpoint: &Endpoint, tracer: &Option<Arc<Tracer>>) -> u64 {
        let mut replicas: Vec<Box<dyn FdilStrategy>> = (0..REPLICAS)
            .map(|_| {
                wrap(
                    build_method(Self::METHOD, self.method),
                    tracer,
                    Role::Replica,
                )
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut links: Vec<Box<dyn Link>> = Vec::with_capacity(REPLICAS);
        let mut peer_ids = Vec::with_capacity(REPLICAS);
        let mut opts = ClientOptions::default();
        for nonce in 0..REPLICAS {
            let link = connect(endpoint, deadline).expect("connecting a replica");
            let (peer_id, _spec, _token, compression) =
                client_handshake(&link, nonce as u64, None, deadline).expect("replica handshake");
            opts.compression = compression;
            peer_ids.push(peer_id);
            links.push(match tracer {
                Some(t) => Box::new(TracedLink::new(
                    Box::new(link),
                    Arc::clone(t),
                    Side::Replica,
                )),
                None => Box::new(link),
            });
        }
        run_clients_pumped(
            &links,
            &peer_ids,
            &mut replicas,
            &self.dataset,
            &self.cfg,
            &opts,
            &Telemetry::disabled(),
        )
        .into_iter()
        .filter(|r| !matches!(r, Ok(report) if report.reason == RunEnd::COMPLETE))
        .count() as u64
    }

    /// Runs the same configuration in process and compares its accuracies,
    /// final parameters and per-kind bytes with a served pass; returns the
    /// failure, if any.
    fn check_against_in_process(&self, served: &Pass) -> Vec<String> {
        let mut cfg = self.cfg;
        cfg.threads = WORKERS;
        let mut strategy = build_method(Self::METHOD, self.method);
        let local = FdilRunner::new(cfg).run(&self.dataset, strategy.as_mut());
        let local = run_pass(
            Mode::Bare,
            self.dataset.classes,
            &local,
            Duration::ZERO,
            &None,
            (0, 0),
            (0, 0),
        );
        if served.fingerprint == local.fingerprint {
            Vec::new()
        } else {
            vec![format!(
                "served run differs from the in-process run: {:?} against {:?}",
                served.fingerprint.wire_bytes, local.fingerprint.wire_bytes
            )]
        }
    }
}
