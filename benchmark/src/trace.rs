//! Forwarding decorators that time the calls into each layer's public seams
//! from outside the program.
//!
//! [`TracedStrategy`] wraps any [`FdilStrategy`] (and, through it, the
//! [`RoundContext`], [`EvalContext`] and [`DomainEvaluator`] it hands out);
//! [`TracedLink`] and [`TracedListener`] wrap the wire layer's [`Link`] and
//! [`Listener`]. Every decorator forwards every trait method, defaulted ones
//! included, to the wrapped value unchanged, so a decorated run produces the
//! same results as an undecorated one.
//!
//! All decorators of one pass share a [`Tracer`]. A counting tracer only
//! counts calls and items (no wall-clock reads), and reads the process CPU
//! clock once per server round end to split a pass's CPU time into rounds;
//! a timing tracer also records the busy time of every call and keeps each
//! call's span, so the time the runner spends outside every decorated layer
//! can be derived afterwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use refil_data::Sample;
use refil_fed::{
    ConnectError, DomainEvaluator, EvalContext, FdilStrategy, Link, Listener, PeerId, RecvError,
    RoundContext, SessionOutput, Telemetry, TrainSetting, WireError, WireMessage,
};
use refil_nn::Tensor;

/// Which side of the federation a decorated strategy plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The server-side (or in-process) strategy the runner drives.
    Server,
    /// A client replica pumped by `run_clients_pumped`.
    Replica,
}

/// A strategy-layer seam: one [`FdilStrategy`] method, or a method of the
/// context objects it hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// `FdilStrategy::init_global`.
    InitGlobal,
    /// `FdilStrategy::on_task_start` and `on_task_end`.
    TaskHooks,
    /// `FdilStrategy::round_broadcast`.
    RoundBroadcast,
    /// `FdilStrategy::exchange_mask`.
    ExchangeMask,
    /// `FdilStrategy::round_ctx`: building the shared round context.
    RoundCtx,
    /// `RoundContext::train_client`: one local training session.
    TrainClient,
    /// `FdilStrategy::merge_client`: ingesting one client's merge message.
    MergeClient,
    /// `FdilStrategy::on_round_end`: server-side round upkeep.
    OnRoundEnd,
    /// `FdilStrategy::eval_ctx` and `EvalContext::evaluator`.
    EvalCtx,
    /// `DomainEvaluator::predict_domain`: one evaluation batch.
    PredictDomain,
    /// `FdilStrategy::predict`, `predict_domain` and `cls_embeddings`.
    Predict,
}

const SEAMS: usize = 11;

/// Which end of a link a decorated [`Link`] sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// A link the server accepted.
    Server,
    /// A link a client replica connected.
    Replica,
}

/// Direction of a wire call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `send`, `enqueue_frame` and `try_flush`.
    Send,
    /// `recv_deadline` and `try_recv_frame`.
    Recv,
}

/// One traced seam: a strategy seam of one role, or a wire direction of one
/// side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// A strategy-layer seam.
    Core(Role, Seam),
    /// A wire-layer seam.
    Wire(Side, Dir),
}

const KEYS: usize = 2 * SEAMS + 4;

impl Key {
    fn index(self) -> usize {
        match self {
            Key::Core(role, seam) => role as usize * SEAMS + seam as usize,
            Key::Wire(side, dir) => 2 * SEAMS + side as usize * 2 + dir as usize,
        }
    }
}

#[derive(Default)]
struct SeamStats {
    calls: AtomicU64,
    items: AtomicU64,
    busy_ns: AtomicU64,
}

/// Shared accounting for every decorator of one pass.
pub struct Tracer {
    timing: bool,
    origin: Instant,
    stats: Vec<SeamStats>,
    /// `(start, end)` nanoseconds since `origin` of every timed call.
    spans: Mutex<Vec<(u64, u64)>>,
    /// Per-call durations of `train_client`, for its median.
    train_ns: Mutex<Vec<u64>>,
    /// Process CPU nanoseconds at the end of each server-role
    /// `on_round_end`, in call order.
    round_ends_cpu_ns: Mutex<Vec<u64>>,
}

impl Tracer {
    /// A tracer that counts calls and items but reads no wall clock.
    pub fn counting() -> Arc<Self> {
        Arc::new(Self::new(false))
    }

    /// A tracer that also times every call and keeps its span.
    pub fn timing() -> Arc<Self> {
        Arc::new(Self::new(true))
    }

    fn new(timing: bool) -> Self {
        Self {
            timing,
            origin: Instant::now(),
            stats: (0..KEYS).map(|_| SeamStats::default()).collect(),
            spans: Mutex::new(Vec::new()),
            train_ns: Mutex::new(Vec::new()),
            round_ends_cpu_ns: Mutex::new(Vec::new()),
        }
    }

    /// Whether this tracer reads clocks.
    pub fn is_timing(&self) -> bool {
        self.timing
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` as one call of `key`, counting `items(&result)` items.
    fn call<R>(&self, key: Key, f: impl FnOnce() -> R, items: impl FnOnce(&R) -> u64) -> R {
        let stats = &self.stats[key.index()];
        let (out, span) = if self.timing {
            let start = self.now_ns();
            let out = f();
            (out, Some((start, self.now_ns())))
        } else {
            (f(), None)
        };
        stats.calls.fetch_add(1, Ordering::Relaxed);
        stats.items.fetch_add(items(&out), Ordering::Relaxed);
        if let Some((start, end)) = span {
            let dur = end.saturating_sub(start);
            stats.busy_ns.fetch_add(dur, Ordering::Relaxed);
            self.spans
                .lock()
                .expect("span buffer poisoned by a panicking caller")
                .push((start, end));
            if key == Key::Core(Role::Server, Seam::TrainClient) {
                self.train_ns
                    .lock()
                    .expect("duration buffer poisoned by a panicking caller")
                    .push(dur);
            }
        }
        out
    }

    /// Calls made through `key`.
    pub fn calls(&self, key: Key) -> u64 {
        self.stats[key.index()].calls.load(Ordering::Relaxed)
    }

    /// Items counted through `key`: training samples × epochs for
    /// `train_client`, rows for `predict_domain`, frames for the wire.
    pub fn items(&self, key: Key) -> u64 {
        self.stats[key.index()].items.load(Ordering::Relaxed)
    }

    /// Milliseconds spent inside calls through `key` (0 when counting).
    pub fn busy_ms(&self, key: Key) -> f64 {
        self.stats[key.index()].busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Median duration of the server-role `train_client` calls, in ms.
    pub fn train_client_p50_ms(&self) -> f64 {
        let durations = self
            .train_ns
            .lock()
            .expect("duration buffer poisoned by a panicking caller");
        let ms: Vec<f64> = durations.iter().map(|&ns| ns as f64 / 1e6).collect();
        crate::stats::median(&ms)
    }

    /// Process CPU nanoseconds at each server-role round end, in order.
    pub fn round_ends_cpu_ns(&self) -> Vec<u64> {
        self.round_ends_cpu_ns
            .lock()
            .expect("round-end buffer poisoned by a panicking caller")
            .clone()
    }

    /// Nanoseconds of `[start, end)` during which at least one decorated
    /// call was running on any thread.
    pub fn covered_ns(&self, start: u64, end: u64) -> u64 {
        let mut spans: Vec<(u64, u64)> = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking caller")
            .iter()
            .map(|&(s, e)| (s.max(start), e.min(end)))
            .filter(|&(s, e)| s < e)
            .collect();
        spans.sort_unstable();
        union_len(&spans)
    }
}

/// Total length of the union of `spans`, which must be sorted by start.
fn union_len(spans: &[(u64, u64)]) -> u64 {
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(s, e) in spans {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + open.map_or(0, |(s, e)| e - s)
}

fn none<R>(_: &R) -> u64 {
    0
}

/// A strategy decorator: forwards every [`FdilStrategy`] method to the
/// wrapped strategy and accounts each call under its [`Seam`].
pub struct TracedStrategy {
    inner: Box<dyn FdilStrategy>,
    tracer: Arc<Tracer>,
    role: Role,
}

impl TracedStrategy {
    /// Wraps `inner`, accounting its calls under `role` in `tracer`.
    pub fn new(inner: Box<dyn FdilStrategy>, tracer: Arc<Tracer>, role: Role) -> Self {
        Self {
            inner,
            tracer,
            role,
        }
    }

    /// The wrapped strategy.
    pub fn into_inner(self) -> Box<dyn FdilStrategy> {
        self.inner
    }

    fn key(&self, seam: Seam) -> Key {
        Key::Core(self.role, seam)
    }
}

// `train_once` is not overridden: it requires `Self: Sized`, so it cannot be
// called on the boxed inner strategy, and its default runs through this
// decorator's own forwarding `round_broadcast`, `round_ctx` and
// `merge_client`.
impl FdilStrategy for TracedStrategy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }

    fn init_global(&mut self) -> Vec<f32> {
        let inner = &mut self.inner;
        self.tracer.call(
            Key::Core(self.role, Seam::InitGlobal),
            || inner.init_global(),
            none,
        )
    }

    fn on_task_start(&mut self, task: usize, global: &[f32]) {
        let inner = &mut self.inner;
        self.tracer.call(
            Key::Core(self.role, Seam::TaskHooks),
            || inner.on_task_start(task, global),
            none,
        );
    }

    fn round_broadcast(&self, task: usize, round: usize) -> Option<WireMessage> {
        self.tracer.call(
            self.key(Seam::RoundBroadcast),
            || self.inner.round_broadcast(task, round),
            none,
        )
    }

    fn exchange_mask(&self, task: u64) -> Option<Vec<u32>> {
        self.tracer.call(
            self.key(Seam::ExchangeMask),
            || self.inner.exchange_mask(task),
            none,
        )
    }

    fn round_ctx<'a>(
        &'a self,
        task: usize,
        round: usize,
        global: &'a [f32],
        broadcast: Option<&'a WireMessage>,
    ) -> Box<dyn RoundContext + 'a> {
        let inner = self.tracer.call(
            self.key(Seam::RoundCtx),
            || self.inner.round_ctx(task, round, global, broadcast),
            none,
        );
        Box::new(TracedRoundCtx {
            inner,
            tracer: &self.tracer,
            key: self.key(Seam::TrainClient),
        })
    }

    fn merge_client(&mut self, task: usize, round: usize, client_id: usize, message: WireMessage) {
        let inner = &mut self.inner;
        self.tracer.call(
            Key::Core(self.role, Seam::MergeClient),
            || inner.merge_client(task, round, client_id, message),
            none,
        );
    }

    fn on_round_end(&mut self, task: usize, round: usize, global: &[f32]) {
        let inner = &mut self.inner;
        self.tracer.call(
            Key::Core(self.role, Seam::OnRoundEnd),
            || inner.on_round_end(task, round, global),
            none,
        );
        if self.role == Role::Server {
            self.tracer
                .round_ends_cpu_ns
                .lock()
                .expect("round-end buffer poisoned by a panicking caller")
                .push(crate::cpu::process_cpu_ns());
        }
    }

    fn on_task_end(&mut self, task: usize, global: &[f32], client_data: &[(usize, Vec<Sample>)]) {
        let inner = &mut self.inner;
        self.tracer.call(
            Key::Core(self.role, Seam::TaskHooks),
            || inner.on_task_end(task, global, client_data),
            none,
        );
    }

    fn predict(&mut self, global: &[f32], features: &Tensor) -> Vec<usize> {
        let inner = &mut self.inner;
        self.tracer.call(
            Key::Core(self.role, Seam::Predict),
            || inner.predict(global, features),
            none,
        )
    }

    fn cls_embeddings(&mut self, global: &[f32], features: &Tensor) -> Vec<Vec<f32>> {
        let inner = &mut self.inner;
        self.tracer.call(
            Key::Core(self.role, Seam::Predict),
            || inner.cls_embeddings(global, features),
            none,
        )
    }

    fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a> {
        let inner = self.tracer.call(
            self.key(Seam::EvalCtx),
            || self.inner.eval_ctx(global),
            none,
        );
        Box::new(TracedEvalCtx {
            inner,
            tracer: &self.tracer,
            role: self.role,
        })
    }

    fn predict_domain(&mut self, global: &[f32], features: &Tensor, domain: usize) -> Vec<usize> {
        let inner = &mut self.inner;
        self.tracer.call(
            Key::Core(self.role, Seam::Predict),
            || inner.predict_domain(global, features, domain),
            none,
        )
    }
}

struct TracedRoundCtx<'a> {
    inner: Box<dyn RoundContext + 'a>,
    tracer: &'a Tracer,
    key: Key,
}

impl RoundContext for TracedRoundCtx<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, telemetry: &Telemetry) -> SessionOutput {
        let samples = (setting.samples.len() * setting.local_epochs) as u64;
        self.tracer.call(
            self.key,
            || self.inner.train_client(setting, telemetry),
            |_| samples,
        )
    }
}

struct TracedEvalCtx<'a> {
    inner: Box<dyn EvalContext + 'a>,
    tracer: &'a Tracer,
    role: Role,
}

impl EvalContext for TracedEvalCtx<'_> {
    fn evaluator(&self) -> Box<dyn DomainEvaluator + '_> {
        let inner = self.tracer.call(
            Key::Core(self.role, Seam::EvalCtx),
            || self.inner.evaluator(),
            none,
        );
        Box::new(TracedEvaluator {
            inner,
            tracer: self.tracer,
            key: Key::Core(self.role, Seam::PredictDomain),
        })
    }
}

struct TracedEvaluator<'a> {
    inner: Box<dyn DomainEvaluator + 'a>,
    tracer: &'a Tracer,
    key: Key,
}

impl DomainEvaluator for TracedEvaluator<'_> {
    fn predict_domain(&mut self, features: &Tensor, domain: usize) -> Vec<usize> {
        let rows = features.shape()[0] as u64;
        let inner = &mut self.inner;
        self.tracer.call(
            self.key,
            || inner.predict_domain(features, domain),
            |_| rows,
        )
    }
}

/// A link decorator: forwards every [`Link`] method and accounts sends
/// (frames queued or written) and receives (frames delivered).
pub struct TracedLink {
    inner: Box<dyn Link>,
    tracer: Arc<Tracer>,
    side: Side,
}

impl TracedLink {
    /// Wraps `inner`, accounting its calls under `side` in `tracer`.
    pub fn new(inner: Box<dyn Link>, tracer: Arc<Tracer>, side: Side) -> Self {
        Self {
            inner,
            tracer,
            side,
        }
    }
}

impl Link for TracedLink {
    fn peer_id(&self) -> PeerId {
        self.inner.peer_id()
    }

    fn send(&self, frame: &[u8]) -> Result<(), WireError> {
        self.tracer.call(
            Key::Wire(self.side, Dir::Send),
            || self.inner.send(frame),
            |r| u64::from(r.is_ok()),
        )
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Vec<u8>, RecvError> {
        self.tracer.call(
            Key::Wire(self.side, Dir::Recv),
            || self.inner.recv_deadline(deadline),
            |r| u64::from(r.is_ok()),
        )
    }

    fn set_nonblocking(&self, on: bool) -> Result<(), WireError> {
        self.inner.set_nonblocking(on)
    }

    fn try_recv_frame(&self) -> Result<Option<Vec<u8>>, RecvError> {
        self.tracer.call(
            Key::Wire(self.side, Dir::Recv),
            || self.inner.try_recv_frame(),
            |r| u64::from(matches!(r, Ok(Some(_)))),
        )
    }

    fn enqueue_frame(&self, frame: &[u8]) -> Result<usize, WireError> {
        self.tracer.call(
            Key::Wire(self.side, Dir::Send),
            || self.inner.enqueue_frame(frame),
            |r| u64::from(r.is_ok()),
        )
    }

    fn try_flush(&self) -> Result<usize, WireError> {
        self.tracer.call(
            Key::Wire(self.side, Dir::Send),
            || self.inner.try_flush(),
            none,
        )
    }

    fn pending_tx(&self) -> usize {
        self.inner.pending_tx()
    }

    fn poll_fd(&self) -> Option<i32> {
        self.inner.poll_fd()
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// A listener decorator: forwards every [`Listener`] method and wraps each
/// accepted link in a server-side [`TracedLink`].
pub struct TracedListener<L> {
    inner: L,
    tracer: Arc<Tracer>,
}

impl<L: Listener> TracedListener<L> {
    /// Wraps `inner`; accepted links report to `tracer`.
    pub fn new(inner: L, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn wrap(&self, link: Box<dyn Link>) -> Box<dyn Link> {
        Box::new(TracedLink::new(
            link,
            Arc::clone(&self.tracer),
            Side::Server,
        ))
    }
}

impl<L: Listener> Listener for TracedListener<L> {
    fn accept_deadline(&self, deadline: Instant) -> Result<Box<dyn Link>, ConnectError> {
        self.inner.accept_deadline(deadline).map(|l| self.wrap(l))
    }

    fn try_accept_link(&self) -> Result<Option<Box<dyn Link>>, ConnectError> {
        Ok(self.inner.try_accept_link()?.map(|l| self.wrap(l)))
    }

    fn poll_fd(&self) -> Option<i32> {
        self.inner.poll_fd()
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_len(&[(0, 10), (2, 3), (10, 12)]), 12);
    }

    #[test]
    fn counting_tracer_reads_no_clock() {
        let tracer = Tracer::counting();
        let key = Key::Core(Role::Server, Seam::TrainClient);
        tracer.call(key, std::thread::yield_now, |_| 7);
        assert_eq!(tracer.calls(key), 1);
        assert_eq!(tracer.items(key), 7);
        assert_eq!(tracer.busy_ms(key), 0.0);
        assert_eq!(tracer.covered_ns(0, u64::MAX), 0);
    }

    #[test]
    fn keys_index_distinct_slots() {
        let mut seen = std::collections::BTreeSet::new();
        for role in [Role::Server, Role::Replica] {
            for seam in [
                Seam::InitGlobal,
                Seam::TaskHooks,
                Seam::RoundBroadcast,
                Seam::ExchangeMask,
                Seam::RoundCtx,
                Seam::TrainClient,
                Seam::MergeClient,
                Seam::OnRoundEnd,
                Seam::EvalCtx,
                Seam::PredictDomain,
                Seam::Predict,
            ] {
                assert!(seen.insert(Key::Core(role, seam).index()));
            }
        }
        for side in [Side::Server, Side::Replica] {
            for dir in [Dir::Send, Dir::Recv] {
                assert!(seen.insert(Key::Wire(side, dir).index()));
            }
        }
        assert_eq!(seen.len(), KEYS);
        assert!(seen.iter().all(|&i| i < KEYS));
    }
}
