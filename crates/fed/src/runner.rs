//! The FDIL round driver: executes Algorithm 1's outer loop for any strategy.
//!
//! The driver owns everything protocol-side — task sequencing, client
//! increments and group membership, quantity-shift data partitioning, client
//! selection, FedAvg, traffic accounting, and per-task evaluation — while the
//! [`FdilStrategy`] implementations (Finetune, FedLwF, FedEWC, FedL2P,
//! FedDualPrompt, RefFiL) own the model and the local/server learning rules.
//!
//! # Concurrency model
//!
//! Client sessions within a round are independent by construction: each round
//! the strategy exposes a shared read-only [`RoundContext`] and every selected
//! client trains as a pure function of that context plus its own
//! [`TrainSetting`]. The driver pre-draws all per-round randomness (selection,
//! dropout, session seeds) *before* dispatching any session, runs sessions on
//! a scoped thread pool, and consumes the outputs in ascending client-id
//! order — so the result is byte-for-byte identical at any thread count.
//! Cross-client state (prompt ingest, rehearsal memory) mutates only through
//! [`FdilStrategy::merge_client`], applied in client-id order after FedAvg.
//!
//! # Wire layer
//!
//! Every client↔server exchange is a typed [`WireMessage`]: the global model
//! goes down as a `ModelBroadcast` (plus any [`FdilStrategy::round_broadcast`]
//! message, e.g. RefFiL's `GlobalPromptBroadcast`), and each client's trained
//! parameters come back as a `ClientModelUpdate` — or a
//! `CompressedModelUpdate` when uplink compression is on — alongside an
//! optional strategy merge message (`PromptUpload`, `RehearsalMemory`, ...).
//! [`TrafficStats`] counts every frame's exact encoded length.
//!
//! # One round engine
//!
//! The driver runs one loop — plan → broadcast → collect → reconstruct →
//! aggregate → merge — over a crate-private `RoundTransport` seam with two
//! implementations. [`FdilRunner::run`] trains the planned sessions in
//! process on the worker pool: typed messages move in memory and are sized
//! with `WireMessage::encoded_len`, which always equals the encoded frame's
//! length. [`FdilRunner::serve`] assigns the same sessions to connected peer
//! processes and collects their results under a per-round deadline (see the
//! `net` module); remote results ride inside control frames as the same
//! nested payload frames. Both transports hand the driver the same collected
//! session shape, compressed updates are rebuilt against one broadcast
//! history, and each accepted session is booked into every byte view by one
//! call — so an undisturbed served run accounts byte-identical traffic to the
//! in-process run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use refil_data::{partition_quantity_shift, FdilDataset, QuantityShift, Sample};
use refil_nn::Tensor;
use refil_telemetry::{
    ArenaStats, Lane, PoolStats, RoundReport, SessionStat, Telemetry, TelemetrySummary,
};

use crate::pool::WorkerPool;
use refil_wire::{
    ClientModelUpdate as WireClientModelUpdate, CompressedModelUpdate, CompressionSpec, Listener,
    MessageKind, ModelBroadcast, WireMessage,
};

use crate::aggregate::{fedavg, WeightedUpdate};
use crate::config::RunConfig;
use crate::increment::{build_schedule, select_clients, ClientGroup, TaskSchedule};
use crate::net::ServeState;
use crate::traffic::TrafficStats;

/// Everything a strategy needs to run one local training session. The
/// driver resolves one per planned session before any worker starts, so
/// execution order cannot affect the result.
#[derive(Debug)]
pub struct TrainSetting<'a> {
    /// Global client id.
    pub client_id: usize,
    /// Current task (0-based).
    pub task: usize,
    /// Current round within the task.
    pub round: usize,
    /// The client's group this round.
    pub group: ClientGroup,
    /// Effective local training data (old, new, or concatenated per group).
    pub samples: &'a [Sample],
    /// Local epochs to run.
    pub local_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Deterministic seed for this (task, round, client) session.
    pub seed: u64,
}

/// A client's answer to one round: updated parameters plus FedAvg weight.
/// Byte accounting is no longer the session's job — the driver measures the
/// encoded `ClientModelUpdate` / merge frames it actually moves.
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// Updated flat parameters.
    pub flat: Vec<f32>,
    /// FedAvg weight (normally the local sample count).
    pub weight: f32,
}

/// What one client session hands back to the driver.
#[derive(Debug)]
pub struct SessionOutput {
    /// The FedAvg contribution.
    pub update: ClientUpdate,
    /// Optional cross-client state as a typed wire message (e.g. a
    /// `PromptUpload` for RefFiL's server-side ingest, or `RehearsalMemory`
    /// for the rehearsal oracle), delivered to
    /// [`FdilStrategy::merge_client`] in client-id order after FedAvg. The
    /// driver encodes, transports, and decodes it like every other exchange.
    pub merge: Option<WireMessage>,
}

impl From<ClientUpdate> for SessionOutput {
    fn from(update: ClientUpdate) -> Self {
        Self {
            update,
            merge: None,
        }
    }
}

/// Shared read-only view of a strategy for one round.
///
/// Created once per round by [`FdilStrategy::round_ctx`] and shared by
/// reference across worker threads (hence the `Sync` bound); every client
/// session must be a pure function of the context and its [`TrainSetting`] —
/// no interior mutation — so sessions can run in any order on any number of
/// threads and still produce identical results.
pub trait RoundContext: Sync {
    /// Runs one client's local training session.
    ///
    /// `telemetry` is a per-worker scoped handle already parented under the
    /// surrounding `round:<r>` span; spans opened here land in the right
    /// place in the trace even when sessions run concurrently.
    fn train_client(&self, setting: &TrainSetting<'_>, telemetry: &Telemetry) -> SessionOutput;
}

/// Shared read-only view of a strategy for evaluation.
///
/// Created once per evaluation sweep by [`FdilStrategy::eval_ctx`] under a
/// fixed global parameter vector and shared by reference across worker
/// threads (hence the `Sync` bound). Each worker obtains its own mutable
/// [`DomainEvaluator`] through [`EvalContext::evaluator`], so per-worker
/// prediction state (a reusable tape-free inference session, scratch
/// buffers) never crosses threads.
pub trait EvalContext: Sync {
    /// A fresh per-worker evaluator borrowing this context's weights.
    fn evaluator(&self) -> Box<dyn DomainEvaluator + '_>;
}

/// One worker's mutable prediction handle during evaluation.
///
/// Implementations typically own a [`refil_nn::InferenceSession`] whose
/// forward plan (node and scratch buffers) is recycled across batches.
/// Predictions must be a pure function of the context's weights and the
/// inputs — no interior mutation that leaks across calls — so batches can be
/// evaluated in any order on any number of workers with identical results.
pub trait DomainEvaluator {
    /// Predicts class labels for a `[batch, dim]` feature tensor drawn from
    /// the given domain.
    fn predict_domain(&mut self, features: &Tensor, domain: usize) -> Vec<usize>;
}

/// A federated domain-incremental learning strategy.
///
/// Implementations own the model architecture and any persistent client or
/// server state; the driver only sees flat parameter vectors. During a round
/// the strategy is borrowed immutably through [`FdilStrategy::round_ctx`];
/// all mutation happens in the explicitly ordered hooks
/// ([`FdilStrategy::merge_client`], [`FdilStrategy::on_round_end`],
/// [`FdilStrategy::on_task_end`]).
pub trait FdilStrategy {
    /// Human-readable method name (e.g. `"RefFiL"`, `"FedEWC"`).
    fn name(&self) -> String;

    /// Hands the strategy a telemetry handle before the run starts, so its
    /// hot paths can open spans and record observations. Handles are cheap
    /// clones sharing one collector; the default implementation ignores it.
    fn attach_telemetry(&mut self, _telemetry: &Telemetry) {}

    /// Produces the initial global parameter vector.
    fn init_global(&mut self) -> Vec<f32>;

    /// Called once when task `task` begins, before any round.
    fn on_task_start(&mut self, _task: usize, _global: &[f32]) {}

    /// The strategy's extra server→client message for this round, if any
    /// (e.g. RefFiL's `GlobalPromptBroadcast`). The driver encodes it,
    /// transports it alongside the `ModelBroadcast`, and hands the decoded
    /// message back into [`FdilStrategy::round_ctx`].
    fn round_broadcast(&self, _task: usize, _round: usize) -> Option<WireMessage> {
        None
    }

    /// The subset of flat-parameter coordinates this strategy exchanges in
    /// client updates during `task`, as strictly ascending indices into the
    /// flat layout — or `None` (the default) to exchange every coordinate.
    ///
    /// A masked exchange sends only those coordinates over the wire
    /// (a `CompressedModelUpdate` sparse frame); the server keeps its
    /// broadcast values for the rest. The mask may vary by task: RefFiL's
    /// prompt-only mode exchanges the full model during task 0 (while the
    /// shared backbone is still being learned collaboratively) and only the
    /// prompt/head coordinates from task 1 on, once the backbone has entered
    /// its stabilized regime.
    fn exchange_mask(&self, task: u64) -> Option<Vec<u32>> {
        let _ = task;
        None
    }

    /// Returns the shared read-only context for round `round` of task `task`
    /// under the given global parameters and the decoded
    /// [`FdilStrategy::round_broadcast`] message (if one was sent). Sessions
    /// for every selected client run against this one context, possibly
    /// concurrently.
    fn round_ctx<'a>(
        &'a self,
        task: usize,
        round: usize,
        global: &'a [f32],
        broadcast: Option<&'a WireMessage>,
    ) -> Box<dyn RoundContext + 'a>;

    /// Applies one client's cross-client state (its decoded
    /// [`SessionOutput::merge`] message). The driver calls this after FedAvg,
    /// in ascending client-id order, before
    /// [`FdilStrategy::on_round_end`] — so ingestion is deterministic
    /// regardless of which worker thread finished first.
    fn merge_client(
        &mut self,
        _task: usize,
        _round: usize,
        _client_id: usize,
        _message: WireMessage,
    ) {
    }

    /// Convenience for tests and ad-hoc callers: runs one session through
    /// [`FdilStrategy::round_ctx`] (fed its own
    /// [`FdilStrategy::round_broadcast`]) and immediately applies its merge
    /// message, returning the update. Equivalent to what the driver does for
    /// a single client on the in-process transport.
    fn train_once(&mut self, setting: &TrainSetting<'_>, global: &[f32]) -> ClientUpdate
    where
        Self: Sized,
    {
        let broadcast = self.round_broadcast(setting.task, setting.round);
        let out = self
            .round_ctx(setting.task, setting.round, global, broadcast.as_ref())
            .train_client(setting, &Telemetry::disabled());
        if let Some(message) = out.merge {
            self.merge_client(setting.task, setting.round, setting.client_id, message);
        }
        out.update
    }

    /// Called after FedAvg (and after all [`FdilStrategy::merge_client`]
    /// calls) each round with the new global parameters.
    fn on_round_end(&mut self, _task: usize, _round: usize, _global: &[f32]) {}

    /// Called when a task finishes, with each active client's current local
    /// data (used e.g. to estimate the EWC Fisher information).
    fn on_task_end(
        &mut self,
        _task: usize,
        _global: &[f32],
        _client_data: &[(usize, Vec<Sample>)],
    ) {
    }

    /// Predicts class labels for a `[batch, dim]` feature tensor under the
    /// given global parameters.
    fn predict(&mut self, global: &[f32], features: &Tensor) -> Vec<usize>;

    /// Returns the model's final `[CLS]` representation for each row of
    /// `features` — the embedding the paper's t-SNE figures visualize.
    /// Defaults to the raw input features (identity embedding).
    fn cls_embeddings(&mut self, _global: &[f32], features: &Tensor) -> Vec<Vec<f32>> {
        let d = features.shape()[1];
        features.data().chunks(d).map(<[f32]>::to_vec).collect()
    }

    /// Returns the shared read-only evaluation context for the given global
    /// parameters. The driver creates one context per evaluation sweep and
    /// fans `(domain, batch)` work items across its worker pool, each worker
    /// predicting through its own [`EvalContext::evaluator`] — so inference
    /// here must not depend on `&mut self` state. See [`evaluate_domain`] and
    /// [`FdilRunner::evaluate_task`].
    fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a>;

    /// Domain-aware prediction: like [`FdilStrategy::predict`], but told which
    /// task/domain the batch comes from. Routes through a one-shot
    /// [`FdilStrategy::eval_ctx`]; strategies whose prompts are conditioned on
    /// the local task ID (RefFiL — a dependence the paper's Limitations
    /// section makes explicit) consume the hint there.
    fn predict_domain(&mut self, global: &[f32], features: &Tensor, domain: usize) -> Vec<usize> {
        let ctx = self.eval_ctx(global);
        let mut evaluator = ctx.evaluator();
        evaluator.predict_domain(features, domain)
    }
}

/// Outcome of a full FDIL run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Domain names in task order.
    pub domain_names: Vec<String>,
    /// `acc[t][d]` = accuracy (%) on domain `d`'s test set after task `t`,
    /// for `d <= t`.
    pub domain_acc: Vec<Vec<f32>>,
    /// Communication accounting.
    pub traffic: TrafficStats,
    /// Group sizes `(M_o, M_b, M_n)` sampled at the start, middle, and end
    /// round of each task (for the Fig. 1 transition timeline).
    pub group_timeline: Vec<[(usize, usize, usize); 3]>,
    /// The final global parameter vector (for post-hoc analysis such as the
    /// t-SNE embeddings of Figures 5/6).
    pub final_global: Vec<f32>,
    /// Aggregated telemetry (span timings, counters, histograms); empty when
    /// the run used a disabled [`Telemetry`] handle.
    pub telemetry: TelemetrySummary,
    /// One [`RoundReport`] per executed round, in execution order: per-phase
    /// wall time, per-client session time, per-kind wire bytes, scratch-arena
    /// accounting, and (with telemetry enabled) per-worker pool stats. The
    /// round that closes a task additionally carries the eval phase and
    /// per-domain accuracies.
    pub rounds: Vec<RoundReport>,
}

impl RunResult {
    /// Step accuracy `A_t`: mean over all domains seen up to task `t`
    /// (the per-column values in the paper's Tables 3/4).
    pub fn step_accuracies(&self) -> Vec<f32> {
        self.domain_acc
            .iter()
            .map(|row| row.iter().sum::<f32>() / row.len() as f32)
            .collect()
    }

    /// `Avg` metric: mean of step accuracies across all learning steps
    /// (iCaRL's average incremental accuracy).
    pub fn avg_accuracy(&self) -> f32 {
        let steps = self.step_accuracies();
        steps.iter().sum::<f32>() / steps.len() as f32
    }

    /// `Last` metric: step accuracy after the final task.
    pub fn last_accuracy(&self) -> f32 {
        *self.step_accuracies().last().expect("at least one task")
    }

    /// Accuracy on each domain after the final task (for forgetting analysis).
    pub fn final_domain_accuracies(&self) -> &[f32] {
        self.domain_acc.last().expect("at least one task")
    }
}

/// One collected session, in the shape both transports hand the driver: the
/// uplink model update (`ClientModelUpdate` or `CompressedModelUpdate`) with
/// its encoded length, the optional merge message with its encoded length,
/// and the session's timing stat.
pub(crate) struct CollectedSession {
    pub(crate) update: WireMessage,
    pub(crate) update_bytes: u64,
    pub(crate) merge: Option<(WireMessage, u64)>,
    pub(crate) stat: SessionStat,
}

/// Everything a transport needs to run one round.
pub(crate) struct RoundInput<'a> {
    pub(crate) task: usize,
    pub(crate) round: usize,
    /// The global parameters the round broadcasts (the base that compressed
    /// uplinks are encoded against).
    pub(crate) global: &'a [f32],
    /// Planned sessions, ascending by client id (slot order).
    pub(crate) sessions: &'a [TrainSetting<'a>],
    /// The round's `ModelBroadcast` and the strategy's extra broadcast.
    pub(crate) model: &'a WireMessage,
    pub(crate) extra: Option<&'a WireMessage>,
    /// The run's uplink compression offer and this task's exchange mask
    /// (the inputs of [`build_uplink`]).
    pub(crate) offer: Option<CompressionSpec>,
    pub(crate) mask: Option<&'a [u32]>,
}

/// One round's sessions, slot-indexed (`None` = the result never arrived),
/// with the worker-pool and scratch accounting of the train phase.
pub(crate) struct RoundCollected {
    pub(crate) sessions: Vec<Option<CollectedSession>>,
    pub(crate) pool: Option<PoolStats>,
    pub(crate) scratch: ArenaStats,
}

/// Where the driver's planned sessions run: in process on the worker pool
/// ([`InProcess`]) or on connected peer processes (`net::ServeState`). The
/// lifecycle hooks exist for transports with remote replicas to keep in
/// sync; they default to nothing.
pub(crate) trait RoundTransport {
    /// Task `task` starts, after the strategy's `on_task_start`.
    fn begin_task(&mut self, _task: usize, _global: &[f32]) {}

    /// Runs the round's planned sessions against its broadcast and returns
    /// their results, slot-indexed.
    fn round(&mut self, strategy: &dyn FdilStrategy, input: &RoundInput<'_>) -> RoundCollected;

    /// The round closed with the new global model and the ordered merges.
    fn finish_round(
        &mut self,
        _task: usize,
        _round: usize,
        _global: &[f32],
        _merges: &[(usize, WireMessage)],
    ) {
    }

    /// Task `task` ended, after the strategy's `on_task_end`.
    fn end_task(&mut self, _task: usize, _global: &[f32]) {}

    /// The run is over.
    fn finish_run(&mut self) {}
}

/// The spec the run offers for uplink compression: the configured spec
/// when it is active or when the strategy restricts the exchanged
/// coordinates in some task, otherwise `None` (dense updates throughout).
/// The served path hands the same offer to codec-aware peers.
fn uplink_offer(
    cfg: &RunConfig,
    strategy: &dyn FdilStrategy,
    tasks: usize,
) -> Option<CompressionSpec> {
    let spec = cfg.wire.spec();
    let masks_any_task = (0..tasks).any(|t| strategy.exchange_mask(t as u64).is_some());
    (spec.is_active() || masks_any_task).then_some(spec)
}

/// Builds one session's uplink frame — the one builder behind the
/// in-process transport and every client replica. The update is compressed
/// against `base` (the broadcast tagged `(task, round)`) when a spec was
/// offered and this task either uses it lossily or restricts the exchange
/// through `mask`; otherwise it goes up as a dense `ClientModelUpdate`.
pub(crate) fn build_uplink(
    offer: Option<CompressionSpec>,
    mask: Option<&[u32]>,
    client_id: u64,
    update: ClientUpdate,
    base: &[f32],
    task: u32,
    round: u32,
) -> WireMessage {
    match offer.filter(|spec| spec.is_active() || mask.is_some()) {
        Some(spec) => WireMessage::CompressedModelUpdate(CompressedModelUpdate::compress(
            &spec,
            mask,
            client_id,
            update.weight,
            &update.flat,
            base,
            task,
            round,
        )),
        None => WireMessage::ClientModelUpdate(WireClientModelUpdate {
            client_id,
            weight: update.weight,
            model: update.flat,
        }),
    }
}

/// Broadcast models remembered for rebuilding compressed updates, tagged
/// `(task, round)`, newest last.
type BroadcastHistory = VecDeque<((u32, u32), Vec<f32>)>;

/// How many past broadcasts a compressed update may name as its base.
const BROADCAST_HISTORY: usize = 8;

/// Turns a collected uplink into a FedAvg contribution plus its raw size
/// (what a dense `ClientModelUpdate` would have cost; `bytes` itself when
/// the update is dense). A compressed update is rebuilt against the
/// broadcast it names. `None` when that broadcast is no longer in the
/// history, the update does not fit it, or the frame is no model update.
fn reconstruct(
    update: WireMessage,
    bytes: u64,
    history: &BroadcastHistory,
) -> Option<(WeightedUpdate, u64)> {
    let (flat, weight, raw) = match update {
        WireMessage::ClientModelUpdate(u) => (u.model, u.weight, bytes),
        WireMessage::CompressedModelUpdate(c) => {
            let (_, base) = history
                .iter()
                .rev()
                .find(|(tag, _)| *tag == (c.base_task, c.base_round))?;
            let raw = c.uncompressed_frame_len() as u64;
            (c.reconstruct(base).ok()?, c.weight, raw)
        }
        _ => return None,
    };
    Some((WeightedUpdate { flat, weight }, raw))
}

/// One frame in the byte ledger: its kind and encoded length.
type FrameBytes = (MessageKind, u64);

/// Everything one accepted session moved: the single record that
/// [`SessionLedger::book`] derives every byte view from.
struct SessionLedger<'a> {
    /// The round's broadcast frames, received by every session.
    down: &'a [FrameBytes],
    update: FrameBytes,
    /// What `update` would have cost as a dense `ClientModelUpdate`.
    update_raw: u64,
    merge: Option<FrameBytes>,
    stat: SessionStat,
}

impl SessionLedger<'_> {
    /// Books the session into [`TrafficStats`], the round report's per-kind
    /// `wire_bytes`, its `uplink_raw/encoded_bytes` and session list, and
    /// the `traffic.*`, `wire.<kind>_bytes` and `clients.trained` counters.
    /// Every view reads the same record, so they partition the same bytes
    /// by construction.
    fn book(self, traffic: &mut TrafficStats, report: &mut RoundReport, telemetry: &Telemetry) {
        let up = [Some(self.update), self.merge];
        let up_bytes: u64 = up.iter().flatten().map(|(_, bytes)| bytes).sum();
        let down_bytes: u64 = self.down.iter().map(|(_, bytes)| bytes).sum();
        traffic.record_client(up_bytes, down_bytes);
        telemetry.counter("traffic.up_bytes", up_bytes);
        telemetry.counter("traffic.down_bytes", down_bytes);
        for &(kind, bytes) in up.iter().flatten().chain(self.down) {
            telemetry.counter(kind.bytes_counter(), bytes);
            bump_wire(&mut report.wire_bytes, kind.name(), bytes);
        }
        report.uplink_raw_bytes += self.update_raw;
        report.uplink_encoded_bytes += self.update.1;
        report.sessions.push(self.stat);
        report.clients_trained += 1;
        telemetry.counter("clients.trained", 1);
    }
}

/// Converts the nn crate's thread-local scratch accounting into the
/// telemetry report type.
fn arena_stats(s: refil_nn::ScratchStats) -> ArenaStats {
    ArenaStats {
        reserved_bytes: s.reserved_bytes,
        reserved_count: s.reserved_count,
        reused_bytes: s.reused_bytes,
        reused_count: s.reused_count,
        peak_pool_bytes: s.peak_pool_bytes,
    }
}

fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub(crate) fn session_seed(master: u64, task: usize, round: usize, client: usize) -> u64 {
    // SplitMix64-style mixing for decorrelated per-session seeds.
    // `round` may be a `usize::MAX` sentinel, so the +1 must wrap too.
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul((task as u64).wrapping_add(1)))
        .wrapping_add(0xbf58_476d_1ce4_e5b9u64.wrapping_mul((round as u64).wrapping_add(1)))
        .wrapping_add(0x94d0_49bb_1331_11ebu64.wrapping_mul((client as u64).wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed for the sampled-participation RNG: its own stream (decorrelated
/// from selection/dropout and from session seeds via the sentinel client
/// id) so enabling sampling never perturbs the other draws.
pub(crate) fn sample_seed(master: u64, task: usize, round: usize) -> u64 {
    session_seed(master ^ 0x5a4d_9e00, task, round, usize::MAX - 1)
}

/// Per-client data holdings maintained by the driver.
///
/// `pub(crate)` because the networked client replica (`crate::net`) evolves
/// an identical copy from the same deterministic inputs.
#[derive(Debug, Default, Clone)]
pub(crate) struct Holdings {
    /// Data carried from previous tasks.
    pub(crate) old: Vec<Sample>,
    /// New-domain data received this task (empty for `U_o` clients).
    pub(crate) new: Vec<Sample>,
    /// Cached `old ++ new` for `U_b` rounds.
    pub(crate) both: Vec<Sample>,
}

impl Holdings {
    /// Rebuilds the cached `old ++ new` concatenation in place, reusing the
    /// existing buffer's capacity instead of re-cloning through an iterator
    /// chain and reallocating every task.
    fn rebuild_both(&mut self) {
        self.both.clear();
        self.both.reserve(self.old.len() + self.new.len());
        self.both.extend_from_slice(&self.old);
        self.both.extend_from_slice(&self.new);
    }

    /// The client's effective training data for `group`.
    pub(crate) fn for_group(&self, group: ClientGroup) -> &[Sample] {
        match group {
            ClientGroup::Old => &self.old,
            ClientGroup::New => &self.new,
            ClientGroup::Between => &self.both,
        }
    }
}

/// Distributes task `task`'s new-domain training data among the schedule's
/// recipients: the deterministic holdings evolution shared verbatim by the
/// in-process driver, the networked server, and every client replica (the
/// partition is seeded from `cfg.seed` alone, never from the round RNG).
pub(crate) fn distribute_task_data(
    holdings: &mut Vec<Holdings>,
    schedule: &TaskSchedule,
    dataset: &FdilDataset,
    cfg: &RunConfig,
    task: usize,
) {
    holdings.resize_with(schedule.clients.len(), Holdings::default);
    let recipients = schedule.new_data_recipients();
    if !recipients.is_empty() {
        let parts = partition_quantity_shift(
            dataset.domains[task].train.clone(),
            recipients.len(),
            QuantityShift::Lognormal(cfg.quantity_sigma),
            session_seed(cfg.seed, task, usize::MAX, 0),
        );
        for (cid, part) in recipients.iter().zip(parts) {
            holdings[*cid].new = part;
            holdings[*cid].rebuild_both();
        }
    }
}

/// Each client's effective data at the end of a task (for
/// [`FdilStrategy::on_task_end`]), in client-id order.
pub(crate) fn collect_client_data(
    holdings: &[Holdings],
    schedule: &TaskSchedule,
    rounds: usize,
) -> Vec<(usize, Vec<Sample>)> {
    schedule
        .clients
        .iter()
        .map(|plan| {
            let h = &holdings[plan.id];
            let data = h
                .for_group(plan.group_at(rounds.saturating_sub(1)))
                .to_vec();
            (plan.id, data)
        })
        .collect()
}

/// Task-boundary holdings transition: clients that saw the new domain carry
/// it forward as their old data.
pub(crate) fn carry_forward(holdings: &mut [Holdings], schedule: &TaskSchedule) {
    for plan in &schedule.clients {
        if plan.receives_new_data() {
            let h = &mut holdings[plan.id];
            h.old = std::mem::take(&mut h.new);
            h.both.clear();
        }
    }
}

/// Runs one planned session, recording the per-client span and throughput
/// observations, and returns the output plus the session's wall nanoseconds.
///
/// `t` is a handle already scoped under the round span — created once per
/// worker, not per session, so the hot path pays no parent-path rebuild.
fn run_session(
    ctx: &dyn RoundContext,
    setting: &TrainSetting<'_>,
    t: &Telemetry,
) -> (SessionOutput, u64) {
    let _client_span = t.span(&format!("client:{}", setting.client_id));
    let session_start = std::time::Instant::now();
    let out = ctx.train_client(setting, t);
    let elapsed = session_start.elapsed();
    let secs = elapsed.as_secs_f64();
    t.observe("client.duration_s", secs);
    if secs > 0.0 {
        let processed = (setting.samples.len() * setting.local_epochs.max(1)) as f64;
        t.observe("client.samples_per_sec", processed / secs);
    }
    (out, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX))
}

/// Resolves a user-facing thread-count request: `0` means "all available
/// parallelism", anything else is taken literally.
fn resolve_threads(n: usize) -> usize {
    if n == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        n
    }
}

/// Default thread count: the `REFIL_THREADS` environment variable when set
/// and parseable (`0` = all cores), otherwise 1 (sequential).
fn threads_from_env() -> usize {
    match std::env::var("REFIL_THREADS") {
        Ok(raw) => raw
            .trim()
            .parse::<usize>()
            .map(resolve_threads)
            .unwrap_or(1),
        Err(_) => 1,
    }
}

/// Builder-style entry point for executing the full FDIL protocol of
/// Algorithm 1.
///
/// ```no_run
/// # use refil_fed::{FdilRunner, FdilStrategy, RunConfig, Telemetry};
/// # fn demo(dataset: &refil_data::FdilDataset, strategy: &mut dyn FdilStrategy) {
/// let telemetry = Telemetry::disabled();
/// let result = FdilRunner::new(RunConfig::default())
///     .telemetry(&telemetry)
///     .threads(4)
///     .run(dataset, strategy);
/// # let _ = result;
/// # }
/// ```
///
/// Client sessions within a round execute on `threads` scoped workers; the
/// result is byte-for-byte identical at any thread count (see the module
/// docs for why). [`FdilRunner::run`] trains every session in process and
/// moves the typed messages in memory, accounting their exact encoded frame
/// sizes; [`FdilRunner::serve`] drives the same round engine over real
/// sockets.
#[derive(Debug)]
pub struct FdilRunner {
    cfg: RunConfig,
    telemetry: Telemetry,
    threads: usize,
    clamp: bool,
    /// Lazily-created persistent worker pool, sized to
    /// [`FdilRunner::effective_threads`] on the first dispatch that wants
    /// more than one worker and reused for every round and eval sweep after.
    pool: OnceLock<Arc<WorkerPool>>,
}

impl Clone for FdilRunner {
    /// Clones the configuration, not the pool: each clone lazily builds its
    /// own worker pool, so clones can run concurrently without serializing
    /// on shared workers.
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg,
            telemetry: self.telemetry.clone(),
            threads: self.threads,
            clamp: self.clamp,
            pool: OnceLock::new(),
        }
    }
}

impl FdilRunner {
    /// A runner for `cfg` with telemetry disabled and the thread count taken
    /// from [`RunConfig::threads`] when nonzero, otherwise from the
    /// `REFIL_THREADS` environment variable (default 1).
    pub fn new(cfg: RunConfig) -> Self {
        let threads = if cfg.threads == 0 {
            threads_from_env()
        } else {
            resolve_threads(cfg.threads)
        };
        Self {
            cfg,
            telemetry: Telemetry::disabled(),
            threads,
            clamp: true,
            pool: OnceLock::new(),
        }
    }

    /// Records spans, counters, and histograms into `telemetry` during the
    /// run. Handles are cheap clones sharing one collector.
    #[must_use]
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Sets the number of worker threads for client sessions. `0` means all
    /// available parallelism; `1` runs sessions inline on the driver thread.
    /// Results are identical for every value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads);
        self.pool = OnceLock::new();
        self
    }

    /// Controls whether the worker count is clamped to the machine's
    /// available parallelism (default `true`). Oversubscribing threads past
    /// physical cores only adds spawn and contention cost — the clamp is
    /// what lets callers say `.threads(16)` portably. Disable it only to
    /// deliberately oversubscribe (e.g. pool-scheduling tests that need
    /// more workers than this machine has cores).
    #[must_use]
    pub fn clamp_threads(mut self, clamp: bool) -> Self {
        self.clamp = clamp;
        self.pool = OnceLock::new();
        self
    }

    /// The run configuration this runner was built with.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The requested worker-thread count (`0` already resolved to all
    /// cores). See [`FdilRunner::effective_threads`] for the count actually
    /// dispatched.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The worker count dispatches actually use: the requested count clamped
    /// to available parallelism (unless [`FdilRunner::clamp_threads`]
    /// disabled the clamp).
    pub fn effective_threads(&self) -> usize {
        if self.clamp {
            self.threads.min(resolve_threads(0))
        } else {
            self.threads
        }
    }

    /// The persistent worker pool, created on first use at the effective
    /// worker count.
    fn pool(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| Arc::new(WorkerPool::new(self.effective_threads())))
    }

    /// Executes the full FDIL protocol for `strategy` on `dataset`, training
    /// every session in process.
    ///
    /// The span hierarchy is `run > task:<t> > round:<r> > client:<c>`, with
    /// sibling `fedavg` and `evaluate_domain` spans; client spans are emitted
    /// from worker threads but reparented under their round. The
    /// `traffic.up_bytes` / `traffic.down_bytes` counters mirror
    /// [`TrafficStats::record_client`] exactly, so their final totals in the
    /// trace equal the run's [`TrafficStats`]; sibling `wire.<kind>_bytes`
    /// counters break the same bytes down per message kind. Neither
    /// telemetry nor the thread count touches the run's RNG streams: results
    /// are identical whichever sink (or none) is installed and however many
    /// workers run.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RunConfig::validate`] (construct configs via
    /// [`RunConfig::builder`] to catch this early as a typed
    /// [`crate::ConfigError`]), if the dataset has no domains, or if a
    /// domain has no test data.
    pub fn run(&self, dataset: &FdilDataset, strategy: &mut dyn FdilStrategy) -> RunResult {
        let offer = uplink_offer(&self.cfg, strategy, dataset.num_domains());
        self.run_inner(dataset, strategy, &mut InProcess { runner: self }, offer)
    }

    /// Runs the full FDIL protocol as a long-lived federation server: client
    /// processes connect through `listener`, planned sessions are assigned
    /// round-robin over the connected peers, trained remotely, and collected
    /// under the per-round deadline of [`RunConfig::net`]. Sessions whose
    /// results miss the deadline (stragglers, crashed peers) are counted as
    /// `clients_late` in that round's [`RoundReport`] and the round completes
    /// with partial participation.
    ///
    /// `spec` is an opaque run-description string handed to every joining
    /// peer in its `Welcome` frame (conventionally JSON naming the dataset,
    /// method, and seed so the peer can build its replica).
    ///
    /// The server blocks until at least [`crate::NetConfig::min_peers`] peers
    /// have joined, then admits further joiners at round boundaries; a peer
    /// joining mid-run is caught up from a replay log of task/round sync
    /// frames. When every peer stays connected and on time, the run's
    /// semantic outputs (accuracies, traffic, per-kind wire bytes) are
    /// byte-identical to [`FdilRunner::run`] with the same config.
    ///
    /// # Panics
    ///
    /// Panics like [`FdilRunner::run`]. Peer failures never panic — they
    /// surface as `clients_late` and `net.peers_left` telemetry.
    pub fn serve(
        &self,
        dataset: &FdilDataset,
        strategy: &mut dyn FdilStrategy,
        listener: &dyn Listener,
        spec: &str,
    ) -> RunResult {
        let offer = uplink_offer(&self.cfg, strategy, dataset.num_domains());
        let mut state =
            ServeState::new(listener, spec, self.cfg.net, offer, self.telemetry.clone());
        state.wait_for_peers();
        self.run_inner(dataset, strategy, &mut state, offer)
    }

    /// The round engine: plan → broadcast → collect → reconstruct →
    /// aggregate → merge, with `transport` running the sessions.
    fn run_inner(
        &self,
        dataset: &FdilDataset,
        strategy: &mut dyn FdilStrategy,
        transport: &mut dyn RoundTransport,
        offer: Option<CompressionSpec>,
    ) -> RunResult {
        let cfg = &self.cfg;
        let telemetry = &self.telemetry;
        if let Err(err) = cfg.validate() {
            panic!("invalid RunConfig: {err}");
        }
        assert!(dataset.num_domains() > 0, "dataset has no domains");
        let num_tasks = dataset.num_domains();
        let schedules = build_schedule(&cfg.increment, num_tasks, cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);

        strategy.attach_telemetry(telemetry);
        let _run_span = telemetry.span("run");
        telemetry.info(format!(
            "run start: method={} dataset={} tasks={} seed={} threads={}",
            strategy.name(),
            dataset.name,
            num_tasks,
            cfg.seed,
            self.threads
        ));

        let mut global = strategy.init_global();
        let mut broadcast_history = BroadcastHistory::new();
        let mut holdings: Vec<Holdings> = Vec::new();
        let mut traffic = TrafficStats::default();
        let mut domain_acc: Vec<Vec<f32>> = Vec::with_capacity(num_tasks);
        let mut group_timeline = Vec::with_capacity(num_tasks);
        let mut rounds_reports: Vec<RoundReport> = Vec::new();

        for (task, schedule) in schedules.iter().enumerate() {
            let _task_span = telemetry.span(&format!("task:{task}"));
            traffic.start_task(task);
            strategy.on_task_start(task, &global);
            // The exchange mask may change per task (e.g. `None` for a
            // warm-up task and restrictive afterwards).
            let mask = strategy.exchange_mask(task as u64);

            // Distribute the new domain's training data among recipients.
            distribute_task_data(&mut holdings, schedule, dataset, cfg, task);
            transport.begin_task(task, &global);

            let rounds = cfg.increment.rounds_per_task;
            group_timeline.push([
                schedule.group_sizes(0),
                schedule.group_sizes(rounds / 2),
                schedule.group_sizes(rounds.saturating_sub(1)),
            ]);

            for round in 0..rounds {
                let _round_span = telemetry.span(&format!("round:{round}"));
                let round_start = std::time::Instant::now();
                let round_t0 = telemetry.now_ns();
                let mut report = RoundReport {
                    task: task as u64,
                    round: round as u64,
                    ..RoundReport::default()
                };

                // Pre-draw all per-round randomness before any session runs,
                // in the exact order the sequential driver consumed it:
                // selection first, then one dropout draw per selected client
                // (only when dropout is enabled, and before the empty-sample
                // check). The RNG stream is thus independent of thread count.
                let selected = select_clients(schedule, cfg.increment.select_per_round, &mut rng);
                let mut sessions: Vec<TrainSetting<'_>> = Vec::with_capacity(selected.len());
                for &cid in &selected {
                    if cfg.dropout_prob > 0.0 && rng.gen::<f32>() < cfg.dropout_prob {
                        telemetry.counter("clients.dropped", 1);
                        report.clients_dropped += 1;
                        continue; // straggler: selected but never reports
                    }
                    let plan = &schedule.clients[cid];
                    let group = plan.group_at(round);
                    let samples: &[Sample] = holdings[cid].for_group(group);
                    if samples.is_empty() {
                        continue;
                    }
                    sessions.push(TrainSetting {
                        client_id: cid,
                        task,
                        round,
                        group,
                        samples,
                        local_epochs: cfg.local_epochs,
                        batch_size: cfg.batch_size,
                        seed: session_seed(cfg.seed, task, round, cid),
                    });
                }

                // Sampled participation: keep a seed-deterministic subset of
                // the planned sessions. It has its own RNG stream, so
                // enabling it never perturbs selection or dropout draws, and
                // every transport samples identically.
                if let Some(keep) = cfg.net.sample_size(sessions.len()) {
                    let removed = (sessions.len() - keep) as u64;
                    let mut sampler = StdRng::seed_from_u64(sample_seed(cfg.seed, task, round));
                    let mut order: Vec<usize> = (0..sessions.len()).collect();
                    for i in 0..keep {
                        // Partial Fisher–Yates: the first `keep` entries are
                        // a uniform draw without replacement.
                        let j = i + (sampler.gen::<u64>() as usize) % (order.len() - i);
                        order.swap(i, j);
                    }
                    let mut kept = vec![false; sessions.len()];
                    for &i in &order[..keep] {
                        kept[i] = true;
                    }
                    let mut slot = 0;
                    sessions.retain(|_| {
                        let keep_this = kept[slot];
                        slot += 1;
                        keep_this
                    });
                    telemetry.counter("clients.sampled_out", removed);
                    report.clients_sampled_out = removed;
                }

                // Server → clients: the round's global model plus any
                // strategy broadcast, sized once for the ledger. With
                // compression offered, remember what this broadcast said so
                // updates delta-encoded against it can be rebuilt; a short
                // history tolerates results tagged with an earlier round.
                let broadcast_start = std::time::Instant::now();
                let broadcast_t0 = telemetry.now_ns();
                let model = WireMessage::ModelBroadcast(ModelBroadcast {
                    task: task as u32,
                    round: round as u32,
                    model: global.clone(),
                });
                let extra = strategy.round_broadcast(task, round);
                let down: Vec<FrameBytes> = std::iter::once(&model)
                    .chain(&extra)
                    .map(|msg| (msg.kind(), msg.encoded_len() as u64))
                    .collect();
                if offer.is_some() {
                    broadcast_history.push_back(((task as u32, round as u32), global.clone()));
                    while broadcast_history.len() > BROADCAST_HISTORY {
                        broadcast_history.pop_front();
                    }
                }
                report.phases.broadcast = elapsed_ns(broadcast_start);
                telemetry.timeline_span(0, "broadcast", broadcast_t0, report.phases.broadcast);

                // The transport runs the sessions and hands back their
                // results slot-indexed; `select_clients` returns ids
                // ascending, so slot order == client-id order.
                let train_start = std::time::Instant::now();
                let train_t0 = telemetry.now_ns();
                let collected = transport.round(
                    &*strategy,
                    &RoundInput {
                        task,
                        round,
                        global: &global,
                        sessions: &sessions,
                        model: &model,
                        extra: extra.as_ref(),
                        offer,
                        mask: mask.as_deref(),
                    },
                );
                report.phases.train = elapsed_ns(train_start);
                telemetry.timeline_span(0, "train", train_t0, report.phases.train);
                report.train_pool = collected.pool;
                report.scratch.merge(&collected.scratch);

                // Clients → server: rebuild and book each session in slot
                // (= client-id) order, so FedAvg inputs, traffic accounting,
                // and merges are deterministic.
                let aggregate_start = std::time::Instant::now();
                let aggregate_t0 = telemetry.now_ns();
                let mut updates = Vec::with_capacity(sessions.len());
                let mut merges: Vec<(usize, WireMessage)> = Vec::new();
                for (session, slot) in sessions.iter().zip(collected.sessions) {
                    // A session that never arrived, or whose compressed
                    // update cannot be rebuilt, is late: the round proceeds
                    // without it and no bytes are accounted for it.
                    let rebuilt = slot.and_then(|c| {
                        let update = (c.update.kind(), c.update_bytes);
                        reconstruct(c.update, c.update_bytes, &broadcast_history)
                            .map(|(weighted, raw)| (weighted, update, raw, c.merge, c.stat))
                    });
                    let Some((weighted, update, update_raw, merge, stat)) = rebuilt else {
                        telemetry.counter("clients.late", 1);
                        report.clients_late += 1;
                        continue;
                    };
                    SessionLedger {
                        down: &down,
                        update,
                        update_raw,
                        merge: merge.as_ref().map(|(msg, bytes)| (msg.kind(), *bytes)),
                        stat,
                    }
                    .book(&mut traffic, &mut report, telemetry);
                    if let Some((msg, _)) = merge {
                        merges.push((session.client_id, msg));
                    }
                    updates.push(weighted);
                }
                if !updates.is_empty() {
                    let _fedavg_span = telemetry.span("fedavg");
                    global = fedavg(&updates);
                }
                transport.finish_round(task, round, &global, &merges);
                traffic.record_round();
                telemetry.counter("rounds", 1);
                report.phases.aggregate = elapsed_ns(aggregate_start);
                telemetry.timeline_span(0, "aggregate", aggregate_t0, report.phases.aggregate);
                let merge_start = std::time::Instant::now();
                let merge_t0 = telemetry.now_ns();
                for (cid, message) in merges {
                    strategy.merge_client(task, round, cid, message);
                }
                strategy.on_round_end(task, round, &global);
                report.phases.merge = elapsed_ns(merge_start);
                telemetry.timeline_span(0, "merge", merge_t0, report.phases.merge);
                report.wall_ns = elapsed_ns(round_start);
                telemetry.timeline_span(0, "round", round_t0, report.wall_ns);
                rounds_reports.push(report);
            }

            // Task-end hook: expose each client's effective data (for Fisher etc.).
            let client_data = collect_client_data(&holdings, schedule, rounds);
            strategy.on_task_end(task, &global, &client_data);

            // Clients that saw the new domain carry it forward as their data.
            carry_forward(&mut holdings, schedule);
            transport.end_task(task, &global);

            // Evaluate on every domain seen so far, fanning (domain, batch)
            // work items across the same worker pool the training rounds use.
            // The sweep's profile (pool stats, arena stats, wall time) is
            // attributed to the round that closed the task.
            let eval_start = std::time::Instant::now();
            let eval_t0 = telemetry.now_ns();
            let (row, eval_pool, eval_scratch) =
                self.evaluate_task_profiled(strategy, &global, dataset, task);
            let eval_ns = elapsed_ns(eval_start);
            telemetry.timeline_span(0, "eval", eval_t0, eval_ns);
            if let Some(last) = rounds_reports.last_mut() {
                last.phases.eval = eval_ns;
                last.wall_ns += eval_ns;
                last.eval_pool = eval_pool;
                last.eval_domain_acc = Some(row.clone());
                last.scratch.merge(&eval_scratch);
            }
            for &acc in &row {
                telemetry.observe("eval.domain_acc", f64::from(acc));
            }
            let step_acc = row.iter().sum::<f32>() / row.len() as f32;
            telemetry.info(format!("task {task} done: step accuracy {step_acc:.2}%"));
            domain_acc.push(row);
        }

        transport.finish_run();
        telemetry.info(format!(
            "run done: {} rounds, {} client updates, {} bytes total",
            traffic.rounds,
            traffic.client_updates,
            traffic.total_bytes()
        ));
        drop(_run_span);
        telemetry.flush();

        RunResult {
            method: strategy.name(),
            dataset: dataset.name.clone(),
            domain_names: dataset.domains.iter().map(|d| d.name.clone()).collect(),
            domain_acc,
            traffic,
            group_timeline,
            final_global: global,
            telemetry: telemetry.summary(),
            rounds: rounds_reports,
        }
    }
    /// Evaluates the global model on every domain seen up to `task`
    /// (inclusive), returning one accuracy (%) per domain.
    ///
    /// Work is chunked at *domain* granularity: each item walks one
    /// domain's test split in [`EVAL_BLOCK`]-row `[n, dim]` tensors, so the
    /// kernel layer sees wide multi-RHS GEMMs that stay cache-resident
    /// instead of dozens of thin per-batch ones (or one domain-wide forward
    /// whose activations spill L1). Because every forward op is
    /// row-independent (GEMM accumulates each output element in a fixed
    /// ascending-k chain regardless of how many rows are in flight;
    /// LayerNorm/softmax/attention are per-row), the predictions are
    /// bit-identical to the fine-grained batched sweep — pinned against
    /// [`evaluate_domain`] in the test suite.
    ///
    /// Items are fanned across the runner's persistent worker pool; each
    /// worker holds its own [`DomainEvaluator`] (and thus its own reusable
    /// tape-free inference session) over the one shared [`EvalContext`].
    /// Per-item correct counts land in slots indexed by plan order, so the
    /// result is byte-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if a domain in `0..=task` has no test data, or if a worker
    /// panics.
    pub fn evaluate_task(
        &self,
        strategy: &dyn FdilStrategy,
        global: &[f32],
        dataset: &FdilDataset,
        task: usize,
    ) -> Vec<f32> {
        self.evaluate_task_profiled(strategy, global, dataset, task)
            .0
    }

    /// Like [`FdilRunner::evaluate_task`], but also returns the sweep's
    /// per-worker [`PoolStats`] (None when telemetry is disabled — lanes
    /// record nothing) and the scratch-arena accounting harvested from the
    /// eval workers. This is the utilization report behind the parallel-eval
    /// diagnosis: busy/idle/steal per worker over the sweep's wall time.
    pub fn evaluate_task_profiled(
        &self,
        strategy: &dyn FdilStrategy,
        global: &[f32],
        dataset: &FdilDataset,
        task: usize,
    ) -> (Vec<f32>, Option<PoolStats>, ArenaStats) {
        let mut items: Vec<EvalItem<'_>> = Vec::with_capacity(task + 1);
        for domain in 0..=task {
            let test = &dataset.domains[domain].test;
            assert!(!test.is_empty(), "domain {domain} has no test data");
            items.push(EvalItem {
                domain,
                chunk: test,
            });
        }
        let ctx = strategy.eval_ctx(global);
        let (counts, pool_stats, scratch) = self.fan_out(
            &items,
            "eval",
            |item| item.domain as u64,
            || (ctx.evaluator(), Vec::new()),
            |(evaluator, staging), item, _track, t| eval_item(&mut **evaluator, item, staging, t),
        );
        let row = items
            .iter()
            .zip(&counts)
            .map(|(item, &correct)| 100.0 * correct as f32 / item.chunk.len() as f32)
            .collect();
        (row, pool_stats, scratch)
    }

    /// Fans `items` across the worker pool — inline on this thread when one
    /// worker suffices — and returns their results in item order, the
    /// per-worker pool stats (`None` with telemetry disabled), and the
    /// scratch accounting harvested from the workers.
    ///
    /// Each worker builds its state once with `init`, then claims items in
    /// order and runs `work` on each with its track (worker slot + 1) and a
    /// telemetry handle scoped under the caller's current span. Results land
    /// in item-indexed slots, so they are identical at any worker count.
    /// Profiling rides along without touching scheduling: each worker ticks
    /// a preallocated timeline lane, recording `label` with the item's `id`,
    /// and the lanes merge into busy/idle/steal accounting after the join.
    fn fan_out<I: Sync, S, R: Send>(
        &self,
        items: &[I],
        label: &'static str,
        id: fn(&I) -> u64,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, &I, u32, &Telemetry) -> R + Sync,
    ) -> (Vec<R>, Option<PoolStats>, ArenaStats) {
        let telemetry = &self.telemetry;
        let path = telemetry.current_path();
        let timeline = telemetry.timeline();
        let t0 = timeline.tick();
        let workers = self.effective_threads().min(items.len());
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
        let scratch = Mutex::new(ArenaStats::default());
        let worker = |slot: usize, lane: &mut Lane| {
            let t = telemetry.scoped(&path);
            let mut state = init();
            let _ = refil_nn::take_scratch_stats();
            let track = slot as u32 + 1;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let start = lane.tick();
                let result = work(&mut state, item, track, &t);
                lane.record(label, Some(id(item)), start);
                slots.lock().expect("fan-out slots poisoned")[i] = Some(result);
            }
            scratch
                .lock()
                .expect("scratch poisoned")
                .merge(&arena_stats(refil_nn::take_scratch_stats()));
        };
        let pool_stats = if workers <= 1 {
            let mut lane = timeline.lane(0);
            worker(0, &mut lane);
            timeline.merge(&[&lane], timeline.tick().saturating_sub(t0))
        } else {
            let pool = self.pool();
            let _dispatch = pool.serialize();
            pool.run(workers, &|slot| {
                let mut lane = pool.lane(slot);
                timeline.rearm(&mut lane, slot);
                worker(slot, &mut lane);
            });
            let wall = timeline.tick().saturating_sub(t0);
            let guards: Vec<_> = (0..workers).map(|s| pool.lane(s)).collect();
            let lanes: Vec<&Lane> = guards.iter().map(|g| &**g).collect();
            timeline.merge(&lanes, wall)
        };
        let results = slots
            .into_inner()
            .expect("fan-out slots poisoned")
            .into_iter()
            .map(|r| r.expect("planned fan-out item never ran"))
            .collect();
        let scratch = scratch.into_inner().expect("scratch poisoned");
        (results, pool_stats, scratch)
    }
}

/// The in-process transport: sessions train on the runner's worker pool
/// against one shared [`RoundContext`], and each result becomes exactly the
/// uplink a remote client would send, moved in memory.
struct InProcess<'r> {
    runner: &'r FdilRunner,
}

impl RoundTransport for InProcess<'_> {
    fn round(&mut self, strategy: &dyn FdilStrategy, input: &RoundInput<'_>) -> RoundCollected {
        let ctx = strategy.round_ctx(input.task, input.round, input.global, input.extra);
        let (outputs, pool, scratch) = self.runner.fan_out(
            input.sessions,
            "client",
            |s| s.client_id as u64,
            || (),
            |(), session, track, t| {
                let (out, duration_ns) = run_session(&*ctx, session, t);
                let stat = SessionStat {
                    client_id: session.client_id as u64,
                    track,
                    duration_ns,
                };
                (out, stat)
            },
        );
        let sessions = input
            .sessions
            .iter()
            .zip(outputs)
            .map(|(session, (out, stat))| {
                let update = build_uplink(
                    input.offer,
                    input.mask,
                    session.client_id as u64,
                    out.update,
                    input.global,
                    input.task as u32,
                    input.round as u32,
                );
                Some(CollectedSession {
                    update_bytes: update.encoded_len() as u64,
                    update,
                    merge: out.merge.map(|msg| {
                        let bytes = msg.encoded_len() as u64;
                        (msg, bytes)
                    }),
                    stat,
                })
            })
            .collect();
        RoundCollected {
            sessions,
            pool,
            scratch,
        }
    }
}

/// Adds `bytes` to the per-round wire-bytes map under `kind`, allocating the
/// key only on first occurrence per round.
fn bump_wire(map: &mut std::collections::BTreeMap<String, u64>, kind: &str, bytes: u64) {
    match map.get_mut(kind) {
        Some(slot) => *slot += bytes,
        None => {
            map.insert(kind.to_string(), bytes);
        }
    }
}

/// One planned unit of evaluation work: a slice of one domain's test split.
/// The runner's sweep plans one item per domain (coarse scheduling; the
/// item itself forwards in [`EVAL_BLOCK`]-row blocks); [`evaluate_domain`]
/// plans one per `eval_batch` chunk.
struct EvalItem<'a> {
    domain: usize,
    chunk: &'a [Sample],
}

/// Samples staged per multi-RHS forward inside one eval item. Wider batches
/// amortize plan replay, but past ~64 rows the activation working set
/// spills L1 and data movement starts dominating the GEMMs (measured in
/// `BENCH_eval.json`: a whole-domain forward is slower than 64-row blocks
/// despite fewer plan replays). The block split is positional and constant
/// — independent of worker count — and per-row forward arithmetic doesn't
/// depend on batch width, so results stay byte-identical at any thread
/// count and any block size.
const EVAL_BLOCK: usize = 64;

/// Evaluates one planned item, returning its correct-prediction count. The
/// item's samples run through the evaluator in [`EVAL_BLOCK`]-row multi-RHS
/// forwards.
///
/// `staging` is the worker's reusable feature buffer: it is moved into the
/// batch tensor and reclaimed afterwards, so steady-state evaluation does no
/// per-batch feature allocation. `t` is a handle already scoped under the
/// eval sweep's span path — created once per worker, not per item — so each
/// item's `evaluate_domain` span and `eval.samples` / `eval.batches` /
/// `eval.forward_ns` counters land correctly even from worker threads.
fn eval_item(
    evaluator: &mut dyn DomainEvaluator,
    item: &EvalItem<'_>,
    staging: &mut Vec<f32>,
    t: &Telemetry,
) -> usize {
    let _span = t.span("evaluate_domain");
    let dim = item.chunk[0].features.len();
    let mut correct = 0usize;
    for block in item.chunk.chunks(EVAL_BLOCK) {
        let mut data = std::mem::take(staging);
        data.clear();
        data.reserve(block.len() * dim);
        for s in block {
            data.extend_from_slice(&s.features);
        }
        let features = Tensor::from_vec(data, &[block.len(), dim]);
        let start = std::time::Instant::now();
        let preds = evaluator.predict_domain(&features, item.domain);
        t.counter("eval.forward_ns", start.elapsed().as_nanos() as u64);
        t.counter("eval.batches", 1);
        *staging = features.into_vec();
        correct += preds
            .iter()
            .zip(block)
            .filter(|(p, s)| **p == s.label)
            .count();
    }
    t.counter("eval.samples", item.chunk.len() as u64);
    correct
}

/// Accuracy (%) of the strategy's global model on one domain's test split.
///
/// Batches run serially through a single [`DomainEvaluator`] whose feature
/// staging buffer and inference session are reused across the whole split;
/// the parallel sweep inside [`FdilRunner::evaluate_task`] produces
/// bit-identical numbers.
///
/// # Panics
///
/// Panics if the domain has no test data.
pub fn evaluate_domain(
    strategy: &dyn FdilStrategy,
    global: &[f32],
    dataset: &FdilDataset,
    domain: usize,
    eval_batch: usize,
) -> f32 {
    let test = &dataset.domains[domain].test;
    assert!(!test.is_empty(), "domain {domain} has no test data");
    let ctx = strategy.eval_ctx(global);
    let mut evaluator = ctx.evaluator();
    let mut staging = Vec::new();
    let telemetry = Telemetry::disabled();
    let mut correct = 0usize;
    for chunk in test.chunks(eval_batch.max(1)) {
        let item = EvalItem { domain, chunk };
        correct += eval_item(&mut *evaluator, &item, &mut staging, &telemetry);
    }
    100.0 * correct as f32 / test.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::increment::IncrementConfig;
    use refil_data::{DatasetSpec, DomainSpec};
    use std::time::{Duration, Instant};

    use refil_wire::{PromptGroup, PromptUpload};

    /// A trivial strategy: nearest-class-mean in input space, "trained" by
    /// moving stored class means toward local data. Parameters = flat class
    /// means, so FedAvg is meaningful. Each session also emits a merge
    /// message (a `PromptUpload` whose single prompt's length encodes the
    /// sample count) so the driver's ordered-merge path is exercised.
    struct CentroidStrategy {
        classes: usize,
        dim: usize,
        merged: Vec<(usize, usize, usize)>, // (round, client, samples)
    }

    impl CentroidStrategy {
        fn new(classes: usize, dim: usize) -> Self {
            Self {
                classes,
                dim,
                merged: Vec::new(),
            }
        }
    }

    struct CentroidCtx<'a> {
        classes: usize,
        dim: usize,
        global: &'a [f32],
    }

    impl RoundContext for CentroidCtx<'_> {
        fn train_client(&self, s: &TrainSetting<'_>, _telemetry: &Telemetry) -> SessionOutput {
            let mut flat = self.global.to_vec();
            let mut counts = vec![0usize; self.classes];
            let mut sums = vec![0.0f32; self.classes * self.dim];
            for sample in s.samples {
                counts[sample.label] += 1;
                for (i, &f) in sample.features.iter().enumerate() {
                    sums[sample.label * self.dim + i] += f;
                }
            }
            for k in 0..self.classes {
                if counts[k] > 0 {
                    for i in 0..self.dim {
                        flat[k * self.dim + i] = sums[k * self.dim + i] / counts[k] as f32;
                    }
                }
            }
            SessionOutput {
                update: ClientUpdate {
                    flat,
                    weight: s.samples.len() as f32,
                },
                merge: Some(WireMessage::PromptUpload(PromptUpload {
                    client_id: s.client_id as u64,
                    groups: vec![PromptGroup {
                        client_id: s.client_id as u64,
                        prompts: vec![(0, vec![0.0; s.samples.len()])],
                    }],
                })),
            }
        }
    }

    impl FdilStrategy for CentroidStrategy {
        fn name(&self) -> String {
            "Centroid".into()
        }

        fn init_global(&mut self) -> Vec<f32> {
            vec![0.0; self.classes * self.dim]
        }

        fn round_ctx<'a>(
            &'a self,
            _task: usize,
            _round: usize,
            global: &'a [f32],
            _broadcast: Option<&'a WireMessage>,
        ) -> Box<dyn RoundContext + 'a> {
            Box::new(CentroidCtx {
                classes: self.classes,
                dim: self.dim,
                global,
            })
        }

        fn merge_client(
            &mut self,
            _task: usize,
            round: usize,
            client_id: usize,
            message: WireMessage,
        ) {
            let WireMessage::PromptUpload(upload) = message else {
                panic!("expected a PromptUpload merge message");
            };
            let samples = upload.groups[0].prompts[0].1.len();
            self.merged.push((round, client_id, samples));
        }

        fn predict(&mut self, global: &[f32], features: &Tensor) -> Vec<usize> {
            CentroidEval {
                classes: self.classes,
                dim: self.dim,
                global,
            }
            .predict_domain(features, 0)
        }

        fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a> {
            Box::new(CentroidEval {
                classes: self.classes,
                dim: self.dim,
                global,
            })
        }
    }

    /// Nearest-class-mean prediction is stateless, so one struct serves as
    /// both the shared context and the per-worker evaluator.
    #[derive(Clone, Copy)]
    struct CentroidEval<'a> {
        classes: usize,
        dim: usize,
        global: &'a [f32],
    }

    impl EvalContext for CentroidEval<'_> {
        fn evaluator(&self) -> Box<dyn DomainEvaluator + '_> {
            Box::new(*self)
        }
    }

    impl DomainEvaluator for CentroidEval<'_> {
        fn predict_domain(&mut self, features: &Tensor, _domain: usize) -> Vec<usize> {
            let n = features.shape()[0];
            (0..n)
                .map(|i| {
                    let x = &features.data()[i * self.dim..(i + 1) * self.dim];
                    (0..self.classes)
                        .min_by(|&a, &b| {
                            let da: f32 = x
                                .iter()
                                .zip(&self.global[a * self.dim..(a + 1) * self.dim])
                                .map(|(u, v)| (u - v) * (u - v))
                                .sum();
                            let db: f32 = x
                                .iter()
                                .zip(&self.global[b * self.dim..(b + 1) * self.dim])
                                .map(|(u, v)| (u - v) * (u - v))
                                .sum();
                            da.total_cmp(&db)
                        })
                        .unwrap_or(0)
                })
                .collect()
        }
    }

    fn tiny_dataset() -> FdilDataset {
        DatasetSpec {
            name: "tiny".into(),
            classes: 3,
            feature_dim: 6,
            proto_scale: 3.0,
            within_std: 0.3,
            test_fraction: 0.3,
            signature_dim: 2,
            signature_scale: 0.6,
            domains: vec![
                DomainSpec::new("d0", 120, 0.1, 0.0),
                DomainSpec::new("d1", 120, 0.1, 0.2),
            ],
        }
        .generate(11)
    }

    fn tiny_config() -> RunConfig {
        RunConfig {
            increment: IncrementConfig {
                initial_clients: 4,
                select_per_round: 3,
                increment_per_task: 1,
                transition_fraction: 0.8,
                rounds_per_task: 3,
            },
            local_epochs: 1,
            batch_size: 16,
            quantity_sigma: 0.5,
            eval_batch: 64,
            dropout_prob: 0.0,
            seed: 3,
            threads: 0,
            net: crate::NetConfig::default(),
            wire: crate::WireConfig::default(),
        }
    }

    #[test]
    fn runner_executes_full_protocol() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let res = FdilRunner::new(tiny_config()).run(&ds, &mut strat);
        assert_eq!(res.domain_acc.len(), 2);
        assert_eq!(res.domain_acc[0].len(), 1);
        assert_eq!(res.domain_acc[1].len(), 2);
        assert_eq!(res.traffic.rounds, 6);
        assert!(res.traffic.client_updates > 0);
        // Centroids on an easy first domain should beat chance (33 %).
        assert!(res.domain_acc[0][0] > 50.0, "acc {:?}", res.domain_acc);
        // Every trained client produced exactly one ordered merge.
        assert_eq!(strat.merged.len() as u64, res.traffic.client_updates);
    }

    #[test]
    fn run_is_deterministic() {
        let ds = tiny_dataset();
        let mut s1 = CentroidStrategy::new(3, 6);
        let mut s2 = CentroidStrategy::new(3, 6);
        let r1 = FdilRunner::new(tiny_config()).run(&ds, &mut s1);
        let r2 = FdilRunner::new(tiny_config()).run(&ds, &mut s2);
        assert_eq!(r1.domain_acc, r2.domain_acc);
    }

    #[test]
    fn parallel_run_matches_sequential_bytes() {
        let ds = tiny_dataset();
        for threads in [2usize, 4, 8] {
            let mut s1 = CentroidStrategy::new(3, 6);
            let mut s2 = CentroidStrategy::new(3, 6);
            let seq = FdilRunner::new(tiny_config()).threads(1).run(&ds, &mut s1);
            let par = FdilRunner::new(tiny_config())
                .threads(threads)
                .run(&ds, &mut s2);
            assert_eq!(seq.final_global, par.final_global, "threads={threads}");
            assert_eq!(seq.domain_acc, par.domain_acc, "threads={threads}");
            assert_eq!(seq.traffic, par.traffic, "threads={threads}");
            // Merge hooks fire in the same (round, client) order too.
            assert_eq!(s1.merged, s2.merged, "threads={threads}");
        }
    }

    #[test]
    fn parallel_run_matches_under_dropout() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.dropout_prob = 0.4;
        let mut s1 = CentroidStrategy::new(3, 6);
        let mut s2 = CentroidStrategy::new(3, 6);
        let seq = FdilRunner::new(cfg).threads(1).run(&ds, &mut s1);
        let par = FdilRunner::new(cfg).threads(4).run(&ds, &mut s2);
        assert_eq!(seq.final_global, par.final_global);
        assert_eq!(seq.traffic, par.traffic);
    }

    #[test]
    fn traffic_counts_encoded_frame_bytes() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let res = FdilRunner::new(tiny_config()).run(&ds, &mut strat);
        // Every participating client moves at least one ModelBroadcast down
        // and one ClientModelUpdate up, each a full header + 3*6 f32 model.
        let model_frame = WireMessage::ModelBroadcast(ModelBroadcast {
            task: 0,
            round: 0,
            model: vec![0.0; 18],
        })
        .encoded_len() as u64;
        assert!(res.traffic.down_bytes >= res.traffic.client_updates * model_frame);
        assert!(res.traffic.up_bytes > res.traffic.client_updates * model_frame);
    }

    #[test]
    fn train_once_applies_merge() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let global = strat.init_global();
        let samples = &ds.domains[0].train[..10];
        let setting = TrainSetting {
            client_id: 7,
            task: 0,
            round: 0,
            group: ClientGroup::New,
            samples,
            local_epochs: 1,
            batch_size: 16,
            seed: 42,
        };
        let update = strat.train_once(&setting, &global);
        assert_eq!(update.flat.len(), global.len());
        assert_eq!(strat.merged, vec![(0, 7, 10)]);
    }

    #[test]
    fn dropout_reduces_client_updates() {
        let ds = tiny_dataset();
        let mut s1 = CentroidStrategy::new(3, 6);
        let r_full = FdilRunner::new(tiny_config()).run(&ds, &mut s1);
        let mut s2 = CentroidStrategy::new(3, 6);
        let mut cfg = tiny_config();
        cfg.dropout_prob = 0.6;
        let r_drop = FdilRunner::new(cfg).run(&ds, &mut s2);
        assert!(
            r_drop.traffic.client_updates < r_full.traffic.client_updates,
            "dropout had no effect: {} vs {}",
            r_drop.traffic.client_updates,
            r_full.traffic.client_updates
        );
        // The protocol must survive rounds where every client drops.
        assert_eq!(r_drop.domain_acc.len(), ds.num_domains());
    }

    #[test]
    #[should_panic(expected = "invalid RunConfig")]
    fn run_rejects_invalid_config() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.batch_size = 0;
        let mut strat = CentroidStrategy::new(3, 6);
        let _ = FdilRunner::new(cfg).run(&ds, &mut strat);
    }

    #[test]
    fn metrics_derive_from_domain_matrix() {
        let res = RunResult {
            method: "m".into(),
            dataset: "d".into(),
            domain_names: vec!["a".into(), "b".into()],
            domain_acc: vec![vec![90.0], vec![60.0, 80.0]],
            traffic: TrafficStats::default(),
            group_timeline: vec![],
            final_global: vec![],
            telemetry: TelemetrySummary::default(),
            rounds: vec![],
        };
        let steps = res.step_accuracies();
        assert_eq!(steps, vec![90.0, 70.0]);
        assert!((res.avg_accuracy() - 80.0).abs() < 1e-5);
        assert!((res.last_accuracy() - 70.0).abs() < 1e-5);
        assert_eq!(res.final_domain_accuracies(), &[60.0, 80.0]);
    }

    #[test]
    fn round_reports_cover_every_round_with_phases_and_wire_bytes() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let telemetry = Telemetry::collecting();
        let res = FdilRunner::new(tiny_config())
            .telemetry(&telemetry)
            .threads(2)
            .run(&ds, &mut strat);
        assert_eq!(res.rounds.len() as u64, res.traffic.rounds);
        let mut trained = 0u64;
        for report in &res.rounds {
            trained += report.clients_trained;
            assert_eq!(report.sessions.len() as u64, report.clients_trained);
            assert!(report.wall_ns > 0);
            assert!(report.phases.train > 0);
            if report.clients_trained > 0 {
                assert!(report.wire_bytes.contains_key("model_broadcast"));
                assert!(report.wire_bytes.contains_key("client_model_update"));
                assert!(report.wire_bytes.contains_key("prompt_upload"));
                // Telemetry was enabled, so pool accounting must be present.
                let pool = report.train_pool.as_ref().expect("train pool stats");
                assert_eq!(pool.total_items(), report.clients_trained);
                assert!(pool.wall_ns > 0);
                // Sessions arrive in client-id order (slot order).
                let ids: Vec<u64> = report.sessions.iter().map(|s| s.client_id).collect();
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                assert_eq!(ids, sorted);
            }
        }
        assert_eq!(trained, res.traffic.client_updates);
        // Exactly the task-closing rounds carry eval results.
        let evals: Vec<&RoundReport> = res
            .rounds
            .iter()
            .filter(|r| r.eval_domain_acc.is_some())
            .collect();
        assert_eq!(evals.len(), ds.num_domains());
        for (t, report) in evals.iter().enumerate() {
            assert_eq!(report.eval_domain_acc.as_ref().unwrap().len(), t + 1);
            assert!(report.phases.eval > 0);
            assert!(report.eval_pool.is_some());
        }
        // Per-round wire bytes partition the run totals exactly.
        let per_round: u64 = res.rounds.iter().map(RoundReport::total_wire_bytes).sum();
        assert_eq!(per_round, res.traffic.total_bytes());
    }

    #[test]
    fn round_report_semantic_fields_match_across_thread_counts() {
        let ds = tiny_dataset();
        let mut s1 = CentroidStrategy::new(3, 6);
        let mut s4 = CentroidStrategy::new(3, 6);
        let r1 = FdilRunner::new(tiny_config()).threads(1).run(&ds, &mut s1);
        let r4 = FdilRunner::new(tiny_config()).threads(4).run(&ds, &mut s4);
        assert_eq!(r1.rounds.len(), r4.rounds.len());
        for (a, b) in r1.rounds.iter().zip(&r4.rounds) {
            assert_eq!(a.task, b.task);
            assert_eq!(a.round, b.round);
            assert_eq!(a.wire_bytes, b.wire_bytes);
            assert_eq!(a.clients_trained, b.clients_trained);
            assert_eq!(a.clients_dropped, b.clients_dropped);
            assert_eq!(a.eval_domain_acc, b.eval_domain_acc);
            let ids =
                |r: &RoundReport| -> Vec<u64> { r.sessions.iter().map(|s| s.client_id).collect() };
            assert_eq!(ids(a), ids(b));
        }
    }

    #[test]
    fn disabled_telemetry_still_reports_rounds_without_pools() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let res = FdilRunner::new(tiny_config()).run(&ds, &mut strat);
        assert!(!res.rounds.is_empty());
        for report in &res.rounds {
            assert!(report.train_pool.is_none());
            assert!(report.eval_pool.is_none());
        }
    }

    #[test]
    fn session_seeds_decorrelate() {
        let a = session_seed(1, 0, 0, 0);
        let b = session_seed(1, 0, 0, 1);
        let c = session_seed(1, 0, 1, 0);
        let d = session_seed(2, 0, 0, 0);
        assert!(a != b && a != c && a != d && b != c);
    }

    /// Spawns `n` in-process client threads that connect to `endpoint`,
    /// handshake, and run the replica loop to completion.
    fn spawn_clients(
        endpoint: &refil_wire::Endpoint,
        ds: &FdilDataset,
        cfg: RunConfig,
        n: usize,
        opts: crate::net::ClientOptions,
    ) -> Vec<std::thread::JoinHandle<crate::net::ClientReport>> {
        (0..n)
            .map(|i| {
                let ep = endpoint.clone();
                let ds = ds.clone();
                let opts = opts.clone();
                std::thread::spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    let link = refil_wire::connect(&ep, deadline).expect("connect failed");
                    let (pid, _spec, _token, compression) =
                        crate::net::client_handshake(&link, i as u64, None, deadline)
                            .expect("handshake failed");
                    let mut opts = opts;
                    opts.compression = compression;
                    let mut strat = CentroidStrategy::new(3, 6);
                    crate::net::run_client(
                        &link,
                        pid,
                        &ds,
                        &mut strat,
                        &cfg,
                        &opts,
                        &Telemetry::disabled(),
                    )
                    .expect("client failed")
                })
            })
            .collect()
    }

    #[test]
    fn serve_over_tcp_matches_in_process_run() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.net.min_peers = 2;
        let mut s_local = CentroidStrategy::new(3, 6);
        let local = FdilRunner::new(cfg).run(&ds, &mut s_local);

        let listener =
            refil_wire::NetListener::bind(&refil_wire::Endpoint::Tcp("127.0.0.1:0".into()))
                .expect("bind failed");
        let endpoint = listener.local_endpoint();
        let clients = spawn_clients(&endpoint, &ds, cfg, 2, crate::net::ClientOptions::default());
        let mut s_srv = CentroidStrategy::new(3, 6);
        let served = FdilRunner::new(cfg).serve(&ds, &mut s_srv, &listener, "tiny-spec");
        for c in clients {
            let report = c.join().expect("client thread panicked");
            assert_eq!(report.reason, 0, "client should end with COMPLETE");
            assert!(report.rounds > 0);
        }

        assert_eq!(local.final_global, served.final_global);
        assert_eq!(local.domain_acc, served.domain_acc);
        assert_eq!(local.traffic, served.traffic);
        assert_eq!(s_local.merged, s_srv.merged);
        assert!(served.rounds.iter().all(|r| r.clients_late == 0));
    }

    #[test]
    fn serve_reassigns_aborted_peers_sessions_mid_run() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.net.min_peers = 2;
        cfg.net.round_deadline_ms = 4000;
        cfg.net.join_grace_ms = 100;
        let mut s_local = CentroidStrategy::new(3, 6);
        let local = FdilRunner::new(cfg).run(&ds, &mut s_local);

        let listener =
            refil_wire::NetListener::bind(&refil_wire::Endpoint::Tcp("127.0.0.1:0".into()))
                .expect("bind failed");
        let endpoint = listener.local_endpoint();
        // One client aborts (drops the connection) after its second
        // RoundStart; the other stays for the whole run. The reactor
        // reassigns the aborted peer's slots to the survivor, so the run
        // completes with nothing late and byte-identical to the local run.
        let quitter = spawn_clients(
            &endpoint,
            &ds,
            cfg,
            1,
            crate::net::ClientOptions {
                abort_after_round_starts: Some(2),
                ..Default::default()
            },
        );
        let stayer = spawn_clients(&endpoint, &ds, cfg, 1, crate::net::ClientOptions::default());
        let mut s_srv = CentroidStrategy::new(3, 6);
        let served = FdilRunner::new(cfg).serve(&ds, &mut s_srv, &listener, "tiny-spec");
        for c in quitter.into_iter().chain(stayer) {
            c.join().expect("client thread panicked");
        }

        assert_eq!(served.traffic.rounds, 6);
        assert_eq!(served.domain_acc.len(), 2);
        let late: u64 = served.rounds.iter().map(|r| r.clients_late).sum();
        assert_eq!(late, 0, "orphaned sessions should be reassigned, not late");
        assert_eq!(local.final_global, served.final_global);
        assert_eq!(local.domain_acc, served.domain_acc);
        assert_eq!(local.traffic, served.traffic);
        assert_eq!(s_local.merged, s_srv.merged);
    }

    #[test]
    fn served_run_resumes_after_link_blip() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.net.min_peers = 2;
        cfg.net.round_deadline_ms = 4000;
        let mut s_local = CentroidStrategy::new(3, 6);
        let local = FdilRunner::new(cfg).run(&ds, &mut s_local);

        let listener =
            refil_wire::NetListener::bind(&refil_wire::Endpoint::Tcp("127.0.0.1:0".into()))
                .expect("bind failed");
        let endpoint = listener.local_endpoint();
        // One client deliberately drops its link after the second
        // RoundStart, then reconnects with its resume token; its replica
        // state survives the blip, the server replays only the missed
        // suffix, and the stranded slots are covered by the other peer.
        let ep = endpoint.clone();
        let ds2 = ds.clone();
        let blipper = std::thread::spawn(move || {
            let mut connect = || {
                refil_wire::connect(&ep, Instant::now() + Duration::from_secs(30))
                    .map(|l| Box::new(l) as Box<dyn refil_wire::Link>)
            };
            let mut strat = CentroidStrategy::new(3, 6);
            crate::net::run_client_resumable(
                &mut connect,
                7,
                &ds2,
                &mut strat,
                &cfg,
                &crate::net::ClientOptions {
                    drop_link_after_round_starts: Some(2),
                    max_reconnects: 1,
                    ..Default::default()
                },
                &Telemetry::disabled(),
            )
            .expect("resumable client failed")
        });
        let stayer = spawn_clients(&endpoint, &ds, cfg, 1, crate::net::ClientOptions::default());
        let mut s_srv = CentroidStrategy::new(3, 6);
        let served = FdilRunner::new(cfg).serve(&ds, &mut s_srv, &listener, "tiny-spec");
        let blip_report = blipper.join().expect("blipper thread panicked");
        for c in stayer {
            c.join().expect("client thread panicked");
        }

        assert_eq!(
            blip_report.resumes, 1,
            "the blip should resume exactly once"
        );
        assert_eq!(blip_report.reason, 0, "resumed client should see COMPLETE");
        let late: u64 = served.rounds.iter().map(|r| r.clients_late).sum();
        assert_eq!(late, 0, "blipped slots should be reassigned, not late");
        assert_eq!(local.final_global, served.final_global);
        assert_eq!(local.domain_acc, served.domain_acc);
        assert_eq!(local.traffic, served.traffic);
        assert_eq!(s_local.merged, s_srv.merged);
    }

    #[test]
    fn holdings_rebuild_both_concatenates_in_order() {
        let ds = tiny_dataset();
        let mut h = Holdings {
            old: ds.domains[0].train[..3].to_vec(),
            new: ds.domains[1].train[..2].to_vec(),
            both: Vec::new(),
        };
        h.rebuild_both();
        assert_eq!(h.both.len(), 5);
        assert_eq!(h.both[0].label, h.old[0].label);
        assert_eq!(h.both[3].label, h.new[0].label);
        let cap = h.both.capacity();
        h.rebuild_both();
        assert_eq!(h.both.capacity(), cap, "rebuild must reuse the buffer");
    }
}
