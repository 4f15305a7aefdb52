//! Concurrent sharded gateway: lock-free model snapshots, off-path
//! retraining, multi-core packet serving.
//!
//! [`GatewayShard`] is the one implementation of the packet, poll and
//! lifecycle path. The single-threaded
//! [`Middlebox`](crate::middlebox::Middlebox) is one shard whose poll
//! observations feed an inline learner that publishes synchronously;
//! [`ConcurrentGateway`] runs N shards and moves learning to a
//! background trainer so admission keeps scaling with cores while the
//! SVM trains. Both learners share one observe-and-publish step.
//!
//! ```text
//!            packets (flow-hashed)                 observations
//!   ┌──────┐  ┌───────────────┐   try_send (bounded)  ┌─────────────┐
//!   │ NIC  │─▶│ GatewayShard 0│──────────────────────▶│             │
//!   │ RSS  │─▶│ GatewayShard 1│──────────────────────▶│   trainer   │
//!   │      │─▶│      ...      │──────────────────────▶│   thread    │
//!   └──────┘  └───────┬───────┘                       └──────┬──────┘
//!                     │ pin (never blocks)                   │ publish
//!                     ▼                                      ▼
//!              ┌─────────────────────────────────────────────────┐
//!              │ SnapshotCell<ModelSnapshot>  (epoch-stamped RCU)│
//!              └─────────────────────────────────────────────────┘
//! ```
//!
//! - **Sharding.** [`ConcurrentGateway`] partitions flow state across
//!   `N` [`GatewayShard`]s by flow hash ([`ConcurrentGateway::shard_for`]).
//!   Each shard owns its flow table, early classifier, QoS meters,
//!   rejected set, decision cache and metrics registry — the packet
//!   path takes no cross-shard lock and bounces no shared cache line.
//! - **Snapshots.** Learnt state (scaler + compacted model + phase)
//!   is published as an immutable epoch-stamped
//!   [`ModelSnapshot`] behind a [`SnapshotCell`]: readers pin
//!   lock-free, the writer swaps atomically and retires the old
//!   snapshot only after every in-flight reader moved on (quiescent-
//!   state reclamation — see [`snapshot`]).
//! - **Off-path training.** Observations travel a *bounded* MPSC
//!   channel to one background trainer thread that owns the full
//!   [`AdmittanceClassifier`]; retrains, checkpoints and recovery
//!   never run on the packet path. Backpressure drops observations
//!   (counted as `gateway.obs_dropped`) rather than stalling packets.
//!
//! - **Data plane.** [`ConcurrentGateway::start_pipeline`] turns the
//!   shards into a run-to-completion multi-core pipeline: per-shard
//!   lock-free SPSC ingress rings fed by a flow-hashing dispatcher,
//!   verdicts merged back into one globally-ordered stream that is
//!   byte-identical to sequential driving (see [`pipeline`]). The
//!   worker threads (lanes) and their rings, gate and merge buffers
//!   are built once per gateway; lanes park between packet phases and
//!   the rest is re-armed per phase.
//!
//! Shard count comes from [`GatewayConfig::shards`] or the
//! `EXBOX_SHARDS` environment knob ([`GatewayConfig::from_env`]). A
//! 1-shard gateway makes the same per-flow verdicts as the
//! single-threaded middlebox on the same trace, and a guarded
//! classifier's verdicts are served unchanged through the snapshot
//! (both asserted in `tests/gateway_concurrent.rs`).

pub(crate) mod channel;
mod lane;
pub mod pipeline;
pub mod shard;
pub mod snapshot;
pub(crate) mod spsc;
mod trainer;

#[cfg(all(test, exbox_loom))]
mod loom_models;

use std::io;
use std::path::Path;
use std::sync::{mpsc, Arc};

use crate::sync::{AtomicBool, Ordering};

use exbox_ml::Label;
use exbox_net::{FlowKey, Instant, Packet};
use exbox_obs::{MetricsRegistry, MetricsSnapshot};

use crate::admittance::{AdmittanceClassifier, AdmittanceConfig};
use crate::matrix::{SnrLevel, TrafficMatrix};
use crate::middlebox::{Action, MiddleboxConfig, PollVerdict};
use crate::persist;
use crate::qoe::QoeEstimator;
use crate::recovery::FaultPlan;

pub use pipeline::PipelineHandle;
pub use shard::{GatewayShard, SharedMatrix};
pub use snapshot::{ModelSnapshot, SnapshotCell, SnapshotGuard, SnapshotReader};

pub(crate) use shard::Outlet;
pub(crate) use trainer::Publisher;
use trainer::{TrainerHandle, TrainerMetrics, TrainerMsg};

/// The gateway's stable flow-routing function: the shard owning `key`
/// out of `shards` lanes.
///
/// **Stable-routing contract.** Routing is a pure function of the flow
/// key and the shard count — `hash_flow_key(key) % shards`, the same
/// FxHash used by the flow table's index — with no per-process seed,
/// so a given flow maps to the same shard across runs, processes and
/// driving styles (sequential, `take_shards`, pipeline). Tests pin
/// concrete assignments (`tests/gateway_concurrent.rs`); changing this
/// function redistributes flow state and is a breaking change to any
/// deployment that persists per-shard artifacts.
#[inline]
pub(crate) fn route(key: &FlowKey, shards: usize) -> usize {
    (crate::flowtable::hash_flow_key(key) % shards as u64) as usize
}

/// Environment knob selecting the shard count (positive integer).
pub const SHARDS_ENV: &str = "EXBOX_SHARDS";

/// Environment knob selecting the ingress batch size (positive
/// integer): how many packets each shard's ingress ring holds before
/// a flush, and the chunk size of the batched drivers.
pub const BATCH_ENV: &str = "EXBOX_BATCH";

/// Gateway assembly knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Number of serving shards (≥ 1). Each shard is independently
    /// drivable by one worker thread.
    pub shards: usize,
    /// Per-shard middlebox knobs (classify window, poll interval,
    /// rejected-set capacity, fallback cap, …).
    pub middlebox: MiddleboxConfig,
    /// Bound of the shard → trainer observation queue. A full queue
    /// drops observations (`gateway.obs_dropped`) instead of blocking.
    pub obs_queue: usize,
    /// Capacity of each shard's epoch-keyed decision cache; 0 disables
    /// caching.
    pub decision_cache_size: usize,
    /// Ingress batch size (≥ 1) of the pipeline: packets per ring
    /// publication by the dispatcher and per worker batch through
    /// [`GatewayShard::process_packets`]'s gated twin.
    pub batch: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shards: 1,
            middlebox: MiddleboxConfig::default(),
            obs_queue: 256,
            decision_cache_size: 4096,
            batch: 64,
        }
    }
}

impl GatewayConfig {
    /// Defaults, with the shard count overridden by `EXBOX_SHARDS` and
    /// the ingress batch size by `EXBOX_BATCH`, each when set to a
    /// positive integer; anything else warns and keeps the default
    /// ([`exbox_par::parse_env_knob`]).
    pub fn from_env() -> Self {
        let knob = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|raw| exbox_par::parse_env_knob::<usize>(name, &raw, |n| *n >= 1))
                .unwrap_or(default)
        };
        let defaults = Self::default();
        GatewayConfig {
            shards: knob(SHARDS_ENV, defaults.shards),
            batch: knob(BATCH_ENV, defaults.batch),
            ..defaults
        }
    }
}

/// The sharded serving layer plus its background trainer.
///
/// Three driving styles:
///
/// - **Pipeline** (multi-core deployments): call
///   [`start_pipeline`](Self::start_pipeline) to hand every shard to
///   its lane — one worker thread per shard, spawned on the first
///   start and parked between phases — behind a lock-free SPSC
///   ingress ring, and drive the returned [`PipelineHandle`]: ordered
///   verdicts, built-in backpressure, byte-identical to sequential
///   driving. [`finish_pipeline`](Self::finish_pipeline) takes the
///   shards back and parks the lanes again.
/// - **Sequential** (tests, traces, single-core deployments): call
///   [`process_packet`](Self::process_packet) /
///   [`poll`](Self::poll) / [`flow_departed`](Self::flow_departed) on
///   the gateway itself; packets are routed to their owner shard
///   in-line. Deterministic — replaying a trace yields the same
///   verdict multiset for any shard count.
/// - **Concurrent** (benchmarks, real deployments): move the shards
///   out with [`take_shards`](Self::take_shards) and drive each from
///   its own thread (a shard is `Send`, methods take `&mut self`).
///   The gateway keeps the registries, snapshot cell and trainer, so
///   [`merged_metrics`](Self::merged_metrics), checkpointing and
///   shutdown still work while the shards are out.
#[derive(Debug)]
pub struct ConcurrentGateway {
    cfg: GatewayConfig,
    shards: Vec<GatewayShard>,
    shard_registries: Vec<MetricsRegistry>,
    trainer_registry: MetricsRegistry,
    /// `pipeline.*` / `gateway.ring_*` counters; cumulative across
    /// every pipeline started on this gateway.
    pipeline_registry: MetricsRegistry,
    shared: Arc<SharedMatrix>,
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    control: SnapshotReader<ModelSnapshot>,
    recovering: Arc<AtomicBool>,
    obs_tx: channel::BoundedSender<TrainerMsg>,
    trainer: Option<TrainerHandle>,
    /// The pipeline — parked lanes, rings, gate, merge buffers — built
    /// by the first `start_pipeline` and re-armed by every later one.
    /// `None` before that, after `shutdown`, and while a handle is out.
    pipeline: Option<PipelineHandle>,
    /// Lane armed by [`inject_lane_panic`](Self::inject_lane_panic)
    /// for the next packet phase.
    inject_panic: Option<usize>,
    /// Per-batch shard-index scratch for the sequential batched driver
    /// (one `route` per packet, reused across calls).
    route_scratch: Vec<u32>,
}

impl Drop for ConcurrentGateway {
    fn drop(&mut self) {
        // Stop the parked lanes, then join the trainer, before any
        // field drops: field drop order would tear down the
        // shard/trainer registries, shared matrix and snapshot readers
        // while a retrain could still be in flight, so a publish (and
        // its metrics updates) could land mid-teardown and be lost
        // without trace. Shutting down here guarantees the trainer
        // drained its queue (counting leftovers in
        // `trainer.dropped_results`) before anything else goes away.
        let _ = self.shutdown();
    }
}

impl ConcurrentGateway {
    /// Assemble a gateway around a (fresh or pre-trained) classifier
    /// and spawn its background trainer. The classifier's current
    /// serving state becomes the initial published snapshot (epoch 0);
    /// fault injection follows `EXBOX_FAULTS`.
    pub fn new(
        cfg: GatewayConfig,
        estimator: QoeEstimator,
        classifier: AdmittanceClassifier,
    ) -> Self {
        Self::build(cfg, estimator, Some(classifier), None, false)
    }

    /// Like [`ConcurrentGateway::new`] with an explicit fault plan
    /// (shared by the trainer's classifier and every shard's poll
    /// path) instead of reading `EXBOX_FAULTS`.
    pub fn with_fault_plan(
        cfg: GatewayConfig,
        estimator: QoeEstimator,
        classifier: AdmittanceClassifier,
        faults: FaultPlan,
    ) -> Self {
        Self::build(cfg, estimator, Some(classifier), Some(faults), false)
    }

    /// Assemble a gateway that only serves: `snapshot` is published
    /// once and never replaced, no trainer thread is spawned, and
    /// shard observations are discarded. This is the configuration
    /// for deterministic replay (shard-count invariance tests) and
    /// for throughput benchmarks that must not retrain mid-run.
    pub fn serving_only(
        cfg: GatewayConfig,
        estimator: QoeEstimator,
        snapshot: ModelSnapshot,
    ) -> Self {
        let gw = Self::build(cfg, estimator, None, None, false);
        // `build` published ModelSnapshot::initial(); replace it with
        // the caller's snapshot so readers see exactly one state.
        gw.cell.publish(snapshot);
        gw
    }

    /// Restore a gateway from a checkpoint file, degrading instead of
    /// dying (the concurrent analogue of
    /// [`Middlebox::recover_from_path`](crate::middlebox::Middlebox::recover_from_path)):
    /// on any restore error a fresh gateway is assembled around
    /// `fallback_estimator` with [`is_recovering`](Self::is_recovering)
    /// set, so the occupancy fallback gates admissions on every shard
    /// until the background trainer re-learns a model and publishes
    /// it. The error, if any, is returned alongside for logging.
    pub fn recover_from_path<P: AsRef<Path>>(
        cfg: GatewayConfig,
        acfg: AdmittanceConfig,
        fallback_estimator: QoeEstimator,
        path: P,
        registry: &MetricsRegistry,
    ) -> (Self, Option<io::Error>) {
        let faults = FaultPlan::from_env(registry);
        match persist::load_checkpoint_from_path(path.as_ref(), acfg.clone(), registry, &faults) {
            Ok((classifier, estimator)) => {
                registry.counter("recovery.restores").inc();
                let gw = Self::build(cfg, estimator, Some(classifier), Some(faults), false);
                (gw, None)
            }
            Err(err) => {
                let fresh = AdmittanceClassifier::with_registry(acfg, registry);
                let gw = Self::build(cfg, fallback_estimator, Some(fresh), Some(faults), true);
                (gw, Some(err))
            }
        }
    }

    fn build(
        mut cfg: GatewayConfig,
        estimator: QoeEstimator,
        classifier: Option<AdmittanceClassifier>,
        faults: Option<FaultPlan>,
        recovering_now: bool,
    ) -> Self {
        cfg.shards = cfg.shards.max(1);
        let initial = match &classifier {
            Some(classifier) => ModelSnapshot::from_classifier(0, classifier),
            None => ModelSnapshot::initial(),
        };
        let cell = SnapshotCell::new(initial);
        let control = cell.reader();
        let shared = Arc::new(SharedMatrix::new());
        let recovering = Arc::new(AtomicBool::new(recovering_now));
        let (obs_tx, obs_rx) = channel::bounded(cfg.obs_queue.max(1));

        let trainer_registry = MetricsRegistry::new();
        let trainer = classifier.map(|mut classifier| {
            let plan = faults
                .clone()
                .unwrap_or_else(|| FaultPlan::from_env(&trainer_registry));
            classifier.set_fault_plan(plan);
            TrainerHandle::spawn(
                classifier,
                estimator.clone(),
                Publisher::new(
                    Arc::clone(&cell),
                    Arc::clone(&recovering),
                    &trainer_registry,
                ),
                TrainerMetrics {
                    checkpoint_writes: trainer_registry.counter("recovery.checkpoint_writes"),
                    dropped_results: trainer_registry.counter("trainer.dropped_results"),
                },
                obs_rx,
                obs_tx.clone(),
            )
        });
        // Serving-only: the closure above never ran, so `obs_rx` was
        // dropped with it and shard observations hit a disconnected
        // channel (discarded by design).

        let mut shard_registries = Vec::with_capacity(cfg.shards);
        let mut shards = Vec::with_capacity(cfg.shards);
        for id in 0..cfg.shards {
            let reg = MetricsRegistry::new();
            let plan = faults.clone().unwrap_or_else(|| FaultPlan::from_env(&reg));
            shards.push(GatewayShard::new(
                id,
                cfg.middlebox.clone(),
                estimator.clone(),
                Arc::clone(&shared),
                cell.reader(),
                Outlet::Queued(obs_tx.clone()),
                Arc::clone(&recovering),
                plan,
                cfg.decision_cache_size,
                &reg,
            ));
            shard_registries.push(reg);
        }

        ConcurrentGateway {
            cfg,
            shards,
            shard_registries,
            trainer_registry,
            pipeline_registry: MetricsRegistry::new(),
            shared,
            cell,
            control,
            recovering,
            obs_tx,
            trainer,
            pipeline: None,
            inject_panic: None,
            route_scratch: Vec::new(),
        }
    }

    /// Number of serving shards.
    pub fn shard_count(&self) -> usize {
        self.cfg.shards
    }

    /// The shard index owning `key`'s flow state; every packet, QoS
    /// report and departure for one flow must reach this shard.
    ///
    /// Routing is the seedless FxHash already computed for the flow
    /// table's index ([`crate::flowtable::hash_flow_key`]) — one
    /// multiply-xor mix instead of the SipHash rounds `DefaultHasher`
    /// used to spend per packet — and follows the stable-routing
    /// contract documented on `route`: deterministic across runs,
    /// processes and driving styles for a given shard count.
    pub fn shard_for(&self, key: &FlowKey) -> usize {
        route(key, self.cfg.shards)
    }

    /// Move the shards out for concurrent driving (one thread each).
    /// The sequential drivers panic afterwards; everything else on the
    /// gateway — metrics, checkpointing, shutdown — keeps working.
    pub fn take_shards(&mut self) -> Vec<GatewayShard> {
        std::mem::take(&mut self.shards)
    }

    /// Start the multi-core data plane ([`pipeline`]): every shard is
    /// handed to its lane, a worker thread draining a bounded SPSC
    /// ingress ring, and the returned [`PipelineHandle`] becomes the
    /// dispatcher — [`ingest`](PipelineHandle::ingest) routes packets
    /// by flow hash, [`drain_verdicts`](PipelineHandle::drain_verdicts)
    /// returns the globally-ordered verdict stream (byte-identical to
    /// sequential driving, DESIGN.md §10). The first start spawns one
    /// lane per shard (`pipeline.lane_spawns`) and builds the rings,
    /// gate and merge buffers; later starts re-arm those parts, without
    /// allocating, and wake the lanes parked by the previous
    /// [`finish_pipeline`](Self::finish_pipeline). The sequential
    /// drivers panic while the pipeline runs; retire it with
    /// `finish_pipeline` to get them back.
    pub fn start_pipeline(&mut self) -> PipelineHandle {
        assert!(
            !self.shards.is_empty(),
            "gateway shards were taken; return them before starting a pipeline"
        );
        let mut pipe = match self.pipeline.take() {
            Some(pipe) => pipe,
            None => PipelineHandle::new(self.shards.len(), self.cfg.batch, &self.pipeline_registry),
        };
        pipe.start(&mut self.shards, self.inject_panic.take());
        pipe
    }

    /// Drain and retire a pipeline started by
    /// [`start_pipeline`](Self::start_pipeline): blocks until every
    /// in-flight packet's verdict is merged, closes the ingress rings,
    /// takes every shard back from its lane and keeps the handle —
    /// parked lanes, rings, gate, buffers — on the gateway until the
    /// next start (the lanes block, they do not spin). Collecting a
    /// shard spins briefly on the lane's phase tag before it blocks
    /// (`pipeline.collect_blocks` counts the blocks). The shards return
    /// for sequential driving, and the tail of the ordered verdict
    /// stream is returned.
    ///
    /// # Panics
    ///
    /// If a lane panicked during the phase, with a message naming the
    /// lane. That lane's shard state is lost and the gateway has no
    /// shards left to drive; the lanes are stopped and joined.
    pub fn finish_pipeline(&mut self, mut handle: PipelineHandle) -> Vec<Action> {
        let tail = handle.finish(&mut self.shards);
        self.pipeline = Some(handle);
        tail
    }

    /// Fault hook for tests: the next packet phase's lane `lane`
    /// panics as it starts, exercising the pipeline's panic
    /// containment. Checked once per phase, never per packet, and
    /// independent of `EXBOX_FAULTS`.
    #[doc(hidden)]
    pub fn inject_lane_panic(&mut self, lane: usize) {
        self.inject_panic = Some(lane);
    }

    fn shard_mut(&mut self, idx: usize) -> &mut GatewayShard {
        assert!(
            !self.shards.is_empty(),
            "gateway shards were taken; drive them directly"
        );
        &mut self.shards[idx]
    }

    /// Sequential driver: route one packet to its owner shard.
    pub fn process_packet(&mut self, pkt: &Packet, snr: SnrLevel) -> Action {
        let idx = self.shard_for(&pkt.flow);
        self.shard_mut(idx).process_packet(pkt, snr)
    }

    /// Sequential batched driver: route a packet stream to its owner
    /// shards in maximal consecutive same-shard runs, preserving
    /// global arrival order. Verdict-identical to calling
    /// [`process_packet`](Self::process_packet) per element — runs
    /// never reorder packets, so the shared matrix and every shard's
    /// flow state evolve exactly as under per-packet driving, while
    /// each run amortises the snapshot pin and counter updates via
    /// [`GatewayShard::process_packets`].
    pub fn process_packets(&mut self, pkts: &[(Packet, SnrLevel)]) -> Vec<Action> {
        assert!(
            !self.shards.is_empty(),
            "gateway shards were taken; drive them directly"
        );
        // One routing hash per packet: the run scan used to call
        // `shard_for` twice per packet (once in the inner scan, again
        // when the next outer iteration re-hashed the run boundary).
        let shards = self.cfg.shards;
        self.route_scratch.clear();
        self.route_scratch
            .extend(pkts.iter().map(|(pkt, _)| route(&pkt.flow, shards) as u32));
        let mut out = Vec::with_capacity(pkts.len());
        let mut i = 0;
        while i < pkts.len() {
            let idx = self.route_scratch[i];
            let mut j = i + 1;
            while j < pkts.len() && self.route_scratch[j] == idx {
                j += 1;
            }
            out.extend(self.shards[idx as usize].process_packets(&pkts[i..j]));
            i = j;
        }
        out
    }

    /// Sequential driver: poll every shard (shard order), concatenating
    /// the verdicts.
    pub fn poll(&mut self, now: Instant) -> Vec<(FlowKey, PollVerdict)> {
        let mut verdicts = Vec::new();
        self.poll_into(now, &mut verdicts);
        verdicts
    }

    /// Allocation-free twin of [`poll`](Self::poll): verdicts are
    /// appended to the caller's buffer (shard order), each shard
    /// filling it directly via [`GatewayShard::poll_into`] — no
    /// per-shard intermediate vectors, no per-poll allocation once the
    /// buffer warmed up (`gateway.poll_buf_grows` stays flat).
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<(FlowKey, PollVerdict)>) {
        assert!(
            !self.shards.is_empty(),
            "gateway shards were taken; drive them directly"
        );
        for shard in &mut self.shards {
            shard.poll_into(now, out);
        }
    }

    /// Sequential driver: record a delivery report for an admitted flow.
    pub fn record_delivery(&mut self, key: &FlowKey, sent: Instant, received: Instant, size: u32) {
        let idx = self.shard_for(key);
        self.shard_mut(idx)
            .record_delivery(key, sent, received, size);
    }

    /// Sequential driver: record a drop report for an admitted flow.
    pub fn record_drop(&mut self, key: &FlowKey) {
        let idx = self.shard_for(key);
        self.shard_mut(idx).record_drop(key);
    }

    /// Sequential driver: a flow ended — release its admission.
    pub fn flow_departed(&mut self, key: &FlowKey) {
        let idx = self.shard_for(key);
        self.shard_mut(idx).flow_departed(key);
    }

    /// Flows currently admitted across all (non-taken) shards.
    pub fn admitted_flows(&self) -> usize {
        self.shards.iter().map(GatewayShard::admitted_flows).sum()
    }

    /// Point-in-time copy of the cell-wide traffic matrix.
    pub fn matrix(&self) -> TrafficMatrix {
        self.shared.snapshot()
    }

    /// The shared occupancy cell (for tests asserting global state
    /// while shards are driven on other threads).
    pub fn shared_matrix(&self) -> Arc<SharedMatrix> {
        Arc::clone(&self.shared)
    }

    /// Epoch of the currently published snapshot.
    pub fn snapshot_epoch(&mut self) -> u64 {
        self.control.pin().epoch()
    }

    /// Number of snapshots published since construction (including the
    /// initial one published by the constructor).
    pub fn publish_count(&self) -> u64 {
        self.cell.publish_count()
    }

    /// An extra reader handle onto the snapshot cell (for tests that
    /// watch publishes from other threads).
    pub fn snapshot_reader(&self) -> SnapshotReader<ModelSnapshot> {
        self.cell.reader()
    }

    /// The snapshot cell itself, for tests that publish replacement
    /// models onto a [`serving_only`](Self::serving_only) gateway —
    /// e.g. the batched-ingest property suite, which forces snapshot
    /// publication between (and during) batches and asserts verdicts
    /// stay identical to per-packet driving.
    pub fn snapshot_cell(&self) -> Arc<SnapshotCell<ModelSnapshot>> {
        Arc::clone(&self.cell)
    }

    /// True while admissions are served by the occupancy fallback
    /// ([`ModelSnapshot::is_degraded`] on the published snapshot).
    pub fn is_degraded(&mut self) -> bool {
        let recovering = self.recovering.load(Ordering::SeqCst);
        self.control.pin().is_degraded(recovering)
    }

    /// True while the gateway is recovering from a failed restore and
    /// no re-learnt model has been published yet.
    pub fn is_recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }

    /// Feed one observation straight to the background trainer
    /// (blocking; tests and offline trace feeds). Returns `false` when
    /// the gateway is serving-only or the trainer exited.
    pub fn inject_observation(&self, matrix: TrafficMatrix, label: Label) -> bool {
        self.obs_tx
            .send(TrainerMsg::Observe { matrix, label })
            .is_ok()
    }

    /// Wait until the trainer processed every message sent before this
    /// call. Returns `false` when there is no trainer.
    pub fn flush_trainer(&self) -> bool {
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.obs_tx.send(TrainerMsg::Flush { ack: ack_tx }).is_err() {
            return false;
        }
        ack_rx.recv().is_ok()
    }

    /// Checkpoint the learnt state through the trainer queue — the
    /// write happens on the trainer thread, after every observation
    /// queued before this call, and never stalls a shard.
    pub fn checkpoint_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.obs_tx
            .send(TrainerMsg::Checkpoint {
                path: path.as_ref().to_path_buf(),
                ack: ack_tx,
            })
            .map_err(|_| {
                io::Error::new(
                    io::ErrorKind::Unsupported,
                    "serving-only gateway has no trainer to checkpoint",
                )
            })?;
        ack_rx.recv().map_err(|_| {
            io::Error::new(
                io::ErrorKind::BrokenPipe,
                "trainer exited before acknowledging the checkpoint",
            )
        })?
    }

    /// Per-shard metrics registries, indexed by shard id.
    pub fn shard_registries(&self) -> &[MetricsRegistry] {
        &self.shard_registries
    }

    /// The trainer thread's registry (`recovery.checkpoint_writes`,
    /// plus fault-plan counters when the plan was bound here).
    pub fn trainer_registry(&self) -> &MetricsRegistry {
        &self.trainer_registry
    }

    /// The pipeline registry (`pipeline.*`, `gateway.ring_*`);
    /// counters accumulate across every pipeline started on this
    /// gateway.
    pub fn pipeline_registry(&self) -> &MetricsRegistry {
        &self.pipeline_registry
    }

    /// One coherent metrics view across every shard and the trainer:
    /// counters summed, gauges maxed, histograms merged bucket-wise
    /// (see [`MetricsSnapshot::merged`]). Counter names match the
    /// single-threaded middlebox, so existing dashboards read a
    /// gateway exactly like a middlebox.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut parts: Vec<MetricsSnapshot> = self
            .shard_registries
            .iter()
            .map(MetricsRegistry::snapshot)
            .collect();
        parts.push(self.trainer_registry.snapshot());
        parts.push(self.pipeline_registry.snapshot());
        MetricsSnapshot::merged(&parts)
    }

    /// Stop and join the parked pipeline lanes, then stop the
    /// background trainer and take back the classifier (for
    /// inspection or a final synchronous checkpoint). `None` for a
    /// serving-only gateway. Shards keep serving the last published
    /// snapshot after shutdown; a later `start_pipeline` spawns fresh
    /// lanes.
    pub fn shutdown(&mut self) -> Option<AdmittanceClassifier> {
        // Parked lanes hold no shard, so nothing they own can still
        // reach the trainer; lanes lent to a live handle are joined
        // when that handle is dropped.
        self.pipeline = None;
        self.trainer.take().map(TrainerHandle::shutdown)
    }
}
