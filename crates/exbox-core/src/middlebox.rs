//! The ExBox middlebox: the packet-facing assembly (paper Fig. 5).
//!
//! Wires the substrates into the gateway-resident pipeline:
//!
//! 1. packets of admitted flows forward on a flow-table hit; the
//!    first packets of a new flow run through early traffic
//!    classification (§4.2: "a flow needs to be admitted briefly
//!    before any admission control decision is made"),
//! 2. once classified, the flow's `(class, SNR-level)` forms the
//!    arrival tuple and the Admittance Classifier decides,
//! 3. admitted flows are QoS-metered; periodic polls estimate QoE via
//!    the fitted IQX models, feed `(X, Y)` observations back into the
//!    classifier, and re-evaluate admitted flows whose circumstances
//!    changed (§4.3 — mobility, app adaptation).
//!
//! ## Crash safety and degraded mode
//!
//! [`Middlebox::checkpoint`] snapshots the learnt state (classifier +
//! QoE fits) into the `exbox-ckpt` format; [`Middlebox::restore`]
//! resumes from it without re-entering bootstrap. When no model is
//! servable — a checkpoint failed to restore, or retraining keeps
//! failing — the middlebox degrades to the occupancy baseline
//! ([`MaxClient`]) instead of blindly admitting or rejecting, counted
//! by `recovery.fallback_decisions`. Fault injection for all of this
//! lives in [`crate::recovery`] (`EXBOX_FAULTS`).
//!
//! ## Relation to the concurrent gateway
//!
//! [`Middlebox`] is the single-threaded assembly: one flow table, one
//! in-line Admittance Classifier, `&mut self` everywhere. The
//! multi-core serving layer in [`crate::gateway`] is the same pipeline
//! re-partitioned — a `Middlebox` behaves exactly like a
//! [`crate::gateway::ConcurrentGateway`] with **one shard whose
//! trainer runs inline**:
//!
//! | `Middlebox`                         | `ConcurrentGateway`                          |
//! |-------------------------------------|----------------------------------------------|
//! | `matrix: TrafficMatrix` field       | shared atomic occupancy cell (`SharedMatrix`) |
//! | `admittance.decide(&resulting)`     | `ModelSnapshot::decide` via the lock-free snapshot cell |
//! | `admittance.observe(..)` during poll| observation batch over the bounded MPSC channel to the background trainer |
//! | `checkpoint()` on the caller thread | checkpoint request executed by the trainer, off the packet path |
//! | flow table / rejected set / decision cache | one instance of each **per shard** (flow-hash partitioned) |
//!
//! The single-threaded API is *not* deprecated: benches, the DES
//! simulator and the figure pipeline keep using it, and its verdicts
//! match a 1-shard gateway decision-for-decision (asserted in
//! `tests/gateway_concurrent.rs`).

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use exbox_ml::Label;
use exbox_net::{AppClass, Duration, EarlyClassifier, FlowKey, Instant, Packet, QosMeter};
use exbox_obs::{buckets, Counter, EventRing, Gauge, Histogram, MetricsRegistry};
use exbox_par::ThreadPool;

use crate::admittance::{AdmittanceClassifier, AdmittanceConfig, Phase};
use crate::baselines::{AdmissionController, FlowRequest, MaxClient};
use crate::flowtable::{FlowMap, FlowSlot, RejectedRing, TimerWheel};
use crate::matrix::{FlowKind, SnrLevel, TrafficMatrix};
use crate::persist;
use crate::qoe::QoeEstimator;
use crate::recovery::{FaultKind, FaultPlan};

/// What the datapath should do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Forward normally.
    Forward,
    /// Drop: the flow was rejected by admission control.
    Drop,
}

/// Outcome of a periodic poll for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollVerdict {
    /// Flow keeps its admission.
    Keep,
    /// Flow should be discontinued or offloaded (§4.3).
    Revoke,
}

/// What happened to a flow in a [`DecisionEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Flow admitted at arrival.
    Admit,
    /// Flow rejected at arrival.
    Reject,
    /// Admission revoked by a later poll (§4.3).
    Revoke,
}

/// Why the middlebox decided the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Classifier still bootstrapping: every arrival is admitted.
    Bootstrap,
    /// The resulting matrix scored inside the learnt ExCR.
    InsideRegion,
    /// The resulting matrix scored outside the learnt ExCR.
    OutsideRegion,
    /// A poll re-evaluated the standing matrix against a re-learnt
    /// region and found it inadmissible.
    RegionReevaluation,
    /// No model was servable (failed restore or repeated retrain
    /// failures): the occupancy baseline decided instead.
    DegradedFallback,
}

/// One structured admission-control decision, kept in the middlebox's
/// bounded audit ring so rejections and revocations are explainable
/// after the fact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionEvent {
    /// When the decision was taken (packet timestamp or poll time).
    pub at: Instant,
    /// The flow decided on.
    pub flow: FlowKey,
    /// Its classified application class.
    pub class: AppClass,
    /// Its SNR level at decision time.
    pub snr: SnrLevel,
    /// Admit / reject / revoke.
    pub verdict: DecisionKind,
    /// Signed classifier score of the matrix the decision was about
    /// (positive ⇒ inside the region); `None` before the first model.
    pub margin: Option<f64>,
    /// The rule that produced the verdict.
    pub reason: DecisionReason,
}

impl fmt::Display for DecisionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {} ({}, {:?} SNR) at {:?}: {:?}",
            self.verdict, self.flow, self.class, self.snr, self.at, self.reason
        )?;
        match self.margin {
            Some(m) => write!(f, " margin={m:.4}"),
            None => write!(f, " margin=n/a"),
        }
    }
}

/// Instrumentation handles for the middlebox hot paths. Counter pairs
/// are exact: `admits`/`rejects` tally arrival decisions one-to-one
/// with the returned [`Action`]s; `revokes` tallies the
/// [`PollVerdict::Revoke`]s a poll returns, and `keeps` counts every
/// flow a poll left admitted (kept flows are counted in bulk, not
/// returned — see [`Middlebox::poll`]).
#[derive(Debug)]
struct MiddleboxMetrics {
    /// `middlebox.packets` — packets seen by [`Middlebox::process_packet`].
    packets: Arc<Counter>,
    /// `middlebox.admits` — arrival decisions that admitted the flow.
    admits: Arc<Counter>,
    /// `middlebox.rejects` — arrival decisions that rejected the flow.
    rejects: Arc<Counter>,
    /// `middlebox.drops_rejected` — packets dropped because their flow
    /// was already rejected.
    drops_rejected: Arc<Counter>,
    /// `middlebox.keeps` — poll verdicts keeping a flow.
    keeps: Arc<Counter>,
    /// `middlebox.revokes` — poll verdicts revoking a flow.
    revokes: Arc<Counter>,
    /// `middlebox.departures` — admitted flows that ended.
    departures: Arc<Counter>,
    /// `middlebox.polls` — polls that actually ran (interval elapsed).
    polls: Arc<Counter>,
    /// `middlebox.rejected_evictions` — rejected-flow records evicted
    /// because the bounded rejected set hit its capacity.
    rejected_evictions: Arc<Counter>,
    /// `middlebox.rejected_occupancy` — live records in the bounded
    /// rejected set (capacity pressure made visible).
    rejected_occupancy: Arc<Gauge>,
    /// `recovery.fallback_decisions` — arrival decisions served by the
    /// occupancy baseline because no model was available.
    fallback_decisions: Arc<Counter>,
    /// `recovery.poll_errors` — polls whose QoE-estimation pass failed
    /// (injected or real); the observation feed is skipped.
    poll_errors: Arc<Counter>,
    /// `recovery.checkpoint_writes` — checkpoints written successfully.
    checkpoint_writes: Arc<Counter>,
    /// `recovery.restores` — middleboxes restored from a checkpoint.
    restores: Arc<Counter>,
    /// `middlebox.decision_latency_ns` — time to decide one arrival.
    decision_latency_ns: Arc<Histogram>,
    /// `middlebox.poll_latency_ns` — time per executed poll.
    poll_latency_ns: Arc<Histogram>,
}

impl MiddleboxMetrics {
    fn bind(reg: &MetricsRegistry) -> Self {
        MiddleboxMetrics {
            packets: reg.counter("middlebox.packets"),
            admits: reg.counter("middlebox.admits"),
            rejects: reg.counter("middlebox.rejects"),
            drops_rejected: reg.counter("middlebox.drops_rejected"),
            keeps: reg.counter("middlebox.keeps"),
            revokes: reg.counter("middlebox.revokes"),
            departures: reg.counter("middlebox.departures"),
            polls: reg.counter("middlebox.polls"),
            rejected_evictions: reg.counter("middlebox.rejected_evictions"),
            rejected_occupancy: reg.gauge("middlebox.rejected_occupancy"),
            fallback_decisions: reg.counter("recovery.fallback_decisions"),
            poll_errors: reg.counter("recovery.poll_errors"),
            checkpoint_writes: reg.counter("recovery.checkpoint_writes"),
            restores: reg.counter("recovery.restores"),
            decision_latency_ns: reg
                .histogram("middlebox.decision_latency_ns", &buckets::latency_ns()),
            poll_latency_ns: reg.histogram("middlebox.poll_latency_ns", &buckets::latency_ns()),
        }
    }
}

/// Per-flow serving state held in the slab arena. `next_eval` is the
/// flow's timer-wheel deadline in poll ticks (`u64::MAX` while
/// unscheduled): set when the first QoS report of a window arrives,
/// cleared when a poll evaluates the flow.
#[derive(Debug)]
struct FlowState {
    kind: FlowKind,
    meter: QosMeter,
    next_eval: u64,
}

impl FlowState {
    fn new(kind: FlowKind) -> Self {
        FlowState {
            kind,
            meter: QosMeter::new(),
            next_eval: u64::MAX,
        }
    }
}

/// Minimum flow count before a poll's per-flow QoE estimation is
/// fanned over the thread pool; below this the scoped-thread spawn
/// costs more than the work.
const PAR_POLL_MIN_FLOWS: usize = 64;

/// `true` unless `EXBOX_POLL_WHEEL=0`: whether polls are incremental
/// (timer-wheel driven) by default. Invalid values warn and fall back
/// to the wheel, like every other env knob.
fn poll_wheel_from_env() -> bool {
    match std::env::var("EXBOX_POLL_WHEEL") {
        Ok(v) => exbox_par::parse_env_knob::<u8>("EXBOX_POLL_WHEEL", &v, |n| *n <= 1)
            .map(|n| n == 1)
            .unwrap_or(true),
        Err(_) => true,
    }
}

/// Configuration for the middlebox shell.
#[derive(Debug, Clone)]
pub struct MiddleboxConfig {
    /// Packets buffered before early classification fires.
    pub classify_window: usize,
    /// Poll cadence for QoE estimation and re-evaluation.
    pub poll_interval: Duration,
    /// Most recent [`DecisionEvent`]s retained in the audit ring.
    pub decision_log_capacity: usize,
    /// Most rejected flows remembered for packet dropping (minimum 1).
    /// Oldest rejection records are evicted FIFO beyond this, counted
    /// by `middlebox.rejected_evictions`; an evicted flow that keeps
    /// sending re-enters early classification.
    pub rejected_capacity: usize,
    /// Flow cap used by the degraded-mode [`MaxClient`] fallback when
    /// no classifier model is servable (minimum 1).
    pub fallback_max_flows: u32,
    /// Incremental polling: flows carry a next-evaluation deadline in
    /// a hierarchical timer wheel and a poll evaluates only the flows
    /// whose meters saw traffic since their last window — O(due), not
    /// O(all flows). Verdict-equivalent to the full scan
    /// (property-tested in `tests/flowtable_props.rs`); disable with
    /// `EXBOX_POLL_WHEEL=0` to force the scan path. Defaults from the
    /// environment at construction.
    pub poll_wheel: bool,
}

impl Default for MiddleboxConfig {
    fn default() -> Self {
        MiddleboxConfig {
            classify_window: 8,
            poll_interval: Duration::from_secs(2),
            decision_log_capacity: 1024,
            rejected_capacity: 4096,
            fallback_max_flows: 10,
            poll_wheel: poll_wheel_from_env(),
        }
    }
}

/// The assembled middlebox for one cell.
#[derive(Debug)]
pub struct Middlebox {
    cfg: MiddleboxConfig,
    early: EarlyClassifier,
    admittance: AdmittanceClassifier,
    estimator: QoeEstimator,
    matrix: TrafficMatrix,
    flows: FlowMap<FlowState>,
    rejected: RejectedRing,
    /// Next-evaluation deadlines for admitted flows, in poll ticks.
    wheel: TimerWheel,
    /// Polls executed so far == the wheel's current tick.
    poll_seq: u64,
    /// Reusable per-poll slot buffer (due flows on the wheel path, the
    /// whole arena on the scan path) — no per-poll allocation.
    poll_scratch: Vec<FlowSlot>,
    last_poll: Instant,
    metrics: MiddleboxMetrics,
    decisions: EventRing<DecisionEvent>,
    /// Occupancy baseline serving decisions while no model is
    /// available (degraded mode).
    fallback: MaxClient,
    /// Set when a restore failed and the middlebox started fresh; the
    /// fallback then gates admissions (even during bootstrap) until a
    /// model is re-learnt.
    recovering: bool,
    faults: FaultPlan,
}

impl Middlebox {
    /// Assemble a middlebox from a trained QoE estimator and a fresh
    /// (or pre-trained) Admittance Classifier, reporting metrics to
    /// the process-wide [`exbox_obs::global`] registry.
    pub fn new(
        cfg: MiddleboxConfig,
        estimator: QoeEstimator,
        admittance: AdmittanceClassifier,
    ) -> Self {
        Self::with_registry(cfg, estimator, admittance, exbox_obs::global())
    }

    /// Like [`Middlebox::new`] but reporting to an explicit registry,
    /// so tests can assert exact counter values in isolation.
    pub fn with_registry(
        cfg: MiddleboxConfig,
        estimator: QoeEstimator,
        mut admittance: AdmittanceClassifier,
        registry: &MetricsRegistry,
    ) -> Self {
        let window = cfg.classify_window;
        let log_capacity = cfg.decision_log_capacity.max(1);
        let rejected = RejectedRing::new(cfg.rejected_capacity);
        let fallback = MaxClient::new(cfg.fallback_max_flows.max(1));
        let faults = FaultPlan::from_env(registry);
        admittance.set_fault_plan(faults.clone());
        Middlebox {
            cfg,
            early: EarlyClassifier::with_default_profiles(window),
            admittance,
            estimator,
            matrix: TrafficMatrix::empty(),
            flows: FlowMap::new(),
            rejected,
            wheel: TimerWheel::new(),
            poll_seq: 0,
            poll_scratch: Vec::new(),
            last_poll: Instant::ZERO,
            metrics: MiddleboxMetrics::bind(registry),
            decisions: EventRing::new(log_capacity),
            fallback,
            recovering: false,
            faults,
        }
    }

    /// Replace the fault-injection plan (tests and fault drills); the
    /// wrapped classifier shares the same plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.admittance.set_fault_plan(plan.clone());
        self.faults = plan;
    }

    /// True while admission decisions are served by the occupancy
    /// fallback instead of the learnt region: no model is servable and
    /// either the classifier already left bootstrap (it lost or never
    /// regained its model) or the middlebox is recovering from a
    /// failed restore.
    pub fn is_degraded(&self) -> bool {
        !self.admittance.model_available()
            && (self.recovering || self.admittance.phase() == Phase::Online)
    }

    /// True until the first model is (re-)learnt after a failed
    /// restore.
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// The bounded audit trail of admit/reject/revoke decisions,
    /// newest last.
    pub fn decision_log(&self) -> &EventRing<DecisionEvent> {
        &self.decisions
    }

    /// Register a known server endpoint with the early classifier
    /// (the DNS/SNI prior; see `exbox_net::EarlyClassifier`).
    pub fn learn_server_hint(&mut self, server: std::net::Ipv4Addr, class: exbox_net::AppClass) {
        self.early.learn_server_hint(server, class);
    }

    /// Current traffic matrix as the middlebox believes it.
    pub fn matrix(&self) -> TrafficMatrix {
        self.matrix
    }

    /// The wrapped Admittance Classifier.
    pub fn admittance(&self) -> &AdmittanceClassifier {
        &self.admittance
    }

    /// Number of currently admitted flows.
    pub fn admitted_flows(&self) -> usize {
        self.flows.len()
    }

    /// Snapshot the learnt state (Admittance Classifier + QoE fits)
    /// into the versioned `exbox-ckpt` format. Live flow-table state
    /// is deliberately not checkpointed: after a crash the flows are
    /// re-discovered through early classification, while the learnt
    /// region — the expensive part — survives.
    pub fn checkpoint<W: Write>(&self, out: W) -> io::Result<()> {
        persist::save_checkpoint(&self.admittance, &self.estimator, out)?;
        self.metrics.checkpoint_writes.inc();
        Ok(())
    }

    /// [`Middlebox::checkpoint`] to a file, written atomically (temp
    /// file + fsync + rename) so a crash mid-write never clobbers the
    /// previous good checkpoint.
    pub fn checkpoint_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        persist::save_checkpoint_to_path(&self.admittance, &self.estimator, path.as_ref())?;
        self.metrics.checkpoint_writes.inc();
        Ok(())
    }

    /// Rebuild a middlebox from a checkpoint, resuming with the learnt
    /// region instead of re-entering bootstrap. Reports to the
    /// process-wide registry.
    pub fn restore<R: Read>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        input: R,
    ) -> io::Result<Self> {
        Self::restore_with_registry(cfg, acfg, input, exbox_obs::global())
    }

    /// Like [`Middlebox::restore`] with an explicit registry.
    pub fn restore_with_registry<R: Read>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        input: R,
        registry: &MetricsRegistry,
    ) -> io::Result<Self> {
        let (admittance, estimator) = persist::load_checkpoint(input, acfg, registry)?;
        let mb = Self::with_registry(cfg, estimator, admittance, registry);
        mb.metrics.restores.inc();
        Ok(mb)
    }

    /// [`Middlebox::restore`] from a checkpoint file. Checkpoint-read
    /// faults (`ckpt_corrupt` / `ckpt_truncate` in `EXBOX_FAULTS`) are
    /// injected here, against the in-memory copy — the file itself is
    /// never touched.
    pub fn restore_from_path<P: AsRef<Path>>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        path: P,
    ) -> io::Result<Self> {
        Self::restore_from_path_with_registry(cfg, acfg, path, exbox_obs::global())
    }

    /// Like [`Middlebox::restore_from_path`] with an explicit registry.
    pub fn restore_from_path_with_registry<P: AsRef<Path>>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        path: P,
        registry: &MetricsRegistry,
    ) -> io::Result<Self> {
        let faults = FaultPlan::from_env(registry);
        let (admittance, estimator) =
            persist::load_checkpoint_from_path(path.as_ref(), acfg, registry, &faults)?;
        let mb = Self::with_registry(cfg, estimator, admittance, registry);
        mb.metrics.restores.inc();
        Ok(mb)
    }

    /// Restore from a checkpoint file, degrading instead of dying: on
    /// any restore error (missing, torn, corrupt, malformed) a fresh
    /// middlebox is assembled around `fallback_estimator` with
    /// [`Middlebox::is_recovering`] set, so the occupancy baseline
    /// gates admissions until a model is re-learnt. The error, if any,
    /// is returned alongside for logging.
    pub fn recover_from_path<P: AsRef<Path>>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        fallback_estimator: QoeEstimator,
        path: P,
        registry: &MetricsRegistry,
    ) -> (Self, Option<io::Error>) {
        match Self::restore_from_path_with_registry(cfg.clone(), acfg.clone(), path, registry) {
            Ok(mb) => (mb, None),
            Err(err) => {
                let fresh = AdmittanceClassifier::with_registry(acfg, registry);
                let mut mb = Self::with_registry(cfg, fallback_estimator, fresh, registry);
                mb.recovering = true;
                (mb, Some(err))
            }
        }
    }

    /// Process one packet crossing the gateway. `snr` is the client's
    /// current SNR level as reported by the AP/eNodeB (§3.3).
    ///
    /// # Example
    ///
    /// ```
    /// use exbox_core::admittance::{AdmittanceClassifier, AdmittanceConfig};
    /// use exbox_core::matrix::SnrLevel;
    /// use exbox_core::middlebox::{Action, Middlebox, MiddleboxConfig};
    /// use exbox_core::qoe::{paper_directions, train_estimator, QoeEstimator, QosScale};
    /// use exbox_net::packet::{Direction, FlowKey, Packet, Protocol};
    /// use exbox_net::time::Instant;
    ///
    /// let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
    ///     (0..20).map(|i| { let q = i as f64 / 19.0; (q, a + b * (-g * q).exp()) }).collect()
    /// };
    /// let estimator = train_estimator(
    ///     &[mk(1.0, 11.0, 5.0), mk(2.0, 20.0, 6.0), mk(42.0, -30.0, 4.0)],
    ///     QoeEstimator::paper_thresholds(),
    ///     paper_directions(),
    ///     QosScale::new(1e3, 1e8),
    /// );
    /// let mut mb = Middlebox::new(
    ///     MiddleboxConfig::default(),
    ///     estimator,
    ///     AdmittanceClassifier::new(AdmittanceConfig::default()),
    /// );
    /// let flow = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
    /// let pkt = Packet::new(Instant::from_nanos(0), 1200, flow, Direction::Downlink, 0);
    /// // Pre-admission packets are forwarded while the early classifier
    /// // gathers evidence (§4.2).
    /// assert_eq!(mb.process_packet(&pkt, SnrLevel::High), Action::Forward);
    /// ```
    pub fn process_packet(&mut self, pkt: &Packet, snr: SnrLevel) -> Action {
        self.metrics.packets.inc();
        self.process_packet_inner(pkt, snr)
    }

    /// Process a batch of packets, amortising the per-packet overheads:
    /// the packet counter is flushed once per batch, and consecutive
    /// packets of one flow in a *terminal* state (already admitted or
    /// already rejected) skip the hash lookups entirely via a
    /// run-length disposition cache. Terminal states cannot flip
    /// mid-batch — revocation happens only in [`Middlebox::poll`] and
    /// departure only in [`Middlebox::flow_departed`], neither of which
    /// can run inside a batch — so the returned verdicts are identical
    /// to calling [`Middlebox::process_packet`] per packet, for every
    /// split of the stream (property-tested in `tests/batch_props.rs`).
    ///
    /// # Example
    ///
    /// ```
    /// use exbox_core::admittance::{AdmittanceClassifier, AdmittanceConfig};
    /// use exbox_core::matrix::SnrLevel;
    /// use exbox_core::middlebox::{Action, Middlebox, MiddleboxConfig};
    /// use exbox_core::qoe::{paper_directions, train_estimator, QoeEstimator, QosScale};
    /// use exbox_net::packet::{Direction, FlowKey, Packet, Protocol};
    /// use exbox_net::time::Instant;
    ///
    /// let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
    ///     (0..20).map(|i| { let q = i as f64 / 19.0; (q, a + b * (-g * q).exp()) }).collect()
    /// };
    /// let estimator = train_estimator(
    ///     &[mk(1.0, 11.0, 5.0), mk(2.0, 20.0, 6.0), mk(42.0, -30.0, 4.0)],
    ///     QoeEstimator::paper_thresholds(),
    ///     paper_directions(),
    ///     QosScale::new(1e3, 1e8),
    /// );
    /// let mut mb = Middlebox::new(
    ///     MiddleboxConfig::default(),
    ///     estimator,
    ///     AdmittanceClassifier::new(AdmittanceConfig::default()),
    /// );
    /// let flow = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
    /// let batch: Vec<(Packet, SnrLevel)> = (0..4)
    ///     .map(|i| {
    ///         let p = Packet::new(Instant::from_nanos(i), 1200, flow, Direction::Downlink, i);
    ///         (p, SnrLevel::High)
    ///     })
    ///     .collect();
    /// let verdicts = mb.process_batch(&batch);
    /// assert_eq!(verdicts.len(), 4);
    /// assert!(verdicts.iter().all(|v| *v == Action::Forward));
    /// ```
    pub fn process_batch(&mut self, pkts: &[(Packet, SnrLevel)]) -> Vec<Action> {
        let mut out = Vec::with_capacity(pkts.len());
        // Last flow seen and its terminal disposition, if any. `None`
        // also covers still-unclassified flows, which must keep taking
        // the full path (each packet feeds the early classifier).
        let mut last: Option<(FlowKey, Action)> = None;
        let mut cached_drops = 0u64;
        for (pkt, snr) in pkts {
            match last {
                Some((key, Action::Drop)) if key == pkt.flow => {
                    // Same as the slow path: rejected flows drop
                    // before any other per-flow state is touched.
                    cached_drops += 1;
                    out.push(Action::Drop);
                    continue;
                }
                Some((key, Action::Forward)) if key == pkt.flow => {
                    out.push(Action::Forward);
                    continue;
                }
                _ => {}
            }
            let act = self.process_packet_inner(pkt, *snr);
            last = if self.rejected.contains(&pkt.flow) {
                Some((pkt.flow, Action::Drop))
            } else if self.flows.contains_key(&pkt.flow) {
                Some((pkt.flow, Action::Forward))
            } else {
                None
            };
            out.push(act);
        }
        self.metrics.packets.add(pkts.len() as u64);
        self.metrics.drops_rejected.add(cached_drops);
        out
    }

    /// [`Middlebox::process_packet`] minus the packet counter, which
    /// the batch path flushes once per batch.
    fn process_packet_inner(&mut self, pkt: &Packet, snr: SnrLevel) -> Action {
        if self.rejected.contains(&pkt.flow) {
            self.metrics.drops_rejected.inc();
            return Action::Drop;
        }
        if self.flows.contains_key(&pkt.flow) {
            return Action::Forward;
        }
        // Unclassified flow: keep feeding the early classifier. The
        // buffered packets are forwarded (brief pre-admission, §4.2).
        match self.early.observe(pkt) {
            None => Action::Forward,
            Some(class) => {
                let kind = FlowKind::new(class, snr);
                let resulting = self.matrix.with_arrival(kind);
                let degraded = self.is_degraded();
                // One single-pass (and cache-served under steady load)
                // evaluation supplies both the label and the logged
                // margin; in degraded mode the occupancy baseline
                // stands in and the margin is unknowable.
                let ((label, margin), decide_ns) = if degraded {
                    let fallback = &mut self.fallback;
                    let matrix = &self.matrix;
                    exbox_obs::time_ns(move || {
                        fallback.sync_load(matrix, &|_| 0.0);
                        let req = FlowRequest {
                            kind,
                            demand_bps: 0.0,
                            resulting_matrix: resulting,
                        };
                        (fallback.decide(&req).as_label(), None)
                    })
                } else {
                    exbox_obs::time_ns(|| self.admittance.decide(&resulting))
                };
                self.metrics.decision_latency_ns.record(decide_ns);
                let reason = if degraded {
                    self.metrics.fallback_decisions.inc();
                    DecisionReason::DegradedFallback
                } else {
                    match (self.admittance.phase(), label) {
                        (Phase::Bootstrap, _) => DecisionReason::Bootstrap,
                        (Phase::Online, Label::Pos) => DecisionReason::InsideRegion,
                        (Phase::Online, Label::Neg) => DecisionReason::OutsideRegion,
                    }
                };
                let mut event = DecisionEvent {
                    at: pkt.timestamp,
                    flow: pkt.flow,
                    class,
                    snr,
                    verdict: DecisionKind::Admit,
                    margin,
                    reason,
                };
                match label {
                    Label::Pos => {
                        self.matrix = resulting;
                        self.flows.insert(pkt.flow, FlowState::new(kind));
                        self.metrics.admits.inc();
                        self.decisions.push(event);
                        Action::Forward
                    }
                    Label::Neg => {
                        Self::note_rejection(&mut self.rejected, &self.metrics, pkt.flow);
                        self.early.forget(&pkt.flow);
                        self.metrics.rejects.inc();
                        event.verdict = DecisionKind::Reject;
                        self.decisions.push(event);
                        Action::Drop
                    }
                }
            }
        }
    }

    /// Push a rejection record into the bounded ring, maintaining the
    /// eviction counter, the occupancy gauge and the warn-once
    /// capacity-pressure log. An associated fn so callers can hold
    /// disjoint borrows of the rest of `self`.
    fn note_rejection(rejected: &mut RejectedRing, metrics: &MiddleboxMetrics, key: FlowKey) {
        let ins = rejected.insert(key);
        metrics.rejected_evictions.add(ins.evicted);
        metrics.rejected_occupancy.set(rejected.len() as f64);
        if ins.pressure {
            eprintln!(
                "exbox: middlebox rejected-set eviction rate caught up with \
                 insertions ({} live / {} evicted) — raise rejected_capacity \
                 or expect re-classification churn",
                rejected.len(),
                rejected.evictions(),
            );
        }
    }

    /// Schedule `slot` for the next poll tick unless it is already on
    /// the wheel. Called on the first QoS report of a flow's window so
    /// an incremental poll visits exactly the flows with fresh meter
    /// data. An associated fn for the same disjoint-borrow reason as
    /// [`Middlebox::note_rejection`].
    fn schedule_eval(wheel: &mut TimerWheel, fs: &mut FlowState, slot: FlowSlot) {
        if fs.next_eval == u64::MAX {
            let deadline = wheel.now() + 1;
            fs.next_eval = deadline;
            wheel.schedule(slot, deadline);
        }
    }

    /// Record a delivery report for an admitted flow (from the AP's
    /// transmission-status feed in a real deployment, or from the
    /// simulator here).
    pub fn record_delivery(&mut self, key: &FlowKey, sent: Instant, received: Instant, size: u32) {
        if let Some(slot) = self.flows.slot_of(key) {
            if let Some((_, fs)) = self.flows.get_slot_mut(slot) {
                fs.meter.deliver(sent, received, size);
                if self.cfg.poll_wheel {
                    Self::schedule_eval(&mut self.wheel, fs, slot);
                }
            }
        }
    }

    /// Record a drop report for an admitted flow. Drop-only flows are
    /// scheduled too: they evaluate to "no estimate" exactly like the
    /// scan path, but their meters must be reset at the window edge.
    pub fn record_drop(&mut self, key: &FlowKey) {
        if let Some(slot) = self.flows.slot_of(key) {
            if let Some((_, fs)) = self.flows.get_slot_mut(slot) {
                fs.meter.drop_packet();
                if self.cfg.poll_wheel {
                    Self::schedule_eval(&mut self.wheel, fs, slot);
                }
            }
        }
    }

    /// A flow ended (FIN/idle-eviction): release its slot. Any pending
    /// timer-wheel entry goes stale and is skipped at its tick (the
    /// slot's generation no longer resolves).
    pub fn flow_departed(&mut self, key: &FlowKey) {
        if let Some(fs) = self.flows.remove(key) {
            self.matrix.remove(fs.kind);
            self.metrics.departures.inc();
        }
        self.rejected.remove(key);
        self.metrics
            .rejected_occupancy
            .set(self.rejected.len() as f64);
        self.early.forget(key);
    }

    /// Periodic poll (paper §4.3): estimate admitted flows' QoE from
    /// their metered QoS, feed the aggregate observation to the
    /// Admittance Classifier, and re-evaluate the admitted set against
    /// the (possibly re-learnt) region. Returns **only the revoked
    /// flows** (empty when everything was kept — kept flows are tallied
    /// in the `middlebox.keeps` counter instead of materialised), in
    /// deterministic admission order, oldest first. A no-op before
    /// `poll_interval` has elapsed since the last poll.
    pub fn poll(&mut self, now: Instant) -> Vec<(FlowKey, PollVerdict)> {
        if now.saturating_since(self.last_poll) < self.cfg.poll_interval {
            return Vec::new();
        }
        self.last_poll = now;
        self.metrics.polls.inc();
        let (verdicts, poll_ns) = exbox_obs::time_ns(|| self.run_poll(now));
        self.metrics.poll_latency_ns.record(poll_ns);
        verdicts
    }

    /// The body of an executed poll (separated so [`Middlebox::poll`]
    /// can time it).
    fn run_poll(&mut self, now: Instant) -> Vec<(FlowKey, PollVerdict)> {
        if self.recovering && self.admittance.model_available() {
            self.recovering = false;
        }
        // One executed poll == one wheel tick. The wheel advances even
        // through empty polls so deadlines stay aligned with poll_seq.
        self.poll_seq += 1;
        let mut scratch = std::mem::take(&mut self.poll_scratch);
        scratch.clear();
        if self.cfg.poll_wheel {
            // Incremental path: only flows whose meters saw traffic
            // since their last window are due. Departed flows leave
            // stale slots behind (generation mismatch) — drop them.
            self.wheel.advance(self.poll_seq, &mut scratch);
            scratch.retain(|&slot| self.flows.get_slot(slot).is_some());
        } else {
            // Fallback scan: the whole arena in insertion order,
            // reusing the scratch buffer — no per-poll allocation, no
            // key collection, no sort.
            self.flows.collect_slots(&mut scratch);
        }
        if self.flows.is_empty() {
            self.poll_scratch = scratch;
            return Vec::new();
        }

        // Estimate acceptability per flow; the matrix label is the
        // conjunction (a matrix is achievable iff ALL flows are OK),
        // maintained as a count of measured / unacceptable flows.
        // Flows are independent here, so large cells fan the
        // estimation over the thread pool — index-ordered reassembly
        // plus the order-insensitive conjunction keep the outcome
        // identical for every thread count. Idle flows (no traffic
        // this window) yield no evidence on either path: the scan
        // visits and skips them, the wheel never schedules them.
        let fold = |(measured, unacceptable): (u64, u64), v: &Option<bool>| match v {
            Some(ok) => (measured + 1, unacceptable + u64::from(!ok)),
            None => (measured, unacceptable),
        };
        let (measured, unacceptable) = {
            let flows = &self.flows;
            let estimator = &self.estimator;
            let eval = |slot: &FlowSlot| -> Option<bool> {
                let (_, fs) = flows.get_slot(*slot)?;
                let sample = fs.meter.sample();
                if sample.throughput_bps <= 0.0 {
                    None // idle or drop-only flow: no evidence
                } else {
                    Some(estimator.acceptable(fs.kind.class, &sample))
                }
            };
            if scratch.len() >= PAR_POLL_MIN_FLOWS {
                ThreadPool::global()
                    .parallel_map(scratch.len(), |i| eval(&scratch[i]))
                    .iter()
                    .fold((0, 0), fold)
            } else {
                scratch
                    .iter()
                    .map(eval)
                    .fold((0, 0), |acc, v| fold(acc, &v))
            }
        };
        let measured_any = measured > 0;
        let all_ok = unacceptable == 0;
        // A failed estimation pass (injected here; a wedged AP stats
        // feed in a real deployment) yields no trustworthy labels, so
        // the observation is skipped — re-evaluation against the
        // already-learnt region below still runs.
        let poll_errored = self.faults.should_inject(FaultKind::PollError);
        if poll_errored {
            self.metrics.poll_errors.inc();
        } else if measured_any {
            let label = if all_ok { Label::Pos } else { Label::Neg };
            self.admittance.observe(self.matrix, label);
        }

        // Re-evaluate the admitted set against the current region; an
        // inadmissible matrix sheds flows (offload/discontinue is
        // policy, the middlebox just reports). X_m for an ongoing flow
        // is the current matrix (it already contains the flow), so the
        // matrix only changes when a flow is revoked — one decision
        // per matrix state. Revocations shed the oldest admission
        // first (deterministic arena insertion order); kept flows are
        // counted in bulk, never materialised.
        let mut verdicts: Vec<(FlowKey, PollVerdict)> = Vec::new();
        if self.admittance.phase() == Phase::Online {
            let (mut label, mut margin) = self.admittance.decide(&self.matrix);
            if label == Label::Pos {
                self.metrics.keeps.add(self.flows.len() as u64);
            }
            while label == Label::Neg {
                let Some((key, kind)) = self.flows.front().map(|(k, fs)| (*k, fs.kind)) else {
                    break;
                };
                self.matrix.remove(kind);
                self.flows.remove(&key);
                Self::note_rejection(&mut self.rejected, &self.metrics, key);
                verdicts.push((key, PollVerdict::Revoke));
                self.metrics.revokes.inc();
                self.decisions.push(DecisionEvent {
                    at: now,
                    flow: key,
                    class: kind.class,
                    snr: kind.snr,
                    verdict: DecisionKind::Revoke,
                    margin,
                    reason: DecisionReason::RegionReevaluation,
                });
                // Removing one flow may already fix the matrix;
                // re-check before revoking more.
                let (next_label, next_margin) = self.admittance.decide(&self.matrix);
                label = next_label;
                margin = next_margin;
            }
        }
        // Fresh measurement windows for the next poll. The wheel path
        // touches only the flows it evaluated (everything else has an
        // empty meter by construction); revoked flows fail the
        // generation check and are skipped.
        if self.cfg.poll_wheel {
            for &slot in &scratch {
                if let Some((_, fs)) = self.flows.get_slot_mut(slot) {
                    fs.meter.reset();
                    fs.next_eval = u64::MAX;
                }
            }
        } else {
            self.flows.for_each_value_mut(|fs| fs.meter.reset());
        }
        scratch.clear();
        self.poll_scratch = scratch;
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admittance::AdmittanceConfig;
    use crate::qoe::{paper_directions, train_estimator, QoeEstimator};
    use exbox_net::{AppClass, Direction, Protocol};

    fn estimator() -> QoeEstimator {
        let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
            (0..20)
                .map(|i| {
                    let q = i as f64 / 19.0;
                    (q, a + b * (-g * q).exp())
                })
                .collect()
        };
        train_estimator(
            &[mk(1.0, 11.0, 5.0), mk(2.0, 20.0, 6.0), mk(42.0, -30.0, 4.0)],
            QoeEstimator::paper_thresholds(),
            paper_directions(),
            crate::qoe::QosScale::new(1e3, 1e8),
        )
    }

    fn streaming_pkts(key: FlowKey, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                Packet::new(
                    Instant::from_millis(2 * i as u64),
                    1400,
                    key,
                    Direction::Downlink,
                    i as u64,
                )
            })
            .collect()
    }

    fn mb() -> Middlebox {
        Middlebox::new(
            MiddleboxConfig::default(),
            estimator(),
            AdmittanceClassifier::new(AdmittanceConfig::default()),
        )
    }

    #[test]
    fn classifies_then_admits_during_bootstrap() {
        let mut m = mb();
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            assert_eq!(m.process_packet(&p, SnrLevel::High), Action::Forward);
        }
        assert_eq!(m.admitted_flows(), 1);
        assert_eq!(m.matrix().total(), 1);
    }

    #[test]
    fn rejected_flow_packets_are_dropped() {
        // Pre-train the admittance classifier to reject everything
        // beyond 1 flow.
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        for n in 0..80u32 {
            let total = n % 8;
            let mut mat = TrafficMatrix::empty();
            for _ in 0..total {
                mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
            }
            let y = if total <= 1 { Label::Pos } else { Label::Neg };
            ac.observe(mat, y);
        }
        assert_eq!(ac.phase(), Phase::Online);
        let mut m = Middlebox::new(MiddleboxConfig::default(), estimator(), ac);

        let k1 = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(k1, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        assert_eq!(m.admitted_flows(), 1);

        // Second flow exceeds the learnt region.
        let k2 = FlowKey::synthetic(2, 2, 1, Protocol::Tcp);
        let pkts = streaming_pkts(k2, 12);
        let actions: Vec<Action> = pkts
            .iter()
            .map(|p| m.process_packet(p, SnrLevel::High))
            .collect();
        assert_eq!(actions.last(), Some(&Action::Drop));
        assert_eq!(m.admitted_flows(), 1);
        // Subsequent packets of the rejected flow keep dropping.
        assert_eq!(
            m.process_packet(&streaming_pkts(k2, 13)[12], SnrLevel::High),
            Action::Drop
        );
    }

    #[test]
    fn departure_frees_matrix_slot() {
        let mut m = mb();
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        assert_eq!(m.matrix().total(), 1);
        m.flow_departed(&key);
        assert_eq!(m.matrix().total(), 0);
        assert_eq!(m.admitted_flows(), 0);
    }

    #[test]
    fn poll_feeds_observations_to_classifier() {
        let mut m = mb();
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        // Healthy QoS deliveries.
        for i in 0..50u64 {
            m.record_delivery(
                &key,
                Instant::from_millis(i * 10),
                Instant::from_millis(i * 10 + 5),
                1400,
            );
        }
        let before = m.admittance().num_samples();
        let verdicts = m.poll(Instant::from_secs(5));
        assert!(m.admittance().num_samples() > before, "poll must observe");
        assert!(verdicts.is_empty() || verdicts.iter().all(|(_, v)| *v == PollVerdict::Keep));
    }

    /// A classifier pre-trained to admit only a single streaming flow.
    fn single_flow_classifier() -> AdmittanceClassifier {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        for n in 0..80u32 {
            let total = n % 8;
            let mut mat = TrafficMatrix::empty();
            for _ in 0..total {
                mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
            }
            let y = if total <= 1 { Label::Pos } else { Label::Neg };
            ac.observe(mat, y);
        }
        assert_eq!(ac.phase(), Phase::Online);
        ac
    }

    #[test]
    fn rejected_set_is_bounded_and_counts_evictions() {
        let reg = MetricsRegistry::new();
        let mut m = Middlebox::with_registry(
            MiddleboxConfig {
                rejected_capacity: 2,
                ..MiddleboxConfig::default()
            },
            estimator(),
            single_flow_classifier(),
            &reg,
        );
        // One admitted flow fills the region; every later arrival is
        // rejected (scan-like traffic).
        let k1 = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(k1, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        assert_eq!(m.admitted_flows(), 1);
        let scans: Vec<FlowKey> = (2..5)
            .map(|i| FlowKey::synthetic(i, i, 1, Protocol::Tcp))
            .collect();
        for &k in &scans {
            for p in streaming_pkts(k, 12) {
                m.process_packet(&p, SnrLevel::High);
            }
        }
        assert_eq!(m.rejected.len(), 2, "rejected set must stay bounded");
        assert_eq!(
            reg.snapshot()
                .counter("middlebox.rejected_evictions")
                .unwrap(),
            1,
            "third rejection must evict the oldest record"
        );
        // The evicted (oldest) scan flow is no longer auto-dropped: it
        // re-enters early classification and its first packet forwards.
        assert_eq!(
            m.process_packet(&streaming_pkts(scans[0], 1)[0], SnrLevel::High),
            Action::Forward
        );
        // The still-remembered newest scan flow keeps dropping.
        assert_eq!(
            m.process_packet(&streaming_pkts(scans[2], 1)[0], SnrLevel::High),
            Action::Drop
        );
    }

    #[test]
    fn checkpoint_restore_resumes_online_with_identical_decisions() {
        let reg = MetricsRegistry::new();
        let mut m = Middlebox::with_registry(
            MiddleboxConfig::default(),
            estimator(),
            single_flow_classifier(),
            &reg,
        );
        let mut buf = Vec::new();
        m.checkpoint(&mut buf).unwrap();
        assert_eq!(
            reg.snapshot()
                .counter("recovery.checkpoint_writes")
                .unwrap(),
            1
        );

        let restored_reg = MetricsRegistry::new();
        let mut r = Middlebox::restore_with_registry(
            MiddleboxConfig::default(),
            AdmittanceConfig::default(),
            &buf[..],
            &restored_reg,
        )
        .expect("restore must succeed");
        assert_eq!(r.admittance().phase(), Phase::Online, "no re-bootstrap");
        assert!(!r.is_degraded());
        assert_eq!(
            restored_reg
                .snapshot()
                .counter("recovery.restores")
                .unwrap(),
            1
        );

        // The restarted gateway must reach the same verdicts on the
        // same traffic as the original would have.
        let k1 = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let k2 = FlowKey::synthetic(2, 2, 1, Protocol::Tcp);
        let drive = |mb: &mut Middlebox| -> Vec<Action> {
            let mut out = Vec::new();
            for p in streaming_pkts(k1, 10) {
                out.push(mb.process_packet(&p, SnrLevel::High));
            }
            for p in streaming_pkts(k2, 12) {
                out.push(mb.process_packet(&p, SnrLevel::High));
            }
            out
        };
        assert_eq!(drive(&mut m), drive(&mut r));
        assert_eq!(r.admitted_flows(), 1);
    }

    #[test]
    fn failed_restore_degrades_to_occupancy_fallback() {
        let reg = MetricsRegistry::new();
        let (mut m, err) = Middlebox::recover_from_path(
            MiddleboxConfig {
                fallback_max_flows: 1,
                ..MiddleboxConfig::default()
            },
            AdmittanceConfig::default(),
            estimator(),
            "/nonexistent/exbox-gateway.ckpt",
            &reg,
        );
        assert!(err.is_some(), "missing checkpoint must surface an error");
        assert!(m.is_recovering());
        assert!(m.is_degraded());

        // The occupancy fallback (cap 1) gates admissions instead of
        // bootstrap's admit-everything.
        let k1 = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(k1, 10) {
            assert_eq!(m.process_packet(&p, SnrLevel::High), Action::Forward);
        }
        assert_eq!(m.admitted_flows(), 1);
        let k2 = FlowKey::synthetic(2, 2, 1, Protocol::Tcp);
        let last = streaming_pkts(k2, 12)
            .iter()
            .map(|p| m.process_packet(p, SnrLevel::High))
            .last();
        assert_eq!(last, Some(Action::Drop), "fallback must cap occupancy");
        assert_eq!(m.admitted_flows(), 1);

        let events = m.decision_log().snapshot();
        assert!(!events.is_empty());
        for ev in &events {
            assert_eq!(ev.reason, DecisionReason::DegradedFallback);
            assert_eq!(ev.margin, None, "no model, no margin");
        }
        assert_eq!(
            reg.snapshot()
                .counter("recovery.fallback_decisions")
                .unwrap(),
            2,
            "one fallback decision per classified arrival"
        );
    }

    #[test]
    fn injected_poll_error_skips_observation_feed() {
        let reg = MetricsRegistry::new();
        let mut m = Middlebox::with_registry(
            MiddleboxConfig::default(),
            estimator(),
            AdmittanceClassifier::with_registry(AdmittanceConfig::default(), &reg),
            &reg,
        );
        m.set_fault_plan(crate::recovery::FaultPlan::with_registry(
            &[(FaultKind::PollError, 1.0)],
            9,
            &reg,
        ));
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        for i in 0..50u64 {
            m.record_delivery(
                &key,
                Instant::from_millis(i * 10),
                Instant::from_millis(i * 10 + 5),
                1400,
            );
        }
        let before = m.admittance().num_samples();
        let _ = m.poll(Instant::from_secs(5));
        assert_eq!(
            m.admittance().num_samples(),
            before,
            "a failed poll must not feed observations"
        );
        assert_eq!(reg.snapshot().counter("recovery.poll_errors").unwrap(), 1);
    }

    #[test]
    fn poll_respects_interval() {
        let mut m = mb();
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        m.record_delivery(&key, Instant::ZERO, Instant::from_millis(5), 1400);
        let _ = m.poll(Instant::from_secs(5));
        // Immediately again: below the interval, no-op.
        m.record_delivery(&key, Instant::ZERO, Instant::from_millis(5), 1400);
        let before = m.admittance().num_samples();
        let v = m.poll(Instant::from_secs(5) + Duration::from_millis(100));
        assert!(v.is_empty());
        assert_eq!(m.admittance().num_samples(), before);
    }
}
