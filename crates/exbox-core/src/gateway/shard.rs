//! Per-shard serving state and the shared atomic occupancy cell.
//!
//! A [`GatewayShard`] is one flow-hash partition of the middlebox
//! pipeline: its own flow table, early classifier, QoS meters,
//! rejected set, decision cache and `exbox-obs` sub-registry — so the
//! packet path touches no cross-shard locks and increments no shared
//! counters. The only cross-shard state a decision reads is the
//! [`SharedMatrix`] (the cell-wide traffic matrix, six atomic
//! counters) and the published [`ModelSnapshot`] (pinned lock-free).
//!
//! The shard is the only implementation of the packet, poll and
//! lifecycle path: a [`ConcurrentGateway`](super::ConcurrentGateway)
//! runs N of them feeding a background trainer, and the
//! single-threaded [`Middlebox`](crate::middlebox::Middlebox) is one
//! of them with an inline learner. The two differ only in where a
//! poll's observation goes (the `Outlet`).

use std::sync::mpsc::TrySendError;
use std::sync::Arc;

use crate::sync::{AtomicBool, AtomicU32, Ordering};

use super::channel::BoundedSender;

use exbox_ml::Label;
use exbox_net::{AppClass, EarlyClassifier, FlowKey, Instant, Packet, QosMeter};
use exbox_obs::{buckets, Counter, EventRing, Gauge, Histogram, MetricsRegistry};

use crate::admittance::{AdmittanceClassifier, DecisionCache, Phase};
use crate::flowtable::{FlowMap, FlowSlot, RejectedRing, TimerWheel};
use crate::matrix::{FlowKind, SnrLevel, TrafficMatrix};
use crate::middlebox::{
    Action, DecisionEvent, DecisionKind, DecisionReason, MiddleboxConfig, PollVerdict,
};
use crate::qoe::QoeEstimator;
use crate::recovery::{FaultKind, FaultPlan};

use super::pipeline::OrderGate;
use super::snapshot::{ModelSnapshot, SnapshotReader};
use super::trainer::{Publisher, TrainerMsg};

/// Abstraction over the two batch-input shapes — the sequential
/// driver's `&[(Packet, SnrLevel)]` and the pipeline's
/// sequence-tagged `&[(u64, Packet, SnrLevel)]` — so both run the
/// *same* batch loop ([`GatewayShard::process_batch_inner`]) and can
/// never drift apart in decision semantics.
trait BatchInput {
    fn len(&self) -> usize;
    fn item(&self, i: usize) -> (&Packet, SnrLevel);
    /// Global ingress sequence of element `i` (its index for untagged
    /// input, where nothing consumes it).
    fn seq(&self, i: usize) -> u64;
}

impl BatchInput for [(Packet, SnrLevel)] {
    fn len(&self) -> usize {
        self.len()
    }

    fn item(&self, i: usize) -> (&Packet, SnrLevel) {
        (&self[i].0, self[i].1)
    }

    fn seq(&self, i: usize) -> u64 {
        i as u64
    }
}

impl BatchInput for [(u64, Packet, SnrLevel)] {
    fn len(&self) -> usize {
        self.len()
    }

    fn item(&self, i: usize) -> (&Packet, SnrLevel) {
        (&self[i].1, self[i].2)
    }

    fn seq(&self, i: usize) -> u64 {
        self[i].0
    }
}

/// The cell-wide traffic matrix as atomics: shard decisions read a
/// point-in-time [`TrafficMatrix`] from it and admissions/departures
/// update it, so every shard decides against the *global* occupancy —
/// which is what makes verdicts shard-count-invariant when a trace is
/// replayed deterministically.
///
/// All operations are `SeqCst` (six counters; the cost is noise next
/// to the model evaluation). Under concurrent serving a snapshot is
/// each counter's latest value, not an inter-counter consistent cut —
/// the same tolerance the paper's periodic-poll design already has.
#[derive(Debug, Default)]
pub struct SharedMatrix {
    counts: [AtomicU32; TrafficMatrix::DIMS],
}

impl SharedMatrix {
    /// The empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Point-in-time copy as a value-type matrix.
    pub fn snapshot(&self) -> TrafficMatrix {
        TrafficMatrix::from_counts(std::array::from_fn(|i| {
            self.counts[i].load(Ordering::SeqCst)
        }))
    }

    /// Record an admission.
    pub fn add(&self, kind: FlowKind) {
        self.counts[kind.flat_index()].fetch_add(1, Ordering::SeqCst);
    }

    /// Record a departure or revocation (saturating at zero).
    pub fn remove(&self, kind: FlowKind) {
        let _ =
            self.counts[kind.flat_index()].fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Total admitted flows right now.
    pub fn total(&self) -> u32 {
        self.counts.iter().map(|c| c.load(Ordering::SeqCst)).sum()
    }
}

/// Per-shard instrumentation. Counter names match the single-threaded
/// middlebox (`middlebox.*`, `recovery.*`) so the merged export reads
/// identically; each shard binds its **own** registry, so the hot-path
/// increments land on shard-private cache lines — contention-free —
/// and only [`exbox_obs::MetricsSnapshot::merged`] ever sums them.
#[derive(Debug)]
struct ShardMetrics {
    packets: Arc<Counter>,
    admits: Arc<Counter>,
    rejects: Arc<Counter>,
    drops_rejected: Arc<Counter>,
    keeps: Arc<Counter>,
    revokes: Arc<Counter>,
    departures: Arc<Counter>,
    polls: Arc<Counter>,
    rejected_evictions: Arc<Counter>,
    /// `middlebox.rejected_occupancy` — live records in this shard's
    /// bounded rejected set.
    rejected_occupancy: Arc<Gauge>,
    fallback_decisions: Arc<Counter>,
    poll_errors: Arc<Counter>,
    /// `gateway.obs_dropped` — observations dropped because the
    /// bounded trainer queue was full (backpressure made visible).
    obs_dropped: Arc<Counter>,
    /// `gateway.cache_hits` / `gateway.cache_misses` — the shard's
    /// epoch-keyed decision cache.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// `gateway.poll_buf_grows` — times a poll had to grow the
    /// caller's verdict buffer; stays 0 in steady state when callers
    /// reuse a buffer via [`GatewayShard::poll_into`].
    poll_buf_grows: Arc<Counter>,
    decision_latency_ns: Arc<Histogram>,
    poll_latency_ns: Arc<Histogram>,
}

impl ShardMetrics {
    fn bind(reg: &MetricsRegistry) -> Self {
        ShardMetrics {
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
            obs_dropped: reg.counter("gateway.obs_dropped"),
            cache_hits: reg.counter("gateway.cache_hits"),
            cache_misses: reg.counter("gateway.cache_misses"),
            poll_buf_grows: reg.counter("gateway.poll_buf_grows"),
            decision_latency_ns: reg
                .histogram("middlebox.decision_latency_ns", &buckets::latency_ns()),
            poll_latency_ns: reg.histogram("middlebox.poll_latency_ns", &buckets::latency_ns()),
        }
    }
}

/// Where a shard's poll observations go.
#[derive(Debug)]
pub(crate) enum Outlet {
    /// To the background trainer over the bounded queue
    /// ([`ConcurrentGateway`](super::ConcurrentGateway)): non-blocking,
    /// a full queue drops the observation (`gateway.obs_dropped`).
    Queued(BoundedSender<TrainerMsg>),
    /// Into a learner the shard owns
    /// ([`Middlebox`](crate::middlebox::Middlebox)): absorbed and
    /// published synchronously, before the poll re-evaluates.
    Inline {
        classifier: Box<AdmittanceClassifier>,
        publisher: Publisher,
    },
}

#[derive(Debug)]
struct ShardFlow {
    kind: FlowKind,
    meter: QosMeter,
    /// Timer-wheel deadline in poll ticks (`u64::MAX` while
    /// unscheduled): set when the first QoS report of a window
    /// arrives, cleared when a poll evaluates the flow.
    next_eval: u64,
}

/// One flow-hash partition of the serving pipeline. Owned by exactly
/// one worker thread at a time (`GatewayShard` is `Send`, methods take
/// `&mut self`); all cross-shard coupling goes through the shared
/// matrix, the snapshot cell and the observation outlet.
#[derive(Debug)]
pub struct GatewayShard {
    id: usize,
    cfg: MiddleboxConfig,
    early: EarlyClassifier,
    flows: FlowMap<ShardFlow>,
    rejected: RejectedRing,
    /// Next-evaluation deadlines for this shard's flows, in poll ticks.
    wheel: TimerWheel,
    /// Polls executed by this shard == its wheel's current tick.
    poll_seq: u64,
    /// Reusable per-poll slot buffer — no per-poll allocation.
    poll_scratch: Vec<FlowSlot>,
    cache: DecisionCache,
    estimator: QoeEstimator,
    shared: Arc<SharedMatrix>,
    reader: SnapshotReader<ModelSnapshot>,
    outlet: Outlet,
    recovering: Arc<AtomicBool>,
    metrics: ShardMetrics,
    decisions: EventRing<DecisionEvent>,
    faults: FaultPlan,
    last_poll: Instant,
}

impl GatewayShard {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        cfg: MiddleboxConfig,
        estimator: QoeEstimator,
        shared: Arc<SharedMatrix>,
        reader: SnapshotReader<ModelSnapshot>,
        outlet: Outlet,
        recovering: Arc<AtomicBool>,
        faults: FaultPlan,
        decision_cache_size: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let window = cfg.classify_window;
        let log_capacity = cfg.decision_log_capacity.max(1);
        let rejected = RejectedRing::new(cfg.rejected_capacity);
        GatewayShard {
            id,
            cfg,
            early: EarlyClassifier::with_default_profiles(window),
            flows: FlowMap::new(),
            rejected,
            wheel: TimerWheel::new(),
            poll_seq: 0,
            poll_scratch: Vec::new(),
            cache: DecisionCache::new(decision_cache_size),
            estimator,
            shared,
            reader,
            outlet,
            recovering,
            metrics: ShardMetrics::bind(registry),
            decisions: EventRing::new(log_capacity),
            faults,
            last_poll: Instant::ZERO,
        }
    }

    /// This shard's index within the gateway.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Flows currently admitted *by this shard*.
    pub fn admitted_flows(&self) -> usize {
        self.flows.len()
    }

    /// This shard's bounded admit/reject/revoke audit ring.
    pub fn decision_log(&self) -> &EventRing<DecisionEvent> {
        &self.decisions
    }

    /// The cell-wide traffic matrix as this shard reads it.
    pub fn matrix(&self) -> TrafficMatrix {
        self.shared.snapshot()
    }

    /// True while this shard serves admissions through the occupancy
    /// fallback ([`ModelSnapshot::is_degraded`] on the published
    /// snapshot). Pins through a short-lived reader, so it needs only
    /// `&self`; a status query, not a packet-path call.
    pub fn is_degraded(&self) -> bool {
        let mut reader = self.reader.cell().reader();
        let degraded = reader.pin().is_degraded(self.is_recovering());
        degraded
    }

    /// True while the gateway is recovering from a failed restore and
    /// no re-learnt model has been published yet.
    pub fn is_recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }

    /// Register a known server endpoint with the early classifier
    /// (the DNS/SNI prior).
    pub(crate) fn learn_server_hint(&mut self, server: std::net::Ipv4Addr, class: AppClass) {
        self.early.learn_server_hint(server, class);
    }

    /// The QoE estimator polls score flows with.
    pub(crate) fn estimator(&self) -> &QoeEstimator {
        &self.estimator
    }

    /// The classifier of an [`Outlet::Inline`] learner; `None` when
    /// observations go to a background trainer.
    pub(crate) fn inline_classifier(&self) -> Option<&AdmittanceClassifier> {
        match &self.outlet {
            Outlet::Inline { classifier, .. } => Some(classifier),
            Outlet::Queued(_) => None,
        }
    }

    /// Replace the fault-injection plan of the poll path and, for an
    /// inline learner, of its classifier's retrains.
    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Outlet::Inline { classifier, .. } = &mut self.outlet {
            classifier.set_fault_plan(plan.clone());
        }
        self.faults = plan;
    }

    /// Process one packet of this shard's partition: rejected-set
    /// drop, flow-table forward, early classification (§4.2), then one
    /// admission decision on the pinned [`ModelSnapshot`] against the
    /// shared matrix.
    pub fn process_packet(&mut self, pkt: &Packet, snr: SnrLevel) -> Action {
        self.metrics.packets.inc();
        if self.rejected.contains(&pkt.flow) {
            self.metrics.drops_rejected.inc();
            return Action::Drop;
        }
        if self.flows.contains_key(&pkt.flow) {
            return Action::Forward;
        }
        let class = match self.early.observe(pkt) {
            None => return Action::Forward,
            Some(class) => class,
        };
        let recovering = self.recovering.load(Ordering::SeqCst);
        let fallback_cap = self.cfg.fallback_max_flows.max(1);
        let guard = self.reader.pin();
        Self::decide_apply(
            &guard,
            &mut self.cache,
            &self.metrics,
            &mut self.decisions,
            &self.shared,
            &mut self.flows,
            &mut self.rejected,
            &mut self.early,
            fallback_cap,
            recovering,
            pkt,
            snr,
            class,
        )
    }

    /// Classify-and-apply shared by the per-packet and batched paths.
    ///
    /// Takes disjoint field borrows instead of `&mut self` because the
    /// batch path holds a snapshot guard (which borrows the reader
    /// slot) across iterations. The decision sequence is
    /// identical to the historical inline body of
    /// [`GatewayShard::process_packet`], so both paths produce the
    /// same verdicts, metrics, and decision-log events.
    #[allow(clippy::too_many_arguments)]
    fn decide_apply(
        snapshot: &ModelSnapshot,
        cache: &mut DecisionCache,
        metrics: &ShardMetrics,
        decisions: &mut EventRing<DecisionEvent>,
        shared: &SharedMatrix,
        flows: &mut FlowMap<ShardFlow>,
        rejected: &mut RejectedRing,
        early: &mut EarlyClassifier,
        fallback_cap: u32,
        recovering: bool,
        pkt: &Packet,
        snr: SnrLevel,
        class: AppClass,
    ) -> Action {
        let kind = FlowKind::new(class, snr);
        let matrix = shared.snapshot();
        let resulting = matrix.with_arrival(kind);
        let degraded = snapshot.is_degraded(recovering);
        let ((label, margin), decide_ns) = if degraded {
            // The occupancy baseline (`baselines::MaxClient`'s rule):
            // admit while the current occupancy is below the cap.
            exbox_obs::time_ns(|| {
                let label = if matrix.total() < fallback_cap {
                    Label::Pos
                } else {
                    Label::Neg
                };
                (label, None)
            })
        } else {
            let epoch = snapshot.epoch();
            exbox_obs::time_ns(|| {
                if let Some((label, margin)) = cache.get(epoch, &resulting) {
                    metrics.cache_hits.inc();
                    return (label, Some(margin));
                }
                let (label, margin) = snapshot.decide(&resulting);
                if let Some(m) = margin {
                    metrics.cache_misses.inc();
                    cache.insert(epoch, resulting, label, m);
                }
                (label, margin)
            })
        };
        metrics.decision_latency_ns.record(decide_ns);
        let reason = if degraded {
            metrics.fallback_decisions.inc();
            DecisionReason::DegradedFallback
        } else {
            match (snapshot.phase(), label) {
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
                shared.add(kind);
                flows.insert(
                    pkt.flow,
                    ShardFlow {
                        kind,
                        meter: QosMeter::new(),
                        next_eval: u64::MAX,
                    },
                );
                metrics.admits.inc();
                decisions.push(event);
                Action::Forward
            }
            Label::Neg => {
                Self::note_rejection(rejected, metrics, pkt.flow);
                early.forget(&pkt.flow);
                metrics.rejects.inc();
                event.verdict = DecisionKind::Reject;
                decisions.push(event);
                Action::Drop
            }
        }
    }

    /// Bounded-ring rejection bookkeeping (eviction counter, occupancy
    /// gauge, warn-once pressure log).
    fn note_rejection(rejected: &mut RejectedRing, metrics: &ShardMetrics, key: FlowKey) {
        let ins = rejected.insert(key);
        metrics.rejected_evictions.add(ins.evicted);
        metrics.rejected_occupancy.set(rejected.len() as f64);
        if ins.pressure {
            eprintln!(
                "exbox: rejected-set eviction rate caught up with \
                 insertions ({} live / {} evicted) — raise rejected_capacity \
                 or expect re-classification churn",
                rejected.len(),
                rejected.evictions(),
            );
        }
    }

    /// Put `slot` on the wheel for the next poll tick unless already
    /// scheduled (first QoS report of the flow's window).
    fn schedule_eval(wheel: &mut TimerWheel, fs: &mut ShardFlow, slot: FlowSlot) {
        if fs.next_eval == u64::MAX {
            let deadline = wheel.now() + 1;
            fs.next_eval = deadline;
            wheel.schedule(slot, deadline);
        }
    }

    /// Process a slice of packets in one pass, pinning the model
    /// snapshot once instead of per packet.
    ///
    /// Verdict-equivalent to calling [`GatewayShard::process_packet`]
    /// for each element in order:
    ///
    /// - The snapshot guard is re-pinned whenever the cell's
    ///   [`SnapshotCell::publish_count`](super::SnapshotCell::publish_count)
    ///   moves, so a publication landing mid-batch takes effect at
    ///   exactly the packet where per-packet pinning would have
    ///   observed it.
    /// - A run-length disposition cache skips the rejected-set and
    ///   flow-table probes for consecutive packets of the same flow.
    ///   Admission and rejection are terminal within a batch
    ///   (revocation happens only in `poll`, departure only in
    ///   `flow_departed`), so the cached verdict cannot go stale.
    /// - `shard.packets` and `shard.drops_rejected` are flushed once
    ///   per batch instead of per packet.
    pub fn process_packets(&mut self, pkts: &[(Packet, SnrLevel)]) -> Vec<Action> {
        let mut out = Vec::with_capacity(pkts.len());
        self.process_batch_inner(pkts, None, |_seq, act| out.push(act));
        out
    }

    /// The pipeline's gated twin of
    /// [`GatewayShard::process_packets`]: input carries global ingress
    /// sequence numbers, verdicts are emitted as `(seq, action)`
    /// pairs, and before every shared-matrix decision the worker waits
    /// on the [`OrderGate`] until all earlier sequences (on every
    /// lane) have completed — which is what keeps the merged pipeline
    /// verdict stream byte-identical to sequential driving
    /// (DESIGN.md §10). Both entry points share one loop, so the
    /// decision semantics cannot drift.
    pub(crate) fn process_packets_tagged(
        &mut self,
        pkts: &[(u64, Packet, SnrLevel)],
        gate: &OrderGate,
        lane: usize,
        out: &mut Vec<(u64, Action)>,
    ) {
        self.process_batch_inner(pkts, Some((gate, lane)), |seq, act| out.push((seq, act)));
    }

    fn process_batch_inner<I: BatchInput + ?Sized>(
        &mut self,
        pkts: &I,
        gate: Option<(&OrderGate, usize)>,
        mut emit: impl FnMut(u64, Action),
    ) {
        let cell = Arc::clone(self.reader.cell());
        let fallback_cap = self.cfg.fallback_max_flows.max(1);
        let mut cached_drops = 0u64;
        let mut last: Option<(FlowKey, Action)> = None;
        // Set when a publication landed between a packet's
        // classification and its decision: the pre-path side effects
        // for `pkts[idx]` already ran, only the decision is owed (under
        // a fresh pin, exactly as per-packet pinning would take it).
        let mut pending: Option<AppClass> = None;
        let mut idx = 0;
        while idx < pkts.len() {
            // Pin-verify: tag the guard with a publish count known to
            // match it, so staleness is detectable without re-pinning.
            let (at, guard) = loop {
                let at = cell.publish_count();
                let guard = self.reader.pin();
                if cell.publish_count() == at {
                    break (at, guard);
                }
                drop(guard);
            };
            if let Some(class) = pending.take() {
                let (pkt, snr) = pkts.item(idx);
                let seq = pkts.seq(idx);
                idx += 1;
                let recovering = self.recovering.load(Ordering::SeqCst);
                // `begin(seq)` already ran when this packet's pre-path
                // did, so the lane's cursor still holds its sequence.
                if let Some((gate, lane)) = gate {
                    gate.wait_turn(lane, seq);
                }
                let act = Self::decide_apply(
                    &guard,
                    &mut self.cache,
                    &self.metrics,
                    &mut self.decisions,
                    &self.shared,
                    &mut self.flows,
                    &mut self.rejected,
                    &mut self.early,
                    fallback_cap,
                    recovering,
                    pkt,
                    snr,
                    class,
                );
                last = Some((pkt.flow, act));
                emit(seq, act);
            }
            // Serve packets under this pin until a publication lands.
            // Only decisions consult the snapshot, so staleness is
            // checked at decision points — the pre-path stays free of
            // atomic loads.
            while idx < pkts.len() {
                let (pkt, snr) = pkts.item(idx);
                let seq = pkts.seq(idx);
                // Publish per-packet progress: everything this lane
                // owns below `seq` is complete. Cached/pre-path
                // packets never wait — only decisions do.
                if let Some((gate, lane)) = gate {
                    gate.begin(lane, seq);
                }
                match last {
                    Some((key, Action::Drop)) if key == pkt.flow => {
                        idx += 1;
                        cached_drops += 1;
                        emit(seq, Action::Drop);
                        continue;
                    }
                    Some((key, Action::Forward)) if key == pkt.flow => {
                        idx += 1;
                        emit(seq, Action::Forward);
                        continue;
                    }
                    _ => {}
                }
                if self.rejected.contains(&pkt.flow) {
                    idx += 1;
                    self.metrics.drops_rejected.inc();
                    last = Some((pkt.flow, Action::Drop));
                    emit(seq, Action::Drop);
                    continue;
                }
                if self.flows.contains_key(&pkt.flow) {
                    idx += 1;
                    last = Some((pkt.flow, Action::Forward));
                    emit(seq, Action::Forward);
                    continue;
                }
                let class = match self.early.observe(pkt) {
                    None => {
                        // Still classifying: not terminal, later
                        // packets of this flow must re-probe.
                        idx += 1;
                        last = None;
                        emit(seq, Action::Forward);
                        continue;
                    }
                    Some(class) => class,
                };
                if cell.publish_count() != at {
                    // A publication landed since the pin: re-pin and
                    // decide this packet (whose pre-path already ran)
                    // under the fresh snapshot, as per-packet pinning
                    // would.
                    pending = Some(class);
                    break;
                }
                idx += 1;
                let recovering = self.recovering.load(Ordering::SeqCst);
                if let Some((gate, lane)) = gate {
                    gate.wait_turn(lane, seq);
                }
                let act = Self::decide_apply(
                    &guard,
                    &mut self.cache,
                    &self.metrics,
                    &mut self.decisions,
                    &self.shared,
                    &mut self.flows,
                    &mut self.rejected,
                    &mut self.early,
                    fallback_cap,
                    recovering,
                    pkt,
                    snr,
                    class,
                );
                last = Some((pkt.flow, act));
                emit(seq, act);
            }
        }
        self.metrics.packets.add(pkts.len() as u64);
        self.metrics.drops_rejected.add(cached_drops);
    }

    /// Record a delivery report for a flow admitted by this shard.
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

    /// Record a drop report for a flow admitted by this shard.
    /// Drop-only flows are scheduled too so their meters reset at the
    /// window edge, matching the scan path.
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

    /// A flow of this shard's partition ended: release its slot. A
    /// pending wheel entry goes stale (generation mismatch) and is
    /// skipped at its tick.
    pub fn flow_departed(&mut self, key: &FlowKey) {
        if let Some(fs) = self.flows.remove(key) {
            self.shared.remove(fs.kind);
            self.metrics.departures.inc();
        }
        self.rejected.remove(key);
        self.metrics
            .rejected_occupancy
            .set(self.rejected.len() as f64);
        self.early.forget(key);
    }

    /// Periodic poll over this shard's flows (paper §4.3): QoE
    /// estimation, one observation for the learner, and region
    /// re-evaluation of the admitted set. Returns **only the revoked
    /// flows**, oldest admission first (kept flows are tallied in
    /// `middlebox.keeps`). A no-op before `poll_interval` has elapsed.
    ///
    /// Which snapshot the re-evaluation uses depends on the observation
    /// outlet (DESIGN.md §10.6): a queued observation leaves for the
    /// background trainer (non-blocking — a full queue drops it and
    /// counts `gateway.obs_dropped`) *after* the pin, so a retrain it
    /// triggers never changes this poll's revocations; an inline
    /// observation is absorbed and published *before* the pin, so a
    /// retrain it triggers revokes in this same poll.
    ///
    /// Sharded-observation semantics: the label is the conjunction
    /// over *this shard's* flows against the *global* matrix. With one
    /// shard this is exactly the single-threaded middlebox feed; with
    /// many, each shard contributes a partial conjunction (a `Neg`
    /// from any shard still marks the matrix inadmissible — the
    /// conjunction distributes over the partition; shards report
    /// `Pos` only for flow subsets that are all acceptable).
    pub fn poll(&mut self, now: Instant) -> Vec<(FlowKey, PollVerdict)> {
        let mut verdicts = Vec::new();
        self.poll_into(now, &mut verdicts);
        verdicts
    }

    /// Allocation-free twin of [`GatewayShard::poll`]: verdicts are
    /// *appended* to the caller's buffer, so a reused buffer makes
    /// steady-state polling allocation-free (the internal slot scratch
    /// already persists across polls). `gateway.poll_buf_grows` counts
    /// the polls that had to grow `out` — 0 once the buffer warmed up.
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<(FlowKey, PollVerdict)>) {
        if now.saturating_since(self.last_poll) < self.cfg.poll_interval {
            return;
        }
        self.last_poll = now;
        self.metrics.polls.inc();
        let cap_before = out.capacity();
        let ((), poll_ns) = exbox_obs::time_ns(|| self.run_poll(now, out));
        self.metrics.poll_latency_ns.record(poll_ns);
        if out.capacity() != cap_before {
            self.metrics.poll_buf_grows.inc();
        }
    }

    fn run_poll(&mut self, now: Instant, verdicts: &mut Vec<(FlowKey, PollVerdict)>) {
        // One executed poll == one wheel tick, advanced even through
        // empty polls so deadlines stay aligned with poll_seq.
        self.poll_seq += 1;
        let mut scratch = std::mem::take(&mut self.poll_scratch);
        scratch.clear();
        if self.cfg.poll_wheel {
            self.wheel.advance(self.poll_seq, &mut scratch);
            scratch.retain(|&slot| self.flows.get_slot(slot).is_some());
        } else {
            self.flows.collect_slots(&mut scratch);
        }
        if self.flows.is_empty() {
            self.poll_scratch = scratch;
            return;
        }

        // Per-flow acceptability folded into a (measured, unacceptable)
        // count: the matrix label is the conjunction (a matrix is
        // achievable iff ALL flows are OK). Idle flows contribute no
        // evidence (the scan visits and skips them, the wheel never
        // schedules them).
        let (measured, unacceptable) = scratch
            .iter()
            .filter_map(|&slot| {
                let (_, fs) = self.flows.get_slot(slot)?;
                let sample = fs.meter.sample();
                if sample.throughput_bps <= 0.0 {
                    None
                } else {
                    Some(self.estimator.acceptable(fs.kind.class, &sample))
                }
            })
            .fold((0u64, 0u64), |(m, u), ok| (m + 1, u + u64::from(!ok)));
        // A failed estimation pass (injected here; a wedged AP stats
        // feed in a real deployment) yields no trustworthy labels, so
        // the observation is skipped — re-evaluation against the
        // already-learnt region below still runs.
        let observation = if self.faults.should_inject(FaultKind::PollError) {
            self.metrics.poll_errors.inc();
            None
        } else if measured > 0 {
            let label = if unacceptable == 0 {
                Label::Pos
            } else {
                Label::Neg
            };
            Some((self.shared.snapshot(), label))
        } else {
            None
        };
        // Pin *after* an inline observation (its publish is already
        // visible) and *before* a queued one (the trainer's publish
        // must not race the re-evaluation below).
        if let (
            Some((matrix, label)),
            Outlet::Inline {
                classifier,
                publisher,
            },
        ) = (observation, &mut self.outlet)
        {
            publisher.observe(classifier, matrix, label);
        }
        let guard = self.reader.pin();
        if let (Some((matrix, label)), Outlet::Queued(tx)) = (observation, &self.outlet) {
            match tx.try_send(TrainerMsg::Observe { matrix, label }) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => self.metrics.obs_dropped.inc(),
                // Training disabled or trainer shut down: the
                // observation has nowhere to go by design.
                Err(TrySendError::Disconnected(_)) => {}
            }
        }

        // Region re-evaluation: X_m for an ongoing flow is the current
        // matrix (it already contains the flow), so one decision per
        // matrix state; revoking a flow updates both the shared matrix
        // and the local working copy before re-deciding. Revocations
        // shed this shard's oldest admission first; kept flows are
        // tallied in bulk, never materialised.
        if guard.phase() == Phase::Online {
            let mut matrix = self.shared.snapshot();
            let (mut label, mut margin) = guard.decide(&matrix);
            if label == Label::Pos {
                self.metrics.keeps.add(self.flows.len() as u64);
            }
            while label == Label::Neg {
                let Some((key, kind)) = self.flows.front().map(|(k, fs)| (*k, fs.kind)) else {
                    break;
                };
                self.shared.remove(kind);
                matrix.remove(kind);
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
                let (next_label, next_margin) = guard.decide(&matrix);
                label = next_label;
                margin = next_margin;
            }
        }
        drop(guard);
        // Fresh measurement windows: the wheel path touches only the
        // flows it evaluated; the scan path resets the whole arena.
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
    }
}
