//! The ExBox middlebox: the packet-facing assembly (paper Fig. 5).
//!
//! The gateway-resident loop:
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
//! failing — the middlebox degrades to an occupancy cap
//! ([`MiddleboxConfig::fallback_max_flows`]) instead of blindly
//! admitting or rejecting, counted by `recovery.fallback_decisions`.
//! Fault injection for all of this lives in [`crate::recovery`]
//! (`EXBOX_FAULTS`).
//!
//! ## One data plane
//!
//! [`Middlebox`] is a single-threaded façade over **one**
//! [`GatewayShard`] — the same packet, poll and lifecycle code a
//! [`crate::gateway::ConcurrentGateway`] runs on every shard — whose
//! learner runs inline instead of on a background trainer thread:
//!
//! | `Middlebox`                               | `ConcurrentGateway`                          |
//! |-------------------------------------------|----------------------------------------------|
//! | one shard                                 | N flow-hash partitioned shards               |
//! | poll observation absorbed by the owned classifier, snapshot published synchronously, then re-evaluated | observation sent over the bounded MPSC channel to the background trainer after the pin |
//! | a retrain triggered by a poll revokes in that poll | a retrain triggered by a poll takes effect at the next pin (DESIGN.md §10.6) |
//! | `checkpoint()` on the caller thread       | checkpoint request executed by the trainer, off the packet path |
//!
//! Everything else — flow table, rejected set, timer-wheel polls, the
//! `(epoch, matrix)` decision cache, the degraded fallback and the
//! `middlebox.*` / `recovery.*` metric names — is the shard's. Its
//! verdicts match a 1-shard gateway decision-for-decision (asserted in
//! `tests/gateway_concurrent.rs`).

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use exbox_net::{AppClass, Duration, FlowKey, Instant, Packet};
use exbox_obs::{Counter, EventRing, MetricsRegistry};

use crate::admittance::{AdmittanceClassifier, AdmittanceConfig};
use crate::gateway::{GatewayShard, ModelSnapshot, Outlet, Publisher, SharedMatrix, SnapshotCell};
use crate::matrix::{SnrLevel, TrafficMatrix};
use crate::persist;
use crate::qoe::QoeEstimator;
use crate::recovery::FaultPlan;

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
    /// Flow cap of the degraded-mode occupancy fallback, which admits
    /// while fewer flows are admitted when no classifier model is
    /// servable (minimum 1).
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
    shard: GatewayShard,
    /// `recovery.checkpoint_writes` — checkpoints written successfully.
    checkpoint_writes: Arc<Counter>,
    /// `recovery.restores` — middleboxes restored from a checkpoint.
    restores: Arc<Counter>,
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
        admittance: AdmittanceClassifier,
        registry: &MetricsRegistry,
    ) -> Self {
        Self::build(cfg, estimator, admittance, registry, false)
    }

    /// One shard with an inline learner: the classifier's current
    /// serving state is published as epoch 0, and the fault plan from
    /// `EXBOX_FAULTS` drives both the poll path and the retrains.
    fn build(
        cfg: MiddleboxConfig,
        estimator: QoeEstimator,
        mut admittance: AdmittanceClassifier,
        registry: &MetricsRegistry,
        recovering: bool,
    ) -> Self {
        let faults = FaultPlan::from_env(registry);
        admittance.set_fault_plan(faults.clone());
        let cell = SnapshotCell::new(ModelSnapshot::from_classifier(0, &admittance));
        let recovering = Arc::new(crate::sync::AtomicBool::new(recovering));
        let cache_size = admittance.decision_cache_size();
        let outlet = Outlet::Inline {
            classifier: Box::new(admittance),
            publisher: Publisher::new(Arc::clone(&cell), Arc::clone(&recovering), registry),
        };
        let shard = GatewayShard::new(
            0,
            cfg,
            estimator,
            Arc::new(SharedMatrix::new()),
            cell.reader(),
            outlet,
            recovering,
            faults,
            cache_size,
            registry,
        );
        Middlebox {
            shard,
            checkpoint_writes: registry.counter("recovery.checkpoint_writes"),
            restores: registry.counter("recovery.restores"),
        }
    }

    /// Replace the fault-injection plan (tests and fault drills); the
    /// wrapped classifier shares the same plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.shard.set_fault_plan(plan);
    }

    /// True while admission decisions are served by the occupancy
    /// fallback instead of the learnt region
    /// ([`ModelSnapshot::is_degraded`]).
    pub fn is_degraded(&self) -> bool {
        self.shard.is_degraded()
    }

    /// True until the first model is (re-)learnt after a failed
    /// restore.
    pub fn is_recovering(&self) -> bool {
        self.shard.is_recovering()
    }

    /// The bounded audit trail of admit/reject/revoke decisions,
    /// newest last.
    pub fn decision_log(&self) -> &EventRing<DecisionEvent> {
        self.shard.decision_log()
    }

    /// Register a known server endpoint with the early classifier
    /// (the DNS/SNI prior).
    pub fn learn_server_hint(&mut self, server: std::net::Ipv4Addr, class: AppClass) {
        self.shard.learn_server_hint(server, class);
    }

    /// Current traffic matrix as the middlebox believes it.
    pub fn matrix(&self) -> TrafficMatrix {
        self.shard.matrix()
    }

    /// The wrapped Admittance Classifier.
    pub fn admittance(&self) -> &AdmittanceClassifier {
        self.shard
            .inline_classifier()
            .expect("a middlebox shard always learns inline")
    }

    /// Number of currently admitted flows.
    pub fn admitted_flows(&self) -> usize {
        self.shard.admitted_flows()
    }

    /// Snapshot the learnt state (Admittance Classifier + QoE fits)
    /// into the versioned `exbox-ckpt` format. Live flow-table state
    /// is deliberately not checkpointed: after a crash the flows are
    /// re-discovered through early classification, while the learnt
    /// region — the expensive part — survives.
    pub fn checkpoint<W: Write>(&self, out: W) -> io::Result<()> {
        persist::save_checkpoint(self.admittance(), self.shard.estimator(), out)?;
        self.checkpoint_writes.inc();
        Ok(())
    }

    /// [`Middlebox::checkpoint`] to a file, written atomically (temp
    /// file + fsync + rename) so a crash mid-write never clobbers the
    /// previous good checkpoint.
    pub fn checkpoint_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        persist::save_checkpoint_to_path(self.admittance(), self.shard.estimator(), path.as_ref())?;
        self.checkpoint_writes.inc();
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
        mb.restores.inc();
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
        mb.restores.inc();
        Ok(mb)
    }

    /// Restore from a checkpoint file, degrading instead of dying: on
    /// any restore error (missing, torn, corrupt, malformed) a fresh
    /// middlebox is assembled around `fallback_estimator` with
    /// [`Middlebox::is_recovering`] set, so the occupancy fallback
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
                let mb = Self::build(cfg, fallback_estimator, fresh, registry, true);
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
        self.shard.process_packet(pkt, snr)
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
        self.shard.process_packets(pkts)
    }

    /// Record a delivery report for an admitted flow (from the AP's
    /// transmission-status feed in a real deployment, or from the
    /// simulator here).
    pub fn record_delivery(&mut self, key: &FlowKey, sent: Instant, received: Instant, size: u32) {
        self.shard.record_delivery(key, sent, received, size);
    }

    /// Record a drop report for an admitted flow.
    pub fn record_drop(&mut self, key: &FlowKey) {
        self.shard.record_drop(key);
    }

    /// A flow ended (FIN/idle-eviction): release its admission.
    pub fn flow_departed(&mut self, key: &FlowKey) {
        self.shard.flow_departed(key);
    }

    /// Periodic poll (paper §4.3): estimate admitted flows' QoE from
    /// their metered QoS, feed the aggregate observation to the
    /// Admittance Classifier — retraining and publishing synchronously
    /// if it completes a batch — and re-evaluate the admitted set
    /// against the (possibly re-learnt) region. Returns **only the
    /// revoked flows** (empty when everything was kept — kept flows are
    /// tallied in the `middlebox.keeps` counter instead of
    /// materialised), in deterministic admission order, oldest first.
    /// A no-op before `poll_interval` has elapsed since the last poll.
    pub fn poll(&mut self, now: Instant) -> Vec<(FlowKey, PollVerdict)> {
        self.shard.poll(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admittance::{AdmittanceConfig, Phase};
    use crate::matrix::FlowKind;
    use crate::qoe::{paper_directions, train_estimator, QoeEstimator};
    use crate::recovery::FaultKind;
    use exbox_ml::Label;
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
        assert_eq!(
            reg.snapshot().gauge("middlebox.rejected_occupancy"),
            Some(2.0),
            "rejected set must stay bounded"
        );
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
