//! The closed-loop episode driver.
//!
//! Each tick runs four phases against the gateway's public API:
//!
//! 1. **Packets** through a 1-lane pipeline (`start_pipeline` →
//!    `ingest` / `drain_verdicts` → `finish_pipeline`), one driver
//!    thread keeping at most [`WINDOW`] chunks of [`CHUNK`] packets in
//!    flight — or, for the untimed reference, one sequential
//!    `process_packets` call.
//! 2. **Lifecycle**: `flow_departed` for ended sessions, then one
//!    `record_delivery` (and a `record_drop` where the cell loses
//!    packets) per admitted flow, synthesised from the cell model.
//! 3. **Poll**: `poll_into` at the tick's end.
//! 4. **Trainer barrier**: `flush_trainer` on gateways with a trainer,
//!    which makes the verdict stream a pure function of the seed.
//!
//! Bench-side work (workload generation, the cell model, report
//! synthesis, the verdict mirror) runs between gateway calls and is
//! timed separately, never inside a gateway-call interval.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::Instant as WallInstant;

use exbox_core::admittance::Phase;
use exbox_core::gateway::ModelSnapshot;
use exbox_core::matrix::{FlowKind, SnrLevel, TrafficMatrix};
use exbox_core::middlebox::{Action, MiddleboxConfig, PollVerdict};
use exbox_ml::Label;
use exbox_net::{AppClass, Duration, EarlyClassifier, FlowKey, Instant, Packet, QosSample};
use exbox_obs::{MetricsRegistry, MetricsSnapshot};

use crate::stats::Samples;
use crate::system::{Cell, System};
use crate::trace::Tracer;
use crate::workload::{Kind, Ticks, CLASSIFY_WINDOW};

/// Packets per `ingest` call (the gateway's default batch).
pub const CHUNK: usize = 64;
/// Chunks the driver keeps in flight before it waits for verdicts.
pub const WINDOW: usize = 2;
/// Cap on each input list recorded for the ledger.
pub const RECORD_CAP: usize = 1 << 18;
/// Failure messages kept for the report.
const NOTE_CAP: usize = 8;

/// Gateway-call time a rate block spans at least: long enough to
/// include `drift`'s retrains in proportion, short enough that a moment
/// of host noise spoils one block, not the run.
pub const BLOCK_NS: u64 = 20_000_000;

/// Host CPU time stolen from the machine so far (all CPUs), in clock
/// ticks: the `steal` column of `/proc/stat`. `None` off Linux.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// A block of consecutive ticks for the rate metrics.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Packets, reports, departures and polls sent.
    pub events: u64,
    /// Wall time inside those gateway calls, ns.
    pub gateway_ns: u64,
    /// The hypervisor stole no CPU time (as `/proc/stat` counts it)
    /// while the block ran.
    pub clean: bool,
}

#[derive(Debug)]
struct OpenBlock {
    events: u64,
    gateway_ns: u64,
    steal_at_start: Option<u64>,
}

impl OpenBlock {
    fn new() -> Self {
        OpenBlock {
            events: 0,
            gateway_ns: 0,
            steal_at_start: steal_ticks(),
        }
    }

    fn close(&mut self, blocks: &mut Vec<Block>) {
        let now = steal_ticks();
        blocks.push(Block {
            events: self.events,
            gateway_ns: self.gateway_ns,
            clean: now.is_some() && now == self.steal_at_start,
        });
        *self = OpenBlock {
            events: 0,
            gateway_ns: 0,
            steal_at_start: now,
        };
    }
}

/// How the packet phase is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// 1-lane pipeline, timed.
    Pipeline,
    /// Sequential `process_packets`, the reference replay.
    Sequential,
}

/// Admission decisions scored against a label of the resulting matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// Admitted, label acceptable.
    pub tp: u64,
    /// Admitted, label unacceptable.
    pub fp: u64,
    /// Rejected, label unacceptable.
    pub tn: u64,
    /// Rejected, label acceptable.
    pub fn_: u64,
}

impl Quality {
    /// Precision of admissions (`None` with no admission).
    pub fn precision(&self) -> Option<f64> {
        let d = self.tp + self.fp;
        (d > 0).then(|| self.tp as f64 / d as f64)
    }

    /// Recall of acceptable decisions (`None` with no acceptable one).
    pub fn recall(&self) -> Option<f64> {
        let d = self.tp + self.fn_;
        (d > 0).then(|| self.tp as f64 / d as f64)
    }

    /// Decisions scored.
    pub fn decisions(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    fn record(&mut self, admitted: bool, acceptable: bool) {
        match (admitted, acceptable) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }
}

/// The reference verdict stream, one bit per packet (1 = forward).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictBits {
    words: Vec<u64>,
    len: u64,
}

impl VerdictBits {
    fn push(&mut self, forward: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if forward {
            *self.words.last_mut().expect("word pushed above") |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    fn get(&self, i: u64) -> Option<bool> {
        (i < self.len).then(|| self.words[(i / 64) as usize] >> (i % 64) & 1 == 1)
    }

    /// Verdicts recorded.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Which part of the shard's packet path each packet took, as the
/// verdict mirror reconstructs it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathCounts {
    /// Dropped by the rejected-set probe.
    pub rejected_hits: u64,
    /// Forwarded by the flow-table probe (admitted flow).
    pub admitted_hits: u64,
    /// Reached the early classifier.
    pub classified: u64,
    /// Completed classification: an admission decision.
    pub decisions: u64,
}

/// Inputs recorded for the per-layer ledger (first episode of a
/// traced run), each capped at [`RECORD_CAP`].
#[derive(Debug, Default)]
pub struct Recording {
    /// Every packet's flow key (rejected-set probe inputs).
    pub all_keys: Vec<FlowKey>,
    /// Keys of packets that passed the rejected-set probe.
    pub probe_keys: Vec<FlowKey>,
    /// Packets that reached the early classifier, in order.
    pub classify_pkts: Vec<Packet>,
    /// Rejected-set inserts in order (rejections and revocations).
    pub rejections: Vec<FlowKey>,
    /// Resulting matrices of admission decisions.
    pub decisions: Vec<TrafficMatrix>,
    /// Admitted flows in admission order.
    pub admitted_keys: Vec<FlowKey>,
    /// Delivery reports `(sent, received, bytes)`.
    pub deliveries: Vec<(Instant, Instant, u32)>,
    /// `(class, QoS)` pairs the polls estimate QoE from.
    pub qoe: Vec<(AppClass, QosSample)>,
    /// Largest admitted set seen.
    pub peak_admitted: usize,
    /// Matrix at the end of the episode.
    pub final_matrix: TrafficMatrix,
    /// Snapshot served at the end of the episode.
    pub snapshot: Option<ModelSnapshot>,
    /// The gateway's rejected-set capacity.
    pub rejected_capacity: usize,
}

fn capped_push<T>(v: &mut Vec<T>, x: T) {
    if v.len() < RECORD_CAP {
        v.push(x);
    }
}

/// Everything one episode measured and checked.
#[derive(Debug)]
pub struct Episode {
    /// Packets sent.
    pub packets: u64,
    /// Delivery and drop reports sent.
    pub reports: u64,
    /// Departures sent.
    pub departures: u64,
    /// Polls made.
    pub polls: u64,
    /// Trainer barriers made.
    pub flushes: u64,
    /// Wall time of the packet phases, ns.
    pub packet_phase_ns: u64,
    /// Wall time inside gateway calls, ns.
    pub gateway_ns: u64,
    /// Wall time of the tick loop (excluding generation), ns.
    pub loop_ns: u64,
    /// Workload generation, ns.
    pub gen_ns: u64,
    /// Bench-side cell, report synthesis and verdict mirror, ns.
    pub env_ns: u64,
    /// Per-chunk verdict latency, µs, of chunks sent once the packet
    /// phase's worker was running.
    pub chunk_us: Samples,
    /// Verdict latency of the chunks sent before the packet phase's
    /// first verdict came back, µs: they wait for the freshly started
    /// worker thread.
    pub first_chunk_us: Samples,
    /// Consecutive ticks grouped into blocks of at least [`BLOCK_NS`]
    /// of gateway-call time (a trailing partial block is dropped unless
    /// it is the only one).
    pub blocks: Vec<Block>,
    /// Per tick: packet rate (tick packets over its packet phase, in
    /// Mpkt/s) and the index of the block the tick belongs to.
    pub tick_mpps: Vec<(f64, usize)>,
    /// Retrain → servable snapshot latency, ms.
    pub publish_ms: Samples,
    /// `flush_trainer` durations, ms.
    pub flush_ms: Samples,
    /// `poll_into` durations, µs.
    pub poll_us: Samples,
    /// `start_pipeline` durations, µs.
    pub start_us: Samples,
    /// `finish_pipeline` durations, µs.
    pub finish_us: Samples,
    /// Decision quality against the QoE label the gateway's polls
    /// observe, each distinct decision scored once: a repeat of an
    /// earlier decision by the same snapshot on the same resulting
    /// matrix (necessarily the same verdict) is not scored again, so
    /// the figure grades the model, not how many arrivals queued at
    /// one matrix.
    pub quality: Quality,
    /// The same decisions against the cell's application-level truth.
    pub app_quality: Quality,
    /// Failed operations.
    pub failed: u64,
    /// First failure messages.
    pub notes: Vec<String>,
    /// The verdict stream (sequential mode only).
    pub verdicts: VerdictBits,
    /// Merged gateway metrics at the end.
    pub metrics: MetricsSnapshot,
    /// The classifier's registry at the end.
    pub learnt: Option<MetricsSnapshot>,
    /// Snapshots published during the episode.
    pub publishes: u64,
    /// Largest `gateway.snapshot_staleness` seen after a barrier.
    pub staleness_max: f64,
    /// Packet-path breakdown from the verdict mirror.
    pub paths: PathCounts,
    /// Polls whose revocations followed a snapshot published *during*
    /// the poll: its own observation completed a retrain, and the
    /// trainer's publish raced the poll's region re-evaluation. The
    /// outcome depends on thread timing, so the verdict stream is
    /// compared with the reference only up to the first such tick.
    pub poll_races: u64,
    /// Tick of the first poll race.
    pub first_race_tick: Option<u32>,
    /// Ticks whose verdicts were compared with the reference.
    pub compared_ticks: u64,
    /// Ledger inputs, when asked for.
    pub recording: Option<Recording>,
}

impl Episode {
    /// Operations attempted: packets, reports, departures, polls and
    /// trainer barriers.
    pub fn attempted(&self) -> u64 {
        self.packets + self.reports + self.departures + self.polls + self.flushes
    }

    /// Events the loop rate counts: packets, reports, departures, polls.
    pub fn events(&self) -> u64 {
        self.packets + self.reports + self.departures + self.polls
    }

    fn fail(&mut self, n: u64, msg: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.notes.len() < NOTE_CAP {
            self.notes.push(msg());
        } else if self.notes.len() == NOTE_CAP {
            self.notes.push("further failures not itemised".into());
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowState {
    Admitted,
    /// In the rejected set after a rejection decision (the shard
    /// forgot its classification).
    Rejected,
    /// In the rejected set after a revocation (the shard's classifier
    /// still remembers the flow).
    Revoked,
    /// A revoked flow evicted from the rejected set: forwarded for
    /// good without another decision.
    Ghost,
}

/// An independent oracle of the shard: its admitted set (in admission
/// order, which is the order revocations shed flows in), rejected set
/// and classifier state, rebuilt from the verdict stream. It classifies
/// with its own `EarlyClassifier` (the class is a pure function of a
/// flow's first packets), so it knows which packet carried each
/// admission decision, the flow kind and the matrix that decision
/// produced — and it recomputes every decision and every revocation on
/// the served snapshot to check the gateway's answer.
struct Mirror {
    early: EarlyClassifier,
    state: HashMap<FlowKey, FlowState>,
    /// Admitted flows by admission sequence (oldest first).
    admitted: BTreeMap<u64, (FlowKey, FlowKind)>,
    admitted_seq: HashMap<FlowKey, u64>,
    next_seq: u64,
    matrix: TrafficMatrix,
    /// Occupancy cap of the degraded fallback.
    fallback_cap: u32,
    /// Snapshots published before the current packet phase: the
    /// serving epoch (publishes happen only after packet phases).
    epoch: u64,
    /// Distinct `(epoch, resulting matrix)` decisions already scored.
    scored: HashSet<(u64, TrafficMatrix)>,
}

impl Mirror {
    fn new() -> Self {
        Mirror {
            early: EarlyClassifier::with_default_profiles(CLASSIFY_WINDOW),
            state: HashMap::new(),
            admitted: BTreeMap::new(),
            admitted_seq: HashMap::new(),
            next_seq: 0,
            matrix: TrafficMatrix::empty(),
            fallback_cap: MiddleboxConfig::default().fallback_max_flows.max(1),
            epoch: 0,
            scored: HashSet::new(),
        }
    }

    fn admitted_len(&self) -> usize {
        self.admitted.len()
    }

    fn admit(&mut self, key: FlowKey, kind: FlowKind) {
        self.state.insert(key, FlowState::Admitted);
        self.admitted_seq.insert(key, self.next_seq);
        self.admitted.insert(self.next_seq, (key, kind));
        self.next_seq += 1;
        self.matrix.add(kind);
    }

    fn unadmit(&mut self, key: &FlowKey) -> bool {
        let Some(seq) = self.admitted_seq.remove(key) else {
            return false;
        };
        if let Some((_, kind)) = self.admitted.remove(&seq) {
            self.matrix.remove(kind);
        }
        true
    }

    /// The shard's admission rule on `snap`: the degraded occupancy
    /// fallback when an Online snapshot has no model, otherwise the
    /// snapshot's decision on the resulting matrix.
    fn admits(&self, snap: &ModelSnapshot, resulting: &TrafficMatrix) -> bool {
        if !snap.model_available() && snap.phase() == Phase::Online {
            return self.matrix.total() < self.fallback_cap;
        }
        snap.decide(resulting).0 == Label::Pos
    }

    /// The flows a poll re-evaluating against `snap` revokes: the
    /// oldest admissions, one at a time, while the region rejects the
    /// current matrix.
    fn revocations(&self, snap: &ModelSnapshot) -> Vec<FlowKey> {
        let mut out = Vec::new();
        if snap.phase() != Phase::Online {
            return out;
        }
        let mut matrix = self.matrix;
        let mut oldest = self.admitted.values();
        while snap.decide(&matrix).0 == Label::Neg {
            let Some(&(key, kind)) = oldest.next() else {
                break;
            };
            matrix.remove(kind);
            out.push(key);
        }
        out
    }

    /// Apply one packet's verdict; returns false when the verdict
    /// contradicts the shard's semantics on the served snapshot.
    fn packet(
        &mut self,
        pkt: &Packet,
        snr: SnrLevel,
        forward: bool,
        snap: &ModelSnapshot,
        cell: &mut Cell,
        ep: &mut Episode,
    ) -> bool {
        let state = self.state.get(&pkt.flow).copied();
        if let Some(rec) = ep.recording.as_mut() {
            capped_push(&mut rec.all_keys, pkt.flow);
        }
        match state {
            Some(FlowState::Admitted) => {
                ep.paths.admitted_hits += 1;
                if let Some(rec) = ep.recording.as_mut() {
                    capped_push(&mut rec.probe_keys, pkt.flow);
                }
                return forward;
            }
            Some(FlowState::Rejected | FlowState::Revoked) if !forward => {
                ep.paths.rejected_hits += 1;
                return true;
            }
            // Forwarded while we believed it rejected: the bounded
            // rejected set evicted it.
            Some(FlowState::Rejected) => {
                self.state.remove(&pkt.flow);
            }
            Some(FlowState::Revoked) => {
                self.state.insert(pkt.flow, FlowState::Ghost);
            }
            Some(FlowState::Ghost) | None => {}
        }
        if let Some(rec) = ep.recording.as_mut() {
            capped_push(&mut rec.probe_keys, pkt.flow);
            capped_push(&mut rec.classify_pkts, *pkt);
        }
        ep.paths.classified += 1;
        let Some(class) = self.early.observe(pkt) else {
            return forward;
        };
        ep.paths.decisions += 1;
        let kind = FlowKind::new(class, snr);
        let resulting = self.matrix.with_arrival(kind);
        let expected = self.admits(snap, &resulting);
        if let Some(rec) = ep.recording.as_mut() {
            capped_push(&mut rec.decisions, resulting);
        }
        if self.scored.insert((self.epoch, resulting)) {
            let outcome = cell.outcome(&resulting);
            ep.quality.record(forward, outcome.observed);
            ep.app_quality.record(forward, outcome.app);
        }
        // Follow the gateway's answer either way, so one wrong verdict
        // is reported once rather than desynchronising the oracle.
        if forward {
            self.admit(pkt.flow, kind);
            if let Some(rec) = ep.recording.as_mut() {
                capped_push(&mut rec.admitted_keys, pkt.flow);
                rec.peak_admitted = rec.peak_admitted.max(self.admitted_len());
            }
        } else {
            self.early.forget(&pkt.flow);
            self.state.insert(pkt.flow, FlowState::Rejected);
            if let Some(rec) = ep.recording.as_mut() {
                capped_push(&mut rec.rejections, pkt.flow);
            }
        }
        forward == expected
    }

    fn departed(&mut self, key: &FlowKey) {
        self.unadmit(key);
        self.state.remove(key);
        self.early.forget(key);
    }

    fn revoked(&mut self, key: &FlowKey) -> bool {
        if !self.unadmit(key) {
            return false;
        }
        self.state.insert(*key, FlowState::Revoked);
        true
    }
}

/// Per-episode settings.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeSpec<'a> {
    /// Workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Kick-the-tires sizes.
    pub quick: bool,
    /// Packet-phase driving.
    pub mode: Mode,
    /// The sequential reference episode to compare against (pipeline
    /// mode).
    pub reference: Option<&'a Episode>,
    /// Record ledger inputs.
    pub record: bool,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A chunk in flight: one past its last packet's index, when its
/// `ingest` call started, and whether it was sent before the packet
/// phase's first verdict came back.
type InFlight = (usize, WallInstant, bool);

/// Block until the pipeline returns at least one verdict (or, with
/// `wait == false`, make one non-blocking drain), then retire every
/// chunk whose last verdict has arrived.
fn drain(
    pipe: &mut exbox_core::gateway::PipelineHandle,
    verdicts: &mut Vec<Action>,
    pending: &mut VecDeque<InFlight>,
    tracer: &mut Tracer,
    ep: &mut Episode,
    wait: bool,
) {
    let span = tracer.open("pipeline.drain");
    let mut got = pipe.drain_verdicts(verdicts);
    let mut spins = 0u32;
    while got == 0 && wait {
        // Spin briefly, then yield: on a CPU shared with other work the
        // worker this thread waits for must get to run.
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        got = pipe.drain_verdicts(verdicts);
    }
    let now = WallInstant::now();
    tracer.close(span, got as u32);
    while let Some(&(end, t, first)) = pending.front() {
        if end > verdicts.len() {
            break;
        }
        let us = now.duration_since(t).as_nanos() as f64 / 1e3;
        if first {
            ep.first_chunk_us.push(us);
        } else {
            ep.chunk_us.push(us);
        }
        pending.pop_front();
    }
}

fn packet_phase(
    sys: &mut System,
    mode: Mode,
    packets: &[(Packet, SnrLevel)],
    verdicts: &mut Vec<Action>,
    tracer: &mut Tracer,
    ep: &mut Episode,
) {
    verdicts.clear();
    let phase = tracer.open("packet_phase");
    let t = WallInstant::now();
    match mode {
        Mode::Sequential => {
            let span = tracer.open("shard.batch");
            verdicts.extend(sys.gw.process_packets(packets));
            tracer.close(span, packets.len() as u32);
        }
        Mode::Pipeline => {
            let span = tracer.open("pipeline.start");
            let mut pipe = sys.gw.start_pipeline();
            ep.start_us.push(us(tracer.close(span, 0)));
            let mut pending: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW + 1);
            let mut sent = 0usize;
            for chunk in packets.chunks(CHUNK) {
                while pending.len() >= WINDOW {
                    drain(&mut pipe, verdicts, &mut pending, tracer, ep, true);
                }
                let span = tracer.open("pipeline.ingest");
                let t_in = WallInstant::now();
                pipe.ingest(chunk);
                tracer.close(span, chunk.len() as u32);
                // Chunks sent before the phase's first verdict came back
                // wait for the freshly started worker thread.
                pending.push_back((sent + chunk.len(), t_in, verdicts.is_empty()));
                sent += chunk.len();
                drain(&mut pipe, verdicts, &mut pending, tracer, ep, false);
            }
            while !pending.is_empty() {
                drain(&mut pipe, verdicts, &mut pending, tracer, ep, true);
            }
            let span = tracer.open("pipeline.finish");
            let tail = sys.gw.finish_pipeline(pipe);
            ep.finish_us.push(us(tracer.close(span, tail.len() as u32)));
            verdicts.extend(tail);
        }
    }
    let ns = t.elapsed().as_nanos() as u64;
    tracer.close(phase, packets.len() as u32);
    if !packets.is_empty() && ns > 0 {
        ep.tick_mpps
            .push((packets.len() as f64 * 1e3 / ns as f64, ep.blocks.len()));
    }
    ep.packet_phase_ns += ns;
    ep.gateway_ns += ns;
}

/// Run one episode on a freshly set-up system.
pub fn run_episode(
    spec: EpisodeSpec<'_>,
    sys: &mut System,
    cell: &mut Cell,
    tracer: &mut Tracer,
) -> Episode {
    let mut ep = Episode {
        packets: 0,
        reports: 0,
        departures: 0,
        polls: 0,
        flushes: 0,
        packet_phase_ns: 0,
        gateway_ns: 0,
        loop_ns: 0,
        gen_ns: 0,
        env_ns: 0,
        chunk_us: Samples::new(),
        first_chunk_us: Samples::new(),
        blocks: Vec::new(),
        tick_mpps: Vec::new(),
        publish_ms: Samples::new(),
        flush_ms: Samples::new(),
        poll_us: Samples::new(),
        start_us: Samples::new(),
        finish_us: Samples::new(),
        quality: Quality::default(),
        app_quality: Quality::default(),
        failed: 0,
        notes: Vec::new(),
        verdicts: VerdictBits::default(),
        metrics: MetricsRegistry::new().snapshot(),
        learnt: None,
        publishes: 0,
        staleness_max: 0.0,
        paths: PathCounts::default(),
        poll_races: 0,
        first_race_tick: None,
        compared_ticks: 0,
        recording: spec.record.then(Recording::default),
    };
    let mut mirror = Mirror::new();
    let mut reader = sys.gw.snapshot_reader();
    let mut verdicts: Vec<Action> = Vec::new();
    let mut poll_buf = Vec::new();
    let mut deliveries: Vec<(FlowKey, Instant, Instant, u32)> = Vec::new();
    let mut drops: Vec<FlowKey> = Vec::new();
    let mut vi: u64 = 0;
    let publishes_before = sys.gw.publish_count();
    let reference = spec.reference.filter(|_| spec.mode == Mode::Pipeline);
    let mut open = OpenBlock::new();
    let mut ticks = Ticks::new(spec.kind, spec.seed, spec.quick);
    loop {
        let g = WallInstant::now();
        let next = ticks.next();
        ep.gen_ns += g.elapsed().as_nanos() as u64;
        let Some(tick) = next else { break };
        tracer.set_tick(tick.index);
        let tick_span = tracer.open("tick");
        let (events_before, gateway_before) = (ep.events(), ep.gateway_ns);

        // Bench side: the snapshot the packet phase serves (publishes
        // happen only after packet phases).
        let env = tracer.open("env.snapshot");
        mirror.epoch = sys.gw.publish_count();
        let served = (*reader.pin()).clone();
        ep.env_ns += tracer.close(env, 0);

        // 1. Packet phase.
        packet_phase(
            sys,
            spec.mode,
            &tick.packets,
            &mut verdicts,
            tracer,
            &mut ep,
        );
        ep.packets += tick.packets.len() as u64;

        // Bench side: one verdict per packet, the reference stream (up
        // to the first poll/trainer race in either run), and the
        // oracle's answer for every packet.
        let env = tracer.open("env.verdicts");
        let n = tick.packets.len();
        if verdicts.len() != n {
            let got = verdicts.len();
            ep.fail(n.abs_diff(got) as u64, || {
                format!("tick {}: {got} verdicts for {n} packets", tick.index)
            });
        }
        let compare = reference.filter(|r| {
            let raced_before = |race: Option<u32>| race.is_some_and(|t| t < tick.index);
            !raced_before(r.first_race_tick) && !raced_before(ep.first_race_tick)
        });
        if compare.is_some() {
            ep.compared_ticks += 1;
        }
        let mut mismatches = 0u64;
        let mut wrong = 0u64;
        for ((pkt, snr), act) in tick.packets.iter().zip(&verdicts) {
            let forward = *act == Action::Forward;
            if spec.mode == Mode::Sequential {
                ep.verdicts.push(forward);
            } else if let Some(r) = compare {
                if r.verdicts.get(vi) != Some(forward) {
                    mismatches += 1;
                }
            }
            vi += 1;
            if !mirror.packet(pkt, *snr, forward, &served, cell, &mut ep) {
                wrong += 1;
            }
        }
        ep.fail(mismatches, || {
            format!(
                "tick {}: {mismatches} verdicts differ from the sequential reference",
                tick.index
            )
        });
        ep.fail(wrong, || {
            format!(
                "tick {}: {wrong} verdicts contradict the oracle (admitted set + served snapshot)",
                tick.index
            )
        });
        ep.env_ns += tracer.close(env, n as u32);

        // 2. Lifecycle: departures, then reports for the flows still admitted.
        let span = tracer.open("lifecycle.departure");
        let t = WallInstant::now();
        for key in &tick.departures {
            sys.gw.flow_departed(key);
        }
        ep.gateway_ns += t.elapsed().as_nanos() as u64;
        tracer.close(span, tick.departures.len() as u32);
        ep.departures += tick.departures.len() as u64;

        let env = tracer.open("env.reports");
        for key in &tick.departures {
            mirror.departed(key);
        }
        if tick.throttle {
            cell.throttle();
        }
        deliveries.clear();
        drops.clear();
        if mirror.admitted_len() > 0 {
            let outcome = cell.outcome(&mirror.matrix);
            for &(key, kind) in mirror.admitted.values() {
                let Some(q) = outcome.qos[kind.flat_index()] else {
                    continue;
                };
                let delay = q.mean_delay.max(Duration::from_micros(1));
                let bytes = (q.throughput_bps * delay.as_secs_f64() / 8.0).round();
                let received = tick.now - Duration::from_millis(1);
                let sent = received - delay;
                deliveries.push((
                    key,
                    sent,
                    received,
                    bytes.clamp(1.0, f64::from(u32::MAX)) as u32,
                ));
                if q.loss_ratio > 0.0 {
                    drops.push(key);
                }
                if let Some(rec) = ep.recording.as_mut() {
                    capped_push(&mut rec.deliveries, (sent, received, bytes as u32));
                    capped_push(&mut rec.qoe, (kind.class, q));
                }
            }
        }
        // What the poll should revoke on the snapshot it pins — unless
        // its own observation completes a retrain whose publish lands
        // first (see `poll_races`).
        let expected = mirror.revocations(&served);
        ep.env_ns += tracer.close(env, deliveries.len() as u32);

        let span = tracer.open("lifecycle.delivery");
        let t = WallInstant::now();
        for &(key, sent, received, size) in &deliveries {
            sys.gw.record_delivery(&key, sent, received, size);
        }
        ep.gateway_ns += t.elapsed().as_nanos() as u64;
        tracer.close(span, deliveries.len() as u32);
        let span = tracer.open("lifecycle.drop");
        let t = WallInstant::now();
        for key in &drops {
            sys.gw.record_drop(key);
        }
        ep.gateway_ns += t.elapsed().as_nanos() as u64;
        tracer.close(span, drops.len() as u32);
        ep.reports += (deliveries.len() + drops.len()) as u64;

        // 3. Poll.
        poll_buf.clear();
        let before_poll = sys.gw.publish_count();
        let span = tracer.open("poll");
        let t = WallInstant::now();
        sys.gw.poll_into(tick.now, &mut poll_buf);
        let poll_end = WallInstant::now();
        let poll_ns = poll_end.duration_since(t).as_nanos() as u64;
        ep.gateway_ns += poll_ns;
        tracer.close(span, poll_buf.len() as u32);
        ep.poll_us.push(us(poll_ns));
        ep.polls += 1;
        let published_in_poll = sys.gw.publish_count() > before_poll;

        // 4. Trainer barrier.
        if sys.has_trainer {
            let before = sys.gw.publish_count();
            let span = tracer.open("flush");
            let ok = sys.gw.flush_trainer();
            let done = WallInstant::now();
            let flush_ns = tracer.close(span, 0);
            ep.flush_ms.push(ms(flush_ns));
            ep.flushes += 1;
            if !ok {
                ep.fail(1, || {
                    format!("tick {}: flush_trainer returned false", tick.index)
                });
            }
            if sys.gw.publish_count() > before || published_in_poll {
                ep.publish_ms
                    .push(ms(done.duration_since(poll_end).as_nanos() as u64));
            }
        }

        let env = tracer.open("env.checks");
        let revoked: Vec<FlowKey> = poll_buf
            .iter()
            .filter(|(_, v)| *v == PollVerdict::Revoke)
            .map(|(k, _)| *k)
            .collect();
        if revoked != expected {
            // The poll sent its observation before re-evaluating the
            // region; if that observation completed a retrain, the
            // trainer may publish before the re-evaluation pins. Then
            // the revocations follow the new snapshot, and which one
            // the poll saw depends on thread timing.
            let fresh = (*reader.pin()).clone();
            if published_in_poll && revoked == mirror.revocations(&fresh) {
                ep.poll_races += 1;
                ep.first_race_tick.get_or_insert(tick.index);
            } else {
                ep.fail(1, || {
                    format!(
                        "tick {}: poll revoked {} flows, the served snapshot revokes {}",
                        tick.index,
                        revoked.len(),
                        expected.len()
                    )
                });
            }
        }
        let mut bad_revokes = 0u64;
        for key in &revoked {
            if !mirror.revoked(key) {
                bad_revokes += 1;
            }
            if let Some(rec) = ep.recording.as_mut() {
                capped_push(&mut rec.rejections, *key);
            }
        }
        ep.fail(bad_revokes, || {
            format!(
                "tick {}: {bad_revokes} revocations of flows not admitted",
                tick.index
            )
        });
        let (gw_flows, gw_matrix) = (sys.gw.admitted_flows(), sys.gw.matrix());
        if gw_flows != mirror.admitted_len() || gw_matrix != mirror.matrix {
            let mine = mirror.admitted_len();
            ep.fail(1, || {
                format!(
                    "tick {}: driver tally {mine} flows {:?} != gateway {gw_flows} flows {:?}",
                    tick.index,
                    mirror.matrix.counts(),
                    gw_matrix.counts()
                )
            });
        }
        if tracer.recording() && sys.has_trainer {
            let staleness = sys
                .gw
                .trainer_registry()
                .snapshot()
                .gauge("gateway.snapshot_staleness")
                .unwrap_or(0.0);
            ep.staleness_max = ep.staleness_max.max(staleness);
        }
        ep.env_ns += tracer.close(env, 0);
        ep.loop_ns += tracer.close(tick_span, 0);
        open.events += ep.events() - events_before;
        open.gateway_ns += ep.gateway_ns - gateway_before;
        if open.gateway_ns >= BLOCK_NS {
            open.close(&mut ep.blocks);
        }
    }

    if ep.blocks.is_empty() && open.gateway_ns > 0 {
        open.close(&mut ep.blocks);
    }
    if let Some(r) = reference {
        if r.verdicts.len() != vi {
            ep.fail(r.verdicts.len().abs_diff(vi), || {
                format!("episode: {vi} verdicts, reference has {}", r.verdicts.len())
            });
        }
    }
    ep.metrics = sys.gw.merged_metrics();
    let dropped = ep.metrics.counter("gateway.obs_dropped").unwrap_or(0);
    if dropped > 0 {
        // Always itemised: a dropped observation desynchronises the
        // learner and explains any verdict divergence that follows.
        ep.failed += dropped;
        ep.notes.push(format!(
            "{dropped} observations dropped (gateway.obs_dropped)"
        ));
    }
    ep.learnt = sys.learnt.as_ref().map(|r| r.snapshot());
    ep.publishes = sys.gw.publish_count() - publishes_before;
    if let Some(rec) = ep.recording.as_mut() {
        rec.final_matrix = mirror.matrix;
        rec.snapshot = Some((*reader.pin()).clone());
        rec.rejected_capacity = crate::system::gateway_config(spec.kind)
            .middlebox
            .rejected_capacity;
    }
    ep
}
