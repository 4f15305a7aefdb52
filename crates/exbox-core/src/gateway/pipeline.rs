//! Multi-core packet data plane: per-shard SPSC ingress rings, pinned
//! run-to-completion workers, and a sequence-ordered verdict merge.
//!
//! ```text
//!                     ┌ spsc ring ┐   ┌──────────┐  ┌ spsc ring ┐
//!          ┌─ route ─▶│ (seq,pkt) │──▶│ worker 0 │─▶│(seq,act)  │─┐
//!  caller ─┤          └───────────┘   │ shard 0  │  └───────────┘ │  ordered
//!  ingest  │          ┌───────────┐   ├──────────┤  ┌───────────┐ ├─▶ merge ─▶ verdicts
//!          └─ route ─▶│ (seq,pkt) │──▶│ worker 1 │─▶│(seq,act)  │─┘  (reorder ring)
//!                     └───────────┘   │ shard 1  │  └───────────┘
//!                                     └────┬─────┘
//!                                      OrderGate (decision ordering)
//! ```
//!
//! [`ConcurrentGateway::start_pipeline`](super::ConcurrentGateway::start_pipeline)
//! hands each shard to its lane — a worker thread the gateway spawned
//! on its first pipeline and keeps parked between packet phases (see
//! [Lanes](#lanes)); the caller drives the [`PipelineHandle`]:
//! [`ingest`](PipelineHandle::ingest) assigns every packet a global
//! **ingress sequence number**, routes it by flow hash (the same
//! [`hash_flow_key`](crate::flowtable::hash_flow_key) routing as the
//! sequential drivers) into its shard's bounded `spsc` ring, and
//! publishes rings in batches. Each worker drains its ring run-to-completion through the shard's batch
//! path and emits `(seq, action)` onto its verdict ring; the handle
//! merges those per-shard streams through a pre-sized reorder ring
//! back into one globally-ordered verdict stream.
//!
//! # Determinism (DESIGN.md §10)
//!
//! The merged verdict stream is **byte-identical** to driving the same
//! packet slice through the sequential
//! [`ConcurrentGateway::process_packets`](super::ConcurrentGateway::process_packets),
//! at any shard count. Shard-local state only ever sees its own flows
//! in ingress order (SPSC FIFO), so the only cross-shard races are
//! admission decisions against the [`SharedMatrix`](super::SharedMatrix).
//! The `OrderGate` serialises exactly those: a decision for sequence
//! `s` waits until every *other* lane's progress cursor passed `s`, so
//! matrix reads and writes happen in global ingress order — the same
//! interleaving the sequential driver produces — while the ~97% of
//! packets that never touch the matrix (rejected-probe drops, known
//! flows, classification warm-up) stream through in parallel.
//!
//! Gate liveness rests on two invariants encoded here:
//!
//! 1. **Prefix publication.** A sweep publishes *every* ring before
//!    advancing the shared watermark, so watermark `w` implies all
//!    sequences `< w` are visible in their rings.
//! 2. **Idle self-advance.** A worker that reads watermark `w` *and
//!    then* observes its ring empty has completed every owned sequence
//!    `< w`, so it may raise its progress cursor to `w`; sequences
//!    assigned later are `≥ w`, keeping the cursor monotone. A worker
//!    whose ring closed and drained retires its cursor to `u64::MAX`.
//!
//! Together these make the minimum outstanding decision always
//! eligible — no deadlock — without any worker ever blocking on a
//! lock.
//!
//! # Backpressure
//!
//! Everything is bounded: ingress rings hold `4 × batch` packets, and
//! at most `depth` (= shard count × ring capacity) packets are
//! in flight (assigned but unmerged), which also pre-sizes the reorder
//! ring and verdict rings so the merge never allocates and workers
//! never stall on verdict publication. [`PipelineHandle::try_ingest`]
//! returns early when a ring or the in-flight window is full;
//! [`PipelineHandle::ingest`] spins — publishing, merging and yielding
//! so workers keep draining — and counts each episode in
//! `gateway.ring_full_stalls` / `pipeline.reorder_stalls`.
//!
//! # Lanes
//!
//! Each shard has one lane: a persistent worker thread (`lane.rs`),
//! spawned lazily by the gateway's first `start_pipeline`
//! (`pipeline.lane_spawns`) and joined only when the gateway shuts
//! down. Everything else a phase needs is built with the lanes, once,
//! and kept in the [`PipelineHandle`] that the gateway lends out per
//! phase: each lane's ingress and verdict rings, the `OrderGate`, the
//! reorder ring, the merge and ready buffers, the batch scratch and
//! the metric handles. A lane owns the consumer end of its ingress
//! ring and the producer end of its verdict ring for life.
//!
//! - `start` *re-arms* the parts and hands every lane its shard: it
//!   resets the gate cursors, the watermark and the reorder ring to
//!   sequence 0 and reopens each ingress ring. Both ends of every ring
//!   are quiescent then — the lanes are parked, every ring was drained
//!   and every verdict merged — and the lane's lock handoff orders the
//!   reset before the lane's first read. Ring cursors carry on across
//!   phases, so reuse is ordinary wraparound. A start allocates
//!   nothing; its cost is the futex wake of each parked lane.
//! - `finish` closes the ingress rings and collects each shard. The
//!   lane ends its phase a few µs after the close, sooner than a futex
//!   sleep and wake-up take, so the collect spins on the lane's phase
//!   tag first and blocks on the condition variable only when the spin
//!   runs out (`pipeline.collect_blocks`). The spin is one-sided: only
//!   the dispatcher spins, inside `finish`; between phases a lane
//!   blocks and no thread spins.
//!
//! A lane that panics mid-phase retires its gate cursor and publishes
//! its verdict ring during the unwind (so no other lane waits on it),
//! bumps `pipeline.worker_failures` and records the panic message. Its
//! shard is lost; [`PipelineHandle::flush`] and every blocking wait of
//! the dispatcher then panic with a message naming the lane instead
//! of spinning forever.

use std::sync::Arc;

use exbox_net::Packet;
use exbox_obs::Counter;
use exbox_par::CachePadded;

use crate::matrix::SnrLevel;
use crate::middlebox::Action;
use crate::sync::{thread, AtomicU64, Ordering};

use super::lane::{Lane, LaneCounters};
use super::shard::GatewayShard;
use super::spsc;

/// One queued packet: global ingress sequence number, packet, SNR.
pub(crate) type IngressSlot = (u64, Packet, SnrLevel);

/// Decision-ordering gate shared by the dispatcher and every worker.
///
/// `progress[lane]` is the lane's cursor: every sequence the lane owns
/// below it is fully processed. `published` is the dispatcher's
/// watermark: every sequence below it is visible in its ring. See the
/// module docs for the invariants.
#[derive(Debug)]
pub(crate) struct OrderGate {
    progress: Box<[CachePadded<AtomicU64>]>,
    published: CachePadded<AtomicU64>,
    gate_waits: Arc<Counter>,
}

impl OrderGate {
    fn new(lanes: usize, gate_waits: Arc<Counter>) -> Self {
        OrderGate {
            progress: (0..lanes)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            published: CachePadded::new(AtomicU64::new(0)),
            gate_waits,
        }
    }

    /// Reset every cursor and the watermark for a new packet phase.
    /// Every lane is parked, so nothing reads the gate meanwhile; the
    /// lane handoff orders these stores before the lanes' next reads.
    fn rearm(&self) {
        for p in self.progress.iter() {
            p.store(0, Ordering::SeqCst);
        }
        self.published.store(0, Ordering::SeqCst);
    }

    /// Lane `lane` starts processing sequence `seq`; everything it
    /// owns below `seq` is complete.
    #[inline]
    pub(crate) fn begin(&self, lane: usize, seq: u64) {
        self.progress[lane].store(seq, Ordering::SeqCst);
    }

    /// Block (spin + yield) until every *other* lane's cursor passed
    /// `seq` — called immediately before a shared-matrix decision, so
    /// decisions commit in global ingress order.
    pub(crate) fn wait_turn(&self, lane: usize, seq: u64) {
        let mut waited = false;
        loop {
            let blocked = self
                .progress
                .iter()
                .enumerate()
                .any(|(j, p)| j != lane && p.load(Ordering::SeqCst) <= seq);
            if !blocked {
                return;
            }
            if !waited {
                waited = true;
                self.gate_waits.inc();
            }
            std::hint::spin_loop();
            thread::yield_now();
        }
    }

    /// Idle self-advance: `watermark` was read *before* the lane
    /// observed its ring empty (invariant 2 in the module docs).
    #[inline]
    fn idle(&self, lane: usize, watermark: u64) {
        self.progress[lane].store(watermark, Ordering::SeqCst);
    }

    /// The lane's ring closed and drained: no sequence will ever wait
    /// on it again.
    fn retire(&self, lane: usize) {
        self.progress[lane].store(u64::MAX, Ordering::SeqCst);
    }

    #[inline]
    fn watermark(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    /// Advance the watermark to `seq`; the caller must have published
    /// every ring first (invariant 1).
    fn publish_watermark(&self, seq: u64) {
        self.published.store(seq, Ordering::SeqCst);
    }
}

/// Pre-sized sequence-indexed reorder ring: verdicts arrive per shard
/// in shard-local seq order and leave in global seq order. Capacity is
/// the in-flight bound, so inserts can never collide and the merge
/// never allocates (`pipeline.reorder_stalls` counts the dispatcher
/// waiting for the window to drain instead).
#[derive(Debug)]
struct Reorder {
    /// Next sequence to emit.
    base: u64,
    mask: u64,
    slots: Vec<Option<Action>>,
}

impl Reorder {
    fn new(depth: usize) -> Self {
        let cap = depth.next_power_of_two();
        Reorder {
            base: 0,
            mask: (cap - 1) as u64,
            slots: vec![None; cap],
        }
    }

    #[inline]
    fn insert(&mut self, seq: u64, act: Action) {
        let slot = &mut self.slots[(seq & self.mask) as usize];
        debug_assert!(
            slot.is_none() && seq >= self.base && seq - self.base <= self.mask,
            "verdict outside the in-flight window"
        );
        *slot = Some(act);
    }

    /// Restart at sequence 0. Only after a flush: every slot below
    /// `base` was emitted, so the ring is empty.
    fn rearm(&mut self) {
        self.base = 0;
    }

    /// Append the contiguous ready prefix to `out`.
    fn emit_into(&mut self, out: &mut Vec<Action>) -> usize {
        let before = self.base;
        while let Some(act) = self.slots[(self.base & self.mask) as usize].take() {
            out.push(act);
            self.base += 1;
        }
        (self.base - before) as usize
    }
}

/// Counters bound from the gateway's pipeline registry; see the README
/// metrics reference.
struct PipelineMetrics {
    ingested: Arc<Counter>,
    merged: Arc<Counter>,
    ring_full_stalls: Arc<Counter>,
    reorder_stalls: Arc<Counter>,
    ring_publishes: Arc<Counter>,
    merge_out_grows: Arc<Counter>,
}

/// A pipeline lane: takes a [`Phase`], gives its shard back.
type PipeLane = Lane<Phase, GatewayShard>;

/// What one lane is handed for one packet phase.
struct Phase {
    shard: GatewayShard,
    /// Fault hook: panic as the phase starts (see
    /// [`ConcurrentGateway::inject_lane_panic`](super::ConcurrentGateway::inject_lane_panic)).
    inject_panic: bool,
}

/// A lane's side of the pipeline, owned by its thread for life and
/// reused by every phase: the read end of its ingress ring, the write
/// end of its verdict ring, the gate and the batch scratch.
struct LaneParts {
    lane: usize,
    batch: usize,
    rx: spsc::Consumer<IngressSlot>,
    vtx: spsc::Producer<(u64, Action)>,
    gate: Arc<OrderGate>,
    buf: Vec<IngressSlot>,
    verdicts: Vec<(u64, Action)>,
    worker_batches: Arc<Counter>,
}

/// Caller-side handle of a running pipeline. Obtained from
/// [`ConcurrentGateway::start_pipeline`](super::ConcurrentGateway::start_pipeline);
/// retired by
/// [`ConcurrentGateway::finish_pipeline`](super::ConcurrentGateway::finish_pipeline),
/// which drains in-flight packets, takes the shards back from the
/// lanes and keeps the handle — lanes, rings, gate and merge buffers —
/// on the gateway for the next phase. Dropping the handle instead
/// stops and joins its lanes and discards shard state.
pub struct PipelineHandle {
    batch: u64,
    depth: u64,
    producers: Vec<spsc::Producer<IngressSlot>>,
    verdict_rx: Vec<spsc::Consumer<(u64, Action)>>,
    /// One lane per shard, in shard order.
    lanes: Vec<PipeLane>,
    gate: Arc<OrderGate>,
    /// Next sequence number to assign.
    next_seq: u64,
    /// `next_seq` as of the last sweep (== the gate watermark).
    published_seq: u64,
    reorder: Reorder,
    /// Merged-but-undelivered verdicts (filled while `ingest` waits out
    /// a stall); drained first by [`drain_verdicts`](Self::drain_verdicts).
    ready: Vec<Action>,
    /// Scratch for draining verdict rings; pre-sized to `depth`.
    merge_scratch: Vec<(u64, Action)>,
    metrics: PipelineMetrics,
}

impl std::fmt::Debug for PipelineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineHandle")
            .field("lanes", &self.lanes.len())
            .field("next_seq", &self.next_seq)
            .field("merged_seq", &self.reorder.base)
            .finish_non_exhaustive()
    }
}

impl PipelineHandle {
    /// Build every part of a `lanes`-lane pipeline and spawn its lanes
    /// (`pipeline.lane_spawns`), parked until [`start`](Self::start).
    /// Metric handles are bound here, once.
    pub(super) fn new(lanes: usize, batch: usize, reg: &exbox_obs::MetricsRegistry) -> Self {
        assert!(lanes > 0, "pipeline needs at least one shard");
        let batch = batch.max(1);
        let ring_cap = (batch * 4).next_power_of_two();
        let depth = (lanes * ring_cap).next_power_of_two();
        let gate = Arc::new(OrderGate::new(lanes, reg.counter("pipeline.gate_waits")));
        let spawns = reg.counter("pipeline.lane_spawns");
        let worker_batches = reg.counter("pipeline.worker_batches");
        let counters = LaneCounters {
            failures: reg.counter("pipeline.worker_failures"),
            exits: reg.counter("pipeline.lane_exits"),
            collect_blocks: reg.counter("pipeline.collect_blocks"),
        };

        let mut producers = Vec::with_capacity(lanes);
        let mut verdict_rx = Vec::with_capacity(lanes);
        let mut lane_threads = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let (tx, rx) = spsc::ring::<IngressSlot>(ring_cap);
            let (vtx, vrx) = spsc::ring::<(u64, Action)>(depth);
            let mut parts = LaneParts {
                lane,
                batch,
                rx,
                vtx,
                gate: Arc::clone(&gate),
                buf: Vec::with_capacity(batch),
                verdicts: Vec::with_capacity(batch),
                worker_batches: Arc::clone(&worker_batches),
            };
            spawns.inc();
            lane_threads.push(Lane::spawn(
                format!("exbox-pipe-{lane}"),
                counters.clone(),
                move |phase: Phase| run_phase(phase, &mut parts),
            ));
            producers.push(tx);
            verdict_rx.push(vrx);
        }

        PipelineHandle {
            batch: batch as u64,
            depth: depth as u64,
            producers,
            verdict_rx,
            lanes: lane_threads,
            gate,
            next_seq: 0,
            published_seq: 0,
            reorder: Reorder::new(depth),
            ready: Vec::with_capacity(depth),
            merge_scratch: Vec::with_capacity(depth),
            metrics: PipelineMetrics {
                ingested: reg.counter("pipeline.ingested"),
                merged: reg.counter("pipeline.merged"),
                ring_full_stalls: reg.counter("gateway.ring_full_stalls"),
                reorder_stalls: reg.counter("pipeline.reorder_stalls"),
                ring_publishes: reg.counter("gateway.ring_publishes"),
                merge_out_grows: reg.counter("pipeline.merge_out_grows"),
            },
        }
    }

    /// Re-arm a parked pipeline and hand every lane its shard, draining
    /// `shards` (shard order). The previous phase ended in
    /// [`finish`](Self::finish): every lane is parked, every ring is
    /// empty and closed, every verdict merged. Re-arming resets the
    /// gate and the reorder ring to sequence 0 and reopens each
    /// ingress ring; the lane's lock handoff in `hand` orders all of it
    /// before the lane reads any of it. Allocates nothing.
    pub(super) fn start(&mut self, shards: &mut Vec<GatewayShard>, inject_panic: Option<usize>) {
        assert_eq!(shards.len(), self.lanes.len(), "one lane per shard");
        debug_assert!(self.ready.is_empty(), "verdicts left over from a phase");
        self.gate.rearm();
        self.reorder.rearm();
        self.next_seq = 0;
        self.published_seq = 0;
        let lanes = self.lanes.iter().zip(&mut self.producers);
        for (i, (shard, (lane, tx))) in shards.drain(..).zip(lanes).enumerate() {
            tx.reopen();
            lane.hand(Phase {
                shard,
                inject_panic: inject_panic == Some(i),
            });
        }
    }

    /// Number of worker lanes (== shard count).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Panic, naming the lane, if a lane's phase panicked: its
    /// verdicts will never arrive, so a wait for them would spin
    /// forever. Called only on paths that are already waiting.
    fn check_lanes(&self) {
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(msg) = lane.failure() {
                panic!("pipeline lane {i} panicked: {msg}");
            }
        }
    }

    /// Packets assigned a sequence number but not yet merged.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.reorder.base
    }

    /// Publish every ring, then advance the watermark (invariant 1:
    /// never the other way around).
    fn sweep(&mut self) {
        if self.published_seq == self.next_seq {
            return;
        }
        for p in &mut self.producers {
            p.publish();
        }
        self.gate.publish_watermark(self.next_seq);
        self.published_seq = self.next_seq;
        self.metrics.ring_publishes.inc();
    }

    /// Drain whatever the verdict rings hold into the reorder ring and
    /// move the ready prefix to `self.ready`.
    fn merge_pending(&mut self) -> usize {
        for rx in &mut self.verdict_rx {
            self.merge_scratch.clear();
            rx.drain_into(&mut self.merge_scratch, self.depth as usize);
            for &(seq, act) in &self.merge_scratch {
                self.reorder.insert(seq, act);
            }
        }
        let n = self.reorder.emit_into(&mut self.ready);
        self.metrics.merged.add(n as u64);
        n
    }

    /// Blocking ingest: every packet is assigned the next global
    /// sequence number and queued on its owner shard's ring, waiting
    /// out full rings (`gateway.ring_full_stalls`) and a full in-flight
    /// window (`pipeline.reorder_stalls`) by publishing, merging and
    /// yielding so the workers can drain. Rings are published every
    /// `batch` packets and once at the end.
    pub fn ingest(&mut self, pkts: &[(Packet, SnrLevel)]) {
        for &(pkt, snr) in pkts {
            let mut stalled = false;
            while self.in_flight() >= self.depth {
                if !stalled {
                    stalled = true;
                    self.metrics.reorder_stalls.inc();
                }
                self.sweep();
                if self.merge_pending() == 0 {
                    self.check_lanes();
                    thread::yield_now();
                }
            }
            let lane = super::route(&pkt.flow, self.lanes.len());
            let mut item = (self.next_seq, pkt, snr);
            let mut stalled = false;
            loop {
                match self.producers[lane].push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        item = back;
                        if !stalled {
                            stalled = true;
                            self.metrics.ring_full_stalls.inc();
                        }
                        // Make our earlier pushes visible so the worker
                        // has something to drain, keep verdicts moving,
                        // then let it run.
                        self.sweep();
                        self.merge_pending();
                        self.check_lanes();
                        thread::yield_now();
                    }
                }
            }
            self.next_seq += 1;
            if self.next_seq - self.published_seq >= self.batch {
                self.sweep();
            }
        }
        self.sweep();
        self.metrics.ingested.add(pkts.len() as u64);
    }

    /// Non-blocking ingest: queue packets until a ring or the
    /// in-flight window fills, then publish what was taken and return
    /// the number accepted (counting the refusal as a stall). The
    /// caller retries the rest after a [`drain_verdicts`](Self::drain_verdicts).
    pub fn try_ingest(&mut self, pkts: &[(Packet, SnrLevel)]) -> usize {
        for (i, &(pkt, snr)) in pkts.iter().enumerate() {
            if self.in_flight() >= self.depth {
                self.metrics.reorder_stalls.inc();
                self.check_lanes();
                self.sweep();
                self.metrics.ingested.add(i as u64);
                return i;
            }
            let lane = super::route(&pkt.flow, self.lanes.len());
            if self.producers[lane]
                .push((self.next_seq, pkt, snr))
                .is_err()
            {
                self.metrics.ring_full_stalls.inc();
                self.check_lanes();
                self.sweep();
                self.metrics.ingested.add(i as u64);
                return i;
            }
            self.next_seq += 1;
            if self.next_seq - self.published_seq >= self.batch {
                self.sweep();
            }
        }
        self.sweep();
        self.metrics.ingested.add(pkts.len() as u64);
        pkts.len()
    }

    /// Append every merged-and-ready verdict to `out`, in global
    /// ingress order, without blocking. Returns the number appended.
    /// With a caller-reused `out` (and draining at least once per
    /// `depth` ingested packets) this path never allocates;
    /// `pipeline.merge_out_grows` counts the times it had to.
    pub fn drain_verdicts(&mut self, out: &mut Vec<Action>) -> usize {
        self.merge_pending();
        let cap_before = out.capacity();
        let n = self.ready.len();
        out.append(&mut self.ready);
        if out.capacity() != cap_before {
            self.metrics.merge_out_grows.inc();
        }
        n
    }

    /// Block until every ingested packet's verdict has been merged,
    /// appending them all to `out` (ingress order). Returns the number
    /// appended.
    ///
    /// # Panics
    ///
    /// If a lane panicked during this phase (its verdicts are lost);
    /// the message names the lane.
    pub fn flush(&mut self, out: &mut Vec<Action>) -> usize {
        self.sweep();
        while self.reorder.base < self.next_seq {
            if self.merge_pending() == 0 {
                self.check_lanes();
                thread::yield_now();
            }
        }
        let cap_before = out.capacity();
        let n = self.ready.len();
        out.append(&mut self.ready);
        if out.capacity() != cap_before {
            self.metrics.merge_out_grows.inc();
        }
        n
    }

    /// Drain, close the rings and take the shards back into `shards`
    /// (shard order); returns the tail of the verdict stream. The
    /// handle keeps its lanes, parked, and every other part for the
    /// next [`start`](Self::start). Panics, naming the lane, if a
    /// lane's phase panicked; the shards already taken back are then
    /// dropped, so the gateway has none left.
    pub(super) fn finish(&mut self, shards: &mut Vec<GatewayShard>) -> Vec<Action> {
        let mut tail = Vec::new();
        self.flush(&mut tail);
        for p in &mut self.producers {
            p.close();
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            match lane.collect() {
                Ok(shard) => shards.push(shard),
                Err(msg) => {
                    shards.clear();
                    panic!("pipeline lane {i} panicked: {msg}");
                }
            }
        }
        tail
    }
}

/// Dropping a handle hangs up its ingress rings, so every lane's phase
/// ends, then stops and joins its lanes: no thread outlives the
/// pipeline. Shard state still on loan to the lanes (a handle never
/// finished) is discarded; use
/// [`ConcurrentGateway::finish_pipeline`](super::ConcurrentGateway::finish_pipeline)
/// to keep it.
impl Drop for PipelineHandle {
    fn drop(&mut self) {
        for p in &mut self.producers {
            p.close();
        }
        self.lanes.clear();
    }
}

/// Retires the lane's gate cursor, then publishes its verdict ring, on
/// every exit from a phase — unwinding included, so a panicking lane
/// never leaves another lane or the dispatcher waiting on it.
struct PhaseExit<'a> {
    gate: &'a OrderGate,
    lane: usize,
    vtx: &'a mut spsc::Producer<(u64, Action)>,
}

impl Drop for PhaseExit<'_> {
    fn drop(&mut self) {
        self.gate.retire(self.lane);
        self.vtx.publish();
    }
}

/// One lane's packet phase: drain the ingress ring run-to-completion
/// through the shard's gated batch path, publish verdicts per batch,
/// keep the lane's gate cursor honest while idle, and hand the shard
/// back once the ring closed and drained.
fn run_phase(phase: Phase, parts: &mut LaneParts) -> GatewayShard {
    let Phase {
        mut shard,
        inject_panic,
    } = phase;
    let LaneParts {
        lane,
        batch,
        rx,
        vtx,
        gate,
        buf,
        verdicts,
        worker_batches,
    } = parts;
    let (lane, batch) = (*lane, *batch);
    let gate = &**gate;
    let exit = PhaseExit { gate, lane, vtx };
    if inject_panic {
        panic!("injected fault at phase start");
    }
    loop {
        // Watermark *before* the emptiness check: invariant 2 — an
        // empty ring after this read proves every owned seq < w done.
        let w = gate.watermark();
        buf.clear();
        if rx.drain_into(buf, batch) == 0 {
            if rx.is_closed() && rx.drain_into(buf, batch) == 0 {
                // Close lands after the final publish, so a post-close
                // empty drain means the ring is truly exhausted.
                break;
            }
            if buf.is_empty() {
                gate.idle(lane, w);
                std::hint::spin_loop();
                thread::yield_now();
                continue;
            }
        }
        worker_batches.inc();
        verdicts.clear();
        shard.process_packets_tagged(buf, gate, lane, verdicts);
        for &(seq, act) in verdicts.iter() {
            let mut item = (seq, act);
            // By the depth invariant the verdict ring (capacity ==
            // in-flight bound) cannot be full; spin as a backstop so a
            // future sizing bug degrades instead of losing verdicts.
            while let Err(back) = exit.vtx.push(item) {
                debug_assert!(false, "verdict ring overflow: depth invariant broken");
                item = back;
                exit.vtx.publish();
                thread::yield_now();
            }
        }
        exit.vtx.publish();
    }
    shard
}
