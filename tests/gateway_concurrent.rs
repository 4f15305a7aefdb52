//! Concurrent gateway end-to-end tests: shard-count invariance of
//! verdicts (byte-identical sorted CSVs), single-threaded parity,
//! contention-free per-shard counters merging exactly, snapshot
//! publish linearizability, bounded packet-path latency while the
//! background trainer retrains, and the multi-core pipeline data
//! plane: core-count-invariant verdict streams, pinned FxHash shard
//! routing, counted backpressure stalls, allocation-free steady state,
//! persistent lanes (spawned once, joined on teardown), contained lane
//! panics, and polls that re-evaluate on the pre-poll snapshot
//! (DESIGN.md §10).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration as WallDuration;

use exbox::ml::Label;
use exbox::net::{AppClass, Direction, FlowKey, Packet, Protocol};
use exbox::prelude::*;
use exbox_obs::MetricsRegistry;

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
        exbox::core::qoe::QosScale::new(1e3, 1e8),
    )
}

fn acfg() -> AdmittanceConfig {
    AdmittanceConfig {
        batch_size: 8,
        ..AdmittanceConfig::default()
    }
}

/// A classifier trained online to admit at most two streaming flows.
fn trained_classifier(reg: &MetricsRegistry) -> AdmittanceClassifier {
    let mut ac = AdmittanceClassifier::with_registry(acfg(), reg);
    for n in 0..80u32 {
        let total = n % 8;
        let mut mat = TrafficMatrix::empty();
        for _ in 0..total {
            mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        let y = if total <= 2 { Label::Pos } else { Label::Neg };
        ac.observe(mat, y);
    }
    assert_eq!(ac.phase(), Phase::Online, "fixture must go online");
    ac
}

fn trained_snapshot() -> ModelSnapshot {
    let reg = MetricsRegistry::new();
    ModelSnapshot::from_classifier(1, &trained_classifier(&reg))
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

fn flow_key(id: u32) -> FlowKey {
    FlowKey::synthetic(id, id, 1, Protocol::Tcp)
}

/// Deterministic xorshift for trace interleavings.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Replay one seeded arrival/departure trace through a serving-only
/// gateway with `shards` shards; returns the sorted per-flow verdict
/// CSV (one `flow_id,verdict` line per flow).
fn verdict_csv(shards: usize, seed: u64) -> String {
    let cfg = GatewayConfig {
        shards,
        ..GatewayConfig::default()
    };
    let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());
    let mut rng = Lcg(seed | 1);
    let mut admitted: Vec<u32> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    for id in 1..=60u32 {
        let key = flow_key(id);
        let last = streaming_pkts(key, 12)
            .iter()
            .map(|p| gw.process_packet(p, SnrLevel::High))
            .last()
            .unwrap();
        match last {
            Action::Forward => {
                admitted.push(id);
                lines.push(format!("{id},admit"));
            }
            Action::Drop => lines.push(format!("{id},reject")),
        }
        // Seeded churn: sometimes an admitted flow departs, freeing a
        // slot — this is what makes later verdicts depend on the
        // interleaving rather than only on the arrival index.
        if !admitted.is_empty() && rng.next().is_multiple_of(3) {
            let victim = admitted.swap_remove((rng.next() % admitted.len() as u64) as usize);
            gw.flow_departed(&flow_key(victim));
        }
    }
    assert_eq!(gw.admitted_flows(), admitted.len());
    lines.sort();
    lines.join("\n") + "\n"
}

/// Tentpole acceptance: the same trace replayed through 1, 2, 4 and 8
/// shards yields **byte-identical** sorted verdict CSVs (retraining
/// disabled), for several seeds.
#[test]
fn verdicts_are_shard_count_invariant() {
    for seed in [1u64, 7, 42, 1234] {
        let reference = verdict_csv(1, seed);
        assert!(
            reference.contains("admit") && reference.contains("reject"),
            "trace must exercise both verdicts (seed {seed}):\n{reference}"
        );
        for shards in [2usize, 4, 8] {
            assert_eq!(
                verdict_csv(shards, seed),
                reference,
                "seed {seed}: {shards}-shard verdicts diverged from 1-shard"
            );
        }
    }
}

/// The `EXBOX_SHARDS` knob (CI re-runs this suite with 1/2/4/8): the
/// env-selected shard count must reproduce the 1-shard verdict CSV
/// byte for byte.
#[test]
fn env_configured_shard_count_matches_reference() {
    let cfg = GatewayConfig::from_env();
    assert!(cfg.shards >= 1);
    assert_eq!(
        verdict_csv(cfg.shards, 99),
        verdict_csv(1, 99),
        "EXBOX_SHARDS={} diverged from the 1-shard reference",
        cfg.shards
    );
}

/// Satellite 1: a 1-shard gateway reaches the same verdict for every
/// flow as the single-threaded middlebox serving the same (static)
/// model on the same trace.
#[test]
fn one_shard_gateway_matches_middlebox() {
    let reg = MetricsRegistry::new();
    let mut mb = Middlebox::with_registry(
        MiddleboxConfig::default(),
        estimator(),
        trained_classifier(&reg),
        &reg,
    );
    mb.set_fault_plan(FaultPlan::disabled());
    let mut gw =
        ConcurrentGateway::serving_only(GatewayConfig::default(), estimator(), trained_snapshot());

    for id in 1..=20u32 {
        let key = flow_key(id);
        for p in streaming_pkts(key, 12) {
            let a = mb.process_packet(&p, SnrLevel::High);
            let b = gw.process_packet(&p, SnrLevel::High);
            assert_eq!(a, b, "flow {id}: middlebox and gateway disagreed");
        }
        if id % 5 == 0 {
            mb.flow_departed(&key);
            gw.flow_departed(&key);
        }
    }
    assert_eq!(mb.admitted_flows(), gw.admitted_flows());
    assert_eq!(mb.matrix(), gw.matrix());
}

fn mix(web: u32, streaming: u32, conferencing: u32) -> TrafficMatrix {
    let mut m = TrafficMatrix::empty();
    for (class, n) in [
        (AppClass::Web, web),
        (AppClass::Streaming, streaming),
        (AppClass::Conferencing, conferencing),
    ] {
        for _ in 0..n {
            m.add(FlowKind::new(class, SnrLevel::High));
        }
    }
    m
}

/// The gateway serves the monotonicity guard exactly like the
/// classifier: a 1-shard gateway whose trainer learns with
/// `monotone_guard` on returns the same `(label, margin)` as
/// `AdmittanceClassifier::decide` after every step of a noisy
/// observation trace — including steps that change only the sample
/// store the guard reads, with no retrain.
#[test]
fn guarded_gateway_matches_classifier_decisions() {
    let guarded = |reg: &MetricsRegistry| {
        let mut ac = AdmittanceClassifier::with_registry(
            AdmittanceConfig {
                monotone_guard: true,
                ..acfg()
            },
            reg,
        );
        for n in 0..80u32 {
            let total = n % 8;
            let y = if total <= 2 { Label::Pos } else { Label::Neg };
            ac.observe(mix(0, total, 0), y);
        }
        assert_eq!(ac.phase(), Phase::Online, "fixture must go online");
        ac
    };
    let reg = MetricsRegistry::new();
    let mut reference = guarded(&reg);
    let gw = ConcurrentGateway::with_fault_plan(
        GatewayConfig::default(),
        estimator(),
        guarded(&reg),
        FaultPlan::disabled(),
    );
    let mut reader = gw.snapshot_reader();
    let trace = [
        (mix(0, 1, 0), Label::Neg),
        (mix(2, 0, 0), Label::Pos),
        (mix(0, 1, 0), Label::Pos),
        (mix(1, 2, 0), Label::Neg),
        (mix(2, 0, 0), Label::Pos),
        (mix(0, 3, 0), Label::Pos),
        (mix(1, 1, 1), Label::Neg),
        (mix(0, 2, 0), Label::Neg),
        (mix(3, 0, 1), Label::Pos),
        (mix(0, 0, 2), Label::Neg),
    ];
    let queries: Vec<TrafficMatrix> = (0..=3)
        .flat_map(|w| (0..=4).flat_map(move |s| (0..=2).map(move |c| mix(w, s, c))))
        .collect();
    let mut overridden = 0;
    for (step, &(matrix, label)) in trace.iter().enumerate() {
        reference.observe(matrix, label);
        assert!(gw.inject_observation(matrix, label));
        assert!(gw.flush_trainer());
        let snap = reader.pin();
        for q in &queries {
            let (want_label, want_margin) = reference.decide(q);
            let (got_label, got_margin) = snap.decide(q);
            assert_eq!(
                (got_label, got_margin.map(f64::to_bits)),
                (want_label, want_margin.map(f64::to_bits)),
                "step {step}: gateway and classifier disagree on {q:?}"
            );
            if want_margin.is_some_and(|m| Label::from_signum(m) != want_label) {
                overridden += 1;
            }
        }
    }
    assert!(
        overridden > 0,
        "the trace must make the guard override the model"
    );
}

/// Satellite 2: shards driven from four real threads, counters
/// incremented contention-free on per-shard registries; the merged
/// export equals the sum of per-thread ground-truth verdict counts
/// exactly (no lost updates, no double counts).
#[test]
fn merged_counters_equal_sum_of_per_shard_verdicts() {
    let shards_n = 4usize;
    let cfg = GatewayConfig {
        shards: shards_n,
        ..GatewayConfig::default()
    };
    let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());

    // Pre-partition flow ids by owner shard so each thread only ever
    // touches its own shard.
    let mut per_shard_ids: Vec<Vec<u32>> = vec![Vec::new(); shards_n];
    let mut id = 0u32;
    while per_shard_ids.iter().any(|v| v.len() < 12) {
        id += 1;
        let owner = gw.shard_for(&flow_key(id));
        if per_shard_ids[owner].len() < 12 {
            per_shard_ids[owner].push(id);
        }
    }

    let shards = gw.take_shards();
    let mut fed_total = 0u64;
    let handles: Vec<_> = shards
        .into_iter()
        .zip(per_shard_ids.iter().cloned())
        .map(|(mut shard, ids)| {
            std::thread::spawn(move || {
                let (mut admits, mut rejects, mut fed) = (0u64, 0u64, 0u64);
                for id in ids {
                    let key = flow_key(id);
                    let mut last = Action::Forward;
                    for p in streaming_pkts(key, 12) {
                        last = shard.process_packet(&p, SnrLevel::High);
                        fed += 1;
                    }
                    match last {
                        Action::Forward => admits += 1,
                        Action::Drop => rejects += 1,
                    }
                }
                (admits, rejects, fed)
            })
        })
        .collect();
    let (mut admits_truth, mut rejects_truth) = (0u64, 0u64);
    for h in handles {
        let (a, r, f) = h.join().unwrap();
        admits_truth += a;
        rejects_truth += r;
        fed_total += f;
    }

    let merged = gw.merged_metrics();
    assert_eq!(
        merged.counter("middlebox.admits").unwrap_or(0),
        admits_truth
    );
    assert_eq!(
        merged.counter("middlebox.rejects").unwrap_or(0),
        rejects_truth
    );
    assert_eq!(merged.counter("middlebox.packets").unwrap(), fed_total);
    assert_eq!(merged.counter("middlebox.revokes").unwrap_or(0), 0);
    assert!(admits_truth >= 2, "the region admits at least two flows");
    assert!(rejects_truth > 0, "the region must also reject");
    // The shared matrix saw every admission (no departures here).
    assert_eq!(gw.matrix().total() as u64, admits_truth);
}

/// Satellite 3: linearizability smoke for snapshot publication —
/// concurrent readers never observe a torn scaler/model pair (epoch
/// stamps always consistent) and epochs never move backwards, while
/// the background trainer goes bootstrap → online and keeps
/// retraining.
#[test]
fn snapshot_publish_is_linearizable() {
    let reg = MetricsRegistry::new();
    let classifier = AdmittanceClassifier::with_registry(acfg(), &reg);
    let gw = ConcurrentGateway::with_fault_plan(
        GatewayConfig::default(),
        estimator(),
        classifier,
        FaultPlan::disabled(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let max_seen = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let mut reader = gw.snapshot_reader();
            let stop = Arc::clone(&stop);
            let max_seen = Arc::clone(&max_seen);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let guard = reader.pin();
                    assert!(
                        guard.stamps_consistent(),
                        "torn snapshot: scaler and model from different epochs"
                    );
                    let epoch = guard.epoch();
                    assert!(epoch >= last_epoch, "snapshot epoch moved backwards");
                    last_epoch = epoch;
                    drop(guard);
                    max_seen.fetch_max(epoch, Ordering::SeqCst);
                }
            })
        })
        .collect();

    // Feed the <= 2 streaming-flow pattern: bootstrap exit publishes,
    // then every batch retrain publishes again.
    for n in 0..400u32 {
        let total = n % 8;
        let mut mat = TrafficMatrix::empty();
        for _ in 0..total {
            mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        let y = if total <= 2 { Label::Pos } else { Label::Neg };
        assert!(gw.inject_observation(mat, y));
    }
    assert!(gw.flush_trainer());
    // Give starved reader threads a bounded window to pin the
    // published snapshot before stopping them — on a loaded
    // single-core runner a reader can otherwise be descheduled from
    // first publish straight through to `stop`.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while max_seen.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }

    assert!(
        gw.publish_count() >= 2,
        "trainer must have published bootstrap-exit and retrain snapshots"
    );
    assert!(
        max_seen.load(Ordering::SeqCst) >= 1,
        "readers must have observed at least one published snapshot"
    );
}

fn p99_ns(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[(samples.len() as f64 * 0.99) as usize - 1]
}

/// Acceptance: p99 decision latency while the background trainer is
/// retraining stays within 2x the steady-state p99 (with an absolute
/// floor absorbing scheduler noise on tiny debug-build latencies) —
/// the whole point of moving training off the packet path.
#[test]
fn p99_latency_bounded_during_inflight_retrain() {
    let reg = MetricsRegistry::new();
    let mut gw = ConcurrentGateway::with_fault_plan(
        GatewayConfig::default(),
        estimator(),
        trained_classifier(&reg),
        FaultPlan::disabled(),
    );

    // One standing probe flow keyed per round; measure per-packet
    // serving latency on fresh classified flows.
    let measure = |gw: &mut ConcurrentGateway, first_id: u32, flows: u32| -> Vec<f64> {
        let mut samples = Vec::new();
        for i in 0..flows {
            let key = flow_key(first_id + i);
            for p in streaming_pkts(key, 12) {
                let ((), ns) = exbox_obs::time_ns(|| {
                    gw.process_packet(&p, SnrLevel::High);
                });
                samples.push(ns);
            }
            gw.flow_departed(&key);
        }
        samples
    };

    // Warm-up, then steady-state baseline (trainer idle).
    measure(&mut gw, 1_000, 50);
    let mut steady = measure(&mut gw, 2_000, 200);
    let p99_steady = p99_ns(&mut steady);

    // Queue enough observation batches to keep the trainer retraining
    // while we measure (batch_size 8, so ~25 retrain triggers).
    let epoch_before = gw.publish_count();
    for n in 0..200u32 {
        let total = n % 8;
        let mut mat = TrafficMatrix::empty();
        for _ in 0..total {
            mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        let y = if total <= 2 { Label::Pos } else { Label::Neg };
        assert!(gw.inject_observation(mat, y));
    }
    let mut during = measure(&mut gw, 3_000, 200);
    let p99_during = p99_ns(&mut during);
    assert!(gw.flush_trainer());
    assert!(
        gw.publish_count() > epoch_before,
        "retrains must actually have published during the window"
    );

    let bound = (2.0 * p99_steady).max(50_000.0);
    assert!(
        p99_during <= bound,
        "p99 during retrain {p99_during:.0}ns exceeds bound {bound:.0}ns \
         (steady p99 {p99_steady:.0}ns)"
    );
}

/// Batched driving on a taken shard while another thread keeps
/// republishing the (identical) model: every republication trips the
/// batch path's staleness check, forcing the mid-batch re-pin — and
/// because the model content never changes, verdicts must stay exactly
/// equal to the quiescent per-packet reference. Run under TSan in CI.
#[test]
fn batched_shard_verdicts_stable_under_republication() {
    let cfg = GatewayConfig {
        shards: 1,
        ..GatewayConfig::default()
    };
    let stream: Vec<(Packet, SnrLevel)> = (1..=40u32)
        .flat_map(|id| {
            streaming_pkts(flow_key(id), 12)
                .into_iter()
                .map(|p| (p, SnrLevel::High))
        })
        .collect();

    let mut reference =
        ConcurrentGateway::serving_only(cfg.clone(), estimator(), trained_snapshot());
    let expect: Vec<Action> = stream
        .iter()
        .map(|(p, snr)| reference.process_packet(p, *snr))
        .collect();

    let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());
    let cell = gw.snapshot_cell();
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Deterministic training: this classifier is bit-identical
            // to the one behind `trained_snapshot()`.
            let reg = MetricsRegistry::new();
            let classifier = trained_classifier(&reg);
            let mut epoch = 2u64;
            while !stop.load(Ordering::SeqCst) {
                cell.publish(ModelSnapshot::from_classifier(epoch, &classifier));
                epoch += 1;
                std::thread::yield_now();
            }
        })
    };

    let mut shards = gw.take_shards();
    let shard = &mut shards[0];
    let mut got = Vec::with_capacity(stream.len());
    // Prime-sized batches so batch boundaries drift across flow
    // bursts rather than aligning with them.
    for chunk in stream.chunks(7) {
        got.extend(shard.process_packets(chunk));
    }
    stop.store(true, Ordering::SeqCst);
    publisher.join().unwrap();

    assert_eq!(got, expect, "republication changed a batched verdict");
}

/// Flow-table churn on really-threaded shards: each thread drives its
/// own shard through repeated admit → deliver → depart → re-admit
/// cycles with a deliberately tiny rejected ring, exercising slab slot
/// reuse, ring eviction/removal and timer-wheel polls concurrently
/// against the shared traffic matrix. Run under TSan in CI. Per-shard
/// flow counts must match the thread's ground truth and the shared
/// matrix must equal the surviving admissions exactly.
#[test]
fn shard_flow_tables_survive_concurrent_churn() {
    let shards_n = 4usize;
    let cfg = GatewayConfig {
        shards: shards_n,
        middlebox: MiddleboxConfig {
            // Small enough that rejected-flow churn forces evictions.
            rejected_capacity: 8,
            ..MiddleboxConfig::default()
        },
        ..GatewayConfig::default()
    };
    let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());

    // Pre-partition flow ids by owner shard so each thread only ever
    // touches its own shard.
    let mut per_shard_ids: Vec<Vec<u32>> = vec![Vec::new(); shards_n];
    let mut id = 0u32;
    while per_shard_ids.iter().any(|v| v.len() < 48) {
        id += 1;
        let owner = gw.shard_for(&flow_key(id));
        if per_shard_ids[owner].len() < 48 {
            per_shard_ids[owner].push(id);
        }
    }

    let shards = gw.take_shards();
    let handles: Vec<_> = shards
        .into_iter()
        .zip(per_shard_ids.iter().cloned())
        .map(|(mut shard, ids)| {
            std::thread::spawn(move || {
                let mut rng = Lcg(0x51AB ^ (shard.id() as u64 + 1));
                let mut open: Vec<u32> = Vec::new();
                let mut t_ms = 0u64;
                for _round in 0..3 {
                    for &id in &ids {
                        t_ms += 50;
                        if open.contains(&id) {
                            continue;
                        }
                        let key = flow_key(id);
                        let last = streaming_pkts(key, 12)
                            .iter()
                            .map(|p| shard.process_packet(p, SnrLevel::High))
                            .last()
                            .unwrap();
                        match last {
                            Action::Forward => {
                                shard.record_delivery(
                                    &key,
                                    Instant::from_millis(t_ms),
                                    Instant::from_millis(t_ms + 5),
                                    1400,
                                );
                                open.push(id);
                            }
                            Action::Drop => {
                                // Sometimes a rejected flow departs too:
                                // the ring-removal (stale-entry) path.
                                if rng.next().is_multiple_of(3) {
                                    shard.flow_departed(&key);
                                }
                            }
                        }
                        // Seeded churn: admitted departures free arena
                        // slots for reuse by later re-admissions.
                        if !open.is_empty() && rng.next().is_multiple_of(2) {
                            let victim =
                                open.swap_remove((rng.next() % open.len() as u64) as usize);
                            shard.flow_departed(&flow_key(victim));
                        }
                        if id.is_multiple_of(8) {
                            shard.poll(Instant::from_millis(t_ms));
                        }
                    }
                }
                assert_eq!(
                    shard.admitted_flows(),
                    open.len(),
                    "shard {} flow table diverged from ground truth",
                    shard.id()
                );
                open.len() as u32
            })
        })
        .collect();
    let open_total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    // Only surviving admissions occupy the shared matrix.
    assert_eq!(gw.matrix().total(), open_total);
    assert!(open_total >= 1, "churn must leave some admitted flows");
}

/// An interleaved stream (flows round-robin per round) — the shape
/// that spreads consecutive packets across pipeline lanes, so verdict
/// merge genuinely has to reorder.
fn interleaved_stream(flows: u32, rounds: u64) -> Vec<(Packet, SnrLevel)> {
    let mut out = Vec::with_capacity((flows as u64 * rounds) as usize);
    let mut t = 0u64;
    for s in 0..rounds {
        for id in 1..=flows {
            out.push((
                Packet::new(
                    Instant::from_millis(2 * t),
                    1400,
                    flow_key(id),
                    Direction::Downlink,
                    s,
                ),
                SnrLevel::High,
            ));
            t += 1;
        }
    }
    out
}

/// Tentpole: real-thread pipeline churn. The same interleaved stream
/// is replayed three times (start → ingest → drain → finish cycles,
/// flow state carried across cycles) at every supported core count;
/// verdicts must be byte-identical to the sequential reference at each
/// cycle, the merged flow state must match, and the pipeline's
/// conservation counters must balance. Run under TSan in CI.
#[test]
fn pipeline_verdicts_match_sequential_across_cores() {
    let stream = interleaved_stream(40, 12);
    let cycles = 3usize;

    // Sequential reference: same gateway replays the stream 3 times.
    let mut reference = ConcurrentGateway::serving_only(
        GatewayConfig {
            shards: 1,
            ..GatewayConfig::default()
        },
        estimator(),
        trained_snapshot(),
    );
    let expect: Vec<Vec<Action>> = (0..cycles)
        .map(|_| {
            stream
                .iter()
                .map(|(p, snr)| reference.process_packet(p, *snr))
                .collect()
        })
        .collect();

    for shards in [1usize, 2, 4, 8] {
        let cfg = GatewayConfig {
            shards,
            ..GatewayConfig::default()
        };
        let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());
        for cycle in expect.iter().take(cycles) {
            let mut pipe = gw.start_pipeline();
            assert_eq!(pipe.lanes(), shards);
            let mut got = Vec::with_capacity(stream.len());
            for chunk in stream.chunks(64) {
                pipe.ingest(chunk);
                pipe.drain_verdicts(&mut got);
            }
            got.extend(gw.finish_pipeline(pipe));
            assert_eq!(
                &got, cycle,
                "{shards}-core pipeline verdicts diverged from sequential"
            );
        }
        assert_eq!(gw.matrix(), reference.matrix());
        assert_eq!(gw.admitted_flows(), reference.admitted_flows());

        // Conservation: every ingested packet was merged back out, and
        // batched publication actually batched (far fewer ring
        // publishes than packets).
        let m = gw.pipeline_registry().snapshot();
        let total = (stream.len() * cycles) as u64;
        assert_eq!(m.counter("pipeline.ingested").unwrap(), total);
        assert_eq!(m.counter("pipeline.merged").unwrap(), total);
        let publishes = m.counter("gateway.ring_publishes").unwrap();
        assert!(
            publishes < total,
            "publish-per-packet defeats batching: {publishes} publishes for {total} packets"
        );
    }
}

/// Satellite 1: shard routing is pinned to `flowtable::hash_flow_key`
/// (FxHash). These assignments are a compatibility contract — the
/// dispatcher, `shard_for` diagnostics and any persisted per-shard
/// artefact all key off the same hash, so changing it is a deliberate,
/// test-visible act (and re-shards every flow).
#[test]
fn shard_routing_is_pinned_to_fxhash() {
    let gw = ConcurrentGateway::serving_only(
        GatewayConfig {
            shards: 4,
            ..GatewayConfig::default()
        },
        estimator(),
        trained_snapshot(),
    );
    let got: Vec<usize> = (1..=12u32).map(|id| gw.shard_for(&flow_key(id))).collect();
    assert_eq!(
        got,
        vec![1, 2, 0, 0, 3, 2, 1, 3, 0, 1, 0, 3],
        "FxHash shard routing changed — this re-shards every flow; \
         if intentional, update this pin and regenerate affected CSVs"
    );
    assert_eq!(
        exbox::core::flowtable::hash_flow_key(&flow_key(7)),
        0xcb16_23aa_abcb_bc11,
        "hash_flow_key output changed for a pinned key"
    );
    // Routing is shard-count-stable in the modular sense: the 1-shard
    // gateway maps everything to shard 0.
    let one =
        ConcurrentGateway::serving_only(GatewayConfig::default(), estimator(), trained_snapshot());
    assert!((1..=12u32).all(|id| one.shard_for(&flow_key(id)) == 0));
}

/// Backpressure is explicit, bounded and observable: with one lane and
/// `batch: 1` the ingress ring holds 4 slots and the in-flight window
/// 4 packets, so a blocking 480-packet ingest must stall on the
/// reorder window (the dispatcher never merges mid-ingest except in a
/// stall), and every stall shows up in the counters rather than as a
/// silent spin. `try_ingest` refuses instead of blocking.
#[test]
fn pipeline_backpressure_stalls_are_counted() {
    let cfg = GatewayConfig {
        shards: 1,
        batch: 1,
        ..GatewayConfig::default()
    };
    let stream = interleaved_stream(40, 12);
    let mut gw = ConcurrentGateway::serving_only(cfg.clone(), estimator(), trained_snapshot());
    let mut pipe = gw.start_pipeline();
    pipe.ingest(&stream);
    let tail = gw.finish_pipeline(pipe);
    assert_eq!(tail.len(), stream.len());
    let m = gw.pipeline_registry().snapshot();
    assert!(
        m.counter("pipeline.reorder_stalls").unwrap_or(0) >= 1,
        "a 480-packet blocking ingest through a 4-deep window must stall"
    );

    // Non-blocking ingest: accept-what-fits, never spin. Every refusal
    // is still counted as a stall.
    let mut gw2 = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());
    let mut pipe = gw2.start_pipeline();
    let mut offered = 0usize;
    let mut verdicts = Vec::new();
    let mut refused_once = false;
    while offered < stream.len() {
        let took = pipe.try_ingest(&stream[offered..]);
        refused_once |= took < stream.len() - offered;
        offered += took;
        pipe.drain_verdicts(&mut verdicts);
    }
    verdicts.extend(gw2.finish_pipeline(pipe));
    assert_eq!(verdicts.len(), stream.len());
    assert!(
        refused_once,
        "a 4-slot ring must refuse at least part of a 480-packet burst"
    );
    let m2 = gw2.pipeline_registry().snapshot();
    assert!(
        m2.counter("gateway.ring_full_stalls").unwrap_or(0)
            + m2.counter("pipeline.reorder_stalls").unwrap_or(0)
            >= 1,
        "refusals must be visible in the stall counters"
    );
}

/// Satellite 6: steady-state driving is allocation-free. After one
/// warmup cycle sizes every reused buffer, further
/// ingest → drain → poll cycles must not regrow anything — asserted
/// through the growth counters (`pipeline.merge_out_grows`,
/// `gateway.poll_buf_grows`) rather than an allocator hook, so the
/// test also proves the counters tell the truth.
#[test]
fn steady_state_pipeline_and_poll_are_allocation_free() {
    let cfg = GatewayConfig {
        shards: 2,
        ..GatewayConfig::default()
    };
    let stream = interleaved_stream(24, 12);
    let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());

    // Warmup: one full pipeline cycle plus one poll sizes the verdict
    // buffer, the merge scratch and the poll buffer.
    let mut verdicts: Vec<Action> = Vec::new();
    let mut pipe = gw.start_pipeline();
    pipe.ingest(&stream);
    pipe.flush(&mut verdicts);
    gw.finish_pipeline(pipe);
    let mut poll_out = Vec::new();
    let mut t_ms = 10_000u64;
    for id in 1..=24u32 {
        gw.record_delivery(
            &flow_key(id),
            Instant::from_millis(t_ms),
            Instant::from_millis(t_ms + 5),
            1400,
        );
        t_ms += 10;
    }
    gw.poll_into(Instant::from_millis(t_ms), &mut poll_out);

    let warm = gw.merged_metrics();
    let grows_warm = warm.counter("pipeline.merge_out_grows").unwrap_or(0)
        + warm.counter("gateway.poll_buf_grows").unwrap_or(0);

    // Steady state: five more cycles reusing every buffer.
    for _ in 0..5 {
        verdicts.clear();
        let mut pipe = gw.start_pipeline();
        for chunk in stream.chunks(48) {
            pipe.ingest(chunk);
            pipe.drain_verdicts(&mut verdicts);
        }
        pipe.flush(&mut verdicts);
        gw.finish_pipeline(pipe);
        assert_eq!(verdicts.len(), stream.len());
        t_ms += 3_000;
        poll_out.clear();
        gw.poll_into(Instant::from_millis(t_ms), &mut poll_out);
    }

    let steady = gw.merged_metrics();
    let grows_steady = steady.counter("pipeline.merge_out_grows").unwrap_or(0)
        + steady.counter("gateway.poll_buf_grows").unwrap_or(0);
    assert_eq!(
        grows_steady, grows_warm,
        "steady-state pipeline/poll cycles regrew a reused buffer"
    );
    // Start/finish reuse the lanes: six cycles, still one thread per
    // shard ever spawned, none exited.
    assert_eq!(warm.counter("pipeline.lane_spawns"), Some(2));
    assert_eq!(steady.counter("pipeline.lane_spawns"), Some(2));
    assert_eq!(steady.counter("pipeline.lane_exits").unwrap_or(0), 0);
}

/// The trainer-side checkpoint path: written off the packet path,
/// counted on the trainer registry, and restorable into a gateway
/// that reaches the same verdicts.
#[test]
fn checkpoint_through_trainer_roundtrips() {
    let reg = MetricsRegistry::new();
    let gw = ConcurrentGateway::with_fault_plan(
        GatewayConfig::default(),
        estimator(),
        trained_classifier(&reg),
        FaultPlan::disabled(),
    );
    let dir = std::env::temp_dir().join(format!("exbox-gateway-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trainer.ckpt");
    gw.checkpoint_to_path(&path).expect("checkpoint must write");
    assert_eq!(
        gw.trainer_registry()
            .snapshot()
            .counter("recovery.checkpoint_writes")
            .unwrap(),
        1
    );

    let reg2 = MetricsRegistry::new();
    let (mut restored, err) = ConcurrentGateway::recover_from_path(
        GatewayConfig::default(),
        acfg(),
        estimator(),
        &path,
        &reg2,
    );
    assert!(err.is_none(), "pristine checkpoint must restore");
    assert!(!restored.is_recovering());
    assert_eq!(reg2.snapshot().counter("recovery.restores").unwrap(), 1);

    // <= 2 streaming region survives the roundtrip.
    let verdicts: Vec<Action> = (1..=4u32)
        .map(|id| {
            streaming_pkts(flow_key(id), 12)
                .iter()
                .map(|p| restored.process_packet(p, SnrLevel::High))
                .last()
                .unwrap()
        })
        .collect();
    assert_eq!(
        verdicts,
        vec![Action::Forward, Action::Forward, Action::Drop, Action::Drop]
    );
    std::fs::remove_file(&path).ok();
}

/// Run `f` on its own thread and fail the test if it has not returned
/// within `secs` seconds (a hang is the failure mode under test).
fn within_timeout<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(WallDuration::from_secs(secs))
        .expect("timed out: the pipeline hung");
    worker.join().unwrap();
    out
}

/// Lanes are spawned once per gateway and reused: over many
/// start → ingest → drain → finish cycles at 1, 2 and 4 shards
/// `pipeline.lane_spawns` equals the shard count, and every cycle's
/// verdict stream is byte-identical to a sequential replay of the
/// same cycle.
#[test]
fn pipeline_lanes_are_spawned_once_and_reused_across_cycles() {
    let stream = interleaved_stream(40, 12);
    let cycles = 8usize;
    let mut reference =
        ConcurrentGateway::serving_only(GatewayConfig::default(), estimator(), trained_snapshot());
    let expect: Vec<Vec<Action>> = (0..cycles)
        .map(|_| reference.process_packets(&stream))
        .collect();

    for shards in [1usize, 2, 4] {
        let cfg = GatewayConfig {
            shards,
            ..GatewayConfig::default()
        };
        let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());
        assert_eq!(
            gw.pipeline_registry()
                .snapshot()
                .counter("pipeline.lane_spawns"),
            None,
            "lanes must be spawned lazily, not during set-up"
        );
        for (cycle, want) in expect.iter().enumerate() {
            let mut pipe = gw.start_pipeline();
            let mut got = Vec::with_capacity(stream.len());
            for chunk in stream.chunks(48) {
                pipe.ingest(chunk);
                pipe.drain_verdicts(&mut got);
            }
            got.extend(gw.finish_pipeline(pipe));
            assert_eq!(
                &got, want,
                "{shards}-lane pipeline diverged from sequential at cycle {cycle}"
            );
        }
        assert_eq!(gw.matrix(), reference.matrix());
        let m = gw.pipeline_registry().snapshot();
        assert_eq!(
            m.counter("pipeline.lane_spawns"),
            Some(shards as u64),
            "a start/finish cycle spawned a thread"
        );
        assert_eq!(m.counter("pipeline.lane_exits").unwrap_or(0), 0);
        assert_eq!(m.counter("pipeline.worker_failures").unwrap_or(0), 0);
    }
}

/// One packet phase of [`rearm_plan`] and the lifecycle events that
/// follow it.
struct PlannedPhase {
    pkts: Vec<(Packet, SnrLevel)>,
    deliveries: Vec<(FlowKey, Instant)>,
    departed: Option<FlowKey>,
    poll_at: Instant,
}

/// `cycles` phases over 48 flows, sized in turn 0, 1, 63, 64, 65 and
/// 4 × batch + 1 packets; 500 ms of traffic clock per phase, so every
/// fourth poll is due (2 s poll interval).
fn rearm_plan(cycles: usize, batch: usize) -> Vec<PlannedPhase> {
    let sizes = [0usize, 1, 63, 64, 65, 4 * batch + 1];
    let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
    let mut flow_seq = [0u64; 48];
    (0..cycles)
        .map(|c| {
            let start_ms = 500 * c as u64;
            let pkts: Vec<(Packet, SnrLevel)> = (0..sizes[c % sizes.len()])
                .map(|i| {
                    let id = (rng.next() % 48) as usize;
                    flow_seq[id] += 1;
                    let pkt = Packet::new(
                        Instant::from_millis(start_ms + i as u64),
                        1400,
                        flow_key(id as u32 + 1),
                        Direction::Downlink,
                        flow_seq[id],
                    );
                    (pkt, SnrLevel::High)
                })
                .collect();
            let deliveries = pkts
                .iter()
                .step_by(7)
                .map(|(p, _)| (p.flow, p.timestamp))
                .collect();
            let departed = (c % 5 == 4).then(|| flow_key((rng.next() % 48) as u32 + 1));
            PlannedPhase {
                pkts,
                deliveries,
                departed,
                poll_at: Instant::from_millis(start_ms + 499),
            }
        })
        .collect()
}

type PhaseOutput = (Vec<Action>, Vec<(FlowKey, PollVerdict)>);

/// Shard counters compared at the end of a [`drive_plan`] run.
const PLAN_COUNTERS: [&str; 7] = [
    "middlebox.packets",
    "middlebox.admits",
    "middlebox.rejects",
    "middlebox.drops_rejected",
    "middlebox.keeps",
    "middlebox.departures",
    "middlebox.polls",
];

/// Drive `plan` through a fresh `shards`-shard gateway, each phase
/// either through the pipeline or through the sequential
/// `process_packets`; returns every phase's verdicts and poll output,
/// the final matrix and the [`PLAN_COUNTERS`].
fn drive_plan(
    shards: usize,
    pipeline: bool,
    plan: &[PlannedPhase],
) -> (Vec<PhaseOutput>, TrafficMatrix, Vec<u64>) {
    let cfg = GatewayConfig {
        shards,
        ..GatewayConfig::default()
    };
    let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());
    let mut out = Vec::with_capacity(plan.len());
    for phase in plan {
        let verdicts = if pipeline {
            let mut pipe = gw.start_pipeline();
            let mut got = Vec::new();
            pipe.ingest(&phase.pkts);
            pipe.drain_verdicts(&mut got);
            got.extend(gw.finish_pipeline(pipe));
            got
        } else {
            gw.process_packets(&phase.pkts)
        };
        for &(key, sent) in &phase.deliveries {
            let received = Instant::from_nanos(sent.as_nanos() + 5_000_000);
            gw.record_delivery(&key, sent, received, 1400);
        }
        if let Some(key) = phase.departed {
            gw.flow_departed(&key);
        }
        let mut polled = Vec::new();
        gw.poll_into(phase.poll_at, &mut polled);
        out.push((verdicts, polled));
    }
    let m = gw.merged_metrics();
    let counters = PLAN_COUNTERS
        .iter()
        .map(|name| m.counter(name).unwrap_or(0))
        .collect();
    (out, gw.matrix(), counters)
}

/// Ring reuse under phase cycling: every lane's rings, the gate and the
/// reorder ring are re-armed for each phase, never rebuilt. Over 240
/// phases at 1, 2 and 4 shards — sized so ring indexes wrap across
/// phases, with deliveries, departures and a poll between phases — each
/// phase's verdicts and each poll must equal a sequential
/// `process_packets` replay of the same plan byte for byte.
#[test]
fn pipeline_lane_rings_rearm_across_phase_cycles() {
    let plan = rearm_plan(240, GatewayConfig::default().batch);
    for shards in [1usize, 2, 4] {
        let (want, want_matrix, want_counters) = drive_plan(shards, false, &plan);
        let (got, got_matrix, got_counters) = drive_plan(shards, true, &plan);
        for (cycle, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(
                format!("{w:?}"),
                format!("{g:?}"),
                "{shards}-lane pipeline diverged from sequential at phase {cycle}"
            );
        }
        assert_eq!(got_matrix, want_matrix, "{shards}-lane matrix diverged");
        assert_eq!(
            got_counters, want_counters,
            "{shards}-lane counters diverged"
        );
        // Every event kind did work: polls kept admitted flows and
        // departures released some.
        assert!(got_counters[4] > 0, "no poll kept a flow: {got_counters:?}");
        assert!(got_counters[5] > 0, "no departure: {got_counters:?}");
    }
}

/// Teardown never hangs and never leaks a lane: dropping a handle
/// mid-phase (packets still in flight) stops and joins its lanes, and
/// dropping a gateway whose lanes are parked joins those.
#[test]
fn pipeline_lanes_join_on_unfinished_handle_and_gateway_drop() {
    within_timeout(60, || {
        let stream = interleaved_stream(40, 12);
        let cfg = GatewayConfig {
            shards: 2,
            ..GatewayConfig::default()
        };

        // Unfinished handle, then the gateway.
        let mut gw = ConcurrentGateway::serving_only(cfg.clone(), estimator(), trained_snapshot());
        let spawns = gw.pipeline_registry().counter("pipeline.lane_spawns");
        let exits = gw.pipeline_registry().counter("pipeline.lane_exits");
        let pipe = gw.start_pipeline();
        gw.finish_pipeline(pipe);
        let mut pipe = gw.start_pipeline();
        pipe.ingest(&stream);
        drop(pipe);
        assert_eq!(spawns.get(), 2);
        assert_eq!(exits.get(), 2, "a dropped handle must join its lanes");
        drop(gw);
        assert_eq!(exits.get(), spawns.get());

        // Parked lanes, gateway dropped (and a trainer to shut down).
        let reg = MetricsRegistry::new();
        let mut gw = ConcurrentGateway::with_fault_plan(
            cfg,
            estimator(),
            trained_classifier(&reg),
            FaultPlan::disabled(),
        );
        let spawns = gw.pipeline_registry().counter("pipeline.lane_spawns");
        let exits = gw.pipeline_registry().counter("pipeline.lane_exits");
        for _ in 0..3 {
            let mut pipe = gw.start_pipeline();
            pipe.ingest(&stream);
            gw.finish_pipeline(pipe);
        }
        assert_eq!((spawns.get(), exits.get()), (2, 0));
        drop(gw);
        assert_eq!(exits.get(), 2, "gateway drop must join its parked lanes");
    });
}

/// Drive one phase with lane `lane` armed to panic; returns the panic
/// message and the gateway's `pipeline.worker_failures`.
fn drive_with_lane_panic(batch: usize, lane: usize) -> (String, u64) {
    within_timeout(60, move || {
        let stream = interleaved_stream(24, 12);
        let cfg = GatewayConfig {
            shards: 2,
            batch,
            ..GatewayConfig::default()
        };
        let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());
        let failures = gw.pipeline_registry().counter("pipeline.worker_failures");
        let exits = gw.pipeline_registry().counter("pipeline.lane_exits");
        // A healthy phase first, so the faulty one runs on reused lanes.
        let pipe = gw.start_pipeline();
        gw.finish_pipeline(pipe);
        gw.inject_lane_panic(lane);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pipe = gw.start_pipeline();
            let mut verdicts = Vec::new();
            for chunk in stream.chunks(32) {
                pipe.ingest(chunk);
                pipe.drain_verdicts(&mut verdicts);
            }
            gw.finish_pipeline(pipe)
        }));
        let payload = outcome.expect_err("a lane panic must surface to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| payload.downcast_ref::<&str>().unwrap().to_string());
        assert_eq!(exits.get(), 2, "the failed phase's lanes must be joined");
        drop(gw);
        (msg, failures.get())
    })
}

/// A panicking lane is contained: it retires its gate cursor (the
/// other lane's decisions do not wait on it forever), the dispatcher
/// panics with a message naming the lane instead of spinning, the
/// failure is counted, and teardown joins everything — both when the
/// loss surfaces in `finish_pipeline`'s flush (roomy rings) and when it
/// surfaces in a stalled `ingest` (4-slot rings).
#[test]
fn pipeline_lane_panic_is_contained_and_named() {
    for (batch, lane) in [(64usize, 1usize), (1, 0)] {
        let (msg, failures) = drive_with_lane_panic(batch, lane);
        assert!(
            msg.contains(&format!("pipeline lane {lane} panicked")),
            "panic message must name the lane: {msg:?}"
        );
        assert!(msg.contains("injected fault"), "{msg:?}");
        assert_eq!(failures, 1, "pipeline.worker_failures must count the panic");
    }
}

/// A classifier like [`trained_classifier`] that retrains on every
/// observation (`batch_size: 1`).
fn retrain_every_observation(reg: &MetricsRegistry) -> AdmittanceClassifier {
    let cfg = AdmittanceConfig {
        batch_size: 1,
        ..AdmittanceConfig::default()
    };
    let mut ac = AdmittanceClassifier::with_registry(cfg, reg);
    for n in 0..80u32 {
        let total = n % 8;
        let mut mat = TrafficMatrix::empty();
        for _ in 0..total {
            mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        let y = if total <= 3 { Label::Pos } else { Label::Neg };
        ac.observe(mat, y);
    }
    assert_eq!(ac.phase(), Phase::Online, "fixture must go online");
    ac
}

/// Revocations the region re-evaluation makes on `snap`: oldest
/// admission first while the snapshot rejects the matrix.
fn revocations_on(snap: &ModelSnapshot, matrix: TrafficMatrix, admitted: &[u32]) -> Vec<u32> {
    let mut matrix = matrix;
    let mut out = Vec::new();
    if snap.phase() != Phase::Online {
        return out;
    }
    for &id in admitted {
        if snap.decide(&matrix).0 == Label::Pos {
            break;
        }
        matrix.remove(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        out.push(id);
    }
    out
}

/// A poll pins its snapshot *before* its observation leaves for the
/// trainer. Here every poll's observation completes a retrain batch,
/// so a publish lands right behind every poll, and on odd rounds the
/// reported QoS is bad: that observation labels the current matrix
/// inadmissible, so the retrain flips the model exactly where the
/// poll re-evaluates. The poll's revocations must still equal those
/// computed on the snapshot serving when the poll began, in every
/// round of every run; the flip shows up as revocations at the *next*
/// poll.
#[test]
fn poll_revocations_follow_the_pre_poll_snapshot() {
    for run in 0..24u32 {
        let reg = MetricsRegistry::new();
        let mut gw = ConcurrentGateway::with_fault_plan(
            GatewayConfig::default(),
            estimator(),
            retrain_every_observation(&reg),
            FaultPlan::disabled(),
        );
        let mut reader = gw.snapshot_reader();
        let mut admitted: Vec<u32> = Vec::new();
        let mut next_id = 1 + run * 1000;
        let mut t_ms = 0u64;
        let mut revoked_total = 0usize;
        for round in 0..16u64 {
            // New arrivals, admitted under the serving snapshot.
            for _ in 0..2 {
                let id = next_id;
                next_id += 1;
                let last = streaming_pkts(flow_key(id), 12)
                    .iter()
                    .map(|p| gw.process_packet(p, SnrLevel::High))
                    .last()
                    .unwrap();
                if last == Action::Forward {
                    admitted.push(id);
                }
            }
            t_ms += 3_000;
            // Good QoS: 1400 B in 5 ms. Bad QoS: 1 B in 900 ms.
            let (delay_ms, size) = if round % 2 == 1 { (900, 1) } else { (5, 1400) };
            for &id in &admitted {
                gw.record_delivery(
                    &flow_key(id),
                    Instant::from_millis(t_ms - 1_000),
                    Instant::from_millis(t_ms - 1_000 + delay_ms),
                    size,
                );
            }
            let pre_poll = (*reader.pin()).clone();
            let expected = revocations_on(&pre_poll, gw.matrix(), &admitted);
            let publishes = gw.publish_count();
            let verdicts = gw.poll(Instant::from_millis(t_ms));
            assert!(gw.flush_trainer());
            if !admitted.is_empty() {
                assert_eq!(
                    gw.publish_count(),
                    publishes + 1,
                    "run {run} round {round}: the poll's observation must complete a retrain"
                );
            }
            let revoked: Vec<u32> = verdicts
                .iter()
                .filter(|(_, v)| *v == PollVerdict::Revoke)
                .map(|(k, _)| {
                    admitted
                        .iter()
                        .copied()
                        .find(|&id| flow_key(id) == *k)
                        .unwrap()
                })
                .collect();
            assert_eq!(
                revoked, expected,
                "run {run} round {round}: poll did not re-evaluate on the pre-poll snapshot"
            );
            admitted.retain(|id| !revoked.contains(id));
            revoked_total += revoked.len();
        }
        assert!(revoked_total > 0, "the scenario must exercise revocations");
    }
}
