//! The per-layer cost ledger: replay a workload's own recorded inputs
//! through one sub-layer's public types, [`K`] calls per sample, with
//! the calibrated timer cost subtracted.

use std::hint::black_box;

use exbox_core::flowtable::{FlowMap, FlowSlot, RejectedRing, TimerWheel};
use exbox_core::gateway::{SharedMatrix, SnapshotCell};
use exbox_core::matrix::{FlowKind, SnrLevel};
use exbox_core::qoe::QoeEstimator;
use exbox_net::{AppClass, EarlyClassifier, QosMeter};

use crate::driver::{PathCounts, Recording};
use crate::stats::{time_batched, Samples};
use crate::workload::CLASSIFY_WINDOW;

/// Calls per timed sample.
pub const K: usize = 64;
/// Upper bound on samples per ledger entry.
const MAX_SAMPLES: usize = 4_096;
/// Lower bound on samples per ledger entry (short input lists are
/// cycled through).
const MIN_SAMPLES: usize = 256;

/// One ledger entry: median ns per call over `samples` samples.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Metric name, e.g. `ledger.classify_ns`.
    pub name: &'static str,
    /// Per-call ns samples (timer cost subtracted).
    pub samples: Samples,
}

impl Entry {
    /// Median ns per call.
    pub fn median(&mut self) -> Option<f64> {
        self.samples.median()
    }
}

fn sample_count(inputs: usize) -> usize {
    (inputs / K).clamp(MIN_SAMPLES, MAX_SAMPLES)
}

fn every_kind() -> impl Iterator<Item = FlowKind> {
    AppClass::ALL
        .into_iter()
        .flat_map(|c| [SnrLevel::High, SnrLevel::Low].map(|s| FlowKind::new(c, s)))
}

/// Run every ledger entry the recording has inputs for. Entries with
/// no inputs are returned with empty samples (reported as SKIPPED).
pub fn run(rec: &Recording, estimator: &QoeEstimator, timer_ns: f64) -> Vec<Entry> {
    let mut out = Vec::new();
    let mut entry = |name: &'static str, samples: Samples| out.push(Entry { name, samples });

    // Early classification over the packets that reached it, in order.
    let pkts = &rec.classify_pkts;
    entry(
        "ledger.classify_ns",
        if pkts.is_empty() {
            Samples::new()
        } else {
            let mut early = EarlyClassifier::with_default_profiles(CLASSIFY_WINDOW);
            time_batched(sample_count(pkts.len()), K, timer_ns, |i| {
                black_box(early.observe(&pkts[i % pkts.len()]));
            })
        },
    );

    // Flow-table probe: the admitted set at its peak size, probed with
    // the keys that passed the rejected-set probe.
    let probes = &rec.probe_keys;
    entry(
        "ledger.flow_probe_ns",
        if probes.is_empty() {
            Samples::new()
        } else {
            let mut map: FlowMap<u32> = FlowMap::new();
            let live = rec.peak_admitted.max(1).min(rec.admitted_keys.len());
            for (i, k) in rec.admitted_keys.iter().take(live).enumerate() {
                map.insert(*k, i as u32);
            }
            time_batched(sample_count(probes.len()), K, timer_ns, |i| {
                black_box(map.contains_key(&probes[i % probes.len()]));
            })
        },
    );

    // Rejected-set probe: the ring filled with the recorded inserts,
    // probed with every packet's key.
    let keys = &rec.all_keys;
    entry(
        "ledger.rejected_probe_ns",
        if keys.is_empty() {
            Samples::new()
        } else {
            let mut ring = RejectedRing::new(rec.rejected_capacity.max(1));
            for k in &rec.rejections {
                ring.insert(*k);
            }
            time_batched(sample_count(keys.len()), K, timer_ns, |i| {
                black_box(ring.contains(&keys[i % keys.len()]));
            })
        },
    );

    // Shared-matrix snapshot at the episode's final occupancy.
    let shared = SharedMatrix::new();
    for kind in every_kind() {
        for _ in 0..rec.final_matrix.count(kind) {
            shared.add(kind);
        }
    }
    entry(
        "ledger.matrix_snapshot_ns",
        time_batched(MAX_SAMPLES, K, timer_ns, |_| {
            black_box(shared.snapshot());
        }),
    );

    // Snapshot pin and uncached decisions on the served snapshot.
    match &rec.snapshot {
        Some(snap) => {
            let cell = SnapshotCell::new(snap.clone());
            let mut reader = cell.reader();
            entry(
                "ledger.pin_ns",
                time_batched(MAX_SAMPLES, K, timer_ns, |_| {
                    let guard = reader.pin();
                    black_box(guard.epoch());
                }),
            );
            let ms = &rec.decisions;
            entry(
                "ledger.decide_ns",
                if ms.is_empty() {
                    Samples::new()
                } else {
                    time_batched(sample_count(ms.len()), K, timer_ns, |i| {
                        black_box(snap.decide(&ms[i % ms.len()]));
                    })
                },
            );
        }
        None => {
            entry("ledger.pin_ns", Samples::new());
            entry("ledger.decide_ns", Samples::new());
        }
    }

    // Flow churn: keep the admitted set at its peak size, admitting the
    // next recorded flow and releasing the oldest per call.
    let adm = &rec.admitted_keys;
    entry(
        "ledger.flow_churn_ns",
        if adm.len() < 2 {
            Samples::new()
        } else {
            let live = rec.peak_admitted.clamp(1, adm.len() - 1);
            let mut map: FlowMap<u32> = FlowMap::new();
            for (i, k) in adm.iter().take(live).enumerate() {
                map.insert(*k, i as u32);
            }
            // Each call inserts one key and removes the key `live` places
            // behind it, cycling through the recorded admissions.
            let n = adm.len();
            time_batched(sample_count(n), K, timer_ns, |i| {
                let j = (live + i) % n;
                map.insert(adm[j], j as u32);
                black_box(map.remove(&adm[(j + n - live) % n]));
            })
        },
    );

    // Timer wheel: schedule every admitted flow for the next tick, then
    // advance; one call = one schedule plus its share of the advance.
    entry(
        "ledger.wheel_ns",
        if adm.is_empty() {
            Samples::new()
        } else {
            let live = rec.peak_admitted.clamp(1, adm.len());
            let mut map: FlowMap<()> = FlowMap::new();
            let slots: Vec<FlowSlot> = adm.iter().take(live).map(|k| map.insert(*k, ())).collect();
            let mut wheel = TimerWheel::new();
            let mut due = Vec::with_capacity(K);
            let mut tick = 0u64;
            time_batched(sample_count(slots.len()), K, timer_ns, |i| {
                wheel.schedule(slots[i % slots.len()], tick + 1);
                if i % K == K - 1 {
                    tick += 1;
                    due.clear();
                    wheel.advance(tick, &mut due);
                    black_box(due.len());
                }
            })
        },
    );

    // QoS meter: deliver a recorded report and sample the window.
    let dels = &rec.deliveries;
    entry(
        "ledger.qos_meter_ns",
        if dels.is_empty() {
            Samples::new()
        } else {
            let mut meter = QosMeter::new();
            time_batched(sample_count(dels.len()), K, timer_ns, |i| {
                let (sent, received, size) = dels[i % dels.len()];
                meter.deliver(sent, received, size);
                black_box(meter.sample());
                if i % K == K - 1 {
                    meter.reset();
                }
            })
        },
    );

    // QoE estimation on the (class, QoS) pairs the polls evaluated.
    let qoe = &rec.qoe;
    entry(
        "ledger.qoe_acceptable_ns",
        if qoe.is_empty() {
            Samples::new()
        } else {
            time_batched(sample_count(qoe.len()), K, timer_ns, |i| {
                let (class, q) = &qoe[i % qoe.len()];
                black_box(estimator.acceptable(*class, q));
            })
        },
    );
    out
}

/// Per-packet cost the ledger predicts for the batch path: every packet
/// probes the rejected set; packets that pass probe the flow table;
/// non-admitted ones reach the classifier; decisions snapshot the
/// matrix and (on a cache miss) evaluate the model; the snapshot pin is
/// paid once per batch.
pub fn per_packet_ns(
    entries: &mut [Entry],
    paths: &PathCounts,
    packets: u64,
    cache_miss_ratio: f64,
    batch: usize,
) -> Option<f64> {
    if packets == 0 {
        return None;
    }
    let mut get = |name: &str| -> f64 {
        entries
            .iter_mut()
            .find(|e| e.name == name)
            .and_then(Entry::median)
            .unwrap_or(0.0)
    };
    let p = packets as f64;
    let passed = (packets - paths.rejected_hits) as f64 / p;
    let classified = paths.classified as f64 / p;
    let decisions = paths.decisions as f64 / p;
    Some(
        get("ledger.rejected_probe_ns")
            + passed * get("ledger.flow_probe_ns")
            + classified * get("ledger.classify_ns")
            + decisions
                * (get("ledger.matrix_snapshot_ns") + cache_miss_ratio * get("ledger.decide_ns"))
            + get("ledger.pin_ns") / batch.max(1) as f64,
    )
}
