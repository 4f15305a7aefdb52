//! Closed-loop serving throughput of the concurrent sharded gateway.
//!
//! `GatewayThroughput/{1,2,4,8}shard` replays the same flow-arrival
//! storm through a serving-only [`ConcurrentGateway`] with 1/2/4/8
//! shards, each shard moved out with `take_shards` and driven by its
//! own scoped thread. Every flow sends 10 packets (classified at
//! the 8th, decided against the shared matrix, admitted, then
//! departed), so the run exercises the full packet path: rejected-set
//! check, flow table, early classification, lock-free snapshot pin,
//! shared-matrix update and departure.
//!
//! One rep = serving the whole storm; the record's `n` is total
//! packets, so `p50_ns / n` is the per-packet serving cost. On a
//! multi-core runner the 4-shard scenario must beat 1-shard by ≥ 2.5x
//! (`scripts/bench_compare.sh` gates this when `nproc ≥ 4`); on one
//! core the scenarios mostly measure sharding overhead.
//!
//! `PipelineThroughput/{1,2,4,8}core` drives the same gateway through
//! the single-ingress pipeline (`start_pipeline`/`ingest`): one
//! dispatcher, per-lane SPSC rings, globally ordered verdict merge.
//! Unlike `GatewayThroughput` (pre-partitioned, one driver per shard)
//! this measures the *real* deployment shape — one packet stream in,
//! one verdict stream out — including dispatch, ring hand-off and
//! reorder cost. Gated at 4core ≥ 2.5x 1core on `nproc ≥ 4` runners.
//!
//! Hand-rolled harness (offline sandbox, no Criterion). `--json` for
//! `scripts/bench_compare.sh`, `--quick` for the CI smoke job.

use std::hint::black_box;

use exbox_bench::{bench_args, emit_records, measure, BenchRecord};
use exbox_core::gateway::{ConcurrentGateway, GatewayConfig, ModelSnapshot};
use exbox_core::prelude::*;
use exbox_ml::Label;
use exbox_net::{AppClass, Direction, FlowKey, Instant, Packet, Protocol};
use exbox_obs::buckets;

/// A classifier trained to a roomy streaming region (<= 32 flows), so
/// the storm below keeps admitting and departing rather than
/// saturating into pure rejections.
fn trained_classifier() -> AdmittanceClassifier {
    let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
        batch_size: 4096, // static during the run (serving-only anyway)
        bootstrap_min_samples: 128,
        ..AdmittanceConfig::default()
    });
    for n in 0..256u32 {
        let total = n % 64;
        let mut mat = TrafficMatrix::empty();
        for _ in 0..total {
            mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        let y = if total <= 32 { Label::Pos } else { Label::Neg };
        ac.observe(mat, y);
    }
    assert_eq!(ac.phase(), Phase::Online, "fixture must go online");
    ac
}

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
        exbox_core::qoe::QosScale::new(1e3, 1e8),
    )
}

const PKTS_PER_FLOW: usize = 10;

fn flow_packets(id: u32) -> (FlowKey, Vec<Packet>) {
    let key = FlowKey::synthetic(id, id, 1, Protocol::Tcp);
    let pkts = (0..PKTS_PER_FLOW)
        .map(|i| {
            Packet::new(
                Instant::from_millis(2 * i as u64),
                1400,
                key,
                Direction::Downlink,
                i as u64,
            )
        })
        .collect();
    (key, pkts)
}

fn main() {
    let args = bench_args();
    let mut records: Vec<BenchRecord> = Vec::new();
    // One rep is a whole storm (~ms..s), not a single call.
    let bounds = buckets::exponential(10_000.0, 2.0, 32);
    let flows: u32 = if args.quick { 2_048 } else { 16_384 };
    let reps: u32 = if args.quick { 3 } else { 15 };

    let classifier = trained_classifier();
    let est = estimator();

    for shards in [1usize, 2, 4, 8] {
        let cfg = GatewayConfig {
            shards,
            ..GatewayConfig::default()
        };
        // Partition the storm by owner shard once (the hash is fixed,
        // so this is identical for every rep).
        let probe = ConcurrentGateway::serving_only(
            cfg.clone(),
            est.clone(),
            ModelSnapshot::from_classifier(1, &classifier),
        );
        let mut partition: Vec<Vec<(FlowKey, Vec<Packet>)>> = vec![Vec::new(); shards];
        for id in 1..=flows {
            let (key, pkts) = flow_packets(id);
            partition[probe.shard_for(&key)].push((key, pkts));
        }
        drop(probe);
        let total_pkts = flows as usize * PKTS_PER_FLOW;

        records.push(measure(
            format!("GatewayThroughput/{shards}shard"),
            total_pkts,
            2,
            reps,
            &bounds,
            || {
                let mut gw = ConcurrentGateway::serving_only(
                    cfg.clone(),
                    est.clone(),
                    ModelSnapshot::from_classifier(1, &classifier),
                );
                std::thread::scope(|scope| {
                    for mut shard in gw.take_shards() {
                        let chunk = &partition[shard.id()];
                        scope.spawn(move || {
                            let mut served = 0u64;
                            for (key, pkts) in chunk {
                                for p in pkts {
                                    shard.process_packet(p, SnrLevel::High);
                                    served += 1;
                                }
                                shard.flow_departed(key);
                            }
                            black_box(served);
                        });
                    }
                });
                black_box(gw.matrix());
            },
        ));
    }

    // Batched ingest vs per-packet driving on one shard (sequential
    // driver, same storm, identical verdicts): the batch path pins the
    // model snapshot once per chunk, run-length-caches consecutive
    // same-flow verdicts and flushes counters per batch. The storm is
    // an overload burst — each flow arrives as 32 back-to-back packets
    // and the region saturates early, so most of the stream is the
    // post-verdict fast path the run-length cache targets. The
    // record's `n` is total packets, so `n / (p50_ns / 1e9)` is the
    // packets/sec headline `scripts/bench_compare.sh` reports.
    {
        const BURST: usize = 32;
        let cfg = GatewayConfig {
            shards: 1,
            ..GatewayConfig::default()
        };
        let burst_flows = flows / (BURST / PKTS_PER_FLOW) as u32;
        let mut stream: Vec<(Packet, SnrLevel)> = Vec::with_capacity(burst_flows as usize * BURST);
        for id in 1..=burst_flows {
            let key = FlowKey::synthetic(id, id, 1, Protocol::Tcp);
            for i in 0..BURST {
                let p = Packet::new(
                    Instant::from_millis(2 * i as u64),
                    1400,
                    key,
                    Direction::Downlink,
                    i as u64,
                );
                stream.push((p, SnrLevel::High));
            }
        }
        let batch = cfg.batch.max(1);
        for (label, batched) in [("per-packet", false), ("batched", true)] {
            records.push(measure(
                format!("GatewayBatch/{label}"),
                stream.len(),
                2,
                reps,
                &bounds,
                || {
                    let mut gw = ConcurrentGateway::serving_only(
                        cfg.clone(),
                        est.clone(),
                        ModelSnapshot::from_classifier(1, &classifier),
                    );
                    if batched {
                        for chunk in stream.chunks(batch) {
                            black_box(gw.process_packets(chunk));
                        }
                    } else {
                        for (p, snr) in &stream {
                            black_box(gw.process_packet(p, *snr));
                        }
                    }
                    black_box(gw.matrix());
                },
            ));
        }
    }

    // Multi-core pipeline data plane: one dispatcher flow-hashing an
    // interleaved storm into per-lane SPSC rings, 1/2/4/8 run-to-
    // completion workers, verdicts merged back into global ingress
    // order (byte-identical to sequential driving — DESIGN.md §10).
    // The storm interleaves flows round-robin so consecutive packets
    // land on different lanes and the run-length cache rarely hits:
    // per-packet worker cost (flow table + classify + amortised
    // decisions) dominates the dispatcher, which is what makes the
    // scenario scale. `scripts/bench_compare.sh` gates 4core ≥ 2.5x
    // 1core when `nproc ≥ 4` and reports `n / (p50_ns / 1e9)` as the
    // packets/sec headline.
    {
        const ROUNDS: u64 = 32;
        let pipe_flows: u32 = if args.quick { 128 } else { 512 };
        let mut stream: Vec<(Packet, SnrLevel)> =
            Vec::with_capacity(pipe_flows as usize * ROUNDS as usize);
        let mut t = 0u64;
        for s in 0..ROUNDS {
            for id in 1..=pipe_flows {
                let key = FlowKey::synthetic(id, id, 1, Protocol::Tcp);
                stream.push((
                    Packet::new(
                        Instant::from_millis(2 * t),
                        1400,
                        key,
                        Direction::Downlink,
                        s,
                    ),
                    SnrLevel::High,
                ));
                t += 1;
            }
        }
        for cores in [1usize, 2, 4, 8] {
            let cfg = GatewayConfig {
                shards: cores,
                ..GatewayConfig::default()
            };
            records.push(measure(
                format!("PipelineThroughput/{cores}core"),
                stream.len(),
                2,
                reps,
                &bounds,
                || {
                    let mut gw = ConcurrentGateway::serving_only(
                        cfg.clone(),
                        est.clone(),
                        ModelSnapshot::from_classifier(1, &classifier),
                    );
                    let mut pipe = gw.start_pipeline();
                    let mut verdicts = Vec::with_capacity(stream.len());
                    for chunk in stream.chunks(256) {
                        pipe.ingest(chunk);
                        pipe.drain_verdicts(&mut verdicts);
                    }
                    verdicts.extend(gw.finish_pipeline(pipe));
                    assert_eq!(verdicts.len(), stream.len());
                    black_box(&verdicts);
                    black_box(gw.matrix());
                },
            ));
        }
    }

    emit_records("gateway_throughput", &records, args);
}
