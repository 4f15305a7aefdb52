//! A packet phase's fixed cost allocates nothing: once one
//! start → ingest → flush → finish cycle has built the pipeline (lanes,
//! rings, gate, reorder ring, merge buffers) and warmed the caller's
//! verdict buffer, further cycles make zero heap allocations on any
//! thread, lanes included (DESIGN.md §10.5).
//!
//! A counting `#[global_allocator]` sees every allocation in the
//! process, so this binary holds exactly one test: no other test thread
//! can allocate while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use exbox::ml::Label;
use exbox::net::{AppClass, Direction, FlowKey, Packet, Protocol};
use exbox::prelude::*;
use exbox_obs::MetricsRegistry;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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

/// A snapshot of a classifier trained to admit at most two streaming
/// flows, so the phase exercises real admissions and rejections.
fn trained_snapshot() -> ModelSnapshot {
    let reg = MetricsRegistry::new();
    let cfg = AdmittanceConfig {
        batch_size: 8,
        ..AdmittanceConfig::default()
    };
    let mut ac = AdmittanceClassifier::with_registry(cfg, &reg);
    for n in 0..80u32 {
        let total = n % 8;
        let mut mat = TrafficMatrix::empty();
        for _ in 0..total {
            mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        ac.observe(mat, if total <= 2 { Label::Pos } else { Label::Neg });
    }
    ModelSnapshot::from_classifier(1, &ac)
}

/// `flows` flows round-robin for `rounds` rounds, so consecutive
/// packets land on different lanes and the merge has to reorder.
fn interleaved_stream(flows: u32, rounds: u64) -> Vec<(Packet, SnrLevel)> {
    let mut out = Vec::new();
    let mut t = 0u64;
    for s in 0..rounds {
        for id in 1..=flows {
            let key = FlowKey::synthetic(id, id, 1, Protocol::Tcp);
            let pkt = Packet::new(
                Instant::from_millis(2 * t),
                1400,
                key,
                Direction::Downlink,
                s,
            );
            out.push((pkt, SnrLevel::High));
            t += 1;
        }
    }
    out
}

/// One packet phase; the stream's clock moves on by `shift_ms` first
/// (in place), so every phase carries fresh timestamps.
fn cycle(
    gw: &mut ConcurrentGateway,
    stream: &mut [(Packet, SnrLevel)],
    shift_ms: u64,
    out: &mut Vec<Action>,
) {
    for (pkt, _) in stream.iter_mut() {
        pkt.timestamp = Instant::from_nanos(pkt.timestamp.as_nanos() + shift_ms * 1_000_000);
    }
    out.clear();
    let mut pipe = gw.start_pipeline();
    pipe.ingest(stream);
    pipe.flush(out);
    let tail = gw.finish_pipeline(pipe);
    assert!(tail.is_empty(), "flush left verdicts for finish");
    assert_eq!(out.len(), stream.len());
}

#[test]
fn pipeline_phase_cycles_make_no_heap_allocations() {
    for shards in [1usize, 2] {
        let cfg = GatewayConfig {
            shards,
            ..GatewayConfig::default()
        };
        let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), trained_snapshot());
        let mut stream = interleaved_stream(40, 12);
        let span_ms = 2 * stream.len() as u64;
        let mut out = Vec::new();
        // Warm-up: builds the pipeline and every flow's state, and
        // sizes `out`.
        cycle(&mut gw, &mut stream, 0, &mut out);

        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..100 {
            cycle(&mut gw, &mut stream, span_ms, &mut out);
        }
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(
            allocs, 0,
            "{shards}-shard: 100 steady packet phases made {allocs} heap allocations"
        );
        let m = gw.pipeline_registry().snapshot();
        assert_eq!(m.counter("pipeline.lane_spawns"), Some(shards as u64));
        assert_eq!(
            m.counter("pipeline.ingested"),
            Some(101 * stream.len() as u64)
        );
    }
}
