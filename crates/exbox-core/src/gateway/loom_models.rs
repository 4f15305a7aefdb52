//! Interleaving models for the gateway's load-bearing concurrency
//! primitives, driven by the vendored `exbox-loom` explorer.
//!
//! Only built under `--cfg exbox_loom`; run with
//! `RUSTFLAGS='--cfg exbox_loom' cargo test -p exbox-core --lib`
//! (or `scripts/loom_check.sh`). Every test here checks a *property*,
//! not just "no crash": eventual snapshot visibility, no
//! use-after-retire under a pinned guard (the `SnapshotGuard::deref`
//! canary), retired-list quiescence, channel no-loss/no-duplication,
//! exact `try_send` backpressure accounting, a lossless trainer
//! shutdown drain, and the pipeline's SPSC ring: lossless in-order
//! transfer with atomic batch publication, fresh values out of reused
//! slots across wraparound, and the close-after-publish protocol that
//! lets a worker exit without stranding packets; and the pipeline
//! lanes' parked handoff: start → finish → start with no lost or
//! duplicated shard, teardown of parked lanes, a handle dropped
//! mid-phase, a panicking phase contained and reported, an ingress
//! ring re-armed across two phases, and `collect`'s spin-then-block
//! wait.
//!
//! Bounds: every model runs under the explorer's default preemption
//! bound of 2 (documented in `DESIGN.md` §9) unless it passes an
//! explicit [`Config`]; `EXBOX_LOOM_EXHAUSTIVE=1` lifts the bound for
//! the nightly CI leg. Counterexamples dump replayable traces to
//! `EXBOX_LOOM_TRACE_DIR`; regression traces live in
//! `tests/loom-traces/` and are replayed against the fixed code below.

use std::sync::Arc;

use exbox_loom::{explore, model, replay, thread, Config};

use exbox_net::AppClass;
use exbox_obs::Counter;

use crate::matrix::{FlowKind, SnrLevel};

use super::channel;
use super::lane::{Lane, LaneCounters};
use super::shard::SharedMatrix;
use super::snapshot::SnapshotCell;
use super::spsc;

/// The ISSUE's acceptance model: ≥2 writers and ≥2 readers over one
/// `SnapshotCell`, explored to exhaustion within the preemption bound.
///
/// Properties checked on every schedule:
/// * a pinned guard's pointer is never freed under it (the
///   `SnapshotGuard::deref` canary panics on use-after-retire);
/// * a snapshot published before both writers joined is observed by a
///   subsequent pin — the final pin never sees the initial value;
/// * at quiescence (guards dropped, readers unregistered) the retired
///   list is fully drained (also a `debug_assert` inside `reclaim`).
#[test]
fn snapshot_two_writers_two_readers_exhaustive() {
    let report = explore(Config::default(), || {
        let cell = SnapshotCell::new(0u64);
        let mut writers = Vec::new();
        for v in 1..=2u64 {
            let cell = Arc::clone(&cell);
            writers.push(thread::spawn(move || cell.publish(v)));
        }
        let mut readers = Vec::new();
        for _ in 0..2 {
            let mut reader = cell.reader();
            readers.push(thread::spawn(move || {
                // Deref exercises the use-after-retire canary; the
                // value is one of the published states.
                let first = *reader.pin();
                let second = *reader.pin();
                assert!(first <= 2 && second <= 2);
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        // Both publishes retired their predecessors; with every reader
        // gone the grace period has passed for all of them.
        assert_eq!(cell.retired_len(), 0, "retired list leaked");
        // Eventual visibility: a fresh pin after both writers joined
        // must see one of the published snapshots, never epoch 0.
        let mut late = cell.reader();
        assert_ne!(*late.pin(), 0, "published snapshot never became visible");
        assert_eq!(cell.publish_count(), 2);
    })
    .unwrap_or_else(|cex| {
        panic!(
            "snapshot model failed: {}\nreplay: EXBOX_LOOM_REPLAY='{}'",
            cex.message, cex.trace
        )
    });
    assert!(
        report.exhausted,
        "schedule space not exhausted within bounds: {report:?}"
    );
}

/// Regression model for the PR-9 reader-leak fix: a reader that pins
/// across a publish and then *goes away* must release the retirements
/// its pin was holding back — before the fix, `SnapshotReader::drop`
/// left its slot registered, so the retired list stayed pinned until
/// some later publish (forever, if that publish was the run's last).
#[test]
fn reader_drop_releases_retired() {
    model(|| {
        let cell = SnapshotCell::new(0u64);
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.publish(1))
        };
        let mut reader = cell.reader();
        {
            let guard = reader.pin();
            assert!(*guard <= 1);
        }
        drop(reader); // must unregister + reclaim
        writer.join().unwrap();
        // No publish happens after the reader leaves: only the drop
        // path can drain what its pin retained.
        assert_eq!(
            cell.retired_len(),
            0,
            "dropped reader still pins the retired list"
        );
    });
}

/// Replays the checked-in counterexample trace recorded when
/// `reader_drop_releases_retired` first failed (pre-fix drop left the
/// slot registered). The exact schedule that exposed the leak must now
/// pass against the fixed code.
#[test]
fn replay_reader_drop_regression_trace() {
    let trace = exbox_loom::read_trace_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/loom-traces/reader_drop_releases_retired.trace"
    ))
    .expect("regression trace missing");
    assert!(!trace.is_empty(), "regression trace file is empty");
    replay(&trace, || {
        let cell = SnapshotCell::new(0u64);
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.publish(1))
        };
        let mut reader = cell.reader();
        {
            let guard = reader.pin();
            assert!(*guard <= 1);
        }
        drop(reader);
        writer.join().unwrap();
        assert_eq!(cell.retired_len(), 0);
    })
    .unwrap_or_else(|cex| panic!("regression resurfaced: {}", cex.message));
}

/// Two senders racing one receiver on the bounded observation channel:
/// every sent message arrives exactly once (no loss, no duplication)
/// and sender-side FIFO holds.
#[test]
fn channel_no_loss_no_duplication() {
    model(|| {
        let (tx, rx) = channel::bounded::<u32>(2);
        let tx2 = tx.clone();
        let s1 = thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        let s2 = thread::spawn(move || tx2.send(10).unwrap());
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv().unwrap());
        }
        assert!(rx.try_recv().is_err(), "phantom message");
        s1.join().unwrap();
        s2.join().unwrap();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 10], "loss or duplication: {got:?}");
        // Sender-side FIFO: 1 precedes 2 in arrival order.
        let p1 = got.iter().position(|&v| v == 1).unwrap();
        let p2 = got.iter().position(|&v| v == 2).unwrap();
        assert!(p1 < p2, "per-sender FIFO violated: {got:?}");
    });
}

/// `try_send` backpressure accounting is exact: over every
/// interleaving of two non-blocking senders and a draining receiver,
/// `delivered + Full-rejections == attempts` — the invariant behind
/// the `gateway.obs_dropped` counter.
#[test]
fn channel_try_send_accounting_exact() {
    model(|| {
        let (tx, rx) = channel::bounded::<u32>(1);
        let tx2 = tx.clone();
        let count = |r: Result<(), std::sync::mpsc::TrySendError<u32>>| match r {
            Ok(()) => (1u32, 0u32),
            Err(std::sync::mpsc::TrySendError::Full(_)) => (0, 1),
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => {
                panic!("receiver alive, got Disconnected")
            }
        };
        let s1 = thread::spawn(move || count(tx.try_send(1)));
        let s2 = thread::spawn(move || count(tx2.try_send(2)));
        let (ok1, full1) = s1.join().unwrap();
        let (ok2, full2) = s2.join().unwrap();
        let mut delivered = 0;
        while rx.try_recv().is_ok() {
            delivered += 1;
        }
        assert_eq!(
            delivered + (full1 + full2),
            2,
            "dropped-observation accounting drifted"
        );
        assert_eq!(delivered, ok1 + ok2, "delivery count != successful sends");
    });
}

/// The trainer shutdown drain, as a harness over the real channel: a
/// shard keeps submitting while the gateway sends `Shutdown`
/// concurrently. Every observation is either *processed* before the
/// trainer stops or *counted* by the drain — never silently lost
/// (the `trainer.dropped_results` protocol from `run_trainer`).
#[test]
fn trainer_shutdown_drain_never_loses() {
    const SHUTDOWN: u32 = u32::MAX;
    model(|| {
        let (tx, rx) = channel::bounded::<u32>(4);
        let shard = {
            let tx = tx.clone();
            thread::spawn(move || {
                let mut sent = 0u32;
                for v in 0..2 {
                    if tx.try_send(v).is_ok() {
                        sent += 1;
                    }
                }
                sent
            })
        };
        let gateway = thread::spawn(move || tx.send(SHUTDOWN).unwrap());
        // The trainer loop + drain, mirroring `run_trainer`.
        let consumer = thread::spawn(move || {
            let mut processed = 0u32;
            while let Ok(msg) = rx.recv() {
                if msg == SHUTDOWN {
                    break;
                }
                processed += 1;
            }
            let mut dropped = 0u32;
            loop {
                match rx.try_recv() {
                    Ok(SHUTDOWN) => {}
                    Ok(_) => dropped += 1,
                    Err(_) => break,
                }
            }
            (processed, dropped)
        });
        let sent = shard.join().unwrap();
        gateway.join().unwrap();
        let (processed, dropped) = consumer.join().unwrap();
        assert_eq!(
            processed + dropped,
            sent,
            "observation lost across shutdown"
        );
    });
}

/// The pipeline's SPSC ring under a racing producer and consumer,
/// explored to exhaustion within the preemption bound: no loss, no
/// duplication, no reorder — and **publish atomicity**: values pushed
/// in one batch become visible together, so a concurrent drain
/// observes a batch-aligned prefix (0, 2 or 4 values), never a torn
/// batch. Capacity ≥ item count, so neither side ever has to spin
/// (models stay finite without livelock heuristics).
#[test]
fn spsc_transfer_exhaustive_no_loss_no_tear() {
    let report = explore(Config::default(), || {
        let (mut tx, mut rx) = spsc::ring::<u64>(3);
        // Capacity rounds up to a power of two even under the shims.
        assert_eq!(tx.capacity(), 4);
        let producer = thread::spawn(move || {
            tx.push(0).unwrap();
            tx.push(1).unwrap();
            assert_eq!(tx.unpublished(), 2, "pushes published early");
            tx.publish();
            assert_eq!(tx.unpublished(), 0);
            tx.push(2).unwrap();
            tx.push(3).unwrap();
            tx.publish();
        });
        // Racing drains: each sees whatever prefix is published.
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                rx.drain_into(&mut got, 4);
                assert!(
                    got.len() % 2 == 0,
                    "torn batch: drained {} values mid-publish",
                    got.len()
                );
            }
            (got, rx)
        });
        producer.join().unwrap();
        let (mut got, mut rx) = consumer.join().unwrap();
        // The producer has joined (and its Drop published + closed):
        // one more drain must surface everything, in push order.
        rx.drain_into(&mut got, 4);
        assert_eq!(got, vec![0, 1, 2, 3], "loss, duplication or reorder");
        assert!(rx.is_closed(), "producer drop must hang up the ring");
    })
    .unwrap_or_else(|cex| {
        panic!(
            "spsc model failed: {}\nreplay: EXBOX_LOOM_REPLAY='{}'",
            cex.message, cex.trace
        )
    });
    assert!(
        report.exhausted,
        "schedule space not exhausted within bounds: {report:?}"
    );
}

/// Slot reuse across threads: a capacity-2 ring carries four values
/// through two producer/consumer handoffs, so every slot is written,
/// consumed, and **rewritten by a different round** — the consumer
/// must see the new values, never a stale first-round occupant
/// (the invariant-2 ownership transfer under wraparound).
#[test]
fn spsc_wraparound_handoff_sees_fresh_values() {
    model(|| {
        let (mut tx, rx) = spsc::ring::<u64>(2);
        tx.push(10).unwrap();
        tx.push(11).unwrap();
        tx.publish();
        let first = thread::spawn(move || {
            let mut rx = rx;
            let a = rx.pop().expect("published value missing");
            let b = rx.pop().expect("published value missing");
            assert_eq!((a, b), (10, 11));
            rx
        });
        let rx = first.join().unwrap();
        // Same two slots, second round.
        tx.push(20).unwrap();
        tx.push(21).unwrap();
        tx.publish();
        let second = thread::spawn(move || {
            let mut rx = rx;
            let a = rx.pop().expect("reused slot missing");
            let b = rx.pop().expect("reused slot missing");
            assert_eq!((a, b), (20, 21), "stale value out of a reused slot");
            assert!(rx.pop().is_none(), "phantom value");
        });
        second.join().unwrap();
    });
}

/// The close/drain protocol the pipeline workers rely on: `closed` is
/// set only *after* the final publish, so any consumer that observes
/// `closed` and then drains nothing has provably received everything.
/// The explorer checks the implication on every interleaving of a
/// closing producer against a polling consumer.
#[test]
fn spsc_close_after_publish_never_strands_values() {
    model(|| {
        let (mut tx, mut rx) = spsc::ring::<u64>(4);
        let producer = thread::spawn(move || {
            tx.push(1).unwrap();
            tx.push(2).unwrap();
            tx.close(); // publishes, then hangs up
        });
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..3 {
                let closed_before = rx.is_closed();
                let n = rx.drain_into(&mut got, 4);
                if closed_before && n == 0 {
                    // Worker-loop exit condition: must imply completion.
                    assert_eq!(
                        got,
                        vec![1, 2],
                        "observed closed + empty with values still in flight"
                    );
                }
            }
            (got, rx)
        });
        producer.join().unwrap();
        let (mut got, mut rx) = consumer.join().unwrap();
        rx.drain_into(&mut got, 4);
        assert_eq!(got, vec![1, 2], "value stranded across close");
        assert!(rx.is_closed());
    });
}

/// Concurrent admissions/departures on the shared occupancy matrix:
/// the saturating-remove CAS loop never loses an admission and never
/// underflows, whatever the interleaving.
#[test]
fn shared_matrix_concurrent_add_remove() {
    model(|| {
        let kind = FlowKind::new(AppClass::Streaming, SnrLevel::High);
        let m = Arc::new(SharedMatrix::new());
        let adder = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                m.add(kind);
                m.add(kind);
            })
        };
        let remover = {
            let m = Arc::clone(&m);
            // May interleave anywhere among the adds: saturates at
            // zero instead of underflowing.
            thread::spawn(move || m.remove(kind))
        };
        adder.join().unwrap();
        remover.join().unwrap();
        let total = m.total();
        assert!(
            total == 1 || total == 2,
            "occupancy drifted: {total} (lost add or underflow)"
        );
    });
}

/// A stand-in shard for the lane models: counts how many copies were
/// ever dropped, so a lost or duplicated shard is visible.
struct Token {
    id: u32,
    drops: Arc<Counter>,
}

impl Drop for Token {
    fn drop(&mut self) {
        self.drops.inc();
    }
}

/// A lane whose phase hands its token straight back, counting runs.
fn echo_lane(runs: &Arc<Counter>, exits: &Arc<Counter>) -> Lane<Token, Token> {
    let runs = Arc::clone(runs);
    let counters = LaneCounters {
        exits: Arc::clone(exits),
        ..LaneCounters::default()
    };
    Lane::spawn("lane".into(), counters, move |t: Token| {
        runs.inc();
        t
    })
}

/// The lane handoff across two packet phases: every interleaving of
/// the owner's hand/collect with the lane's wake-up, pick-up and
/// return gives each shard back exactly once (the right one, never a
/// stale or duplicated one), runs each phase exactly once, and ends
/// with the parked lane stopped and joined.
#[test]
fn lane_start_finish_start_never_loses_or_duplicates_a_shard() {
    model(|| {
        let (runs, exits, drops) = (
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
        );
        let lane = echo_lane(&runs, &exits);
        for id in [1u32, 2] {
            lane.hand(Token {
                id,
                drops: Arc::clone(&drops),
            });
            let back = lane.collect().expect("echo phase cannot fail");
            assert_eq!(back.id, id, "collected another phase's shard");
            assert_eq!(runs.get(), u64::from(id), "phase ran twice or not at all");
            drop(back);
        }
        assert_eq!(drops.get(), 2, "a shard was lost or duplicated");
        drop(lane);
        assert_eq!(exits.get(), 1, "lane thread not joined");
    });
}

/// A gateway dropped while its lanes are parked — one after a phase,
/// one never handed a job — stops and joins both: no deadlock between
/// the stop request and a lane still on its way to the condvar.
#[test]
fn lane_parked_lanes_join_on_gateway_drop() {
    model(|| {
        let (runs, exits, drops) = (
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
        );
        let lanes = vec![echo_lane(&runs, &exits), echo_lane(&runs, &exits)];
        lanes[0].hand(Token {
            id: 7,
            drops: Arc::clone(&drops),
        });
        assert_eq!(lanes[0].collect().expect("echo").id, 7);
        drop(lanes);
        assert_eq!(exits.get(), 2, "a parked lane outlived its gateway");
        assert_eq!(drops.get(), 1);
    });
}

/// A pipeline handle dropped mid-phase: the owner hangs up the lane's
/// input (the ingress ring's close), then drops the lane, which must
/// wait for the phase to end, take the lane down and join it — never
/// hang, never abandon the thread. The phase drains what was sent
/// before the hang-up; its output is discarded with the lane.
#[test]
fn lane_dropped_mid_phase_ends_the_phase_and_joins() {
    model(|| {
        let exits = Arc::new(Counter::new());
        let seen = Arc::new(Counter::new());
        let lane = {
            let seen = Arc::clone(&seen);
            let counters = LaneCounters {
                exits: Arc::clone(&exits),
                ..LaneCounters::default()
            };
            Lane::spawn(
                "lane".into(),
                counters,
                move |rx: channel::BoundedReceiver<u32>| {
                    while rx.recv().is_ok() {
                        seen.inc();
                    }
                },
            )
        };
        let (tx, rx) = channel::bounded::<u32>(2);
        lane.hand(rx);
        tx.send(1).unwrap();
        drop(tx);
        drop(lane);
        assert_eq!(exits.get(), 1, "lane thread not joined");
        assert_eq!(
            seen.get(),
            1,
            "the phase lost input sent before the hang-up"
        );
    });
}

/// A panicking phase is contained: `collect` reports the message, the
/// failure counter is raised, the job's destructors ran during the
/// unwind (the pipeline's gate retire and verdict-ring close ride on
/// this), and the lane stays usable for the next phase. Reading
/// `failure` mid-phase means polling it, a spin loop the explorer
/// cannot bound; the real-thread lane-panic test covers that path.
#[test]
fn lane_panic_is_contained_and_reported() {
    model(|| {
        let (failures, exits, drops) = (
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
        );
        let counters = LaneCounters {
            failures: Arc::clone(&failures),
            exits: Arc::clone(&exits),
            ..LaneCounters::default()
        };
        let lane = Lane::spawn("lane".into(), counters, |t: Token| {
            if t.id == 0 {
                panic!("injected lane fault");
            }
            t
        });
        lane.hand(Token {
            id: 0,
            drops: Arc::clone(&drops),
        });
        let err = lane.collect().err().expect("the phase panicked");
        assert!(err.contains("injected lane fault"), "{err}");
        assert_eq!(failures.get(), 1);
        assert_eq!(drops.get(), 1, "the unwind must drop the phase's job");
        lane.hand(Token {
            id: 1,
            drops: Arc::clone(&drops),
        });
        assert_eq!(lane.collect().expect("healthy phase").id, 1);
        assert!(lane.failure().is_none(), "a collected failure is cleared");
        drop(lane);
        assert_eq!(exits.get(), 1);
    });
}

/// One phase of the re-arm model: the lane's ingress-ring consumer and
/// the values that round's producer will push.
type RearmJob = (spsc::Consumer<u64>, [u64; 2]);

/// What the phase hands back: the consumer, what it drained, and
/// whether it saw the pipeline's exit condition (closed, then empty).
type RearmOut = (spsc::Consumer<u64>, Vec<u64>, bool);

/// A lane's ingress ring re-armed across two packet phases, as
/// `PipelineHandle::{start, finish}` do it: reopen → hand → push →
/// close → collect, twice, on a 2-slot ring so the second round reuses
/// both slots. The phase polls the ring with the worker loop's exit
/// rule (closed *before* an empty drain) a bounded number of times —
/// an unbounded poll is a spin the explorer cannot bound — and then the
/// owner drains what is left. On every schedule:
/// - a phase that exited holds exactly its own round's values: the
///   previous round's hang-up never ends the next phase early, and no
///   value of the previous round leaks into it;
/// - nothing is lost or duplicated across the two rounds.
#[test]
fn lane_ring_rearmed_across_two_phases() {
    model(|| {
        let (mut tx, rx) = spsc::ring::<u64>(2);
        let lane = Lane::spawn(
            "lane".into(),
            LaneCounters::default(),
            |(mut rx, _): RearmJob| -> RearmOut {
                let mut got = Vec::new();
                for _ in 0..2 {
                    let closed = rx.is_closed();
                    if rx.drain_into(&mut got, 2) == 0 && closed {
                        return (rx, got, true);
                    }
                }
                (rx, got, false)
            },
        );
        let mut rx = Some(rx);
        let mut phases = Vec::new();
        for round in [[1u64, 2], [3, 4]] {
            tx.reopen();
            lane.hand((rx.take().expect("consumer back from the lane"), round));
            for v in round {
                tx.push(v).expect("a drained 2-slot ring has room for 2");
            }
            tx.close();
            let (mut back, got, exited) = lane.collect().expect("phase cannot fail");
            let mut all = got.clone();
            back.drain_into(&mut all, 2);
            phases.push((round, exited.then_some(got), all, back.is_closed()));
            rx = Some(back);
        }
        // Checked after the lane is joined, so a violation reports
        // itself instead of unwinding past a parked lane.
        drop(lane);
        for (round, at_exit, all, closed) in phases {
            if let Some(got) = at_exit {
                assert_eq!(got, round, "phase ended before its round was drained");
            }
            assert_eq!(all, round, "loss, duplication or a stale value");
            assert!(closed);
        }
    });
}

/// `Lane::collect`'s spin-then-block path. Under the model checker the
/// spin is a fixed number of phase-tag loads, so some schedules see the
/// phase end while spinning and others run the spin out and block on
/// the condvar (`collect_blocks`). On every schedule `collect` returns
/// each phase's own output exactly once, blocks at most once per call,
/// and leaves the lane parked for the next hand; the exploration as a
/// whole must cover both paths.
#[test]
fn lane_collect_spins_then_blocks() {
    static SPUN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    static BLOCKED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    model(|| {
        let counters = LaneCounters::default();
        let blocks = Arc::clone(&counters.collect_blocks);
        let lane = Lane::spawn("lane".into(), counters, |v: u32| v + 100);
        for v in [1u32, 2] {
            let before = blocks.get();
            lane.hand(v);
            assert_eq!(lane.collect(), Ok(v + 100), "another phase's output");
            let blocked = blocks.get() - before;
            assert!(blocked <= 1, "one collect blocked {blocked} times");
            let seen = if blocked == 1 { &BLOCKED } else { &SPUN };
            seen.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        assert!(lane.failure().is_none());
    });
    assert!(
        SPUN.load(std::sync::atomic::Ordering::SeqCst),
        "no schedule ended a phase within the spin"
    );
    assert!(
        BLOCKED.load(std::sync::atomic::Ordering::SeqCst),
        "no schedule ran the spin out and blocked"
    );
}
