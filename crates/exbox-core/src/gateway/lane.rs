//! Persistent parked worker threads: the pipeline's lanes.
//!
//! A [`Lane`] is one OS thread, spawned once and then reused for every
//! packet phase. Between phases it holds nothing and blocks on a
//! [`Condvar`] — it never spins. Work moves through a one-slot handoff
//! guarded by a [`Mutex`]; an atomic *phase tag* mirrors the slot's
//! state so the owner can watch it without the lock:
//!
//! ```text
//!            hand(job)              lane picks up         lane returns
//!  Parked ─────────────▶ Start(job) ─────────────▶ Running ──────────┬─▶ Done(out)
//!    ▲                                                               └─▶ Failed(msg)
//!    │                                                                       │
//!    └── collect(): spin on the tag ≤ COLLECT_SPIN ──┬─ tag ended ─────────┤
//!                                                    └─ spin ran out: block ─┘
//!                                                       on the condvar
//!                                                       (pipeline.collect_blocks)
//!
//!  drop: wait until neither Start nor Running, then Stop ─▶ thread exits, joined
//! ```
//!
//! - [`Lane::hand`] is called only on a parked lane; it stores the job
//!   and wakes the thread.
//! - The thread runs the job under `catch_unwind`. A panic becomes
//!   `Failed(message)` (readable mid-phase through [`Lane::failure`])
//!   and bumps the failure counter; the job's own destructors, which
//!   run during the unwind, do the work-specific clean-up. After
//!   storing the outcome the thread blocks until the next job: only
//!   the owner ever spins, and only inside `collect`.
//! - [`Lane::collect`] parks the lane again and returns the job's
//!   output or the panic message. A phase usually ends a few µs after
//!   the owner asks, sooner than a futex sleep and wake-up take, so
//!   `collect` first spins on the phase tag for at most
//!   `COLLECT_SPIN` and only then blocks on the condvar. The tag is a
//!   hint: it is written under the lock together with the state, and
//!   the state is always taken under the lock, so a stale tag costs
//!   time, never correctness.
//! - Dropping a lane waits for any phase in progress to end (the owner
//!   must first make the job finish, e.g. by closing its input), then
//!   asks the thread to exit and joins it.
//!
//! Every primitive comes from [`crate::sync`], so the protocol is
//! model-checked under `--cfg exbox_loom` (`loom_models.rs`); there the
//! spin is a fixed number of tag loads, so the models explore both the
//! spin and the blocking path of `collect`.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};

use exbox_obs::Counter;

use crate::sync::{thread, AtomicU32, Condvar, Mutex, Ordering};

/// How long [`Lane::collect`] spins on the phase tag before it blocks.
/// About what the futex sleep and wake-up it avoids would cost, so a
/// spin that runs out wastes at most that much again.
#[cfg(not(exbox_loom))]
const COLLECT_SPIN: std::time::Duration = std::time::Duration::from_micros(20);

/// Under the model checker the spin is this many tag loads: few enough
/// that schedules where it runs out, and `collect` blocks, are explored.
#[cfg(exbox_loom)]
const COLLECT_SPIN_LOADS: usize = 2;

enum State<J, R> {
    /// Between phases: no job, the thread blocks on `wake`.
    Parked,
    /// Handed over, not yet picked up.
    Start(J),
    /// The thread owns the job.
    Running,
    /// Phase over; the output waits for `collect`.
    Done(R),
    /// The job panicked; its output is lost. Holds the panic message.
    Failed(String),
    /// Exit request from `drop`.
    Stop,
}

/// Phase-tag values, one per [`State`] variant.
const PARKED: u32 = 0;
const START: u32 = 1;
const RUNNING: u32 = 2;
const DONE: u32 = 3;
const FAILED: u32 = 4;
const STOP: u32 = 5;

impl<J, R> State<J, R> {
    fn in_phase(&self) -> bool {
        in_phase(self.tag())
    }

    fn tag(&self) -> u32 {
        match self {
            State::Parked => PARKED,
            State::Start(_) => START,
            State::Running => RUNNING,
            State::Done(_) => DONE,
            State::Failed(_) => FAILED,
            State::Stop => STOP,
        }
    }
}

fn in_phase(tag: u32) -> bool {
    tag == START || tag == RUNNING
}

struct Slot<J, R> {
    state: Mutex<State<J, R>>,
    /// Mirrors `state`'s variant; written only under the `state` lock.
    tag: AtomicU32,
    wake: Condvar,
}

impl<J, R> Slot<J, R> {
    /// Replace the state under its lock, keeping the tag in step.
    fn swap(&self, st: &mut State<J, R>, next: State<J, R>) -> State<J, R> {
        self.tag.store(next.tag(), Ordering::SeqCst);
        std::mem::replace(st, next)
    }

    /// Set the state and wake every waiter (the lane or its owner).
    fn set(&self, next: State<J, R>) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.swap(&mut st, next);
        drop(st);
        self.wake.notify_all();
    }

    /// Block on `wake` while `busy` holds, then swap in `next` under
    /// the lock, returning the state it replaced.
    fn when(&self, busy: impl FnMut(&mut State<J, R>) -> bool, next: State<J, R>) -> State<J, R> {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut st = self
            .wake
            .wait_while(st, busy)
            .unwrap_or_else(PoisonError::into_inner);
        self.swap(&mut st, next)
    }

    /// Lane side: block until handed a job (`Some`) or told to stop.
    fn next_job(&self) -> Option<J> {
        match self.when(
            |s| !matches!(s, State::Start(_) | State::Stop),
            State::Running,
        ) {
            State::Start(job) => Some(job),
            _ => None,
        }
    }

    /// Owner side: spin while the tag says a phase is in progress, for
    /// at most `COLLECT_SPIN`. True when the phase ended in time.
    #[cfg(not(exbox_loom))]
    fn spin_until_ended(&self) -> bool {
        let begin = std::time::Instant::now();
        loop {
            if !in_phase(self.tag.load(Ordering::SeqCst)) {
                return true;
            }
            if begin.elapsed() >= COLLECT_SPIN {
                return false;
            }
            std::hint::spin_loop();
        }
    }

    #[cfg(exbox_loom)]
    fn spin_until_ended(&self) -> bool {
        (0..COLLECT_SPIN_LOADS).any(|_| !in_phase(self.tag.load(Ordering::SeqCst)))
    }
}

/// Counters a lane bumps; bound once, when the lane is spawned.
#[derive(Clone, Default)]
pub(crate) struct LaneCounters {
    /// Jobs that panicked.
    pub failures: Arc<Counter>,
    /// Threads that left, bumped just before the join can return.
    pub exits: Arc<Counter>,
    /// `collect` calls whose spin ran out and blocked on the condvar.
    pub collect_blocks: Arc<Counter>,
}

/// One persistent worker thread running jobs of type `J` to outputs of
/// type `R`, parked between jobs. See the module docs for the protocol.
pub(crate) struct Lane<J, R> {
    slot: Arc<Slot<J, R>>,
    collect_blocks: Arc<Counter>,
    thread: Option<thread::JoinHandle<()>>,
}

impl<J, R> std::fmt::Debug for Lane<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane").finish_non_exhaustive()
    }
}

impl<J: Send + 'static, R: Send + 'static> Lane<J, R> {
    /// Spawn the thread; it parks until the first [`hand`](Self::hand).
    pub(crate) fn spawn(
        name: String,
        counters: LaneCounters,
        mut work: impl FnMut(J) -> R + Send + 'static,
    ) -> Self {
        let slot = Arc::new(Slot {
            state: Mutex::new(State::Parked),
            tag: AtomicU32::new(PARKED),
            wake: Condvar::new(),
        });
        let lane_slot = Arc::clone(&slot);
        let LaneCounters {
            failures,
            exits,
            collect_blocks,
        } = counters;
        let thread = thread::Builder::new()
            .name(name)
            .spawn(move || {
                while let Some(job) = lane_slot.next_job() {
                    let next = match panic::catch_unwind(AssertUnwindSafe(|| work(job))) {
                        Ok(out) => State::Done(out),
                        Err(payload) => {
                            failures.inc();
                            State::Failed(panic_message(payload.as_ref()))
                        }
                    };
                    lane_slot.set(next);
                }
                exits.inc();
            })
            .expect("spawn pipeline lane");
        Lane {
            slot,
            collect_blocks,
            thread: Some(thread),
        }
    }

    /// Give a parked lane its next job and wake it.
    pub(crate) fn hand(&self, job: J) {
        self.slot.set(State::Start(job));
    }

    /// Wait until the current job ended — spinning on the phase tag
    /// first, then blocking — park the lane again and return the job's
    /// output, or its panic message.
    pub(crate) fn collect(&self) -> Result<R, String> {
        if !self.slot.spin_until_ended() {
            self.collect_blocks.inc();
        }
        match self.slot.when(|s| s.in_phase(), State::Parked) {
            State::Done(out) => Ok(out),
            State::Failed(msg) => Err(msg),
            _ => panic!("collect on a lane that was never handed a job"),
        }
    }

    /// The panic message of the current job, if it panicked and was
    /// not yet collected. Lock-free unless it did: for callers that
    /// are already waiting on the job's output by other means.
    pub(crate) fn failure(&self) -> Option<String> {
        if self.slot.tag.load(Ordering::SeqCst) != FAILED {
            return None;
        }
        match &*self
            .slot
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
        {
            State::Failed(msg) => Some(msg.clone()),
            _ => None,
        }
    }
}

impl<J, R> Drop for Lane<J, R> {
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        // A thread that already left can never end its phase; that only
        // happens when a model checker aborts the execution. Any output
        // nobody collected is discarded with the state.
        self.slot
            .when(|s| s.in_phase() && !thread.is_finished(), State::Stop);
        self.slot.wake.notify_all();
        let _ = thread.join();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
