//! Persistent parked worker threads: the pipeline's lanes.
//!
//! A [`Lane`] is one OS thread, spawned once and then reused for every
//! packet phase. Between phases it holds nothing and blocks on a
//! [`Condvar`] — it never spins. Work moves through a one-slot handoff
//! guarded by a [`Mutex`]:
//!
//! ```text
//!            hand(job)              lane picks up         lane returns
//!  Parked ─────────────▶ Start(job) ─────────────▶ Running ──────────┬─▶ Done(out)
//!    ▲                                                               └─▶ Failed(msg)
//!    └──────────────────────── collect() ◀──────────────────────────────────┘
//!
//!  drop: wait until neither Start nor Running, then Stop ─▶ thread exits, joined
//! ```
//!
//! - [`Lane::hand`] is called only on a parked lane; it stores the job
//!   and wakes the thread.
//! - The thread runs the job under `catch_unwind`. A panic becomes
//!   `Failed(message)` (readable mid-phase through [`Lane::failure`])
//!   and bumps the failure counter; the job's own destructors, which
//!   run during the unwind, do the work-specific clean-up.
//! - [`Lane::collect`] blocks until the phase ended and parks the lane
//!   again, returning the job's output or the panic message.
//! - Dropping a lane waits for any phase in progress to end (the owner
//!   must first make the job finish, e.g. by closing its input), then
//!   asks the thread to exit and joins it.
//!
//! Every primitive comes from [`crate::sync`], so the protocol is
//! model-checked under `--cfg exbox_loom` (`loom_models.rs`).

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};

use exbox_obs::Counter;

use crate::sync::{thread, Condvar, Mutex};

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

impl<J, R> State<J, R> {
    fn in_phase(&self) -> bool {
        matches!(self, State::Start(_) | State::Running)
    }
}

struct Slot<J, R> {
    state: Mutex<State<J, R>>,
    wake: Condvar,
}

impl<J, R> Slot<J, R> {
    /// Set the state and wake every waiter (the lane or its owner).
    fn set(&self, next: State<J, R>) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = next;
        self.wake.notify_all();
    }

    /// Block on `wake` while `busy` holds, then edit the state under
    /// the lock.
    fn when<T>(
        &self,
        busy: impl FnMut(&mut State<J, R>) -> bool,
        then: impl FnOnce(&mut State<J, R>) -> T,
    ) -> T {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut st = self
            .wake
            .wait_while(st, busy)
            .unwrap_or_else(PoisonError::into_inner);
        then(&mut st)
    }

    /// Lane side: block until handed a job (`Some`) or told to stop.
    fn next_job(&self) -> Option<J> {
        self.when(
            |s| !matches!(s, State::Start(_) | State::Stop),
            |s| match std::mem::replace(s, State::Running) {
                State::Start(job) => Some(job),
                _ => None,
            },
        )
    }
}

/// One persistent worker thread running jobs of type `J` to outputs of
/// type `R`, parked between jobs. See the module docs for the protocol.
pub(crate) struct Lane<J, R> {
    slot: Arc<Slot<J, R>>,
    thread: Option<thread::JoinHandle<()>>,
}

impl<J, R> std::fmt::Debug for Lane<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane").finish_non_exhaustive()
    }
}

impl<J: Send + 'static, R: Send + 'static> Lane<J, R> {
    /// Spawn the thread; it parks until the first [`hand`](Self::hand).
    /// `failures` is bumped once per panicking job; `exits` once when
    /// the thread leaves, just before the join can return.
    pub(crate) fn spawn(
        name: String,
        failures: Arc<Counter>,
        exits: Arc<Counter>,
        mut work: impl FnMut(J) -> R + Send + 'static,
    ) -> Self {
        let slot = Arc::new(Slot {
            state: Mutex::new(State::Parked),
            wake: Condvar::new(),
        });
        let lane_slot = Arc::clone(&slot);
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
            thread: Some(thread),
        }
    }

    /// Give a parked lane its next job and wake it.
    pub(crate) fn hand(&self, job: J) {
        self.slot.set(State::Start(job));
    }

    /// Block until the current job ended, park the lane again and
    /// return the job's output, or its panic message.
    pub(crate) fn collect(&self) -> Result<R, String> {
        let result = self
            .slot
            .when(|s| s.in_phase(), |s| std::mem::replace(s, State::Parked));
        match result {
            State::Done(out) => Ok(out),
            State::Failed(msg) => Err(msg),
            _ => panic!("collect on a lane that was never handed a job"),
        }
    }

    /// The panic message of the current job, if it panicked and was
    /// not yet collected. Takes the slot's lock: for callers that are
    /// already waiting on the job's output by other means.
    pub(crate) fn failure(&self) -> Option<String> {
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
        self.slot.when(
            |s| s.in_phase() && !thread.is_finished(),
            |s| *s = State::Stop,
        );
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
