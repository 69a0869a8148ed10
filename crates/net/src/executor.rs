//! The round executor a serving loop owns: it hands each query round to a
//! worker thread the loop already has, and starts one only when none is
//! parked.
//!
//! A `node_loop` or `domain_loop` serves its query rounds off its receive
//! thread so that queries multiplexed over one link compute side by side.
//! A fresh OS thread per round costs ~20 µs to spawn and join; a round
//! handed to a parked worker starts within ~2–3 µs (DESIGN.md "Memory
//! layout & hot paths"). The rules:
//!
//! * **A round never waits for another round.** With no worker parked,
//!   [`RoundExecutor::execute`] starts one, so a loop runs exactly the
//!   rounds side by side that a thread per round ran, and no round can
//!   block behind one that waits on it.
//! * **At most [`IDLE_CAP`] workers park.** A worker that finishes while
//!   that many are parked exits, so a loop's threads are bounded by its
//!   rounds in flight plus the cap — no timer, no knob.
//! * **One executor per loop.** A process-wide pool measured slower on the
//!   channel-linked workload (EXPERIMENTS.md "Rounds on parked workers").

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Parked workers one loop keeps for its next rounds.
const IDLE_CAP: usize = 2;

/// One query round, everything it touches moved in.
type Round = Box<dyn FnOnce() + Send>;

/// A serving loop's workers: see the module docs. Dropping it retires the
/// parked workers; rounds still running finish, then their workers exit.
pub(crate) struct RoundExecutor {
    pool: Arc<Pool>,
}

struct Pool {
    state: Mutex<State>,
    /// Signalled when a worker exits after the executor closed.
    exited: Condvar,
}

#[derive(Default)]
struct State {
    /// Worker threads started and not yet exited, running or parked.
    /// Every round in flight runs on one of them.
    live: usize,
    /// One hand-off per parked worker, the most recently parked last: a
    /// round goes to the worker whose stack is warmest. `None` retires it.
    parked: Vec<Sender<Option<Round>>>,
    /// Set when the executor shuts down or drops: a finishing worker
    /// exits instead of parking.
    closed: bool,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Rounds run outside the lock, so a poisoned lock means nothing
        // was left half-updated: recover it.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's life: run `round`, then park for the next one, until
    /// the cap or the executor's close sends it away.
    fn work(&self, mut round: Round) {
        let (handoff, next) = channel();
        loop {
            // A round that panics still finishes: its unwind stops here
            // and the worker goes on as after any other round.
            let _ = catch_unwind(AssertUnwindSafe(round));
            let mut st = self.lock();
            if st.closed || st.parked.len() >= IDLE_CAP {
                break self.exit(st);
            }
            st.parked.push(handoff.clone());
            drop(st);
            // The worker holds a sender itself, so only `None` ends this.
            match next.recv() {
                Ok(Some(r)) => round = r,
                _ => break self.exit(self.lock()),
            }
        }
    }

    fn exit(&self, mut st: MutexGuard<'_, State>) {
        st.live -= 1;
        if st.closed {
            self.exited.notify_all();
        }
    }

    /// Stop parking and retire every parked worker.
    fn close(&self) -> MutexGuard<'_, State> {
        let mut st = self.lock();
        st.closed = true;
        for handoff in st.parked.drain(..) {
            let _ = handoff.send(None);
        }
        st
    }
}

impl RoundExecutor {
    pub(crate) fn new() -> RoundExecutor {
        RoundExecutor {
            pool: Arc::new(Pool {
                state: Mutex::new(State::default()),
                exited: Condvar::new(),
            }),
        }
    }

    /// Run `round` on a parked worker, or on a new one if none is parked.
    pub(crate) fn execute(&self, round: impl FnOnce() + Send + 'static) {
        let round: Round = Box::new(round);
        let mut st = self.pool.lock();
        let parked = st.parked.pop();
        if parked.is_none() {
            st.live += 1;
        }
        drop(st);
        match parked {
            // A parked worker holds the receiving end and waits on it, so
            // the round lands.
            Some(handoff) => {
                let _ = handoff.send(Some(round));
            }
            None => {
                let pool = Arc::clone(&self.pool);
                std::thread::spawn(move || pool.work(round));
            }
        }
    }

    /// Wait for every round in flight, retire the parked workers, and
    /// return once no worker of this executor is left.
    pub(crate) fn shutdown(self) {
        let mut st = self.pool.close();
        while st.live > 0 {
            st = self
                .pool
                .exited
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for RoundExecutor {
    fn drop(&mut self) {
        drop(self.pool.close());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{Receiver, RecvTimeoutError};
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    const PATIENCE: Duration = Duration::from_secs(10);

    /// `(live, parked)` once no round is running, i.e. once every live
    /// worker has parked.
    fn settled(exec: &RoundExecutor) -> (usize, usize) {
        let deadline = Instant::now() + PATIENCE;
        loop {
            let st = exec.pool.lock();
            if st.live == st.parked.len() {
                return (st.live, st.parked.len());
            }
            drop(st);
            assert!(Instant::now() < deadline, "rounds never settled");
            std::thread::yield_now();
        }
    }

    fn run_on(exec: &RoundExecutor) -> ThreadId {
        let (tx, rx) = channel();
        exec.execute(move || tx.send(std::thread::current().id()).unwrap());
        rx.recv_timeout(PATIENCE).expect("the round ran")
    }

    #[test]
    fn a_round_reuses_a_parked_worker() {
        let exec = RoundExecutor::new();
        let first = run_on(&exec);
        assert_eq!(settled(&exec), (1, 1));
        for _ in 0..3 {
            assert_eq!(run_on(&exec), first, "the parked worker takes the round");
            assert_eq!(settled(&exec), (1, 1));
        }
        exec.shutdown();
    }

    #[test]
    fn rounds_that_block_on_each_other_all_run_at_once() {
        const N: usize = 3 * IDLE_CAP + 2;
        let exec = RoundExecutor::new();
        // Park IDLE_CAP workers first, so the burst mixes reuse and spawns.
        let barrier = Arc::new(Barrier::new(IDLE_CAP));
        for _ in 0..IDLE_CAP {
            let barrier = Arc::clone(&barrier);
            exec.execute(move || {
                barrier.wait();
            });
        }
        assert_eq!(settled(&exec), (IDLE_CAP, IDLE_CAP));
        // Each round returns only once all N have started.
        let (barrier, (done, finished)) = (Arc::new(Barrier::new(N)), channel());
        for _ in 0..N {
            let (barrier, done) = (Arc::clone(&barrier), done.clone());
            exec.execute(move || {
                barrier.wait();
                done.send(()).unwrap();
            });
        }
        for _ in 0..N {
            finished
                .recv_timeout(PATIENCE)
                .expect("a round waited for another round");
        }
        assert_eq!(settled(&exec), (IDLE_CAP, IDLE_CAP), "the rest exited");
        exec.shutdown();
    }

    #[test]
    fn parked_workers_never_exceed_the_cap() {
        let exec = RoundExecutor::new();
        for n in [1, IDLE_CAP, IDLE_CAP + 1, 4 * IDLE_CAP] {
            let (barrier, (done, finished)) = (Arc::new(Barrier::new(n)), channel());
            for _ in 0..n {
                let (barrier, done) = (Arc::clone(&barrier), done.clone());
                exec.execute(move || {
                    barrier.wait();
                    done.send(()).unwrap();
                });
            }
            let deadline = Instant::now() + PATIENCE;
            let mut seen = 0;
            while seen < n {
                let parked = exec.pool.lock().parked.len();
                assert!(parked <= IDLE_CAP, "{parked} parked after a burst of {n}");
                match finished.recv_timeout(Duration::from_millis(1)) {
                    Ok(()) => seen += 1,
                    Err(RecvTimeoutError::Timeout) => assert!(Instant::now() < deadline),
                    Err(e) => panic!("{e}"),
                }
            }
            let (live, parked) = settled(&exec);
            assert!(parked <= IDLE_CAP && live == parked, "burst of {n}");
        }
        exec.shutdown();
    }

    #[test]
    fn a_panicking_round_counts_finished_and_the_next_round_runs() {
        let exec = RoundExecutor::new();
        exec.execute(|| panic!("a round panics"));
        assert_eq!(settled(&exec), (1, 1), "the worker parked after the panic");
        run_on(&exec);
        exec.execute(|| panic!("a round panics"));
        exec.shutdown();
    }

    thread_local! {
        /// Dropped when the thread that set it exits.
        static EXIT_SIGNAL: RefCell<Option<Sender<()>>> = const { RefCell::new(None) };
    }

    /// Every worker that ever ran a round is gone: the receiver sees all
    /// their exit signals drop.
    fn all_exited(exits: Receiver<()>) {
        assert!(
            matches!(
                exits.recv_timeout(PATIENCE),
                Err(RecvTimeoutError::Disconnected)
            ),
            "an executor thread outlived shutdown"
        );
    }

    #[test]
    fn no_executor_thread_is_left_after_shutdown() {
        let exec = RoundExecutor::new();
        let (signal, exits) = channel();
        let barrier = Arc::new(Barrier::new(4 * IDLE_CAP));
        for _ in 0..4 * IDLE_CAP {
            let (barrier, signal) = (Arc::clone(&barrier), signal.clone());
            exec.execute(move || {
                EXIT_SIGNAL.with(|s| *s.borrow_mut() = Some(signal));
                barrier.wait();
            });
        }
        // One round runs until shutdown has begun: shutdown waits for it.
        let finished = Arc::new(AtomicBool::new(false));
        let (started, running) = channel();
        let (release, hold) = channel::<()>();
        let done = Arc::clone(&finished);
        exec.execute(move || {
            EXIT_SIGNAL.with(|s| *s.borrow_mut() = Some(signal));
            started.send(()).unwrap();
            let _ = hold.recv();
            done.store(true, Ordering::SeqCst);
        });
        running.recv_timeout(PATIENCE).expect("the round started");
        let pool = Arc::clone(&exec.pool);
        let releaser = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                while !pool.lock().closed {
                    std::thread::yield_now();
                }
                drop(release);
            })
        };
        exec.shutdown();
        assert!(
            finished.load(Ordering::SeqCst),
            "shutdown left a round running"
        );
        releaser.join().unwrap();
        assert_eq!(pool.lock().live, 0);
        assert!(pool.lock().parked.is_empty());
        all_exited(exits);

        // Dropping an executor retires its parked workers too.
        let exec = RoundExecutor::new();
        let (signal, exits) = channel();
        exec.execute(move || EXIT_SIGNAL.with(|s| *s.borrow_mut() = Some(signal)));
        settled(&exec);
        drop(exec);
        all_exited(exits);
    }
}
