//! The bounded shared injector and the per-worker stealable deques.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::job::Job;

/// The bounded multi-producer multi-consumer injector queue: submitters
/// push at the back, workers pop at the front. `Mutex<VecDeque>` plus two
/// condvars — deliberately boring; the interesting scheduling happens in
/// the workers.
///
/// The `not_empty` condvar doubles as the pool-wide activity signal:
/// [`Injector::notify_workers`] wakes workers sleeping in
/// [`Injector::pop_wait`] when work lands outside the injector, so they
/// re-check their queues promptly instead of riding out the idle timeout.
#[derive(Debug)]
pub(crate) struct Injector {
    state: Mutex<InjectorState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct InjectorState {
    queue: VecDeque<Job>,
    closed: bool,
}

/// Result of a blocking pop.
pub(crate) enum Popped {
    /// A job was dequeued.
    Job(Job),
    /// The queue is closed *and* empty: no job will ever arrive again.
    Drained,
    /// The wait ended (timeout *or* activity signal) with the queue open
    /// but empty. Callers loop, so spurious returns are harmless — and
    /// deliberate: a reactor wakeup must get the worker back to its
    /// resume queue.
    TimedOut,
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushRefused {
    /// The queue is at capacity (nonblocking admission only).
    Full,
    /// The queue was closed by shutdown.
    Closed,
}

impl Injector {
    pub(crate) fn new(capacity: usize) -> Self {
        Injector {
            state: Mutex::new(InjectorState { queue: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocking push: waits while the queue is full. Returns the queue
    /// depth after the push (for high-water tracking).
    pub(crate) fn push(&self, job: Job) -> Result<usize, PushRefused> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(PushRefused::Closed);
            }
            if st.queue.len() < self.capacity {
                st.queue.push_back(job);
                let depth = st.queue.len();
                self.not_empty.notify_one();
                return Ok(depth);
            }
            st = self.not_full.wait(st).unwrap();
        }
    }

    /// Non-blocking push: refuses instead of waiting when full.
    pub(crate) fn try_push(&self, job: Job) -> Result<usize, PushRefused> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushRefused::Closed);
        }
        if st.queue.len() >= self.capacity {
            return Err(PushRefused::Full);
        }
        st.queue.push_back(job);
        let depth = st.queue.len();
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Non-blocking pop.
    pub(crate) fn try_pop(&self) -> Option<Job> {
        let mut st = self.state.lock().unwrap();
        let job = st.queue.pop_front();
        if job.is_some() {
            self.not_full.notify_one();
        }
        job
    }

    /// Pop, waiting up to `timeout`. Single-wait semantics: the first
    /// wakeup — job, timeout, or an activity signal from
    /// [`Injector::notify_workers`] — returns control to the worker loop,
    /// which has other queues (its own stash, its resume queue) to check.
    pub(crate) fn pop_wait(&self, timeout: Duration) -> Popped {
        let mut st = self.state.lock().unwrap();
        if let Some(job) = st.queue.pop_front() {
            self.not_full.notify_one();
            return Popped::Job(job);
        }
        if st.closed {
            return Popped::Drained;
        }
        let (mut st, _res) = self.not_empty.wait_timeout(st, timeout).unwrap();
        if let Some(job) = st.queue.pop_front() {
            self.not_full.notify_one();
            return Popped::Job(job);
        }
        if st.closed {
            return Popped::Drained;
        }
        Popped::TimedOut
    }

    /// Wakes every worker parked in [`Injector::pop_wait`] so it
    /// re-checks its queues. Called alongside wake-pipe rings when jobs
    /// or connections land outside the injector (pinned submits,
    /// shared-listener accepts).
    pub(crate) fn notify_workers(&self) {
        // Lock to order the wakeup after the delivering store; the
        // per-worker queues themselves are behind their own mutexes.
        let _st = self.state.lock().unwrap();
        self.not_empty.notify_all();
    }

    /// Closes the queue: future pushes are refused, and once the backlog
    /// drains every `pop_wait` returns [`Popped::Drained`].
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// Whether [`Injector::close`] has been called. Best-effort: used to
    /// refuse pinned submissions (which bypass the queue) after shutdown.
    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }
}

/// One worker's stealable deque of *unstarted* jobs. The owner pushes and
/// pops at the front (LIFO for locality of freshly-grabbed batches);
/// thieves steal from the back — the classic work-stealing discipline,
/// restricted to whole jobs because a started job's continuation is pinned
/// to its worker's VM heap. Jobs submitted with [`JobSpec::pin`]
/// (crate::JobSpec::pin) are additionally never stolen at all.
#[derive(Debug, Default)]
pub(crate) struct StealQueue {
    queue: Mutex<VecDeque<Job>>,
}

impl StealQueue {
    /// Owner side: stash a job for later (or for a thief).
    pub(crate) fn push(&self, job: Job) {
        self.queue.lock().unwrap().push_front(job);
    }

    /// Owner side: take the most recently stashed job.
    pub(crate) fn pop(&self) -> Option<Job> {
        self.queue.lock().unwrap().pop_front()
    }

    /// Thief side: take the oldest *unpinned* stashed job.
    pub(crate) fn steal(&self) -> Option<Job> {
        let mut q = self.queue.lock().unwrap();
        // Scan from the back (oldest); pinned jobs are invisible to
        // thieves. Pinned jobs cluster at submission time, so in practice
        // this looks at one or two entries.
        let idx = q.iter().rposition(|job| !job.pinned)?;
        q.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobSpec, OutcomeSlot};
    use std::sync::Arc;
    use std::time::Instant;

    fn job(id: u64) -> Job {
        job_pinned(id, false)
    }

    fn job_pinned(id: u64, pinned: bool) -> Job {
        let spec = JobSpec::new(format!("j{id}"), "#t");
        Job {
            id: JobId(id),
            name: spec.name,
            prog: Arc::new(
                oneshot_vm::Vm::compile_str(
                    &spec.source,
                    oneshot_vm::Pipeline::Direct,
                    Default::default(),
                )
                .unwrap(),
            ),
            fuel_budget: spec.fuel,
            deadline: None,
            io_timeout: None,
            conn_token: None,
            pinned,
            submitted: Instant::now(),
            slot: Arc::new(OutcomeSlot::default()),
            on_complete: None,
            attempts: 0,
        }
    }

    #[test]
    fn bounded_injector_refuses_when_full_and_closed() {
        let q = Injector::new(2);
        assert!(q.try_push(job(0)).is_ok());
        assert!(q.try_push(job(1)).is_ok());
        assert_eq!(q.try_push(job(2)).unwrap_err(), PushRefused::Full);
        assert_eq!(q.depth(), 2);
        q.close();
        assert_eq!(q.try_push(job(3)).unwrap_err(), PushRefused::Closed);
        // The backlog is still drainable after close.
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Popped::Job(_)));
        assert!(q.try_pop().is_some());
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Popped::Drained));
    }

    #[test]
    fn steal_queue_is_lifo_for_owner_fifo_for_thief() {
        let q = StealQueue::default();
        q.push(job(0));
        q.push(job(1));
        q.push(job(2));
        assert_eq!(q.steal().unwrap().id, JobId(0), "thief takes the oldest");
        assert_eq!(q.pop().unwrap().id, JobId(2), "owner takes the newest");
        assert_eq!(q.pop().unwrap().id, JobId(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pinned_jobs_are_invisible_to_thieves_but_not_owners() {
        let q = StealQueue::default();
        q.push(job_pinned(0, true));
        q.push(job(1));
        q.push(job_pinned(2, true));
        assert_eq!(q.steal().unwrap().id, JobId(1), "thief skips pinned jobs");
        assert!(q.steal().is_none(), "only pinned jobs remain");
        assert_eq!(q.pop().unwrap().id, JobId(2), "owner sees everything");
        assert_eq!(q.pop().unwrap().id, JobId(0));
    }

    #[test]
    fn notify_workers_wakes_a_pop_wait_early() {
        let q = Arc::new(Injector::new(4));
        let q2 = Arc::clone(&q);
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            // A full 10s wait would blow the test timeout; the notify must
            // cut it short with a TimedOut (spurious-wakeup) result.
            matches!(q2.pop_wait(Duration::from_secs(10)), Popped::TimedOut)
        });
        std::thread::sleep(Duration::from_millis(50));
        q.notify_workers();
        assert!(t.join().unwrap());
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
