//! Jobs: what users submit, what workers run, what callers get back.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use oneshot_vm::CompiledProgram;

use crate::error::Error;

/// Identifies a job within one [`Pool`](crate::Pool), in submission order;
/// a connection handler's id is drawn from the same counter when its
/// worker adopts the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The raw submission index.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What [`Pool::submit`](crate::Pool::submit) does when the injector is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Block the submitting thread until there is room (backpressure by
    /// waiting). The default.
    #[default]
    Blocking,
    /// Refuse with [`ErrorKind::QueueFull`](crate::ErrorKind::QueueFull),
    /// returning the spec via
    /// [`Error::into_refused_spec`](crate::Error::into_refused_spec)
    /// (backpressure by shedding).
    NonBlocking,
}

/// Completion callback type: runs on the worker thread that finishes the
/// job, right after its outcome is delivered.
pub type OnComplete = Arc<dyn Fn(&JobOutcome) + Send + Sync>;

/// A job description: a named Scheme program plus execution policy, built
/// fluently:
///
/// ```
/// use std::time::Duration;
/// use oneshot_exec::{Admission, JobSpec};
///
/// let spec = JobSpec::new("fib", "(define (f n) (if (< n 2) n (+ (f (- n 1)) (f (- n 2))))) (f 18)")
///     .fuel(200_000)
///     .deadline(Duration::from_secs(5))
///     .admission(Admission::NonBlocking);
/// assert_eq!(spec.name(), "fib");
/// ```
///
/// The program is compiled once, on the submitting thread; workers only
/// link and run it. Jobs share the worker VM's global environment (see the
/// fault-isolation contract in DESIGN.md), so toplevel definitions should
/// either be job-private names or identical across jobs.
#[derive(Clone)]
pub struct JobSpec {
    pub(crate) name: String,
    pub(crate) source: String,
    pub(crate) fuel: u64,
    pub(crate) deadline: Option<Duration>,
    pub(crate) io_timeout: Option<Duration>,
    pub(crate) admission: Admission,
    pub(crate) pin: Option<usize>,
    pub(crate) on_complete: Option<OnComplete>,
}

impl JobSpec {
    /// Default per-job fuel budget: effectively unlimited.
    pub const DEFAULT_FUEL: u64 = u64::MAX;

    /// A job running `source`, labelled `name` for reporting. Defaults:
    /// unlimited fuel, no deadline, blocking admission, no completion
    /// callback.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            source: source.into(),
            fuel: Self::DEFAULT_FUEL,
            deadline: None,
            io_timeout: None,
            admission: Admission::default(),
            pin: None,
            on_complete: None,
        }
    }

    /// Caps the total procedure calls the job may consume across all its
    /// fuel slices; exceeding the cap yields
    /// [`ErrorKind::FuelExhausted`](crate::ErrorKind::FuelExhausted).
    /// Time a job spends *blocked* on I/O or a timer burns no fuel.
    #[must_use]
    pub fn fuel(mut self, budget: u64) -> Self {
        self.fuel = budget.max(1);
        self
    }

    /// Wall-clock deadline, measured from submission. A job past its
    /// deadline fails with
    /// [`ErrorKind::DeadlineExceeded`](crate::ErrorKind::DeadlineExceeded)
    /// at its next scheduling point — including while blocked on I/O, which
    /// makes this the safety valve against a peer that never answers.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Per-wait I/O deadline: how long one blocking `tcp-read`,
    /// `tcp-write`, or `tcp-accept` may sit parked before it is woken with
    /// the catchable `io-timeout` condition. Unlike [`deadline`] — an
    /// absolute bound that *fails* the job — the window restarts at every
    /// suspension and the guest can catch the condition, answer with an
    /// error response, or close an idle connection (the slow-loris
    /// defense). Overrides the pool-wide default from
    /// [`PoolBuilder::io_timeout`](crate::PoolBuilder::io_timeout).
    ///
    /// [`deadline`]: JobSpec::deadline
    #[must_use]
    pub fn io_timeout(mut self, window: Duration) -> Self {
        self.io_timeout = Some(window);
        self
    }

    /// Full-queue policy for [`Pool::submit`](crate::Pool::submit):
    /// block (default) or refuse.
    #[must_use]
    pub fn admission(mut self, admission: Admission) -> Self {
        self.admission = admission;
        self
    }

    /// Pins the job to worker `index` (wrapped modulo the worker count):
    /// it is bound to that worker's inbox, which the worker drains ahead
    /// of the shared queue.
    /// Pinning is how jobs that must share one VM's globals — a listener
    /// and its accept loops, say — are kept together.
    #[must_use]
    pub fn pin(mut self, index: usize) -> Self {
        self.pin = Some(index);
        self
    }

    /// Registers a completion callback, invoked on the worker thread that
    /// finishes the job (successfully or not), after the outcome is
    /// visible to [`JobHandle::wait`]. Keep it short; it runs inside the
    /// worker loop.
    #[must_use]
    pub fn on_complete(mut self, f: impl Fn(&JobOutcome) + Send + Sync + 'static) -> Self {
        self.on_complete = Some(Arc::new(f));
        self
    }

    /// The job's label.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("fuel", &self.fuel)
            .field("deadline", &self.deadline)
            .field("io_timeout", &self.io_timeout)
            .field("admission", &self.admission)
            .field("pin", &self.pin)
            .field("on_complete", &self.on_complete.as_ref().map(|_| "<callback>"))
            .finish_non_exhaustive()
    }
}

/// The result of one finished job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Which job.
    pub id: JobId,
    /// Its label, from [`JobSpec::new`].
    pub name: String,
    /// Index of the worker that finished (or failed) it.
    pub worker: usize,
    /// Fuel slices the job ran for (1 = never preempted).
    pub slices: u64,
    /// Total fuel charged to the job, in procedure calls. Blocked time
    /// burns no fuel.
    pub fuel_used: u64,
    /// Submit-to-completion latency.
    pub latency: Duration,
    /// The job's value written in Scheme `write` notation, or why it
    /// failed. The string form is VM-independent, which is what makes
    /// results comparable across worker counts.
    pub result: Result<String, Error>,
}

/// Shared slot a worker fills and a waiter blocks on.
#[derive(Debug, Default)]
pub(crate) struct OutcomeSlot {
    /// First-delivery-wins marker, claimed *before* the completion
    /// callback runs so the callback finishes before any waiter is
    /// released.
    claimed: std::sync::atomic::AtomicBool,
    outcome: Mutex<Option<JobOutcome>>,
    ready: Condvar,
}

impl OutcomeSlot {
    /// Claims the right to deliver; a shutdown-time duplicate loses.
    pub(crate) fn claim(&self) -> bool {
        !self.claimed.swap(true, std::sync::atomic::Ordering::AcqRel)
    }

    pub(crate) fn fill(&self, outcome: JobOutcome) {
        // Never panics: it runs in a drop guard. A poisoned slot is still
        // valid, since every update is one assignment.
        let mut slot = self.outcome.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(outcome);
            self.ready.notify_all();
        }
    }

    pub(crate) fn wait(&self) -> JobOutcome {
        let mut slot = self.outcome.lock().unwrap();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.ready.wait(slot).unwrap();
        }
    }

    pub(crate) fn get(&self) -> Option<JobOutcome> {
        self.outcome.lock().unwrap().clone()
    }
}

/// A claim on a submitted job's eventual [`JobOutcome`].
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) name: String,
    pub(crate) slot: Arc<OutcomeSlot>,
}

impl JobHandle {
    /// The job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the job finishes (successfully or not).
    pub fn wait(&self) -> JobOutcome {
        self.slot.wait()
    }

    /// The outcome, if the job has already finished.
    pub fn outcome(&self) -> Option<JobOutcome> {
        self.slot.get()
    }
}

/// The unit that moves through the queues: a compiled program plus the
/// bookkeeping to deliver its outcome.
pub(crate) struct Job {
    pub(crate) id: JobId,
    pub(crate) name: String,
    pub(crate) prog: Arc<CompiledProgram>,
    pub(crate) fuel_budget: u64,
    /// Absolute wall-clock deadline, computed at submission.
    pub(crate) deadline: Option<Instant>,
    /// Per-wait I/O deadline window ([`JobSpec::io_timeout`], else the
    /// pool's default), re-applied at every I/O suspension.
    pub(crate) io_timeout: Option<Duration>,
    /// For connection-handler jobs: the adopted socket's token in the
    /// owning worker's VM. The worker closes the socket however the
    /// handler ends, so the peer sees a close, not a wedge (a no-op if the
    /// handler closed it: the token then names no socket); a job with a
    /// token is never retried — its socket state was consumed by the
    /// first attempt.
    pub(crate) conn_token: Option<i64>,
    pub(crate) submitted: Instant,
    pub(crate) slot: Arc<OutcomeSlot>,
    pub(crate) on_complete: Option<OnComplete>,
    /// Times this job has already been retried after a transient fault.
    pub(crate) attempts: u32,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("fuel_budget", &self.fuel_budget)
            .field("deadline", &self.deadline)
            .field("io_timeout", &self.io_timeout)
            .field("conn_token", &self.conn_token)
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

impl Job {
    pub(crate) fn deliver(
        &self,
        worker: usize,
        slices: u64,
        fuel_used: u64,
        result: Result<String, Error>,
    ) {
        let outcome = JobOutcome {
            id: self.id,
            name: self.name.clone(),
            worker,
            slices,
            fuel_used,
            latency: self.submitted.elapsed(),
            result,
        };
        if self.slot.claim() {
            // Callback before fill: a thread woken by `JobHandle::wait`
            // must be able to observe everything the callback did. The
            // guard fills the slot even if the callback panics; the panic
            // then unwinds on to the worker's supervisor.
            let fill = FillOnDrop { slot: &self.slot, outcome: Some(outcome) };
            if let Some(cb) = &self.on_complete {
                cb(fill.outcome.as_ref().expect("filled only on drop"));
            }
        }
    }
}

/// Fills an [`OutcomeSlot`] when dropped, whether by a return or by an
/// unwinding panic.
struct FillOnDrop<'a> {
    slot: &'a OutcomeSlot,
    outcome: Option<JobOutcome>,
}

impl Drop for FillOnDrop<'_> {
    fn drop(&mut self) {
        if let Some(outcome) = self.outcome.take() {
            self.slot.fill(outcome);
        }
    }
}
