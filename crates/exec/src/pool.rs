//! The pool: submission, the shared listener, backpressure, shutdown, and
//! observability.

use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oneshot_vm::{CompiledProgram, CompilerOptions, Pipeline, Vm, VmConfig, VmStats};

use crate::error::Error;
use crate::job::{Admission, Job, JobHandle, JobId, JobSpec, OnComplete, OutcomeSlot};
use crate::queue::{Entry, Inbox, Injector, PushRefused};
use crate::reactor::{sys, Backend, ReactorCore, WakeHandle};
use crate::worker::{self, Presence, WorkerCtx};

/// Per-worker knobs, fixed at build time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerConfig {
    /// Procedure calls per engine slice (the preemption quantum).
    pub(crate) fuel_slice: u64,
    /// Maximum jobs resident (started) on one worker at a time — running
    /// *or* blocked on I/O; both hold engine state in the worker's VM.
    pub(crate) resident_cap: usize,
    /// Times a job failing with a *transient* error is requeued before its
    /// failure is delivered (0 = fail on first error).
    pub(crate) max_retries: u32,
}

/// Configures and builds a [`Pool`].
#[derive(Debug, Clone)]
pub struct PoolBuilder {
    workers: usize,
    fuel_slice: u64,
    queue_capacity: usize,
    resident_cap: usize,
    max_retries: u32,
    io_timeout: Option<Duration>,
    vm_config: VmConfig,
}

impl Default for PoolBuilder {
    fn default() -> Self {
        PoolBuilder {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            fuel_slice: 4096,
            queue_capacity: 256,
            resident_cap: 8,
            max_retries: 0,
            io_timeout: None,
            vm_config: VmConfig::default(),
        }
    }
}

impl PoolBuilder {
    /// Number of OS worker threads (≥ 1). Defaults to the machine's
    /// available parallelism.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Procedure calls a job runs before preemption (≥ 1). Small slices
    /// give fair latency, large slices give throughput — E11 measures the
    /// trade-off.
    #[must_use]
    pub fn fuel_slice(mut self, calls: u64) -> Self {
        self.fuel_slice = calls.max(1);
        self
    }

    /// Injector capacity (≥ 1): beyond this, a
    /// [`Admission::Blocking`](crate::Admission::Blocking) submit blocks
    /// and a [`Admission::NonBlocking`](crate::Admission::NonBlocking)
    /// submit refuses.
    #[must_use]
    pub fn queue_capacity(mut self, jobs: usize) -> Self {
        self.queue_capacity = jobs.max(1);
        self
    }

    /// Maximum jobs concurrently started (engine-resident) per worker
    /// (≥ 1), counting jobs blocked on I/O or timers. More residents mean
    /// fairer interleaving and more concurrent connections, but a bigger
    /// blast radius when a job panics. This is the knob that sets how many
    /// green threads a server pool holds open at once.
    #[must_use]
    pub fn resident_cap(mut self, jobs: usize) -> Self {
        self.resident_cap = jobs.max(1);
        self
    }

    /// How many times a job that fails with a *transient* error (see
    /// [`Error::transient`](crate::Error::transient)) is requeued — with
    /// exponential backoff — before its failure is delivered. Defaults to
    /// 0: every failure is final.
    #[must_use]
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Pool-wide default for the per-wait I/O deadline: how long any one
    /// blocking socket operation (`tcp-read`, `tcp-write`, `tcp-accept`)
    /// may sit parked before the guest is resumed with the catchable
    /// `io-timeout` condition. This is the idle-connection reaper and the
    /// slow-loris defense: a peer that trickles bytes resets the window
    /// with each read, but one that goes silent is bounded. `None`
    /// (default) means waits are unbounded unless the job's spec says
    /// otherwise ([`JobSpec::io_timeout`] overrides per job).
    #[must_use]
    pub fn io_timeout(mut self, window: Duration) -> Self {
        self.io_timeout = Some(window);
        self
    }

    /// Configuration for every worker's VM (resource guards, fault plan,
    /// probes, GC threshold, socket-table cap, ...). Lets a pool run with
    /// per-job heap budgets or a deterministic chaos plan. Defaults to
    /// [`VmConfig::default`], except that a `stack` left at its default
    /// gets the pool's small segments (see [`PoolBuilder::build`]).
    #[must_use]
    pub fn vm_config(mut self, cfg: VmConfig) -> Self {
        self.vm_config = cfg;
        self
    }

    /// Does nothing: [`Backend`] has one value. Exists only so the ledger
    /// (`benchmark/src/api.rs`) builds unedited; a `benchmark` issue drops
    /// the ledger's call, then this name.
    #[must_use]
    pub fn reactor_backend(self, _: Backend) -> Self {
        self
    }

    /// Builds the per-worker reactors and spawns the workers.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if a thread, or a reactor's epoll instance
    /// or wakeup pipe, cannot be created.
    pub fn build(mut self) -> std::io::Result<Pool> {
        // Every parked job pins the whole segment its sealed continuation
        // sits in, so a pool of mostly-parked handlers wants the paper's
        // §3.4 answer: small default segments, with overflow as an
        // implicit call/1cc for the job that does recurse deeply (the
        // overflow hysteresis shrinks with the segment, or deep jobs would
        // copy a quarter of every one). An embedder that tuned `stack`
        // keeps its tuning.
        if self.vm_config.stack == VmConfig::default().stack {
            self.vm_config.stack.segment_slots = 512;
            self.vm_config.stack.copy_bound = 256;
            self.vm_config.stack.hysteresis_slots = 16;
        }
        let injector = Arc::new(Injector::new(self.queue_capacity));
        let inboxes: Arc<Vec<Inbox>> =
            Arc::new((0..self.workers).map(|_| Inbox::default()).collect());
        let presence: Arc<Vec<Presence>> =
            Arc::new((0..self.workers).map(|_| Presence::default()).collect());
        // Build every reactor before spawning anything: a failure here
        // leaks no threads.
        let mut reactors = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let mut reactor = ReactorCore::new()?;
            // The same deterministic plan that arms the VM's fault clocks
            // arms the reactor's wait/readiness sites: one seed drives the
            // whole worker's chaos schedule.
            if let Some(plan) = &self.vm_config.fault_plan {
                reactor.arm_faults(plan);
            }
            reactors.push(reactor);
        }
        let wakes: Vec<WakeHandle> = reactors.iter().map(ReactorCore::wake_handle).collect();
        let counters = Arc::new(PoolCounters::new(self.workers));
        let (report_tx, report_rx) = mpsc::channel();
        let cfg = WorkerConfig {
            fuel_slice: self.fuel_slice,
            resident_cap: self.resident_cap,
            max_retries: self.max_retries,
        };
        let vm_config = Arc::new(self.vm_config);
        let next_conn = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(self.workers);
        for (index, reactor) in reactors.into_iter().enumerate() {
            let ctx = WorkerCtx {
                index,
                cfg,
                vm_config: Arc::clone(&vm_config),
                injector: Arc::clone(&injector),
                inboxes: Arc::clone(&inboxes),
                presence: Arc::clone(&presence),
                counters: Arc::clone(&counters),
                reactor: Some(reactor),
                next_conn: Arc::clone(&next_conn),
                report_tx: report_tx.clone(),
                retired: Default::default(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("oneshot-exec-{index}"))
                .spawn(move || worker::run(ctx))?;
            handles.push(handle);
        }
        Ok(Pool {
            injector,
            inboxes,
            presence,
            counters,
            handles,
            wakes,
            acceptors: Mutex::new(Vec::new()),
            report_rx,
            next_job: AtomicU64::new(0),
            workers: self.workers,
            io_timeout: self.io_timeout,
        })
    }
}

/// The pool's counters: a [`Tally`] per worker, which only that worker
/// bumps, one for submission and the acceptor threads, and the hand-kept
/// per-worker and histogram cells.
#[derive(Debug)]
pub(crate) struct PoolCounters {
    pub(crate) pool: Tally,
    pub(crate) workers: Vec<Tally>,
    accepts: Vec<AtomicU64>,
    resume_depth_highwater: Vec<AtomicU64>,
    wake_lateness: Vec<AtomicU64>,
}

fn cells(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl PoolCounters {
    fn new(workers: usize) -> Self {
        PoolCounters {
            pool: Tally::default(),
            workers: (0..workers).map(|_| Tally::default()).collect(),
            accepts: cells(workers),
            resume_depth_highwater: cells(workers),
            wake_lateness: cells(crate::reactor::WAKE_LATENESS_BUCKETS),
        }
    }

    fn snapshot(&self) -> PoolCountersSnapshot {
        let counts =
            self.workers.iter().fold(self.pool.snapshot(), |all, w| all.plus(&w.snapshot()));
        let load = |cells: &[AtomicU64]| cells.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        PoolCountersSnapshot {
            accepts_per_worker: load(&self.accepts),
            resume_depth_highwater: load(&self.resume_depth_highwater),
            wake_lateness: load(&self.wake_lateness),
            ..counts
        }
    }

    pub(crate) fn note_accept(&self, worker: usize) {
        self.accepts[worker].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_resume_depth(&self, worker: usize, depth: usize) {
        self.resume_depth_highwater[worker].fetch_max(depth as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_lateness(&self, hist: &[u64]) {
        for (slot, &n) in self.wake_lateness.iter().zip(hist) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

oneshot_vm::counters! {
    /// One owner's share of the pool's counters ([`PoolCounters`]).
    atomic pub(crate) struct Tally;
    /// A point-in-time copy of the pool's counters.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct PoolCountersSnapshot {
        /// Jobs accepted by [`Pool::submit`].
        submitted: sum,
        /// Jobs that finished with a value.
        completed: sum,
        /// Jobs that finished with any [`Error`](crate::Error).
        failed: sum,
        /// Subset of `failed`: fuel budget exhausted.
        timed_out: sum,
        /// Subset of `failed`: the job itself panicked.
        panicked: sum,
        /// Transient failures that were requeued for another attempt (not
        /// counted in `failed` unless the final attempt also failed).
        retried: sum,
        /// Always 0: no job moves between workers once one has taken it.
        /// Kept only because the ledger (`benchmark/src/api.rs`) reads it;
        /// a `benchmark` issue drops the ledger's read, then this row.
        steals: sum,
        /// Preemptions: a job parked after its slice and was requeued.
        requeues: sum,
        /// Fresh VMs built after a panic.
        vm_rebuilds: sum,
        /// Engine fuel slices run.
        slices: sum,
        /// Deepest the injector queue ever got.
        queue_depth_highwater: max,
        /// Suspensions on socket readiness (`tcp-accept`, `tcp-read`,
        /// `tcp-write` finding the fd not ready).
        io_blocked: sum,
        /// Readiness/deadline deliveries the per-worker reactors made (I/O
        /// and timers).
        io_wakeups: sum,
        /// Suspensions on `timer-wait`.
        timer_waits: sum,
        /// Most jobs simultaneously blocked on any single worker — the
        /// honest measure of peak per-worker green-thread concurrency.
        blocked_highwater: max,
        /// Deepest any one worker's inbox got when the acceptor routed a
        /// connection to it, in inbox entries (pinned jobs and retries
        /// count too).
        accept_queue_highwater: max,
        /// Accepted connections shed because the owning worker's socket
        /// table was full.
        accept_overflow: sum,
        /// Blocked waits resumed with the catchable `io-timeout` condition
        /// because their per-wait I/O deadline
        /// ([`PoolBuilder::io_timeout`](crate::PoolBuilder::io_timeout) /
        /// [`JobSpec::io_timeout`](crate::JobSpec::io_timeout)) expired.
        io_timeouts: sum,
        /// Reactor-level faults the deterministic plan injected (synthetic
        /// `EINTR`, delayed readiness, dropped readiness). VM-level
        /// injections (short reads/writes, spurious would-block, resets)
        /// are each worker's `WorkerReport::vm.faults_injected`.
        io_faults_injected: sum,
        /// Connections refused by overload shedding
        /// ([`ServeOptions::pending_highwater`](crate::ServeOptions)):
        /// closed immediately or answered by the overload handler instead
        /// of the full-price handler.
        accepts_shed: sum,
        /// Total nanoseconds the acceptor spent in the shedding state —
        /// how long the pool was saturated past its high-water mark.
        shed_duration_ns: sum,
        /// Full worker restarts performed by the supervisor (VM rebuilt and
        /// every reactor wait forgotten after a panic escaped the per-slice
        /// isolation).
        /// Every restart also counts a `vm_rebuilds`.
        worker_restarts: sum,
    }
    + {
        /// Connections the shared listener routed to each worker — flat
        /// when the least-loaded/round-robin distribution is doing its job.
        pub accepts_per_worker: Vec<u64> = (each_sub, each_add),
        /// Largest single-harvest wakeup batch per worker: how many sealed
        /// continuations one reactor pass requeued at once.
        pub resume_depth_highwater: Vec<u64> = (carry, each_max),
        /// Timer wake-lateness histogram, summed across workers: delivery
        /// time minus deadline, bucketed by
        /// [`WAKE_LATENESS_BUCKETS_MS`](crate::WAKE_LATENESS_BUCKETS_MS)
        /// (the last bucket is the unbounded tail). Measured inside the
        /// reactor, so it is pure scheduler lag.
        pub wake_lateness: Vec<u64> = (each_sub, each_add),
    }
}

// How the hand-written fields combine: element-wise, the shorter side read
// as zeros; `carry` keeps the later snapshot's value in a delta.
fn each(a: &[u64], b: &[u64], f: fn(u64, u64) -> u64) -> Vec<u64> {
    let at = |v: &[u64], i| v.get(i).copied().unwrap_or(0);
    (0..a.len().max(b.len())).map(|i| f(at(a, i), at(b, i))).collect()
}

fn each_sub(now: &[u64], then: &[u64]) -> Vec<u64> {
    each(now, then, u64::saturating_sub)
}

fn each_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    each(a, b, |x, y| x + y)
}

fn each_max(a: &[u64], b: &[u64]) -> Vec<u64> {
    each(a, b, u64::max)
}

fn carry(now: &[u64], _: &[u64]) -> Vec<u64> {
    now.to_vec()
}

/// What one worker did over its lifetime, reported at shutdown.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The worker's index.
    pub worker: usize,
    /// Jobs this worker completed successfully.
    pub jobs_ok: u64,
    /// Jobs this worker reported as failed.
    pub jobs_failed: u64,
    /// Fuel slices this worker ran.
    pub slices: u64,
    /// Transient failures this worker requeued for another attempt.
    pub retries: u64,
    /// Full supervisor restarts (VM rebuilt, reactor waits forgotten).
    pub worker_restarts: u64,
    /// VM counters over all incarnations (a panic-triggered rebuild starts
    /// a new one), folded with [`VmStats::plus`].
    pub vm: VmStats,
    /// Code objects linked over all incarnations (boot libraries, one
    /// program per submitted job, one per serve template — not one per
    /// connection).
    pub code_objects: u64,
}

/// Everything a completed shutdown reports.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Per-worker reports, sorted by worker index.
    pub workers: Vec<WorkerReport>,
    /// Final pool-wide counters.
    pub counters: PoolCountersSnapshot,
}

/// The handler blueprint [`Pool::serve`] compiles once and stamps into a
/// fresh [`Job`] per accepted connection.
pub(crate) struct HandlerTemplate {
    name: String,
    prog: Arc<CompiledProgram>,
    fuel: u64,
    deadline: Option<Duration>,
    io_timeout: Option<Duration>,
    on_complete: Option<OnComplete>,
}

impl HandlerTemplate {
    /// Compiles a handler spec, applying the pool-wide `io_timeout`
    /// default.
    pub(crate) fn new(spec: &JobSpec, io_timeout: Option<Duration>) -> Result<Self, Error> {
        let prog = Vm::compile_str(&spec.source, Pipeline::Direct, CompilerOptions::default())
            .map_err(Error::compile)?;
        Ok(HandlerTemplate {
            name: spec.name.clone(),
            prog: Arc::new(prog),
            fuel: spec.fuel,
            deadline: spec.deadline,
            io_timeout: spec.io_timeout.or(io_timeout),
            on_complete: spec.on_complete.clone(),
        })
    }

    pub(crate) fn make_job(&self, id: u64, conn_token: i64) -> Job {
        Job {
            id: JobId(id),
            name: self.name.clone(),
            prog: Arc::clone(&self.prog),
            fuel_budget: self.fuel,
            deadline: self.deadline.map(|d| Instant::now() + d),
            io_timeout: self.io_timeout,
            conn_token: Some(conn_token),
            submitted: Instant::now(),
            slot: Arc::new(OutcomeSlot::default()),
            on_complete: self.on_complete.clone(),
            attempts: 0,
        }
    }
}

/// Overload policy for [`Pool::serve_with`].
///
/// When the pending depth (inbox entries summed over the workers: accepted
/// connections not yet adopted, plus pinned jobs and retries not yet
/// started) reaches `pending_highwater`, the acceptor *sheds* new
/// connections instead of queueing them: each shed connection is either
/// routed to the cheap `overload_handler` (answer-then-close, e.g. an HTTP
/// 503) or, with no handler, closed immediately — the peer sees a reset
/// rather than an ever-growing queue. Shedding keeps throughput for
/// connections already admitted instead of collapsing under the backlog;
/// [`PoolCountersSnapshot::accepts_shed`] and
/// [`PoolCountersSnapshot::shed_duration_ns`] record how often and for how
/// long.
#[derive(Default)]
pub struct ServeOptions {
    /// Pending depth, in inbox entries, at which new accepts are shed. `None`
    /// (default) never sheds.
    pub pending_highwater: Option<usize>,
    /// Handler run for shed connections instead of the real handler; keep
    /// it cheap (a static refusal). Its `fuel`, `deadline`, `io_timeout`,
    /// and `on_complete` apply as usual. `None` closes shed connections
    /// without a reply.
    pub overload_handler: Option<JobSpec>,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("pending_highwater", &self.pending_highwater)
            .field("overload_handler", &self.overload_handler.as_ref().map(JobSpec::name))
            .finish()
    }
}

/// Shared state between a running acceptor thread and its
/// [`ServeHandle`].
#[derive(Debug)]
struct AcceptorShared {
    stop: AtomicBool,
    accepted: AtomicU64,
}

#[derive(Debug)]
struct Acceptor {
    shared: Arc<AcceptorShared>,
    handle: JoinHandle<()>,
}

/// A running shared listener started by [`Pool::serve`]: reports the
/// bound port and accept count, and can stop accepting early (the
/// listener also stops at pool shutdown).
#[derive(Debug)]
pub struct ServeHandle {
    port: u16,
    shared: Arc<AcceptorShared>,
}

impl ServeHandle {
    /// The port the listener actually bound (useful with `:0`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Connections accepted and routed to workers so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Asks the acceptor thread to stop listening. Connections already
    /// routed still get handled; the thread is joined at pool shutdown.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }
}

/// A pool of OS worker threads, each owning a VM that runs jobs as
/// engine-preempted green threads *and* its own reactor: a blocked job's
/// readiness wait lives on the worker that holds its sealed continuation,
/// so a wakeup is a local queue move, not a cross-thread handoff. See the
/// crate docs for the full model and an example.
#[derive(Debug)]
pub struct Pool {
    injector: Arc<Injector>,
    inboxes: Arc<Vec<Inbox>>,
    presence: Arc<Vec<Presence>>,
    counters: Arc<PoolCounters>,
    handles: Vec<JoinHandle<()>>,
    wakes: Vec<WakeHandle>,
    acceptors: Mutex<Vec<Acceptor>>,
    report_rx: mpsc::Receiver<WorkerReport>,
    next_job: AtomicU64,
    workers: usize,
    io_timeout: Option<Duration>,
}

impl Pool {
    /// Starts configuring a pool.
    pub fn builder() -> PoolBuilder {
        PoolBuilder::default()
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// [`Backend::Epoll`], always. Exists only so the ledger
    /// (`benchmark/src/api.rs`) builds unedited; a `benchmark` issue drops
    /// the ledger's call, then this name.
    pub fn reactor_backend(&self) -> Backend {
        Backend::Epoll
    }

    /// Current injector depth (jobs accepted but not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.injector.depth()
    }

    /// Inbox entries summed over the workers: accepted connections not
    /// yet adopted, plus pinned jobs and retries not yet started.
    pub fn accept_queue_depth(&self) -> usize {
        self.inboxes.iter().map(Inbox::depth).sum()
    }

    /// A snapshot of the pool-wide counters.
    pub fn stats(&self) -> PoolCountersSnapshot {
        self.counters.snapshot()
    }

    /// Rings every worker's wake pipe: an idle worker sleeps only in its
    /// reactor, so this is how it learns of shutdown.
    fn ring_workers(&self) {
        for w in &self.wakes {
            w.ring();
        }
    }

    /// Compiles `spec` and enqueues it. The spec's
    /// [`admission`](JobSpec::admission) decides the full-queue policy:
    /// [`Admission::Blocking`] waits for room (backpressure),
    /// [`Admission::NonBlocking`] refuses with
    /// [`ErrorKind::QueueFull`](crate::ErrorKind::QueueFull) and hands the
    /// spec back via [`Error::into_refused_spec`].
    ///
    /// A [`pinned`](JobSpec::pin) spec bypasses the injector entirely: it
    /// goes straight to the chosen worker's inbox (never counted against
    /// `queue_capacity`), which is how jobs that must share one VM's
    /// globals are kept together.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Compile`](crate::ErrorKind::Compile),
    /// [`ErrorKind::QueueFull`](crate::ErrorKind::QueueFull) (nonblocking
    /// only), or [`ErrorKind::PoolClosed`](crate::ErrorKind::PoolClosed).
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, Error> {
        // Compile once, on the submitting thread; workers only link.
        let prog = Vm::compile_str(&spec.source, Pipeline::Direct, CompilerOptions::default())
            .map_err(Error::compile)?;
        let id = JobId(self.next_job.fetch_add(1, Ordering::Relaxed));
        let slot = Arc::new(OutcomeSlot::default());
        let job = Job {
            id,
            name: spec.name.clone(),
            prog: Arc::new(prog),
            fuel_budget: spec.fuel,
            deadline: spec.deadline.map(|d| Instant::now() + d),
            io_timeout: spec.io_timeout.or(self.io_timeout),
            conn_token: None,
            submitted: Instant::now(),
            slot: Arc::clone(&slot),
            on_complete: spec.on_complete.clone(),
            attempts: 0,
        };
        let handle = JobHandle { id, name: spec.name.clone(), slot };
        if let Some(pin) = spec.pin {
            if self.injector.is_closed() {
                return Err(Error::pool_closed());
            }
            let target = pin % self.workers;
            self.inboxes[target].push(Entry::Job(job));
            self.wakes[target].ring();
            self.counters.pool.submitted.add(1);
            return Ok(handle);
        }
        let pushed = match spec.admission {
            Admission::Blocking => self.injector.push(job),
            Admission::NonBlocking => self.injector.try_push(job),
        };
        match pushed {
            Ok(depth) => {
                self.counters.pool.submitted.add(1);
                self.counters.pool.queue_depth_highwater.raise(depth as u64);
                worker::wake_one(&self.presence, &self.wakes);
                Ok(handle)
            }
            Err(PushRefused::Full) => Err(Error::queue_full(spec)),
            Err(PushRefused::Closed) => Err(Error::pool_closed()),
        }
    }

    /// Binds one shared `AF_INET` listener at `addr` (e.g.
    /// `"127.0.0.1:0"`) and spawns an acceptor thread that distributes
    /// accepted connections across the worker reactors — least-loaded by
    /// inbox depth, round-robin among ties. Each connection is
    /// adopted into its worker's VM socket table and handled by a fresh
    /// instance of `handler` (compiled once), which fetches its socket
    /// token with `(conn-take)`.
    ///
    /// Handler outcomes are delivered to the spec's
    /// [`on_complete`](JobSpec::on_complete) callback; there is no
    /// per-connection [`JobHandle`].
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Compile`](crate::ErrorKind::Compile) for a bad
    /// handler, [`ErrorKind::Io`](crate::ErrorKind::Io) if the bind
    /// fails, [`ErrorKind::PoolClosed`](crate::ErrorKind::PoolClosed)
    /// after shutdown began.
    pub fn serve(&self, addr: &str, handler: JobSpec) -> Result<ServeHandle, Error> {
        self.serve_with(addr, handler, ServeOptions::default())
    }

    /// As [`Pool::serve`], with an overload policy: past
    /// [`ServeOptions::pending_highwater`] pending connections, new
    /// accepts are shed — closed immediately, or answered by the cheap
    /// [`ServeOptions::overload_handler`] — instead of deepening the
    /// backlog.
    ///
    /// # Errors
    ///
    /// As [`Pool::serve`]; a bad overload handler is also
    /// [`ErrorKind::Compile`](crate::ErrorKind::Compile).
    pub fn serve_with(
        &self,
        addr: &str,
        handler: JobSpec,
        options: ServeOptions,
    ) -> Result<ServeHandle, Error> {
        if self.injector.is_closed() {
            return Err(Error::pool_closed());
        }
        let tmpl = Arc::new(HandlerTemplate::new(&handler, self.io_timeout)?);
        let overload_tmpl = match &options.overload_handler {
            Some(spec) => Some(Arc::new(HandlerTemplate::new(spec, self.io_timeout)?)),
            None => None,
        };
        let listener = TcpListener::bind(addr).map_err(|e| Error::io("bind", e))?;
        listener.set_nonblocking(true).map_err(|e| Error::io("set_nonblocking", e))?;
        let port = listener.local_addr().map_err(|e| Error::io("local_addr", e))?.port();
        // The acceptor waits on the listener through an epoll instance of
        // its own, level-triggered: it accepts until would-block anyway.
        let ep = sys::EpollFd::create().map_err(|e| Error::io("epoll_create1", e))?;
        if !ep.ctl(sys::EPOLL_CTL_ADD, listener.as_raw_fd(), sys::EPOLLIN) {
            return Err(Error::io("epoll_ctl", std::io::Error::last_os_error()));
        }
        let shed = options
            .pending_highwater
            .map(|hw| Shedding { highwater: hw.max(1), overload: overload_tmpl });
        let shared =
            Arc::new(AcceptorShared { stop: AtomicBool::new(false), accepted: AtomicU64::new(0) });
        let thread_shared = Arc::clone(&shared);
        let inboxes = Arc::clone(&self.inboxes);
        let counters = Arc::clone(&self.counters);
        let wakes = self.wakes.clone();
        let thread_tmpl = Arc::clone(&tmpl);
        let handle = std::thread::Builder::new()
            .name(format!("oneshot-accept-{port}"))
            .spawn(move || {
                accept_loop(
                    &listener,
                    &ep,
                    &thread_shared,
                    &thread_tmpl,
                    shed,
                    &inboxes,
                    &counters,
                    &wakes,
                );
            })
            .map_err(|e| Error::io("spawn acceptor", e))?;
        self.acceptors
            .lock()
            .expect("acceptor list poisoned")
            .push(Acceptor { shared: Arc::clone(&shared), handle });
        Ok(ServeHandle { port, shared })
    }

    /// Stops every acceptor and joins its thread. Connections already in
    /// the inboxes are still handled by the workers.
    fn stop_acceptors(&self) {
        let acceptors: Vec<Acceptor> =
            self.acceptors.lock().expect("acceptor list poisoned").drain(..).collect();
        for a in &acceptors {
            a.shared.stop.store(true, Ordering::Relaxed);
        }
        for a in acceptors {
            let _ = a.handle.join();
        }
    }

    /// Graceful shutdown with a 60-second deadline: stops the acceptors,
    /// closes the injector, lets the workers drain every queued,
    /// in-flight, *and blocked* job (blocked jobs finish when their I/O
    /// completes or their deadline fires), joins them, and aggregates the
    /// reports. Equivalent to `shutdown_timeout(Duration::from_secs(60))`.
    ///
    /// # Errors
    ///
    /// See [`Pool::shutdown_timeout`].
    pub fn shutdown(self) -> Result<PoolReport, Error> {
        self.shutdown_timeout(Duration::from_secs(60))
    }

    /// As [`Pool::shutdown`] with an explicit deadline.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::ShutdownTimeout`](crate::ErrorKind::ShutdownTimeout)
    /// if some worker failed to drain and check in before the deadline;
    /// its thread is left behind (leaked), which the CI leak test treats
    /// as a failure.
    pub fn shutdown_timeout(mut self, deadline: Duration) -> Result<PoolReport, Error> {
        // Acceptors first: no new connections may enter the inboxes once
        // the injector closes, or a worker could exit with connections
        // stranded.
        self.stop_acceptors();
        self.injector.close();
        self.ring_workers();
        let end = Instant::now() + deadline;
        let mut reports = Vec::with_capacity(self.workers);
        while reports.len() < self.workers {
            let left = end.saturating_duration_since(Instant::now());
            match self.report_rx.recv_timeout(left) {
                Ok(report) => reports.push(report),
                Err(_) => {
                    // Leave the handles unjoined: the caller learns exactly
                    // how many threads are wedged.
                    self.handles.clear();
                    return Err(Error::shutdown_timeout(reports.len(), self.workers));
                }
            }
        }
        // Every worker has sent its report, so joins return immediately.
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        reports.sort_by_key(|r| r.worker);
        Ok(PoolReport { workers: reports, counters: self.counters.snapshot() })
    }
}

impl Drop for Pool {
    /// Best-effort cleanup for pools dropped without [`Pool::shutdown`]:
    /// stops the acceptors, closes the injector, and joins the workers
    /// (they exit once drained).
    fn drop(&mut self) {
        self.stop_acceptors();
        self.injector.close();
        self.ring_workers();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The acceptor's shedding policy, resolved from [`ServeOptions`].
struct Shedding {
    highwater: usize,
    overload: Option<Arc<HandlerTemplate>>,
}

/// The acceptor thread: waits for the shared listener, accepts until
/// would-block, and routes each connection to the least-loaded worker's
/// inbox (round-robin among equals), ringing that worker awake.
/// With a [`Shedding`] policy, accepts past the pending high-water mark
/// are refused (dropped or routed to the overload handler) instead of
/// queued.
#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: &TcpListener,
    ep: &sys::EpollFd,
    shared: &AcceptorShared,
    tmpl: &Arc<HandlerTemplate>,
    shed: Option<Shedding>,
    inboxes: &[Inbox],
    counters: &PoolCounters,
    wakes: &[WakeHandle],
) {
    let mut events = [sys::EpollEvent { events: 0, data: 0 }];
    let mut rr: usize = 0;
    // While Some, the acceptor is in the shedding state; the instant is
    // when it entered, accumulated into shed_duration_ns on exit.
    let mut shed_since: Option<Instant> = None;
    while !shared.stop.load(Ordering::Relaxed) {
        // A short wait tick bounds the stop-flag latency; readiness ends
        // the wait immediately. An interrupted or failed wait is just an
        // early tick — the accept scan below observes would-block and the
        // loop waits again, so EINTR needs no special casing here.
        ep.wait(&mut events, 50);
        loop {
            // Overload check per accept, not per tick: depth can cross
            // the mark mid-burst.
            let shedding_now = shed
                .as_ref()
                .is_some_and(|s| inboxes.iter().map(Inbox::depth).sum::<usize>() >= s.highwater);
            match (shedding_now, &shed_since) {
                (true, None) => shed_since = Some(Instant::now()),
                (false, Some(since)) => {
                    counters.pool.shed_duration_ns.add(since.elapsed().as_nanos() as u64);
                    shed_since = None;
                }
                _ => {}
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        counters.pool.accept_overflow.add(1);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let route_tmpl = if shedding_now {
                        counters.pool.accepts_shed.add(1);
                        match shed.as_ref().and_then(|s| s.overload.as_ref()) {
                            // Cheap refusal path: the overload handler
                            // answers and closes.
                            Some(overload) => overload,
                            // No handler: close now (peer sees EOF/reset),
                            // never queue.
                            None => {
                                drop(stream);
                                continue;
                            }
                        }
                    } else {
                        tmpl
                    };
                    // Shallowest inbox wins; the rotating offset breaks
                    // ties round-robin so equal loads spread.
                    let n = inboxes.len();
                    let target = (0..n)
                        .min_by_key(|&w| (inboxes[w].depth(), (w + n - rr % n) % n))
                        .unwrap_or(0);
                    rr = rr.wrapping_add(1);
                    let entry = Entry::Conn(stream, Arc::clone(route_tmpl));
                    let depth = inboxes[target].push(entry);
                    counters.pool.accept_queue_highwater.raise(depth as u64);
                    shared.accepted.fetch_add(1, Ordering::Relaxed);
                    wakes[target].ring();
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
    if let Some(since) = shed_since {
        counters.pool.shed_duration_ns.add(since.elapsed().as_nanos() as u64);
    }
}
