//! The worker loop: one OS thread, one VM, many engine-fueled jobs — and,
//! since PR 8, the worker's own reactor. A job that blocks registers its
//! wait directly with this worker's [`ReactorCore`]; readiness is
//! harvested once per ready batch and turned back into an ordinary engine
//! resumption without ever leaving the thread.
//!
//! Since PR 10 the loop runs under a supervisor: the serve loop is wrapped
//! in `catch_unwind`, so a panic that escapes the per-slice isolation (a
//! defect in the worker machinery itself, or a guest `debug-panic!` whose
//! message carries [`KILL_WORKER_PANIC`]) no longer kills the thread.
//! The supervisor fails the in-flight residents with the transient
//! `WorkerReset` taxonomy (so the retry/backoff path resubmits them),
//! makes the reactor forget every wait and rebuilds the VM — the epoll
//! instance and its wake pipe survive, so the pool's existing
//! [`WakeHandle`](crate::reactor::WakeHandle)s keep ringing — and
//! re-enters the loop still serving its conn queue.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use oneshot_threads::{EngineHost, EngineId, EngineStep, Wait};
use oneshot_vm::{Vm, VmConfig, VmStats};

use crate::error::Error;
use crate::job::{Job, JobId};
use crate::pool::{ConnQueue, PoolCounters, Tally, WorkerConfig, WorkerReport};
use crate::queue::{Injector, Popped, StealQueue};
use crate::reactor::{ReactorCore, WakeKind, Wakeup};

/// How long an idle worker blocks — on the injector when it has no waits,
/// on its reactor when it does — before rechecking every queue. Pure
/// liveness tuning; correctness never depends on it: readiness interrupts
/// the reactor wait directly, and the pool rings the worker's wake pipe
/// on submissions, accepted connections, and shutdown.
const IDLE_WAIT: Duration = Duration::from_millis(25);

/// Most slices a worker runs between two reactor harvests. A harvest
/// covers one revolution of the ready ring (a woken job joins the back,
/// so it could not have run sooner); this bounds the revolution, so a
/// long ring of CPU-bound residents cannot starve I/O and timers.
const HARVEST_EVERY_MAX: usize = 32;

/// Jobs a worker takes from the injector per visit: the extras land in its
/// stealable stash, where an idle peer can still take them.
const GRAB_BATCH: usize = 4;

/// A guest panic whose message contains this marker escalates past the
/// per-slice rebuild to the worker supervisor — the chaos suite's hook for
/// forcing a full worker restart: `(debug-panic! "kill-worker-hard")`.
pub(crate) const KILL_WORKER_PANIC: &str = "kill-worker-hard";

/// Panic payload used to carry the culprit's id up to the supervisor.
struct SupervisedKill {
    culprit: JobId,
}

/// A job that has started on this worker: its engine — and therefore the
/// one-shot continuation of its preempted state — lives in this worker's
/// VM heap, so it can never migrate. Only [`Job`]s (unstarted) are stolen.
struct Active {
    job: Job,
    engine: EngineId,
    slices: u64,
    fuel_used: u64,
    /// Status symbol for the next resumption: `Some("io-timeout")` after
    /// the job's connection deadline expired while it was blocked, which
    /// resumes the guest into the catchable `io-timeout` condition.
    resume_status: Option<&'static str>,
}

/// An [`Active`] job suspended on I/O or a timer. Its sealed one-shot
/// continuation sits in the engine table; this worker's reactor owns the
/// wait. The `seq` is the wait generation: a wakeup carrying a stale
/// `seq` (the job blocked again, or was failed while blocked) is
/// discarded.
struct BlockedJob {
    active: Active,
    seq: u64,
}

/// Everything a worker thread needs, bundled for the spawn closure.
pub(crate) struct WorkerCtx {
    pub(crate) index: usize,
    pub(crate) cfg: WorkerConfig,
    pub(crate) vm_config: Arc<VmConfig>,
    pub(crate) injector: Arc<Injector>,
    pub(crate) queues: Arc<Vec<StealQueue>>,
    pub(crate) counters: Arc<PoolCounters>,
    /// This worker's reactor, installed at build (taken by `run`).
    pub(crate) reactor: Option<ReactorCore>,
    /// Accepted connections the shared-listener acceptor routed here.
    pub(crate) conns: Arc<Vec<ConnQueue>>,
    /// Pool-wide id counter for connection-handler jobs (high-bit range,
    /// disjoint from submitted JobIds).
    pub(crate) next_conn: Arc<std::sync::atomic::AtomicU64>,
    pub(crate) report_tx: mpsc::Sender<WorkerReport>,
    /// The `VmStats` and code objects of the VMs this worker retired.
    pub(crate) retired: Cell<(VmStats, u64)>,
}

impl WorkerCtx {
    /// This worker's share of the pool's counters.
    fn tally(&self) -> &Tally {
        &self.counters.workers[self.index]
    }

    /// Folds a VM being replaced after a panic, or the last one at
    /// shutdown, into what the worker reports.
    fn retire(&self, vm: &Vm) {
        let (stats, code_objects) = self.retired.get();
        let linked = vm.code_object_count() as u64;
        self.retired.set((stats.plus(&vm.stats()), code_objects + linked));
    }
}

pub(crate) fn run(mut ctx: WorkerCtx) {
    let mut reactor = ctx.reactor.take().expect("reactor installed at build");
    let ctx = ctx;
    let mut host = build_host(&ctx);
    let mut ready: VecDeque<Active> = VecDeque::new();
    let mut blocked: HashMap<u64, BlockedJob> = HashMap::new();
    let mut next_seq: u64 = 0;

    // The supervisor loop: serve() runs until drained (Ok) or a panic
    // escapes the per-slice isolation (Err). On a panic the worker does
    // not die — the supervisor fails the residents transiently, clears
    // the reactor, rebuilds the VM, and re-enters serve() on the same
    // queues.
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve(&ctx, &mut host, &mut reactor, &mut ready, &mut blocked, &mut next_seq)
        }));
        match outcome {
            Ok(()) => break,
            Err(payload) => {
                let culprit = payload
                    .downcast_ref::<SupervisedKill>()
                    .map(|k| k.culprit)
                    .unwrap_or(JobId(u64::MAX));
                supervise_restart(&ctx, &mut host, &mut reactor, &mut ready, &mut blocked, culprit);
            }
        }
    }

    ctx.retire(host.vm());
    let t = ctx.tally().snapshot();
    let (vm, code_objects) = ctx.retired.get();
    let report = WorkerReport {
        worker: ctx.index,
        jobs_ok: t.completed,
        jobs_failed: t.failed,
        slices: t.slices,
        retries: t.retried,
        worker_restarts: t.worker_restarts,
        vm,
        code_objects,
    };
    // The pool may already have given up on us (shutdown timeout); a dead
    // receiver is not our problem.
    let _ = ctx.report_tx.send(report);
}

/// The serve loop proper (the whole pre-supervision worker loop): drains
/// queues, steps residents, and harvests reactor wakeups until the pool
/// shuts down. Returns when the worker may exit; panics escalate to the
/// supervisor in [`run`].
fn serve(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut ReactorCore,
    ready: &mut VecDeque<Active>,
    blocked: &mut HashMap<u64, BlockedJob>,
    next_seq: &mut u64,
) {
    let mut wakeups: Vec<Wakeup> = Vec::new();
    let mut fd_log: Vec<i32> = Vec::new();
    // Slices left to run before the next between-slices harvest.
    let mut slices_to_harvest: usize = 0;

    loop {
        // Wakeups harvested from our reactor first: a resumed job
        // re-enters the ready ring as an ordinary engine resumption.
        process_wakeups(ctx, host, &mut wakeups, ready, blocked);

        // Adopt accepted connections the shared listener routed here,
        // capacity permitting: each becomes a resident handler job.
        intake_conns(ctx, host, reactor, ready, blocked);

        // Admit at most one new job per iteration: a started job is
        // pinned to this VM, so surplus work stays in the stealable stash
        // where an idle peer can still take it. The resident set fills
        // gradually — one admission per slice — up to the cap, which
        // counts blocked residents too: each holds a sealed stack segment
        // in this VM's heap.
        if ready.len() + blocked.len() < ctx.cfg.resident_cap {
            if let Some(job) = acquire(ctx) {
                admit(ctx, host, reactor, job, ready, blocked);
            }
        }

        if let Some(active) = ready.pop_front() {
            let parked = step_active(ctx, host, reactor, active, ready, blocked);
            // The slice may have closed sockets: cancel the waits other
            // green threads still hold on them (the resumed retry raises
            // io-error instead of wedging) *before* this slice's own wait
            // registers — its fd number may be a closed one recycled. An
            // injected would-block's readiness is handed back before that
            // wait registers too, so the registration finds it pending.
            sweep_fd_logs(ctx, host, reactor, &mut wakeups, &mut fd_log);
            if let Some((active, wait)) = parked {
                block_job(ctx, host, reactor, active, wait, ready, blocked, next_seq);
            }
            // One nonblocking harvest per ready batch, not per slice. An
            // emptied ring needs none: the idle path below asks the
            // reactor next, and waits there if nothing is due.
            slices_to_harvest = slices_to_harvest.saturating_sub(1);
            if slices_to_harvest == 0 && !ready.is_empty() {
                harvest(ctx, reactor, Duration::ZERO, &mut wakeups);
                slices_to_harvest = (ready.len() + wakeups.len()).min(HARVEST_EVERY_MAX);
            }
            continue;
        }

        // Nothing runnable. If residents are parked on I/O or timers,
        // wait on our own reactor — readiness, a due deadline, or a
        // wake-pipe ring (new submission, accepted connection, shutdown)
        // all interrupt it. Blocked jobs finish (or hit their deadlines)
        // before the worker may exit.
        if reactor.has_waits() {
            harvest(ctx, reactor, IDLE_WAIT, &mut wakeups);
            slices_to_harvest = wakeups.len().min(HARVEST_EVERY_MAX);
            continue;
        }
        match ctx.injector.pop_wait(IDLE_WAIT) {
            Popped::Job(job) => {
                admit(ctx, host, reactor, job, ready, blocked);
            }
            Popped::TimedOut => continue,
            Popped::Drained => {
                if let Some(job) = acquire(ctx) {
                    admit(ctx, host, reactor, job, ready, blocked);
                    continue;
                }
                if !ctx.conns[ctx.index].is_empty() {
                    continue; // drain remaining accepted connections
                }
                debug_assert!(blocked.is_empty(), "blocked residents imply reactor waits");
                break;
            }
        }
    }
}

/// The supervisor's restart path: a panic escaped [`serve`]. The reactor
/// forgets every wait, deleting each fd it knows from its epoll instance
/// while the old VM's sockets are still open; then residents are failed
/// and the VM replaced as after any panic ([`reset_vm`]), which closes
/// them. The instance and its wake pipe stay, so the acceptor's and the
/// pool's wake handles stay valid.
fn supervise_restart(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut ReactorCore,
    ready: &mut VecDeque<Active>,
    blocked: &mut HashMap<u64, BlockedJob>,
    culprit: JobId,
) {
    ctx.tally().worker_restarts.add(1);
    reactor.forget_all();
    reset_vm(ctx, host, ready, blocked, culprit);
}

/// Fails every resident — ready *and* blocked — of a poisoned VM with the
/// transient `WorkerReset`, then replaces the VM. WorkerReset is transient
/// by definition (the lost job did nothing wrong), so with retries enabled
/// a submitted job goes around again on the rebuilt VM; a connection
/// handler fails outright inside `fail_or_retry` (no host is passed: its
/// socket is closed with the rest of the old VM's table, so the peer sees
/// a reset, and there is nothing to retry against). The caller has
/// already made the reactor forget the old VM's still-open fds.
fn reset_vm(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    ready: &mut VecDeque<Active>,
    blocked: &mut HashMap<u64, BlockedJob>,
    culprit: JobId,
) {
    for lost in ready.drain(..).chain(blocked.drain().map(|(_, b)| b.active)) {
        let err = Error::worker_reset(culprit);
        fail_or_retry(ctx, None, &lost.job, lost.slices, lost.fuel_used, err);
    }
    // Salvage the poisoned VM's counters, then replace it wholesale; the
    // interpreter state under an unwound panic is unknown, the stats
    // fields are plain counters.
    ctx.retire(host.vm());
    *host = build_host(ctx);
    ctx.tally().vm_rebuilds.add(1);
}

/// A fresh engine host on a VM built from the pool's configuration
/// (resource guards, fault plan, probes). The fault plan is armed only
/// after the host's boot libraries load: a dense plan must not be able to
/// kill a worker before it can serve — injected faults target jobs.
fn build_host(ctx: &WorkerCtx) -> EngineHost {
    let mut cfg = (*ctx.vm_config).clone();
    let plan = cfg.fault_plan.take();
    let mut host = EngineHost::with_vm(Vm::builder().config(cfg).build());
    if let Some(plan) = plan {
        host.vm_mut().arm_fault_plan(&plan);
    }
    host
}

/// Asks the reactor for due wakeups, waiting up to `max_wait`, and notes
/// the delivery metrics (`io_wakeups`, per-worker resume-batch highwater).
fn harvest(ctx: &WorkerCtx, reactor: &mut ReactorCore, max_wait: Duration, out: &mut Vec<Wakeup>) {
    let n = reactor.wait(max_wait, out);
    if n > 0 {
        ctx.tally().io_wakeups.add(n as u64);
        ctx.counters.note_resume_depth(ctx.index, out.len());
        ctx.counters.add_lateness(&reactor.take_lateness());
    }
    let injected = reactor.take_faults_injected();
    if injected > 0 {
        ctx.tally().io_faults_injected.add(injected);
    }
}

/// The per-slice sweep of the VM's fd logs: cancels reactor waits on —
/// and forgets the reactor's entry for — any fd the guest closed since the
/// last sweep, delivering the cancelled waits' wakeups into `out`; then
/// hands back the readiness of any fd an injected would-block left ready.
fn sweep_fd_logs(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut ReactorCore,
    out: &mut Vec<Wakeup>,
    buf: &mut Vec<i32>,
) {
    buf.clear();
    host.vm_mut().drain_closed_fds(buf);
    let before = out.len();
    for &fd in buf.iter() {
        reactor.cancel_fd(fd, out);
    }
    let n = out.len() - before;
    if n > 0 {
        ctx.tally().io_wakeups.add(n as u64);
    }
    buf.clear();
    host.vm_mut().drain_owed_fds(buf);
    for &fd in buf.iter() {
        reactor.owe_readiness(fd);
    }
}

/// Moves woken jobs from the blocked map back to the ready ring. Stale
/// wakeups (unknown job, mismatched generation) are dropped; a woken job
/// already past its wall-clock deadline is failed here instead of resumed
/// — this is what bounds a peer that never answers.
fn process_wakeups(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    wakeups: &mut Vec<Wakeup>,
    ready: &mut VecDeque<Active>,
    blocked: &mut HashMap<u64, BlockedJob>,
) {
    if wakeups.is_empty() {
        return;
    }
    let now = Instant::now();
    for (job_id, seq, kind) in wakeups.drain(..) {
        let stale = match blocked.get(&job_id) {
            None => true,
            Some(b) => b.seq != seq,
        };
        if stale {
            continue;
        }
        let mut b = blocked.remove(&job_id).expect("checked above");
        if b.active.job.deadline.is_some_and(|d| d <= now) {
            host.drop_engine(b.active.engine);
            deliver_failure(
                ctx,
                Some(&mut *host),
                &b.active.job,
                b.active.slices,
                b.active.fuel_used,
                Error::deadline_exceeded(),
            );
        } else {
            if kind == WakeKind::IoTimeout {
                // The connection's I/O deadline expired before readiness:
                // resume the guest with the io-timeout status, which the
                // blocking shims turn into the catchable condition.
                ctx.tally().io_timeouts.add(1);
                b.active.resume_status = Some("io-timeout");
            }
            ready.push_back(b.active);
        }
    }
}

/// Adopts accepted connections routed to this worker by the shared
/// listener, capacity permitting: each connection's stream enters the
/// VM's socket table and a handler job (the template compiled once by
/// [`Pool::serve`](crate::Pool::serve)) is spawned to `(conn-take)` it.
fn intake_conns(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut ReactorCore,
    ready: &mut VecDeque<Active>,
    blocked: &mut HashMap<u64, BlockedJob>,
) {
    while ready.len() + blocked.len() < ctx.cfg.resident_cap {
        let Some((stream, tmpl)) = ctx.conns[ctx.index].pop() else { return };
        match host.vm_mut().adopt_stream(stream) {
            Ok(token) => {
                ctx.counters.note_accept(ctx.index);
                let id = (1 << 63) | ctx.next_conn.fetch_add(1, Ordering::Relaxed);
                let job = tmpl.make_job(id, token);
                admit(ctx, host, reactor, job, ready, blocked);
            }
            Err(_) => {
                // Socket table full: shed the connection (the peer sees
                // EOF/reset) rather than wedge the worker.
                ctx.tally().accept_overflow.add(1);
            }
        }
    }
}

/// Next unstarted job, by locality: own stash, then the injector (grabbing
/// a batch), then stealing the oldest unpinned job from a peer.
fn acquire(ctx: &WorkerCtx) -> Option<Job> {
    if let Some(job) = ctx.queues[ctx.index].pop() {
        return Some(job);
    }
    if let Some(job) = ctx.injector.try_pop() {
        for _ in 1..GRAB_BATCH {
            match ctx.injector.try_pop() {
                Some(extra) => ctx.queues[ctx.index].push(extra),
                None => break,
            }
        }
        return Some(job);
    }
    for offset in 1..ctx.queues.len() {
        let victim = (ctx.index + offset) % ctx.queues.len();
        if let Some(job) = ctx.queues[victim].steal() {
            ctx.tally().steals.add(1);
            return Some(job);
        }
    }
    None
}

/// Registers a job as an engine. Runs no user code yet, but is still
/// panic-isolated: a defect while linking must not take the worker down.
fn admit(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut ReactorCore,
    job: Job,
    ready: &mut VecDeque<Active>,
    blocked: &mut HashMap<u64, BlockedJob>,
) {
    // A connection handler's program is its serve template's, shared by
    // every connection: linked once per VM. A submitted job's is its own.
    let spawned = catch_unwind(AssertUnwindSafe(|| match job.conn_token {
        Some(_) => host.spawn_shared(&job.prog),
        None => host.spawn_program(&job.prog),
    }));
    match spawned {
        Ok(Ok(engine)) => {
            ready.push_back(Active { job, engine, slices: 0, fuel_used: 0, resume_status: None });
        }
        Ok(Err(e)) => {
            let err = Error::vm(e.with_context(job.id.0, ctx.index as u32));
            fail_or_retry(ctx, Some(host), &job, 0, 0, err);
        }
        Err(payload) => {
            handle_panic(ctx, host, reactor, &job, 0, 0, ready, blocked, panic_message(payload));
        }
    }
}

/// Runs one fuel slice of a started job. A job that suspended on I/O or
/// a timer is handed back with its wait, for the caller to park once the
/// slice's closed fds are swept.
fn step_active(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut ReactorCore,
    mut active: Active,
    ready: &mut VecDeque<Active>,
    blocked: &mut HashMap<u64, BlockedJob>,
) -> Option<(Active, Wait)> {
    let remaining = active.job.fuel_budget.saturating_sub(active.fuel_used);
    let refusal = if active.job.deadline.is_some_and(|d| d <= Instant::now()) {
        Some(Error::deadline_exceeded())
    } else if remaining == 0 {
        ctx.tally().timed_out.add(1);
        Some(Error::fuel_exhausted(active.job.fuel_budget, active.fuel_used))
    } else {
        None
    };
    if let Some(err) = refusal {
        host.drop_engine(active.engine);
        let Active { job, slices, fuel_used, .. } = &active;
        deliver_failure(ctx, Some(host), job, *slices, *fuel_used, err);
        return None;
    }
    let slice = ctx.cfg.fuel_slice.min(remaining);
    let engine = active.engine;
    let status = active.resume_status.take();
    let stepped = catch_unwind(AssertUnwindSafe(|| host.step_with_status(engine, slice, status)));
    // Nothing reads what a job displays; dropping the buffer with its
    // capacity keeps a long-lived worker from holding all of it.
    drop(host.vm_mut().take_output());
    // The slice is charged to the job however it ended; a slice that
    // panicked is not counted as run.
    active.slices += 1;
    active.fuel_used += slice;
    if stepped.is_ok() {
        ctx.tally().slices.add(1);
    }
    let Active { job, slices, fuel_used, .. } = &active;
    match stepped {
        Ok(Ok(EngineStep::Done(value))) => {
            let shown = host.vm().write_value(&value);
            ctx.tally().completed.add(1);
            job.deliver(ctx.index, *slices, *fuel_used, Ok(shown));
        }
        Ok(Ok(EngineStep::Parked)) => {
            ctx.tally().requeues.add(1);
            ready.push_back(active);
        }
        Ok(Ok(EngineStep::Blocked(wait))) => return Some((active, wait)),
        Ok(Err(e)) => {
            let err = Error::vm(e.with_context(job.id.0, ctx.index as u32));
            fail_or_retry(ctx, Some(host), job, *slices, *fuel_used, err);
        }
        Err(payload) => {
            let message = panic_message(payload);
            handle_panic(ctx, host, reactor, job, *slices, *fuel_used, ready, blocked, message);
        }
    }
    None
}

/// Parks a job whose engine suspended on I/O or a timer: registers the
/// wait with this worker's reactor (a direct call — no message, no
/// cross-thread handoff) and moves the job to the blocked map. The sealed
/// continuation stays in the engine table untouched — suspension costs
/// one table insert and one registration, never a stack copy.
#[allow(clippy::too_many_arguments)]
fn block_job(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut ReactorCore,
    active: Active,
    wait: Wait,
    ready: &mut VecDeque<Active>,
    blocked: &mut HashMap<u64, BlockedJob>,
    next_seq: &mut u64,
) {
    *next_seq += 1;
    let seq = *next_seq;
    let job_id = active.job.id.0;
    match wait {
        Wait::Readable(tok) | Wait::Writable(tok) => {
            let Some(fd) = host.vm().net_fd(tok) else {
                // Stale socket token (closed by another green thread):
                // resume immediately so the retried operation raises the
                // guest-level io-error instead of wedging forever.
                ready.push_back(active);
                return;
            };
            let write = matches!(wait, Wait::Writable(_));
            // The connection-level I/O deadline: a fresh window per wait
            // (per suspension), unlike the job deadline which is absolute.
            let io_deadline = active.job.io_timeout.map(|t| Instant::now() + t);
            if !reactor.register_io(job_id, seq, fd as i32, write, active.job.deadline, io_deadline)
            {
                // The kernel refused the registration (the fd went stale
                // under us): same immediate-retry treatment.
                ready.push_back(active);
                return;
            }
            ctx.tally().io_blocked.add(1);
        }
        Wait::TimerMs(ms) => {
            ctx.tally().timer_waits.add(1);
            let mut deadline = Instant::now() + Duration::from_millis(ms.max(0) as u64);
            if let Some(d) = active.job.deadline {
                // Wake at the job deadline if it lands first; the wakeup
                // path turns the early wake into DeadlineExceeded.
                deadline = deadline.min(d);
            }
            reactor.register_timer(job_id, seq, deadline);
        }
    }
    blocked.insert(job_id, BlockedJob { active, seq });
    ctx.tally().blocked_highwater.raise(blocked.len() as u64);
}

/// A job panicked: report it, fail every other job whose continuation
/// lived in the now-poisoned VM, rebuild, keep draining. Blocked jobs
/// cannot be retried in place; their reactor waits are forgotten
/// wholesale while their sockets are still open (they die with the VM),
/// and any late delivery would be dropped by the stale `seq` anyway.
#[allow(clippy::too_many_arguments)]
fn handle_panic(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut ReactorCore,
    culprit: &Job,
    slices: u64,
    fuel_used: u64,
    ready: &mut VecDeque<Active>,
    blocked: &mut HashMap<u64, BlockedJob>,
    message: String,
) {
    ctx.tally().panicked.add(1);
    let kill_worker = message.contains(KILL_WORKER_PANIC);
    deliver_failure(ctx, None, culprit, slices, fuel_used, Error::panicked(message));
    if kill_worker {
        // Escalate past the in-place VM rebuild to the worker supervisor:
        // the culprit is failed here (we know its attribution), then we
        // unwind out of serve() so the supervisor restarts the whole
        // worker — VM, reactor waits, residents — through one code path.
        std::panic::resume_unwind(Box::new(SupervisedKill { culprit: culprit.id }));
    }
    reactor.forget_all();
    reset_vm(ctx, host, ready, blocked, culprit.id);
}

/// Requeues a transiently failed job for another attempt — bounded by the
/// pool's retry budget, with a small exponential backoff — or delivers the
/// failure. A retried job restarts from its compiled program (its engine
/// state is gone), keeping only the attempt count.
fn fail_or_retry(
    ctx: &WorkerCtx,
    host: Option<&mut EngineHost>,
    job: &Job,
    slices: u64,
    fuel_used: u64,
    err: Error,
) {
    // Connection handlers are never retried: the first attempt consumed
    // the adopted socket's state (conn-take, partial reads), so a rerun
    // could only fail differently.
    if job.conn_token.is_none() && err.transient() && job.attempts < ctx.cfg.max_retries {
        let mut retry = job.clone();
        retry.attempts += 1;
        // 2ms, 4ms, ... capped at 32ms: enough for transient heap pressure
        // to clear without parking the worker for long.
        std::thread::sleep(Duration::from_millis(1u64 << retry.attempts.min(5)));
        ctx.tally().retried.add(1);
        ctx.queues[ctx.index].push(retry);
    } else {
        deliver_failure(ctx, host, job, slices, fuel_used, err);
    }
}

/// Delivers a job's failure, first scrapping a failed connection handler's
/// adopted socket when the VM is still alive: the peer must see a close,
/// not a wedge, and the socket table must not leak. (Callers on a
/// VM-rebuild path pass `None`; dropping the old VM closes its whole
/// table.) The sockets the job opened itself closed when its engine was
/// dropped. The closed fds reach the reactor through the normal
/// `drain_closed_fds` sweep.
fn deliver_failure(
    ctx: &WorkerCtx,
    host: Option<&mut EngineHost>,
    job: &Job,
    slices: u64,
    fuel_used: u64,
    err: Error,
) {
    if let (Some(host), Some(token)) = (host, job.conn_token) {
        host.vm_mut().close_socket(token);
    }
    ctx.tally().failed.add(1);
    job.deliver(ctx.index, slices, fuel_used, Err(err));
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
