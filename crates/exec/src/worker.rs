//! The worker loop: one OS thread, one VM, many engine-fueled jobs, and
//! the worker's own reactor. A job is in exactly one place: the ready
//! ring, or parked in this worker's [`ReactorCore`] with its wait. A job
//! that blocks moves into the reactor; the reactor moves it back out once
//! — readiness, a deadline, a closed fd — and it rejoins the ready ring as
//! an ordinary engine resumption without ever leaving the thread.
//!
//! The loop runs under a supervisor: the serve loop is wrapped in
//! `catch_unwind`, so a panic that escapes the per-slice isolation (a
//! defect in the worker machinery itself, or a guest `debug-panic!` whose
//! message carries [`KILL_WORKER_PANIC`]) does not kill the thread. The
//! supervisor takes every parked job back from the reactor, fails the
//! residents with the transient `WorkerReset` taxonomy (so the
//! retry/backoff path resubmits them) and rebuilds the VM — the epoll
//! instance and its wake pipe survive, so the pool's existing
//! [`WakeHandle`](crate::reactor::WakeHandle)s keep ringing — and
//! re-enters the loop still serving its inbox.
//!
//! Work reaches a worker from exactly two places, and an idle worker
//! sleeps in exactly one. Unstarted unpinned jobs wait in the shared
//! [`Injector`] until a worker with room admits one; everything bound to
//! this worker — pinned jobs, its own retries, accepted connections —
//! waits in its [`Inbox`]. With nothing runnable, the worker sleeps in its
//! reactor until readiness, a deadline or a wake-pipe ring: an inbox push
//! rings its worker, an injector push rings one worker asleep with room.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use oneshot_threads::{EngineHost, EngineId, EngineStep, Wait};
use oneshot_vm::{Vm, VmConfig, VmStats};

use crate::error::Error;
use crate::job::{Job, JobId};
use crate::pool::{PoolCounters, Tally, WorkerConfig, WorkerReport};
use crate::queue::{Entry, Inbox, Injector};
use crate::reactor::{ReactorCore, WakeHandle, WakeKind};

/// This worker's reactor: it holds every parked [`Active`] job.
type Reactor = ReactorCore<Active>;

/// A job the reactor handed back, and why.
type Woken = (Active, WakeKind);

/// How long an idle worker sleeps in its reactor before rechecking both
/// queues. Pure liveness tuning; correctness never depends on it:
/// readiness and due deadlines end the wait directly, and every push rings
/// a worker that can take the work (see the sleep path in `serve`).
const IDLE_WAIT: Duration = Duration::from_millis(25);

/// Most slices a worker runs between two reactor harvests. A harvest
/// covers one revolution of the ready ring (a woken job joins the back,
/// so it could not have run sooner); this bounds the revolution, so a
/// long ring of CPU-bound residents cannot starve I/O and timers.
const HARVEST_EVERY_MAX: usize = 32;

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
/// VM heap, so it can never migrate. Only an unstarted [`Job`] moves
/// between workers, and only by waiting in the injector.
pub(crate) struct Active {
    job: Job,
    engine: EngineId,
    slices: u64,
    fuel_used: u64,
    /// Status symbol for the next resumption: `Some("io-timeout")` after
    /// the job's connection deadline expired while it was blocked, which
    /// resumes the guest into the catchable `io-timeout` condition.
    resume_status: Option<&'static str>,
}

/// What a worker publishes for its peers and for the threads that push
/// work: how many residents it has, and whether it sleeps with room for
/// more.
#[derive(Debug, Default)]
pub(crate) struct Presence {
    /// Residents as of the worker's last admission step; 0 until it has
    /// booted. Relaxed: a stale count only delays an admission by one
    /// iteration, and a sleeping worker's count is exact, since it was
    /// published in the iteration that went to sleep.
    residents: AtomicUsize,
    /// Set while the worker sleeps in its reactor with room for a job,
    /// until it wakes or a producer claims it.
    asleep: AtomicBool,
}

impl Presence {
    fn is_empty(&self) -> bool {
        self.residents.load(Ordering::Relaxed) == 0
    }
}

/// Rings one worker for a job just pushed to the injector: one that
/// sleeps with room, preferring one with no residents, since busy workers
/// leave the injector to those. An awake worker needs no ring: it looks
/// at the injector every iteration.
pub(crate) fn wake_one(presence: &[Presence], wakes: &[WakeHandle]) {
    // Pairs with the fence in the worker's sleep path: either this scan
    // sees the worker asleep, or its last look at the injector sees the
    // push.
    fence(Ordering::SeqCst);
    let claim = |&w: &usize| {
        presence[w].asleep.load(Ordering::SeqCst)
            && presence[w].asleep.swap(false, Ordering::SeqCst)
    };
    let empty = (0..presence.len()).filter(|&w| presence[w].is_empty());
    if let Some(w) = empty.chain(0..presence.len()).find(claim) {
        wakes[w].ring();
    }
}

/// Everything a worker thread needs, bundled for the spawn closure.
pub(crate) struct WorkerCtx {
    pub(crate) index: usize,
    pub(crate) cfg: WorkerConfig,
    pub(crate) vm_config: Arc<VmConfig>,
    pub(crate) injector: Arc<Injector>,
    /// Every worker's inbox; this worker drains `inboxes[index]`.
    pub(crate) inboxes: Arc<Vec<Inbox>>,
    /// Every worker's [`Presence`]; this worker publishes `presence[index]`.
    pub(crate) presence: Arc<Vec<Presence>>,
    pub(crate) counters: Arc<PoolCounters>,
    /// This worker's reactor, installed at build (taken by `run`).
    pub(crate) reactor: Option<Reactor>,
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

    fn inbox(&self) -> &Inbox {
        &self.inboxes[self.index]
    }

    /// Whether this worker, holding `residents`, takes the next injector
    /// job. It needs room; and a started job is bound to this VM, so a
    /// worker that already has residents leaves the injector to any peer
    /// that has none (a booting one, or one that ran out of work).
    fn may_admit(&self, residents: usize) -> bool {
        let empty_peer = || {
            let empty = |(w, p): (usize, &Presence)| w != self.index && p.is_empty();
            self.presence.iter().enumerate().any(empty)
        };
        residents < self.cfg.resident_cap && (residents == 0 || !empty_peer())
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
    // Jobs the reactor handed back and the loop has not yet requeued.
    let mut wakeups: Vec<Woken> = Vec::new();

    // The supervisor loop: serve() runs until drained (Ok) or a panic
    // escapes the per-slice isolation (Err). On a panic the worker does
    // not die — the supervisor fails the residents transiently, clears
    // the reactor, rebuilds the VM, and re-enters serve() on the same
    // queues.
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve(&ctx, &mut host, &mut reactor, &mut ready, &mut wakeups)
        }));
        match outcome {
            Ok(()) => break,
            Err(payload) => {
                let culprit = payload
                    .downcast_ref::<SupervisedKill>()
                    .map(|k| k.culprit)
                    .unwrap_or(JobId(u64::MAX));
                ctx.tally().worker_restarts.add(1);
                ready.extend(wakeups.drain(..).map(|(active, _)| active));
                reset_vm(&ctx, &mut host, &mut reactor, &mut ready, culprit);
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

/// The serve loop proper (the whole pre-supervision worker loop): admits
/// work, steps residents, and harvests reactor wakeups until the pool
/// shuts down. Returns when the worker may exit; panics escalate to the
/// supervisor in [`run`].
fn serve(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    ready: &mut VecDeque<Active>,
    wakeups: &mut Vec<Woken>,
) {
    let mut fd_log: Vec<i32> = Vec::new();
    // Slices left to run before the next between-slices harvest.
    let mut slices_to_harvest: usize = 0;

    loop {
        // Wakeups harvested from our reactor first: a resumed job
        // re-enters the ready ring as an ordinary engine resumption.
        process_wakeups(ctx, host, wakeups, ready);

        // Work bound to this worker runs ahead of the shared queue: the
        // inbox is drained in one go, up to the resident cap (which counts
        // parked residents too: each holds a sealed stack segment in this
        // VM's heap). Then at most one injector job per iteration, so the
        // resident set fills from the injector one job per slice, and
        // only while no peer sits empty; surplus work stays in the
        // injector, where an idle peer takes it first.
        drain_inbox(ctx, host, reactor, ready);
        if ctx.may_admit(ready.len() + reactor.len()) {
            if let Some(job) = ctx.injector.try_pop() {
                admit(ctx, host, reactor, job, ready);
            }
        }
        let me = &ctx.presence[ctx.index];
        me.residents.store(ready.len() + reactor.len(), Ordering::Relaxed);

        if let Some(active) = ready.pop_front() {
            let parked = step_active(ctx, host, reactor, active, ready);
            // The slice may have closed sockets: cancel the waits other
            // green threads still hold on them (the resumed retry raises
            // io-error instead of wedging) *before* this slice's own wait
            // registers — its fd number may be a closed one recycled. An
            // injected would-block's readiness is handed back before that
            // wait registers too, so the registration finds it pending.
            sweep_fd_logs(ctx, host, reactor, wakeups, &mut fd_log);
            if let Some((active, wait)) = parked {
                block_job(ctx, host, reactor, active, wait, ready);
            }
            // One nonblocking harvest per ready batch, not per slice. An
            // emptied ring needs none: the idle path below asks the
            // reactor next, and waits there if nothing is due.
            slices_to_harvest = slices_to_harvest.saturating_sub(1);
            if slices_to_harvest == 0 && !ready.is_empty() {
                harvest(ctx, reactor, Duration::ZERO, wakeups);
                slices_to_harvest = (ready.len() + wakeups.len()).min(HARVEST_EVERY_MAX);
            }
            continue;
        }

        // Nothing runnable. Exit once no work can reach this worker any
        // more: parked jobs finish (or hit their deadlines) first.
        if reactor.len() == 0
            && ctx.injector.is_closed()
            && ctx.injector.depth() == 0
            && ctx.inbox().depth() == 0
        {
            break;
        }
        // Otherwise sleep in our own reactor. Readiness, a due deadline,
        // or a wake-pipe ring all end the wait, and a ring stays pending
        // until a wait drains it. An inbox push always rings us; an
        // injector push rings one worker it finds asleep with room
        // ([`wake_one`]). So with room, say so first and then look at the
        // injector once more: either the producer sees us asleep or we
        // see its job.
        if reactor.len() < ctx.cfg.resident_cap {
            me.asleep.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if ctx.injector.depth() > 0 && ctx.may_admit(reactor.len()) {
                me.asleep.store(false, Ordering::SeqCst);
                continue;
            }
        }
        harvest(ctx, reactor, IDLE_WAIT, wakeups);
        me.asleep.store(false, Ordering::SeqCst);
        slices_to_harvest = wakeups.len().min(HARVEST_EVERY_MAX);
    }
}

/// Fails every resident — ready *and* parked — of a poisoned VM with the
/// transient `WorkerReset`, then replaces the VM. The reactor hands back
/// every parked job and deletes each fd it knows from its epoll instance
/// while the old VM's sockets are still open; the instance and its wake
/// pipe stay, so the acceptor's and the pool's wake handles stay valid.
/// WorkerReset is transient by definition (the lost job did nothing
/// wrong), so with retries enabled a submitted job goes around again on
/// the rebuilt VM; a connection handler fails outright inside
/// `fail_or_retry` (no host is passed: its socket is closed with the rest
/// of the old VM's table, so the peer sees a reset, and there is nothing
/// to retry against).
fn reset_vm(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    ready: &mut VecDeque<Active>,
    culprit: JobId,
) {
    let mut parked = Vec::new();
    reactor.forget_all(&mut parked);
    for lost in ready.drain(..).chain(parked.into_iter().map(|(active, _)| active)) {
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
fn harvest(ctx: &WorkerCtx, reactor: &mut Reactor, max_wait: Duration, out: &mut Vec<Woken>) {
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
/// last sweep, moving the jobs that waited there into `out`; then hands
/// back the readiness of any fd an injected would-block left ready.
fn sweep_fd_logs(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    out: &mut Vec<Woken>,
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

/// Moves the jobs the reactor handed back to the ready ring. A woken job
/// already past its wall-clock deadline is failed here instead of resumed
/// — this is what bounds a peer that never answers.
fn process_wakeups(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    wakeups: &mut Vec<Woken>,
    ready: &mut VecDeque<Active>,
) {
    if wakeups.is_empty() {
        return;
    }
    let now = Instant::now();
    for (mut active, kind) in wakeups.drain(..) {
        if active.job.deadline.is_some_and(|d| d <= now) {
            host.drop_engine(active.engine);
            let Active { job, slices, fuel_used, .. } = &active;
            let err = Error::deadline_exceeded();
            deliver_failure(ctx, Some(&mut *host), job, *slices, *fuel_used, err);
        } else {
            if kind == WakeKind::IoTimeout {
                // The connection's I/O deadline expired before readiness:
                // resume the guest with the io-timeout status, which the
                // blocking shims turn into the catchable condition.
                ctx.tally().io_timeouts.add(1);
                active.resume_status = Some("io-timeout");
            }
            ready.push_back(active);
        }
    }
}

/// Admits this worker's inbox, oldest first, while it has room for
/// residents. A pinned job or retry is admitted as it is; an accepted
/// connection's stream enters the VM's socket table and a handler job
/// (the template compiled once by [`Pool::serve`](crate::Pool::serve)) is
/// spawned to `(conn-take)` it.
fn drain_inbox(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    ready: &mut VecDeque<Active>,
) {
    while ready.len() + reactor.len() < ctx.cfg.resident_cap {
        let job = match ctx.inbox().pop() {
            None => return,
            Some(Entry::Job(job)) => job,
            Some(Entry::Conn(stream, tmpl)) => match host.vm_mut().adopt_stream(stream) {
                Ok(token) => {
                    ctx.counters.note_accept(ctx.index);
                    let id = (1 << 63) | ctx.next_conn.fetch_add(1, Ordering::Relaxed);
                    tmpl.make_job(id, token)
                }
                Err(_) => {
                    // Socket table full: shed the connection (the peer
                    // sees EOF/reset) rather than wedge the worker.
                    ctx.tally().accept_overflow.add(1);
                    continue;
                }
            },
        };
        admit(ctx, host, reactor, job, ready);
    }
}

/// Registers a job as an engine. Runs no user code yet, but is still
/// panic-isolated: a defect while linking must not take the worker down.
fn admit(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    job: Job,
    ready: &mut VecDeque<Active>,
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
            handle_panic(ctx, host, reactor, &job, 0, 0, ready, panic_message(payload));
        }
    }
}

/// Runs one fuel slice of a started job. A job that suspended on I/O or
/// a timer is handed back with its wait, for the caller to park once the
/// slice's closed fds are swept.
fn step_active(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    mut active: Active,
    ready: &mut VecDeque<Active>,
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
    // `(conn-take)` in this slice returns this job's own connection.
    host.vm_mut().set_conn_token(active.job.conn_token);
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
            handle_panic(ctx, host, reactor, job, *slices, *fuel_used, ready, message);
        }
    }
    None
}

/// Parks a job whose engine suspended on I/O or a timer: moves it into
/// this worker's reactor with its wait (a direct call — no message, no
/// cross-thread handoff). The sealed continuation stays in the engine
/// table untouched — suspension costs one slot and one registration,
/// never a stack copy.
fn block_job(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    active: Active,
    wait: Wait,
    ready: &mut VecDeque<Active>,
) {
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
            let deadline = active.job.deadline;
            if let Err(active) =
                reactor.register_io(active, fd as i32, write, deadline, io_deadline)
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
            reactor.register_timer(active, deadline);
        }
    }
    ctx.tally().blocked_highwater.raise(reactor.len() as u64);
}

/// A job panicked: report it, fail every other job whose continuation
/// lived in the now-poisoned VM, rebuild, keep draining. Parked jobs
/// cannot be retried in place; the reactor hands them back while their
/// sockets are still open (they die with the VM).
#[allow(clippy::too_many_arguments)]
fn handle_panic(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    culprit: &Job,
    slices: u64,
    fuel_used: u64,
    ready: &mut VecDeque<Active>,
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
    reset_vm(ctx, host, reactor, ready, culprit.id);
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
        ctx.inbox().push(Entry::Job(retry));
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
