//! The worker loop: one OS thread, one VM, many engine-fueled jobs, and
//! the worker's own reactor. A job is in exactly one place: the ready
//! ring, or parked in this worker's [`ReactorCore`] with its wait. A job
//! that blocks moves into the reactor; the reactor moves it back out once
//! — readiness, a deadline, a closed fd — and it rejoins the ready ring as
//! an ordinary engine resumption without ever leaving the thread.
//!
//! The loop runs under a supervisor, the worker's one answer to a panic.
//! A job is one of the paper's continuation-based threads, and all of its
//! progress lives in one-shot continuations sealed in this worker's VM, so
//! a panic anywhere in the loop poisons every resident at once. Each VM
//! call made for one job — the link and spawn that admit it, or one of
//! its slices — runs with that job moved into the in-flight slot `run`
//! owns. When the serve loop unwinds, the supervisor fails the job in that
//! slot, if any, as `Panicked`; takes every parked job back from the
//! reactor; fails the residents with the transient `WorkerReset` taxonomy
//! (so the retry/backoff path resubmits them); and rebuilds the VM. The
//! epoll instance and its wake pipe survive, so the pool's existing
//! [`WakeHandle`](crate::reactor::WakeHandle)s keep ringing, and the
//! worker re-enters the loop still serving its inbox.
//!
//! A job leaves its worker one way, through [`end`], however it ends:
//! done, refused for fuel or its deadline, failed in a slice or at spawn,
//! or lost to a panic. `end` gives back what the job holds in the VM — its
//! engine, and a connection handler's adopted socket — and then retries a
//! transient failure or delivers the outcome.
//!
//! Work reaches a worker from exactly two places, and an idle worker
//! sleeps in exactly one. Unstarted unpinned jobs wait in the shared
//! [`Injector`] until a worker with room admits one; everything bound to
//! this worker — pinned jobs, its own retries, accepted connections —
//! waits in its [`Inbox`]. With nothing runnable, the worker sleeps in its
//! reactor until readiness, a deadline or a wake-pipe ring: an inbox push
//! rings its worker, an injector push rings one worker asleep with room.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use oneshot_threads::{EngineHost, EngineId, EngineStep, Wait};
use oneshot_vm::{ConditionKind, Vm, VmConfig, VmStats};

use crate::error::Error;
use crate::job::Job;
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

/// The job a VM call is being made for — the link and spawn that admit
/// it, or one of its slices — with the slices and fuel charged to it, that
/// slice included. The caller moves it into the slot `run` owns for the
/// length of the call and back out after it, so that if the call panics
/// the supervisor knows whom to fail as `Panicked`.
struct InFlight {
    job: Job,
    slices: u64,
    fuel_used: u64,
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
    /// The pool's job-id counter, shared with [`Pool::submit`](crate::Pool::submit):
    /// a connection handler takes its id when its worker adopts the
    /// connection.
    pub(crate) next_job: Arc<AtomicU64>,
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
    let mut in_flight: Option<InFlight> = None;

    // The supervisor loop: serve() runs until drained (Ok) or a panic
    // unwinds out of it (Err). The worker does not die: the next round
    // recovers and re-enters serve() on the same queues. Recovery runs
    // inside the catch too, so a completion callback that panics while a
    // failure is delivered starts one more recovery instead of killing
    // the thread.
    let mut unwound = None;
    loop {
        let served = catch_unwind(AssertUnwindSafe(|| {
            if let Some(payload) = unwound.take() {
                recover(
                    &ctx,
                    &mut host,
                    &mut reactor,
                    &mut ready,
                    &mut wakeups,
                    &mut in_flight,
                    payload,
                );
            }
            serve(&ctx, &mut host, &mut reactor, &mut ready, &mut wakeups, &mut in_flight)
        }));
        match served {
            Ok(()) => break,
            Err(payload) => unwound = Some(payload),
        }
    }

    ctx.retire(host.vm());
    let (vm, code_objects) = ctx.retired.get();
    let report =
        WorkerReport { worker: ctx.index, counters: ctx.tally().snapshot(), vm, code_objects };
    // The pool may already have given up on us (shutdown timeout); a dead
    // receiver is not our problem.
    let _ = ctx.report_tx.send(report);
}

/// The serve loop proper: admits work, steps residents, and harvests
/// reactor wakeups until the pool shuts down. Returns when the worker may
/// exit; a panic unwinds to the supervisor in [`run`].
fn serve(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    ready: &mut VecDeque<Active>,
    wakeups: &mut Vec<Woken>,
    in_flight: &mut Option<InFlight>,
) {
    let mut fd_log: Vec<i32> = Vec::new();
    // Slices left to run before the next between-slices harvest.
    let mut slices_to_harvest: usize = 0;

    loop {
        // Wakeups harvested from our reactor first: a resumed job
        // re-enters the ready ring as an ordinary engine resumption.
        process_wakeups(ctx, wakeups, ready);

        // Work bound to this worker runs ahead of the shared queue: the
        // inbox is drained in one go, up to the resident cap (which counts
        // parked residents too: each holds a sealed stack segment in this
        // VM's heap). Then at most one injector job per iteration, so the
        // resident set fills from the injector one job per slice, and
        // only while no peer sits empty; surplus work stays in the
        // injector, where an idle peer takes it first.
        drain_inbox(ctx, host, reactor, in_flight, ready);
        if ctx.may_admit(ready.len() + reactor.len()) {
            if let Some(job) = ctx.injector.try_pop() {
                admit(ctx, host, in_flight, job, ready);
            }
        }
        let me = &ctx.presence[ctx.index];
        me.residents.store(ready.len() + reactor.len(), Ordering::Relaxed);

        if let Some(active) = ready.pop_front() {
            let parked = step_active(ctx, host, in_flight, active, ready);
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

/// The supervisor's answer to a panic. The job in flight, if any, fails
/// as `Panicked` with the slices and fuel charged to it. Every other
/// resident of the poisoned VM — ready, woken *and* parked — fails with
/// the transient `WorkerReset` naming that culprit (`None` when the panic
/// came from outside any job's VM call). Then the VM is replaced. The
/// reactor hands back every parked job and deletes each fd it knows from
/// its epoll instance while the old VM's sockets are still open; the
/// instance and its wake pipe stay, so the acceptor's and the pool's wake
/// handles stay valid. WorkerReset is transient by definition (the lost
/// job did nothing wrong), so with retries enabled a submitted job goes
/// around again on the rebuilt VM; a connection handler fails outright in
/// [`end`] (no host is passed: its engine and socket go with the old VM's
/// heap and table, so the peer sees a reset, and there is nothing to
/// retry against).
fn recover(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    reactor: &mut Reactor,
    ready: &mut VecDeque<Active>,
    wakeups: &mut Vec<Woken>,
    in_flight: &mut Option<InFlight>,
    payload: Box<dyn Any + Send>,
) {
    let culprit = in_flight.take().map(|InFlight { job, slices, fuel_used }| {
        ctx.tally().panicked.add(1);
        let id = job.id;
        end(ctx, None, job, None, slices, fuel_used, Err(Error::panicked(panic_message(payload))));
        id
    });
    reactor.forget_all(wakeups);
    ready.extend(wakeups.drain(..).map(|(active, _)| active));
    // One at a time off the ring: a completion callback that panics leaves
    // the rest for the next round of recovery.
    while let Some(Active { job, slices, fuel_used, .. }) = ready.pop_front() {
        end(ctx, None, job, None, slices, fuel_used, Err(Error::worker_reset(culprit)));
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
/// already past its wall-clock deadline is refused by [`step_active`]
/// when its turn comes, never resumed — this is what bounds a peer that
/// never answers.
fn process_wakeups(ctx: &WorkerCtx, wakeups: &mut Vec<Woken>, ready: &mut VecDeque<Active>) {
    for (mut active, kind) in wakeups.drain(..) {
        if kind == WakeKind::IoTimeout {
            // The connection's I/O deadline expired before readiness:
            // resume the guest with the io-timeout status, which the
            // blocking shims turn into the catchable condition.
            ctx.tally().io_timeouts.add(1);
            active.resume_status = Some(ConditionKind::IoTimeout.name());
        }
        ready.push_back(active);
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
    in_flight: &mut Option<InFlight>,
    ready: &mut VecDeque<Active>,
) {
    while ready.len() + reactor.len() < ctx.cfg.resident_cap {
        let job = match ctx.inbox().pop() {
            None => return,
            Some(Entry::Job(job)) => job,
            Some(Entry::Conn(stream, tmpl)) => match host.vm_mut().adopt_stream(stream) {
                Ok(token) => {
                    ctx.counters.note_accept(ctx.index);
                    tmpl.make_job(ctx.next_job.fetch_add(1, Ordering::Relaxed), token)
                }
                Err(_) => {
                    // Socket table full: shed the connection (the peer
                    // sees EOF/reset) rather than wedge the worker.
                    ctx.tally().accept_overflow.add(1);
                    continue;
                }
            },
        };
        admit(ctx, host, in_flight, job, ready);
    }
}

/// Registers a job as an engine. Runs no user code yet, but links it, so
/// the job is in flight: a defect while linking fails this job as the
/// culprit.
fn admit(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    in_flight: &mut Option<InFlight>,
    job: Job,
    ready: &mut VecDeque<Active>,
) {
    // A connection handler's program is its serve template's, shared by
    // every connection: linked once per VM. A submitted job's is its own.
    let run = in_flight.insert(InFlight { job, slices: 0, fuel_used: 0 });
    let spawned = match run.job.conn_token {
        Some(_) => host.spawn_shared(&run.job.prog),
        None => host.spawn_program(&run.job.prog),
    };
    let job = in_flight.take().expect("only the supervisor empties the slot").job;
    match spawned {
        Ok(engine) => {
            ready.push_back(Active { job, engine, slices: 0, fuel_used: 0, resume_status: None });
        }
        Err(e) => {
            let err = Error::vm(e, job.id, ctx.index);
            end(ctx, Some(host), job, None, 0, 0, Err(err));
        }
    }
}

/// Runs one fuel slice of a started job. A job that suspended on I/O or
/// a timer is handed back with its wait, for the caller to park once the
/// slice's closed fds are swept.
fn step_active(
    ctx: &WorkerCtx,
    host: &mut EngineHost,
    in_flight: &mut Option<InFlight>,
    active: Active,
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
    let Active { job, engine, slices, fuel_used, resume_status } = active;
    if let Some(err) = refusal {
        end(ctx, Some(host), job, Some(engine), slices, fuel_used, Err(err));
        return None;
    }
    let slice = ctx.cfg.fuel_slice.min(remaining);
    // `(conn-take)` in this slice returns this job's own connection.
    host.vm_mut().set_conn_token(job.conn_token);
    // The slice is charged to the job however it ends.
    *in_flight = Some(InFlight { job, slices: slices + 1, fuel_used: fuel_used + slice });
    let stepped = host.step_with_status(engine, slice, resume_status);
    let InFlight { job, slices, fuel_used } =
        in_flight.take().expect("only the supervisor empties the slot");
    // Nothing reads what a job displays; dropping the buffer with its
    // capacity keeps a long-lived worker from holding all of it.
    drop(host.vm_mut().take_output());
    ctx.tally().slices.add(1);
    let result = match stepped {
        Ok(EngineStep::Done(value)) => Ok(host.vm().write_value(&value)),
        Ok(EngineStep::Parked) => {
            ctx.tally().requeues.add(1);
            ready.push_back(Active { job, engine, slices, fuel_used, resume_status: None });
            return None;
        }
        Ok(EngineStep::Blocked(wait)) => {
            return Some((Active { job, engine, slices, fuel_used, resume_status: None }, wait));
        }
        Err(e) => Err(Error::vm(e, job.id, ctx.index)),
    };
    end(ctx, Some(host), job, Some(engine), slices, fuel_used, result);
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
                // Wake at the job deadline if it lands first; the job's
                // next step turns the early wake into DeadlineExceeded.
                deadline = deadline.min(d);
            }
            reactor.register_timer(active, deadline);
        }
    }
    ctx.tally().blocked_highwater.raise(reactor.len() as u64);
}

/// Ends `job` on this worker, however it ended. When the VM lives on
/// (`host` is `Some`), it first drops the job's engine if it is still live
/// — which closes the sockets the job opened itself — and closes a
/// connection handler's adopted socket, so the peer sees a close rather
/// than a wedge and the table does not leak. (A VM being rebuilt takes
/// both with it.) A socket token names one socket, so a handler that
/// closed its connection itself closes nothing here; the closed fds reach
/// the reactor through the next `drain_closed_fds` sweep.
///
/// Then a transient failure is requeued for another attempt — bounded by
/// the pool's retry budget, with a small exponential backoff — and
/// anything else is tallied and delivered. A retried job restarts from
/// its compiled program (its engine state is gone), keeping only the
/// attempt count.
fn end(
    ctx: &WorkerCtx,
    host: Option<&mut EngineHost>,
    mut job: Job,
    engine: Option<EngineId>,
    slices: u64,
    fuel_used: u64,
    result: Result<String, Error>,
) {
    if let Some(host) = host {
        if let Some(engine) = engine {
            host.drop_engine(engine);
        }
        if let Some(token) = job.conn_token {
            host.vm_mut().close_socket(token);
        }
    }
    match result {
        // Connection handlers are never retried: the first attempt
        // consumed the adopted socket's state (conn-take, partial reads),
        // so a rerun could only fail differently.
        Err(err)
            if job.conn_token.is_none()
                && err.transient()
                && job.attempts < ctx.cfg.max_retries =>
        {
            job.attempts += 1;
            // 2ms, 4ms, ... capped at 32ms: enough for transient heap
            // pressure to clear without parking the worker for long.
            std::thread::sleep(Duration::from_millis(1u64 << job.attempts.min(5)));
            ctx.tally().retried.add(1);
            ctx.inbox().push(Entry::Job(job));
        }
        result => {
            let outcomes =
                if result.is_ok() { &ctx.tally().completed } else { &ctx.tally().failed };
            outcomes.add(1);
            job.deliver(ctx.index, slices, fuel_used, result);
        }
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
