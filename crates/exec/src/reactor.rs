//! Per-worker reactors: each worker owns a [`ReactorCore`] that holds
//! every job *its own* green threads parked, together with the wait each
//! one is parked on.
//!
//! When a job suspends on I/O (`EngineStep::Blocked`), its worker seals
//! the one-shot continuation inside the engine table and moves the job
//! itself into its core — a plain method call, no message, no mutex —
//! and goes on running other jobs. Between slices (and whenever it has
//! nothing runnable) the worker asks the core for due wakeups; readiness,
//! timer expiry, deadline expiry, or a closed fd each move the job back
//! out as a `(job, kind)` pair that the worker turns into an ordinary
//! engine resumption: O(1), no stack copying, no cross-thread
//! resume-queue handoff, exactly the paper's suspension cost model. A job
//! leaves its slot once, so it is handed back at most once — the rule a
//! one-shot continuation needs. The kind distinguishes plain readiness
//! from an expired per-connection I/O deadline (`IoTimeout`), which
//! resumes the guest into the catchable `io-timeout` condition.
//!
//! Readiness comes from `epoll(7)`, raw syscalls in the one audited `sys`
//! module (so the crate is Linux-only). Interest stays registered in the
//! kernel *edge-triggered*, so a wait costs O(ready): per-wake cost stays
//! flat as the blocked population grows.
//!
//! The lifetime-registration contract: the one-shot discipline
//! belongs to the *continuation*, not to the kernel interest set. An fd is
//! registered once, on its first wait, for both directions edge-triggered,
//! and never re-armed or deregistered per wait — a steady-state park costs
//! no `epoll_ctl`. Readiness nobody waits for sets a per-fd *pending bit*
//! (error/hangup set both); `register_io` on a pending direction clears it
//! and delivers on the next `wait()` without blocking it. A bit can be
//! stale — a spurious wake, which every guest I/O loop re-checks — but an
//! edge after the guest's last would-block is never lost: it is still
//! queued in the kernel or already a bit. A wait cancelled by its deadline
//! leaves the fd registered, so late readiness becomes a bit, never a
//! stale delivery: the readiness batch and the deadline heap name a wait
//! by its slab [`Key`], and a resolved wait's key resolves nothing. The
//! kernel drops a closed fd itself; the table entry dies with the
//! closed-fd sweep (`cancel_fd`), which the worker runs *before* it
//! registers a slice's wait, so a registration never meets the entry of a
//! recycled fd number.
//!
//! The only cross-thread piece left is the wake pipe: the pool rings it
//! to interrupt an idle worker's wait (new submission, accepted
//! connection, shutdown). The pipe is drained level-triggered in bounded
//! full passes — read until `EAGAIN`, capped per pass — so any number of
//! rings coalesce into one wakeup and a burst can neither stall the loop
//! nor lose a wake (leftover bytes keep the pipe readable).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oneshot_core::{Key, Slab};
use oneshot_vm::{FaultClock, FaultPlan};

/// Raw epoll(7) bindings. The crate is `#![deny(unsafe_code)]`; this
/// module is the single audited exception, and the only unsafe operations
/// are the syscalls themselves over plain `#[repr(C)]` data.
#[allow(unsafe_code)]
pub(crate) mod sys {
    #[cfg(not(target_os = "linux"))]
    compile_error!("oneshot-exec's reactor is epoll(7): Linux only");

    /// `struct epoll_event` is packed on x86-64 (a kernel ABI quirk);
    /// other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Debug, Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        /// Carries the registered fd back out of `epoll_wait`.
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    /// The peer shut down its write side.
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// Edge-triggered delivery: one event per readiness *edge*.
    pub const EPOLLET: u32 = 1 << 31;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// `errno` value of an interrupted syscall.
    pub const EINTR: i32 = 4;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
        #[link_name = "__errno_location"]
        fn errno_location() -> *mut i32;
    }

    /// The calling thread's `errno`, read immediately after a failed
    /// syscall (epoll_wait returning -1). Thread-local, so nothing between
    /// the syscall and this read may touch libc.
    pub fn errno() -> i32 {
        unsafe { *errno_location() }
    }

    #[cfg(test)]
    thread_local! {
        /// `epoll_ctl` calls this thread has made: the witness that a
        /// steady-state park costs none.
        pub static CTL_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// An owned epoll instance; the fd is closed on drop.
    #[derive(Debug)]
    pub struct EpollFd(i32);

    impl EpollFd {
        /// Creates an epoll instance, or returns the OS error the kernel
        /// refused it with.
        pub fn create() -> std::io::Result<EpollFd> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                Err(std::io::Error::last_os_error())
            } else {
                Ok(EpollFd(fd))
            }
        }

        /// ADD/DEL interest in `fd`. Returns `false` on failure (stale
        /// fd, kernel limit); callers treat a failed ADD as instant
        /// readiness so a wait can never be silently lost.
        pub fn ctl(&self, op: i32, fd: i32, events: u32) -> bool {
            #[cfg(test)]
            CTL_CALLS.with(|n| n.set(n.get() + 1));
            let mut ev = EpollEvent { events, data: fd as u32 as u64 };
            unsafe { epoll_ctl(self.0, op, fd, &mut ev) == 0 }
        }

        /// Waits up to `timeout_ms` (-1 = forever); fills `events` and
        /// returns the ready count, 0 on timeout, negative on EINTR.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> i32 {
            unsafe { epoll_wait(self.0, events.as_mut_ptr(), events.len() as i32, timeout_ms) }
        }
    }

    impl Drop for EpollFd {
        fn drop(&mut self) {
            unsafe {
                close(self.0);
            }
        }
    }
}

/// The reactor's readiness mechanism: edge-triggered `epoll(7)`, the only
/// one. Exists only so the ledger (`benchmark/src/api.rs`) builds
/// unedited; a `benchmark` issue drops the ledger's call, then this name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Edge-triggered `epoll(7)`: O(ready fds) per wake.
    Epoll,
}

impl Backend {
    /// `"epoll"`. Exists only so the ledger builds unedited; a
    /// `benchmark` issue drops the ledger's call, then this name.
    pub fn name(self) -> &'static str {
        "epoll"
    }
}

/// Why a parked job was handed back. `Ready` covers readiness, timers,
/// a closed fd, and job-deadline expiry (the worker's own deadline check
/// turns the last into `DeadlineExceeded`); `IoTimeout` means the wait's
/// per-connection I/O deadline expired before readiness, and the worker
/// resumes the blocked engine with the `io-timeout` status so the guest
/// raises the matching catchable condition. The order matters: on a tie
/// in the deadline heap, a job deadline (`Ready`) comes out first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum WakeKind {
    Ready,
    IoTimeout,
}

/// Upper bounds (milliseconds) of the wake-lateness histogram buckets: a
/// timer delivered within 1 ms of its deadline lands in bucket 0, within
/// 5 ms in bucket 1, and so on; the final bucket is unbounded. Lateness is
/// measured at delivery inside the reactor — it is scheduler lag, before
/// the resumed continuation even runs.
pub const WAKE_LATENESS_BUCKETS_MS: [u64; 5] = [1, 5, 20, 100, 500];

/// Number of histogram buckets (the bounds plus the unbounded tail).
pub(crate) const WAKE_LATENESS_BUCKETS: usize = WAKE_LATENESS_BUCKETS_MS.len() + 1;

/// The bucket a given lateness falls into.
fn lateness_bucket(late: Duration) -> usize {
    let ms = late.as_millis() as u64;
    WAKE_LATENESS_BUCKETS_MS
        .iter()
        .position(|&bound| ms < bound)
        .unwrap_or(WAKE_LATENESS_BUCKETS_MS.len())
}

/// A cheaply-cloneable handle that interrupts a worker's in-flight wait.
/// The pool rings it on submission, accepted connections, and shutdown.
#[derive(Debug, Clone)]
pub(crate) struct WakeHandle {
    tx: Arc<UnixStream>,
}

impl WakeHandle {
    /// Rings the wake pipe. A full pipe already guarantees a pending
    /// wakeup, so WouldBlock is success here.
    pub(crate) fn ring(&self) {
        let _ = (&*self.tx).write(&[1]);
    }
}

/// What a parked job waits on.
#[derive(Debug, Clone, Copy)]
enum On {
    Fd { fd: i32, write: bool },
    Timer,
}

/// The interest every fd is registered with, once, for its lifetime:
/// both directions and peer shutdown, edge-triggered.
const LIFETIME_INTEREST: u32 = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;

/// Direction bits of [`FdEntry::pending`].
const PEND_IN: u8 = 1;
const PEND_OUT: u8 = 2;

/// One row of the fd-indexed table (fds are small dense ints).
#[derive(Debug, Default)]
struct FdEntry {
    /// Whether the epoll set holds this fd.
    registered: bool,
    /// Directions whose readiness arrived while no wait wanted it.
    pending: u8,
    /// The first waiter, inline: a park allocates nothing.
    first: Option<Key>,
    /// Further waiters — a listener shared by several accepting green
    /// threads. Empty (and unallocated) otherwise.
    more: Vec<Key>,
}

impl FdEntry {
    fn add(&mut self, key: Key) {
        match self.first {
            None => self.first = Some(key),
            Some(_) => self.more.push(key),
        }
    }

    fn remove(&mut self, key: Key) {
        if self.first == Some(key) {
            self.first = self.more.pop();
        } else {
            self.more.retain(|&k| k != key);
        }
    }

    fn waiters(&self) -> impl Iterator<Item = Key> + '_ {
        self.first.into_iter().chain(self.more.iter().copied())
    }
}

/// One worker's reactor: every job parked on this worker, the deadlines
/// that bound their waits, and the epoll instance. A parked job lives in
/// the slab until `wait`, `cancel_fd` or `forget_all` moves it back out,
/// so each is handed back at most once. Not shared — the owning
/// worker calls every method, which is what makes delivery handoff-free.
#[derive(Debug)]
pub(crate) struct ReactorCore<T> {
    /// Interest lives here for each fd's lifetime.
    ep: sys::EpollFd,
    /// The reused `epoll_wait` buffer.
    events: Vec<sys::EpollEvent>,
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    /// The parked jobs, each with its wait and keyed by it. A key can
    /// outlive its wait in the readiness batch and in the deadline heap;
    /// once the wait resolves, the key resolves nothing. The slab stays as
    /// large as the most jobs ever parked at once.
    waits: Slab<(T, On)>,
    /// Parked jobs waiting on an fd: with none, and nothing due, a
    /// nonblocking harvest makes no syscall.
    fd_waits: usize,
    /// Per-fd state, indexed by fd number: who waits on it, whether the
    /// epoll set holds it, and its unclaimed readiness.
    fds: Vec<FdEntry>,
    /// Waits resolved but not yet delivered — by `register_io` on a
    /// pending direction, or by an epoll event. One reused buffer.
    ready: Vec<Key>,
    /// Min-heap of every deadline a parked job holds `(when, kind, key)`:
    /// timers and job deadlines (`Ready`) and per-connection I/O deadlines
    /// (`IoTimeout`). Entries are lazy — a wait resolved another way
    /// leaves its entry behind, and the stale key skips it.
    deadlines: BinaryHeap<Reverse<(Instant, WakeKind, Key)>>,
    /// Wake-lateness histogram for delivered timers, drained by the
    /// worker into the pool counters ([`WAKE_LATENESS_BUCKETS_MS`]).
    lateness: [u64; WAKE_LATENESS_BUCKETS],
    /// Jobs whose readiness delivery an injected delay fault deferred,
    /// with the instant each comes due.
    deferred: Vec<(Instant, T)>,
    /// Injected reactor-fault countdowns (chaos testing): a synthetic
    /// `EINTR` before a wait's syscall, a delayed readiness delivery,
    /// and a dropped readiness delivery. Disarmed unless the pool's
    /// fault plan arms them — one countdown branch each per event.
    eintr_fault: FaultClock,
    delay_fault: FaultClock,
    drop_fault: FaultClock,
    /// Reactor-side faults consumed, drained into the pool counters.
    faults_injected: u64,
}

impl<T> ReactorCore<T> {
    /// Builds a core: its wake pipe and its epoll instance, with the pipe
    /// registered. Returns the OS error if either cannot be created.
    pub(crate) fn new() -> std::io::Result<ReactorCore<T>> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let ep = sys::EpollFd::create()?;
        // The wake pipe is registered level-triggered (no EPOLLET): a
        // bounded partial drain must leave it readable, or rings could be
        // lost.
        if !ep.ctl(sys::EPOLL_CTL_ADD, wake_rx.as_raw_fd(), sys::EPOLLIN) {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ReactorCore {
            ep,
            events: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
            wake_rx,
            wake_tx: Arc::new(wake_tx),
            waits: Slab::new(),
            fd_waits: 0,
            fds: Vec::new(),
            ready: Vec::new(),
            deadlines: BinaryHeap::new(),
            lateness: [0; WAKE_LATENESS_BUCKETS],
            deferred: Vec::new(),
            eintr_fault: FaultClock::disarmed(),
            delay_fault: FaultClock::disarmed(),
            drop_fault: FaultClock::disarmed(),
            faults_injected: 0,
        })
    }

    /// Arms the reactor-side fault sites from a plan (the VM-side sites
    /// are armed by `Vm::from_config`). Disarmed sites stay disarmed.
    pub(crate) fn arm_faults(&mut self, plan: &FaultPlan) {
        if let Some(n) = plan.wait_eintr_after {
            self.eintr_fault = FaultClock::arm(n);
        }
        if let Some(n) = plan.readiness_delay_after {
            self.delay_fault = FaultClock::arm(n);
        }
        if let Some(n) = plan.readiness_drop_after {
            self.drop_fault = FaultClock::arm(n);
        }
    }

    /// Returns and resets the reactor-side injected-fault count.
    pub(crate) fn take_faults_injected(&mut self) -> u64 {
        std::mem::take(&mut self.faults_injected)
    }

    /// A handle other threads use to interrupt this core's wait.
    pub(crate) fn wake_handle(&self) -> WakeHandle {
        WakeHandle { tx: Arc::clone(&self.wake_tx) }
    }

    /// Jobs this core holds: parked ones, and ones an injected delay
    /// deferred (only a `wait()` hands those over).
    pub(crate) fn len(&self) -> usize {
        self.waits.len() + self.deferred.len()
    }

    /// Moves the job out of the wait `key` names, dropping the wait from
    /// its fd's waiters — or `None` if that wait was already resolved.
    fn resolve(&mut self, key: Key) -> Option<(T, On)> {
        let (job, on) = self.waits.remove(key)?;
        if let On::Fd { fd, .. } = on {
            self.fd_waits -= 1;
            if let Some(entry) = self.fds.get_mut(fd as usize) {
                entry.remove(key);
            }
        }
        Some((job, on))
    }

    /// Parks `job` on an fd wait (only an fd's *first* wait reaches the
    /// kernel). If the kernel refuses the registration (stale fd, limit),
    /// the job comes straight back as `Err`: the caller must treat it as
    /// instantly ready so the retried guest operation can surface the
    /// real error.
    /// `deadline` is the job's wall-clock deadline (expiry fails the job);
    /// `io_deadline` is the per-connection I/O deadline for *this wait*
    /// (expiry resumes the guest with the catchable `io-timeout`
    /// condition — the idle-timeout/slow-loris bound). Either, both, or
    /// neither may be set.
    pub(crate) fn register_io(
        &mut self,
        job: T,
        fd: i32,
        write: bool,
        deadline: Option<Instant>,
        io_deadline: Option<Instant>,
    ) -> Result<(), T> {
        let Ok(idx) = usize::try_from(fd) else { return Err(job) };
        if self.fds.len() <= idx {
            self.fds.resize_with(idx + 1, FdEntry::default);
        }
        let entry = &mut self.fds[idx];
        if !entry.registered {
            if !self.ep.ctl(sys::EPOLL_CTL_ADD, fd, LIFETIME_INTEREST) {
                return Err(job);
            }
            // ADD reports an already-ready fd, so nothing is owed yet.
            entry.registered = true;
            entry.pending = 0;
        }
        let dir = if write { PEND_OUT } else { PEND_IN };
        let owed = entry.pending & dir != 0;
        entry.pending &= !dir;
        self.fd_waits += 1;
        let key = self.waits.insert((job, On::Fd { fd, write }));
        self.fds[idx].add(key);
        if owed {
            self.ready.push(key);
        }
        if let Some(d) = deadline {
            self.deadlines.push(Reverse((d, WakeKind::Ready, key)));
        }
        // Skip the io-timeout entry when the job deadline is not later:
        // the job deadline would win the tie anyway.
        if let Some(d) = io_deadline {
            if deadline.is_none_or(|jd| d < jd) {
                self.deadlines.push(Reverse((d, WakeKind::IoTimeout, key)));
            }
        }
        Ok(())
    }

    /// Parks `job` on a timer due at `due`.
    pub(crate) fn register_timer(&mut self, job: T, due: Instant) {
        let key = self.waits.insert((job, On::Timer));
        self.deadlines.push(Reverse((due, WakeKind::Ready, key)));
    }

    /// The guest closed `fd`: hands back every job waiting on it — the
    /// resumed retry observes the stale token and raises the guest-level
    /// `io-error` instead of wedging — and clears the fd's entry, so the
    /// next socket to get this number starts unregistered (no syscall:
    /// the kernel drops a closed fd itself, and reports nothing for it).
    pub(crate) fn cancel_fd(&mut self, fd: i32, out: &mut Vec<(T, WakeKind)>) {
        let Some(entry) = usize::try_from(fd).ok().and_then(|i| self.fds.get_mut(i)) else {
            return;
        };
        for key in std::mem::take(entry).waiters() {
            if let Some((job, _)) = self.resolve(key) {
                out.push((job, WakeKind::Ready));
            }
        }
    }

    /// Readiness in `dirs` arrived on `fd`: each waiter for one of those
    /// directions resolves, and a direction no waiter claims becomes a
    /// pending bit.
    fn note_readiness(&mut self, fd: i32, dirs: u8) {
        let Some(entry) = usize::try_from(fd).ok().and_then(|i| self.fds.get_mut(i)) else {
            return;
        };
        let mut claimed = 0;
        for key in entry.waiters() {
            let Some(&(_, On::Fd { write, .. })) = self.waits.get(key) else { continue };
            let dir = if write { PEND_OUT } else { PEND_IN };
            if dirs & dir != 0 {
                self.ready.push(key);
                claimed |= dir;
            }
        }
        entry.pending |= dirs & !claimed;
    }

    /// An injected would-block reported `fd` not ready while it was (the
    /// VM's owed-fd log): edge-triggered epoll will not report that
    /// readiness again, so it is noted here as readiness in both
    /// directions. A direction that was not ready costs one spurious wake.
    pub(crate) fn owe_readiness(&mut self, fd: i32) {
        self.note_readiness(fd, PEND_IN | PEND_OUT);
    }

    /// Hands back every job this core holds, undelivered, and forgets
    /// every fd and deadline. Called by the worker on a VM reset, before
    /// the VM is replaced: every parked job is about to be failed and its
    /// sockets to die with the VM — still open, so each is deleted from
    /// the epoll set here. The instance and its level-triggered wake pipe
    /// stay, so the [`WakeHandle`]s the pool and acceptor threads hold
    /// stay valid.
    pub(crate) fn forget_all(&mut self, out: &mut Vec<(T, WakeKind)>) {
        for (fd, _) in self.fds.iter().enumerate().filter(|(_, e)| e.registered) {
            self.ep.ctl(sys::EPOLL_CTL_DEL, fd as i32, 0);
        }
        self.fds.clear();
        let parked = self.waits.drain().map(|(job, _)| job);
        let deferred = self.deferred.drain(..).map(|(_, job)| job);
        out.extend(parked.chain(deferred).map(|job| (job, WakeKind::Ready)));
        self.fd_waits = 0;
        self.ready.clear();
        self.deadlines.clear();
    }

    /// The earliest live deadline or deferred delivery, popping the stale
    /// heap entries in front of it.
    fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(&Reverse((_, _, key))) = self.deadlines.peek() {
            if self.waits.contains(key) {
                break;
            }
            self.deadlines.pop();
        }
        let due = self.deadlines.peek().map(|Reverse((t, ..))| *t);
        let deferred = self.deferred.iter().map(|&(t, _)| t).min();
        due.into_iter().chain(deferred).min()
    }

    /// Blocks until readiness, a due deadline/timer, a wake-pipe ring, or
    /// `max_wait` — whichever comes first — and moves the jobs whose
    /// waits resolved into `out`. `Duration::ZERO` is a nonblocking
    /// harvest, and so is any wait entered with a delivery already
    /// resolved. Returns the number of jobs handed back.
    pub(crate) fn wait(&mut self, max_wait: Duration, out: &mut Vec<(T, WakeKind)>) -> usize {
        let before = out.len();
        let now = Instant::now();
        let max_wait = if self.ready.is_empty() { max_wait } else { Duration::ZERO };
        // Cheap fast path for the between-slices harvest: no fds to ask
        // the kernel about and nothing due yet means no syscall at all.
        if max_wait.is_zero() && self.fd_waits == 0 && self.next_deadline().is_none_or(|t| t > now)
        {
            return 0;
        }
        // The instant this wait must have returned by: the caller's cap
        // or the earliest deadline/timer/deferred delivery. Fixed across
        // EINTR retries — each retry recomputes the *remaining* timeout
        // against it, so an interrupted wait neither errors out nor
        // silently stretches into a fresh full timeout.
        let until = {
            let cap = now + max_wait;
            self.next_deadline().map_or(cap, |t| t.min(cap))
        };

        let wake_fd = self.wake_rx.as_raw_fd();
        let mut wake_rung = false;
        loop {
            let timeout_ms: i32 = {
                let ms = until.saturating_duration_since(Instant::now()).as_millis();
                // +1: round up so we never wake a hair *before* a deadline
                // and spin — except a zero wait stays zero (nonblocking).
                if max_wait.is_zero() && ms == 0 {
                    0
                } else {
                    i32::try_from(ms.saturating_add(1)).unwrap_or(i32::MAX)
                }
            };
            // Injected EINTR: skip the syscall once and take the same
            // recompute-and-retry path a real signal interruption takes.
            if self.eintr_fault.tick() {
                self.faults_injected += 1;
                continue;
            }
            let rc = self.ep.wait(&mut self.events, timeout_ms);
            for i in 0..usize::try_from(rc).unwrap_or(0) {
                let ev = self.events[i];
                let fd = ev.data as i32;
                if fd == wake_fd {
                    wake_rung = true;
                    continue;
                }
                let bits = ev.events;
                // Error/hangup count as readiness in both directions,
                // waited for or not: the retried guest operation is what
                // turns the state into EOF or an io-error.
                let hup = sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP;
                let dirs = (if bits & (sys::EPOLLIN | hup) != 0 { PEND_IN } else { 0 })
                    | (if bits & (sys::EPOLLOUT | hup) != 0 { PEND_OUT } else { 0 });
                self.note_readiness(fd, dirs);
            }
            if rc < 0 && sys::errno() == sys::EINTR {
                continue;
            }
            break;
        }

        if wake_rung {
            self.drain_wake_pipe();
        }

        for k in 0..self.ready.len() {
            let key = self.ready[k];
            // A wait resolved at registration may have been cancelled
            // before this harvest, or resolved twice in one batch.
            if !self.waits.contains(key) {
                continue;
            }
            // Injected readiness faults, consulted per delivery. Drop
            // leaves the job parked but consumes the edge, so the I/O
            // deadline is what bounds recovery. Delay moves the job to
            // `deferred`, handed back a beat later.
            if self.drop_fault.tick() {
                self.faults_injected += 1;
                continue;
            }
            let (job, _) = self.resolve(key).expect("checked live");
            if self.delay_fault.tick() {
                self.faults_injected += 1;
                self.deferred.push((Instant::now() + Duration::from_millis(5), job));
                continue;
            }
            out.push((job, WakeKind::Ready));
        }
        self.ready.clear();

        let now = Instant::now();

        // Deferred (fault-delayed) deliveries that have come due.
        let due = self.deferred.extract_if(.., |&mut (t, _)| t <= now);
        out.extend(due.map(|(_, job)| (job, WakeKind::Ready)));

        // Due deadlines, earliest first. A job deadline wakes the job so
        // the worker can fail it with DeadlineExceeded; an I/O deadline
        // resumes the guest with the catchable io-timeout condition —
        // this is what bounds a peer that never answers; a timer is an
        // ordinary wake, and its delivery minus its due time is the wake
        // lateness. Either way the job leaves its slot, so readiness
        // arriving later finds nobody and becomes a pending bit.
        while let Some(&Reverse((t, kind, key))) = self.deadlines.peek() {
            if t > now {
                break;
            }
            self.deadlines.pop();
            let Some((job, on)) = self.resolve(key) else { continue };
            if matches!(on, On::Timer) {
                self.lateness[lateness_bucket(now.duration_since(t))] += 1;
            }
            out.push((job, kind));
        }

        out.len() - before
    }

    /// Returns and resets the wake-lateness histogram accumulated since
    /// the last call (buckets per [`WAKE_LATENESS_BUCKETS_MS`]).
    pub(crate) fn take_lateness(&mut self) -> [u64; WAKE_LATENESS_BUCKETS] {
        std::mem::replace(&mut self.lateness, [0; WAKE_LATENESS_BUCKETS])
    }

    /// Drains the wake pipe: reads until `EAGAIN`, bounded per pass so a
    /// ring burst cannot stall the loop. Bytes left by the bound keep the
    /// (level-triggered) pipe readable, so the next wait returns
    /// immediately and drains the rest — rings coalesce, none are lost.
    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 1024];
        for _ in 0..64 {
            match (&self.wake_rx).read(&mut sink) {
                Ok(n) if n == sink.len() => continue,
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> ReactorCore<u64> {
        ReactorCore::new().unwrap()
    }

    fn ctl_calls() -> u64 {
        sys::CTL_CALLS.with(std::cell::Cell::get)
    }

    #[test]
    fn readable_fd_wakes_the_registered_job() {
        let mut c = core();
        let (a, b) = UnixStream::pair().unwrap();
        assert!(c.register_io(42, a.as_raw_fd(), false, None, None).is_ok());
        let mut out = Vec::new();
        // Nothing readable yet: a short wait delivers nothing.
        c.wait(Duration::from_millis(20), &mut out);
        assert!(out.is_empty(), "no spurious delivery");
        (&b).write_all(b"x").unwrap();
        c.wait(Duration::from_secs(10), &mut out);
        assert_eq!(out, vec![(42, WakeKind::Ready)]);
        assert_eq!(c.len(), 0, "a wait is delivered once");
    }

    #[test]
    fn already_ready_fd_delivers_on_registration_wait() {
        // The lost-wakeup window: data arrives *before* the wait is
        // registered. ADD on a ready fd must still report (epoll does,
        // even edge-triggered).
        let mut c = core();
        let (a, b) = UnixStream::pair().unwrap();
        (&b).write_all(b"x").unwrap();
        assert!(c.register_io(7, a.as_raw_fd(), false, None, None).is_ok());
        let mut out = Vec::new();
        c.wait(Duration::from_secs(10), &mut out);
        assert_eq!(out, vec![(7, WakeKind::Ready)]);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut c = core();
        let now = Instant::now();
        c.register_timer(2, now + Duration::from_millis(40));
        c.register_timer(1, now + Duration::from_millis(10));
        let mut out = Vec::new();
        while out.len() < 2 {
            c.wait(Duration::from_secs(10), &mut out);
        }
        let fired: Vec<u64> = out.iter().map(|&(j, ..)| j).collect();
        assert_eq!(fired, vec![1, 2], "earlier deadline first");
    }

    #[test]
    fn io_deadline_delivers_even_without_readiness() {
        let mut c = core();
        let (a, _b) = UnixStream::pair().unwrap();
        let deadline = Instant::now() + Duration::from_millis(25);
        assert!(c.register_io(9, a.as_raw_fd(), false, Some(deadline), None).is_ok());
        let mut out = Vec::new();
        while out.is_empty() {
            c.wait(Duration::from_secs(10), &mut out);
        }
        assert_eq!(out, vec![(9, WakeKind::Ready)]);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn io_timeout_deadline_delivers_with_the_io_timeout_kind() {
        // A connection-level io_timeout (no job deadline) wakes the job
        // tagged IoTimeout so the guest sees the catchable condition.
        let mut c = core();
        let (a, _b) = UnixStream::pair().unwrap();
        let io_deadline = Instant::now() + Duration::from_millis(25);
        assert!(c.register_io(9, a.as_raw_fd(), false, None, Some(io_deadline)).is_ok());
        let mut out = Vec::new();
        while out.is_empty() {
            c.wait(Duration::from_secs(10), &mut out);
        }
        assert_eq!(out, vec![(9, WakeKind::IoTimeout)]);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn job_deadline_wins_over_a_later_io_timeout() {
        // Both deadlines registered; the job deadline is earlier, so the
        // io_timeout entry must never fire (its lazy heap entry finds the
        // wait already resolved).
        let mut c = core();
        let (a, _b) = UnixStream::pair().unwrap();
        let now = Instant::now();
        assert!(c
            .register_io(
                4,
                a.as_raw_fd(),
                false,
                Some(now + Duration::from_millis(15)),
                Some(now + Duration::from_millis(200)),
            )
            .is_ok());
        let mut out = Vec::new();
        while out.is_empty() {
            c.wait(Duration::from_secs(10), &mut out);
        }
        assert_eq!(out, vec![(4, WakeKind::Ready)]);
        out.clear();
        // Let the (stale) io_timeout entry come due: nothing fires.
        std::thread::sleep(Duration::from_millis(200));
        c.wait(Duration::ZERO, &mut out);
        assert!(out.is_empty(), "stale io_timeout suppressed");
    }

    #[test]
    fn readiness_after_deadline_cancel_is_never_delivered() {
        // The edge-triggered stale-wakeup case: the wait is cancelled by
        // its deadline, interest is dropped, and readiness arriving
        // afterwards must not produce a second (stale) wakeup.
        let mut c = core();
        let (a, b) = UnixStream::pair().unwrap();
        let deadline = Instant::now() + Duration::from_millis(10);
        assert!(c.register_io(5, a.as_raw_fd(), false, Some(deadline), None).is_ok());
        let mut out = Vec::new();
        while out.is_empty() {
            c.wait(Duration::from_secs(10), &mut out);
        }
        assert_eq!(out, vec![(5, WakeKind::Ready)], "deadline delivery");
        out.clear();
        // Readiness arrives after the cancel.
        (&b).write_all(b"late").unwrap();
        c.wait(Duration::from_millis(30), &mut out);
        assert!(out.is_empty(), "no stale delivery");
    }

    #[test]
    fn same_tick_readiness_and_deadline_deliver_exactly_once() {
        // The deadline-vs-readiness race: the fd becomes ready in the
        // same reactor tick its io_timeout expires. Readiness is scanned
        // before deadline expiry, so the job resumes Ready exactly once;
        // the expired deadline entry finds the wait already resolved.
        // Many rounds to give the race a chance.
        for round in 0..50u64 {
            let mut c = core();
            let (a, b) = UnixStream::pair().unwrap();
            let io_deadline = Instant::now() + Duration::from_millis(5);
            assert!(c.register_io(round, a.as_raw_fd(), false, None, Some(io_deadline)).is_ok());
            // Make the fd ready immediately, then sleep past the
            // deadline so readiness and expiry land in one wait call.
            (&b).write_all(b"x").unwrap();
            std::thread::sleep(Duration::from_millis(6));
            let mut out = Vec::new();
            c.wait(Duration::ZERO, &mut out);
            c.wait(Duration::ZERO, &mut out); // a second tick must add nothing
            assert_eq!(
                out,
                vec![(round, WakeKind::Ready)],
                "round {round}: exactly one delivery, readiness wins"
            );
            assert_eq!(c.len(), 0);
        }
    }

    #[test]
    fn cancel_fd_wakes_waiters_on_a_closed_socket() {
        let mut c = core();
        let (a, _b) = UnixStream::pair().unwrap();
        let fd = a.as_raw_fd();
        assert!(c.register_io(5, fd, false, None, None).is_ok());
        let mut out = Vec::new();
        c.cancel_fd(fd, &mut out);
        assert_eq!(out, vec![(5, WakeKind::Ready)]);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn shared_fd_waits_all_deliver() {
        // Two green threads accepting on one listener-like fd: readiness
        // wakes both (readiness is a hint; the losers re-block).
        let mut c = core();
        let (a, b) = UnixStream::pair().unwrap();
        let fd = a.as_raw_fd();
        assert!(c.register_io(1, fd, false, None, None).is_ok());
        assert!(c.register_io(2, fd, false, None, None).is_ok());
        (&b).write_all(b"x").unwrap();
        let mut out = Vec::new();
        c.wait(Duration::from_secs(10), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(1, WakeKind::Ready), (2, WakeKind::Ready)]);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn wake_pipe_rings_coalesce_and_fully_drain() {
        let mut c = core();
        let handle = c.wake_handle();
        for _ in 0..100 {
            handle.ring();
        }
        let mut out = Vec::new();
        // One wait consumes the whole burst...
        let t0 = Instant::now();
        c.wait(Duration::from_secs(10), &mut out);
        assert!(t0.elapsed() < Duration::from_secs(1), "ring interrupts");
        assert!(out.is_empty(), "rings are not wakeups");
        // ...so the next wait actually waits (pipe fully drained).
        let t0 = Instant::now();
        c.wait(Duration::from_millis(40), &mut out);
        assert!(t0.elapsed() >= Duration::from_millis(30), "pipe was not fully drained");
    }

    #[test]
    fn failed_registration_reports_instead_of_wedging() {
        // A stale (closed) fd: epoll's ADD fails, which the caller must
        // treat as instant readiness.
        let mut c = core();
        let fd = {
            let (a, _b) = UnixStream::pair().unwrap();
            a.as_raw_fd()
        }; // both ends dropped: fd is closed
        assert_eq!(c.register_io(3, fd, false, None, None), Err(3), "the job comes back");
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn injected_eintr_retries_without_stretching_the_timeout() {
        // An interrupted wait must neither error out nor restart a full
        // timeout: with a synthetic EINTR armed, a timer still fires on
        // schedule and the wait returns promptly.
        let mut c = core();
        c.eintr_fault = FaultClock::arm(1);
        c.register_timer(1, Instant::now() + Duration::from_millis(20));
        let mut out = Vec::new();
        let t0 = Instant::now();
        while out.is_empty() {
            c.wait(Duration::from_secs(10), &mut out);
        }
        assert_eq!(out, vec![(1, WakeKind::Ready)]);
        assert!(t0.elapsed() < Duration::from_secs(2), "EINTR stretched the wait");
        assert_eq!(c.take_faults_injected(), 1);
        assert_eq!(c.take_faults_injected(), 0, "take resets");
    }

    #[test]
    fn injected_delay_redelivers_the_wakeup_late() {
        let mut c = core();
        c.delay_fault = FaultClock::arm(1);
        let (a, b) = UnixStream::pair().unwrap();
        assert!(c.register_io(8, a.as_raw_fd(), false, None, None).is_ok());
        (&b).write_all(b"x").unwrap();
        let mut out = Vec::new();
        c.wait(Duration::from_secs(10), &mut out);
        assert!(out.is_empty(), "the delivery was deferred");
        // The only thing left is the deferred delivery: an idle worker
        // still has to wait on the reactor for it.
        assert_eq!(c.len(), 1, "a deferred delivery is outstanding");
        let t0 = Instant::now();
        while out.is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(5), "lost");
            c.wait(Duration::from_millis(50), &mut out);
        }
        assert_eq!(out, vec![(8, WakeKind::Ready)]);
        assert_eq!(c.len(), 0, "delayed delivery resolves the wait");
        assert_eq!(c.take_faults_injected(), 1);
    }

    #[test]
    fn injected_drop_is_bounded_by_the_io_deadline() {
        // A dropped readiness notification leaves the wait registered but
        // consumes the edge; the io_timeout deadline is what guarantees
        // the job still wakes (as IoTimeout) instead of hanging forever —
        // the edge-triggered recovery bound.
        let mut c = core();
        c.drop_fault = FaultClock::arm(1);
        let (a, b) = UnixStream::pair().unwrap();
        let io_deadline = Instant::now() + Duration::from_millis(40);
        assert!(c.register_io(6, a.as_raw_fd(), false, None, Some(io_deadline)).is_ok());
        (&b).write_all(b"x").unwrap();
        let mut out = Vec::new();
        let t0 = Instant::now();
        while out.is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(5), "lost");
            c.wait(Duration::from_millis(50), &mut out);
        }
        assert_eq!(out, vec![(6, WakeKind::IoTimeout)], "exactly one wakeup, no hang");
        assert_eq!(c.len(), 0);
        assert_eq!(c.take_faults_injected(), 1);
    }

    #[test]
    fn forget_all_leaves_the_same_instance_working() {
        // The VM-reset path: every parked job comes back undelivered and
        // each known fd is DELeted while still open, on the epoll instance
        // the core keeps, with its wake pipe.
        let mut c = core();
        let (a, b) = UnixStream::pair().unwrap();
        let (a2, _b2) = UnixStream::pair().unwrap();
        assert!(c.register_io(1, a.as_raw_fd(), false, None, None).is_ok());
        assert!(c.register_io(2, a2.as_raw_fd(), false, None, None).is_ok());
        c.register_timer(3, Instant::now());
        let handle = c.wake_handle();
        let before = ctl_calls();
        let mut out = Vec::new();
        c.forget_all(&mut out);
        assert_eq!(ctl_calls() - before, 2, "one DEL per forgotten fd");
        out.sort_unstable();
        let all = [1, 2, 3].map(|j| (j, WakeKind::Ready));
        assert_eq!(out, all, "every parked job comes back");
        assert_eq!(c.len(), 0);
        out.clear();
        (&b).write_all(b"x").unwrap();
        c.wait(Duration::from_millis(20), &mut out);
        assert!(out.is_empty(), "forgotten waits and timers are never delivered");
        // The DEL reached the kernel: the still-open fd registers again
        // (a second ADD would fail with EEXIST), and its data delivers.
        assert!(c.register_io(4, a.as_raw_fd(), false, None, None).is_ok());
        c.wait(Duration::from_secs(10), &mut out);
        assert_eq!(out, vec![(4, WakeKind::Ready)]);
        out.clear();
        // A fresh pair registers and is delivered.
        let (x, y) = UnixStream::pair().unwrap();
        assert!(c.register_io(5, x.as_raw_fd(), false, None, None).is_ok());
        (&y).write_all(b"x").unwrap();
        c.wait(Duration::from_secs(10), &mut out);
        assert_eq!(out, vec![(5, WakeKind::Ready)]);
        // A wake handle taken before the forget still interrupts a
        // blocking wait.
        let ringer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            handle.ring();
        });
        let t0 = Instant::now();
        c.wait(Duration::from_secs(10), &mut out);
        assert!(t0.elapsed() < Duration::from_secs(5), "the old handle still rings");
        ringer.join().unwrap();
    }

    #[test]
    fn timer_deliveries_accumulate_lateness_buckets() {
        let mut c = core();
        let now = Instant::now();
        // One timer due right now (bucket 0) and one 600 ms overdue (the
        // unbounded tail bucket).
        c.register_timer(1, now);
        c.register_timer(2, now - Duration::from_millis(600));
        let mut out = Vec::new();
        c.wait(Duration::from_secs(10), &mut out);
        assert_eq!(out.len(), 2);
        let hist = c.take_lateness();
        assert_eq!(hist.iter().sum::<u64>(), 2);
        assert_eq!(hist[WAKE_LATENESS_BUCKETS - 1], 1, "overdue tail");
        assert_eq!(c.take_lateness().iter().sum::<u64>(), 0, "take resets");
    }

    // --- the lifetime-registration contract ---

    /// A nonblocking pair whose `a` end has a full send buffer.
    fn pair_with_full_send_buffer() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let chunk = [0u8; 4096];
        loop {
            match (&a).write(&chunk) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("filling the send buffer: {e}"),
            }
        }
        (a, b)
    }

    #[test]
    fn a_recycled_fd_number_registers_afresh_after_the_closed_fd_sweep() {
        // Close-then-reopen: the kernel hands the new socket the number
        // the closed one had. The sweep (`cancel_fd`) must have cleared
        // the table entry, or the new wait would trust a registration the
        // kernel dropped at close and never wake.
        let mut c = core();
        let mut out = Vec::new();
        // Other tests open fds concurrently, so the number is reused only
        // most of the time: try until it is.
        let reused = (0..200).any(|_| {
            let (a, _b) = UnixStream::pair().unwrap();
            let fd = a.as_raw_fd();
            assert!(c.register_io(1, fd, false, None, None).is_ok());
            c.wait(Duration::ZERO, &mut out); // the kernel knows the fd
            drop(a);
            c.cancel_fd(fd, &mut out);
            assert_eq!(out, vec![(1, WakeKind::Ready)], "close wakes");
            out.clear();
            let (x, y) = UnixStream::pair().unwrap();
            if x.as_raw_fd() != fd {
                return false;
            }
            assert!(c.register_io(2, fd, false, None, None).is_ok());
            c.wait(Duration::from_millis(20), &mut out);
            assert!(out.is_empty(), "the old socket owes nothing");
            (&y).write_all(b"x").unwrap();
            c.wait(Duration::from_secs(10), &mut out);
            assert_eq!(out, vec![(2, WakeKind::Ready)], "new socket");
            true
        });
        assert!(reused, "never saw the fd number reused");
    }

    #[test]
    fn readiness_with_no_waiter_resolves_the_next_wait_without_a_second_edge() {
        let mut c = core();
        let (a, b) = UnixStream::pair().unwrap();
        let mut out = Vec::new();
        assert!(c.register_io(1, a.as_raw_fd(), false, None, None).is_ok());
        (&b).write_all(b"x").unwrap();
        c.wait(Duration::from_secs(10), &mut out);
        assert_eq!(out, vec![(1, WakeKind::Ready)]);
        out.clear();
        // The job is mid-slice — no wait — when more data arrives and a
        // harvest consumes the edge.
        (&b).write_all(b"y").unwrap();
        c.wait(Duration::from_millis(20), &mut out);
        assert!(out.is_empty(), "nobody to deliver to");
        // Its next wait must not need another edge, and must not block
        // the harvest that delivers it.
        assert!(c.register_io(1, a.as_raw_fd(), false, None, None).is_ok());
        let t0 = Instant::now();
        c.wait(Duration::from_secs(10), &mut out);
        assert_eq!(out, vec![(1, WakeKind::Ready)]);
        assert!(t0.elapsed() < Duration::from_secs(1), "blocked");
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn a_write_wait_on_an_fd_first_registered_for_read_wakes_on_writability() {
        let mut c = core();
        let (a, b) = pair_with_full_send_buffer();
        let fd = a.as_raw_fd();
        let mut out = Vec::new();
        // First registration is for read; nothing to read.
        assert!(c.register_io(1, fd, false, None, None).is_ok());
        c.wait(Duration::from_millis(20), &mut out);
        assert!(out.is_empty());
        // A write wait on the same fd, send buffer full: no wake.
        assert!(c.register_io(2, fd, true, None, None).is_ok());
        c.wait(Duration::from_millis(20), &mut out);
        assert!(out.is_empty(), "buffer still full");
        // The peer drains it: the writer wakes, the reader does not.
        b.set_nonblocking(true).unwrap();
        let mut sink = [0u8; 65536];
        while matches!((&b).read(&mut sink), Ok(n) if n > 0) {}
        c.wait(Duration::from_secs(10), &mut out);
        assert_eq!(out, vec![(2, WakeKind::Ready)]);
        assert_eq!(c.len(), 1, "the read wait stays parked");
    }

    #[test]
    fn deadline_cancel_then_late_readiness_then_fresh_wait_delivers_exactly_once() {
        let mut c = core();
        let (a, b) = UnixStream::pair().unwrap();
        let deadline = Instant::now() + Duration::from_millis(10);
        assert!(c.register_io(5, a.as_raw_fd(), false, Some(deadline), None).is_ok());
        let mut out = Vec::new();
        while out.is_empty() {
            c.wait(Duration::from_secs(10), &mut out);
        }
        assert_eq!(out, vec![(5, WakeKind::Ready)], "deadline");
        out.clear();
        (&b).write_all(b"late").unwrap();
        c.wait(Duration::from_millis(30), &mut out);
        assert!(out.is_empty(), "no stale delivery");
        assert!(c.register_io(5, a.as_raw_fd(), false, None, None).is_ok());
        c.wait(Duration::from_secs(10), &mut out);
        c.wait(Duration::from_millis(20), &mut out);
        assert_eq!(out, vec![(5, WakeKind::Ready)], "exactly once");
    }

    /// `cycles` park/wake cycles of job 1 on `a`, each woken by one byte
    /// from `b` and consumed before the next.
    fn park_wake_cycles(c: &mut ReactorCore<u64>, a: &UnixStream, b: &UnixStream, cycles: u64) {
        let mut out = Vec::with_capacity(4);
        let mut byte = [0u8; 1];
        for cycle in 0..cycles {
            assert!(c.register_io(1, a.as_raw_fd(), false, None, None).is_ok());
            (&*b).write_all(b"x").unwrap();
            c.wait(Duration::from_secs(10), &mut out);
            assert_eq!(out, [(1, WakeKind::Ready)], "cycle {cycle}");
            out.clear();
            (&*a).read_exact(&mut byte).unwrap();
        }
    }

    #[test]
    fn a_hundred_park_wake_cycles_on_one_fd_cost_one_epoll_ctl() {
        let mut c = core();
        let (a, b) = UnixStream::pair().unwrap();
        let before = ctl_calls();
        park_wake_cycles(&mut c, &a, &b, 100);
        assert_eq!(ctl_calls() - before, 1, "one ADD for the fd's lifetime, nothing per wait");
    }

    #[test]
    fn steady_state_park_and_wake_allocate_nothing() {
        let mut c = core();
        let (a, b) = UnixStream::pair().unwrap();
        // Warm-up sizes the fd table, the wait map, and the buffers.
        park_wake_cycles(&mut c, &a, &b, 8);
        let before = counting_alloc::allocations();
        park_wake_cycles(&mut c, &a, &b, 100);
        let allocated = counting_alloc::allocations() - before;
        // The harness itself allocates one `out` vector per call.
        assert_eq!(allocated, 1, "register_io/wait must not allocate");
    }

    /// One seeded run of random reactor operations on three socket pairs:
    /// fd waits (either direction, with and without either deadline) and
    /// timers; peer writes and drains; a close, its sweep and a fresh pair
    /// in its place; armed fault clocks; and harvests. Every job must come
    /// back exactly once — by a harvest, a sweep, a refused registration
    /// or the final `forget_all` — and only a job with an I/O deadline
    /// may come back as `IoTimeout`.
    fn exactly_once_run(seed: u64) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let pair = || {
            let (a, b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            (a, b)
        };
        let mut c = core();
        let mut pairs: Vec<_> = (0..3).map(|_| pair()).collect();
        let (mut issued, mut io_timed) = (0u64, Vec::new());
        let (mut back, mut out) = (Vec::new(), Vec::new());
        for _ in 0..120 {
            let now = Instant::now();
            match next(10) {
                0..=2 => {
                    let job = issued;
                    issued += 1;
                    let fd = pairs[next(3) as usize].0.as_raw_fd();
                    let mut within =
                        |p| (next(p) == 0).then(|| now + Duration::from_millis(next(4)));
                    let (deadline, io_deadline) = (within(3), within(2));
                    if io_deadline.is_some() {
                        io_timed.push(job);
                    }
                    if let Err(job) = c.register_io(job, fd, next(4) == 0, deadline, io_deadline) {
                        out.push((job, WakeKind::Ready));
                    }
                }
                3 => {
                    c.register_timer(issued, now + Duration::from_millis(next(3)));
                    issued += 1;
                }
                4 => (&pairs[next(3) as usize].1).write_all(b"x").unwrap(),
                5 => {
                    let mut sink = [0u8; 64];
                    while matches!((&pairs[next(3) as usize].0).read(&mut sink), Ok(n) if n > 0) {}
                }
                6 => {
                    let (a, b) = pairs.swap_remove(next(3) as usize);
                    let fd = a.as_raw_fd();
                    drop((a, b));
                    c.cancel_fd(fd, &mut out);
                    pairs.push(pair());
                }
                7 => {
                    let clock = FaultClock::arm(next(3));
                    match next(3) {
                        0 => c.drop_fault = clock,
                        1 => c.delay_fault = clock,
                        _ => c.eintr_fault = clock,
                    }
                }
                _ => {
                    let max_wait = Duration::from_millis(next(2));
                    c.wait(max_wait, &mut out);
                }
            }
            back.append(&mut out);
        }
        c.forget_all(&mut back);
        for &(job, kind) in &back {
            let timed = io_timed.contains(&job);
            assert!(kind == WakeKind::Ready || timed, "seed {seed}: job {job} timed out");
        }
        let mut jobs: Vec<u64> = back.iter().map(|&(job, _)| job).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, (0..issued).collect::<Vec<_>>(), "seed {seed}: each job once");
        assert_eq!(c.len(), 0, "seed {seed}");
    }

    #[test]
    fn every_parked_job_comes_back_exactly_once_over_seeded_interleavings() {
        for seed in 0..48 {
            exactly_once_run(seed);
        }
    }
}

/// A test-only global allocator that counts each thread's allocations, so
/// a test can assert its own code path allocated nothing while other
/// tests run beside it. (Unit-test only: the reactor is crate-private,
/// and `GlobalAlloc` cannot be implemented without `unsafe`.)
#[cfg(test)]
#[allow(unsafe_code)]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn count() {
        // `try_with`: the allocator also runs during thread teardown.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    /// Allocations and reallocations the calling thread has made.
    pub(super) fn allocations() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }

    struct Counting;

    // SAFETY: every operation is forwarded unchanged to `System`, which
    // upholds the `GlobalAlloc` contract; the added counter bump touches
    // only a const-initialized, destructor-free thread-local, so it
    // neither allocates nor unwinds.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller's obligations are passed through as is.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` via this allocator.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            // SAFETY: `ptr` came from `System` via this allocator.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;
}
