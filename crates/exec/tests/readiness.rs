//! The readiness contract, checked on the one reactor there is:
//! edge-triggered epoll, whose per-fd pending bits are what keep a wakeup
//! from being lost or delivered stale. The oracle is a faulted-vs-unfaulted
//! differential: one seeded workload of echo pairs that really park on
//! readiness runs unfaulted, then once per `FaultPlan` I/O site armed at a
//! countdown drawn from the seed. The transparent sites (short I/O, a
//! spurious would-block, delayed readiness, `EINTR`) must leave the sorted
//! results identical; the lossy ones (dropped readiness, a reset) must
//! still resolve every job exactly once, with nothing leaked.
//!
//! Also here: the integration-level stale-wakeup scenario (readiness
//! arriving *after* the wait was cancelled by a deadline must not resume
//! the continuation a second time), the shared-listener accept path, and
//! the lifetime-registration contract seen from the guest: a recycled fd
//! number, readiness nobody was waiting for, the harvest cap under CPU
//! load, and a serve template linked once however many connections churn.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oneshot_exec::{JobSpec, Pool, PoolBuilder, PoolReport};
use oneshot_vm::{FaultPlan, VmConfig};

fn pool_with(workers: usize) -> PoolBuilder {
    Pool::builder().workers(workers).resident_cap(64).fuel_slice(2048)
}

/// xorshift64* — the repo's standard seeded PRNG.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

// --- the faulted-vs-unfaulted differential ---

/// Workers in a differential run; readers are pinned round-robin, so each
/// worker's VM and reactor see every site's events.
const WORKERS: usize = 2;
/// Echo pairs, the round trips each makes, and timer jobs in one run.
const PAIRS: usize = 8;
const ROUNDS: usize = 8;
const TIMERS: usize = 4;
/// Countdowns skip the first `WARMUP` events at a site, which fall on
/// sockets no readiness edge has reached yet (a spurious would-block there
/// has nothing to lose), and are drawn from the next `HORIZON`: fewer
/// events than each worker's readers alone produce at every site, so an
/// armed site always fires.
const WARMUP: u64 = 8;
const HORIZON: u64 = 24;

/// `read-n` reads until `n` bytes have arrived; an eof before that is the
/// peer dying under a fault, raised as the catchable `io-error`.
const READ_N: &str = "(define (read-n s n acc)
   (if (>= (string-length acc) n)
       acc
       (let ((d (tcp-read s 4096)))
         (if (eq? d 'eof)
             (raise (cons 'io-error \"peer closed early\"))
             (read-n s n (string-append acc d))))))
 (define (drain s acc)
   (let ((d (tcp-read s 4096)))
     (if (eq? d 'eof) acc (drain s (string-append acc d)))))";

/// The reader of pair `i`: parks in `tcp-accept` on its worker's listener
/// `l-i`, then in `tcp-read` until its writer speaks; echoes `ROUNDS`
/// messages of `len` bytes and reads to eof. A caught fault closes what
/// it opened.
fn reader(i: usize, len: usize) -> String {
    format!(
        "{READ_N}
         (define a-{i} #f)
         (call-with-guard
           (lambda (e)
             (if a-{i} (tcp-close a-{i}))
             (tcp-close l-{i})
             (list 'caught (condition-kind e)))
           (lambda ()
             (set! a-{i} (tcp-accept l-{i}))
             (let loop ((r 0) (got '()))
               (if (< r {ROUNDS})
                   (let ((d (read-n a-{i} {len} \"\")))
                     (tcp-write a-{i} d)
                     (loop (+ r 1) (cons d got)))
                   (let ((rest (drain a-{i} \"\")))
                     (tcp-close a-{i})
                     (tcp-close l-{i})
                     (list 'reader {i} (reverse got) rest))))))"
    )
}

/// The writer of pair `i`: connects, sits out a timer so its reader parks
/// first, then sends each of `msgs` and reads its echo before the next.
fn writer(i: usize, port: u16, ms: u64, msgs: &[String]) -> String {
    let quoted: Vec<String> = msgs.iter().map(|m| format!("\"{m}\"")).collect();
    format!(
        "{READ_N}
         (let ((c (tcp-connect {port})))
           (call-with-guard
             (lambda (e) (tcp-close c) (list 'caught (condition-kind e)))
             (lambda ()
               (timer-wait {ms})
               (let loop ((msgs '({msgs})) (got '()))
                 (if (null? msgs)
                     (begin (tcp-close c) (list 'writer {i} (reverse got)))
                     (begin
                       (tcp-write c (car msgs))
                       (loop (cdr msgs) (cons (read-n c {len} \"\") got))))))))",
        msgs = quoted.join(" "),
        len = msgs[0].len(),
    )
}

/// One seeded workload under `plan`: its sorted results, each worker's
/// open-socket audit after the drain, and the report.
fn run_seeded(seed: u64, plan: Option<FaultPlan>, io_timeout: Option<Duration>) -> Run {
    let cfg = VmConfig { fault_plan: plan, ..VmConfig::default() };
    let mut builder = pool_with(WORKERS).vm_config(cfg);
    if let Some(window) = io_timeout {
        builder = builder.io_timeout(window);
    }
    let pool = builder.build().unwrap();
    // Every job is bounded, so a lost wakeup fails its job instead of
    // hanging the test.
    let bounded = |spec: JobSpec| spec.deadline(Duration::from_secs(5));
    let mut rng = seed;
    let mut handles = Vec::new();
    for i in 0..PAIRS {
        let msgs: Vec<String> = (0..ROUNDS)
            .map(|r| format!("msg-{i:02}-{r:02}-{:08x}", xorshift(&mut rng) & 0xFFFF_FFFF))
            .collect();
        let listen = format!("(define l-{i} (tcp-listen 0)) (tcp-local-port l-{i})");
        let port: u16 = pool
            .submit(JobSpec::new(format!("listen-{i}"), listen).pin(i % WORKERS))
            .unwrap()
            .wait()
            .result
            .expect("the listener binds")
            .parse()
            .unwrap();
        let read = JobSpec::new(format!("reader-{i}"), reader(i, msgs[0].len())).pin(i % WORKERS);
        handles.push(pool.submit(bounded(read)).unwrap());
        let write = writer(i, port, 5 + xorshift(&mut rng) % 36, &msgs);
        handles.push(pool.submit(bounded(JobSpec::new(format!("writer-{i}"), write))).unwrap());
    }
    for i in 0..TIMERS {
        let ms = 5 + xorshift(&mut rng) % 36;
        let src = format!("(begin (timer-wait {ms}) (list 'timer {i}))");
        handles.push(pool.submit(bounded(JobSpec::new(format!("timer-{i}"), src))).unwrap());
    }
    // A job lost outside every wait would hang `wait()` past any
    // deadline: the watchdog turns that into a failure.
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let results: Vec<String> = handles
            .iter()
            .map(|h| h.wait().result.unwrap_or_else(|e| format!("failed: {e}")))
            .collect();
        tx.send(results).expect("the test is listening");
    });
    let mut results = rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("seed {seed}, {plan:?}: a job was lost"));
    waiter.join().unwrap();
    results.sort();
    let live = (0..WORKERS)
        .map(|w| {
            let audit = JobSpec::new(format!("audit-{w}"), "(%net-live)").pin(w);
            pool.submit(audit).unwrap().wait().result.expect("the audit runs")
        })
        .collect();
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    Run { results, live, report }
}

struct Run {
    results: Vec<String>,
    live: Vec<String>,
    report: PoolReport,
}

impl Run {
    /// VM-side faults plus reactor-side faults injected over the run.
    fn faults(&self) -> u64 {
        let vm: u64 = self.report.workers.iter().map(|w| w.vm.faults_injected).sum();
        vm + self.report.counters.io_faults_injected
    }
}

type Site = (&'static str, fn(FaultPlan, u64) -> FaultPlan);

/// Each site that leaves the guest's results unchanged.
const TRANSPARENT: [Site; 4] = [
    ("io_short", FaultPlan::with_io_short),
    ("io_spurious", FaultPlan::with_io_spurious),
    ("readiness_delay", FaultPlan::with_readiness_delay),
    ("wait_eintr", FaultPlan::with_wait_eintr),
];

/// Each site that may cost a job its result, but never its resolution.
const LOSSY: [Site; 2] =
    [("readiness_drop", FaultPlan::with_readiness_drop), ("io_reset", FaultPlan::with_io_reset)];

/// Runs `seed`'s workload once per site in `sites`, each armed alone at a
/// countdown drawn from the seed, and checks each run against the
/// unfaulted one with `check`.
fn differential(seed: u64, sites: &[Site], io_timeout: Option<Duration>, check: fn(&Run, &Run)) {
    let clean = run_seeded(seed, None, None);
    assert_eq!(clean.report.counters.failed, 0, "seed {seed}: {:?}", clean.results);
    assert_eq!(clean.live, ["0"; WORKERS], "seed {seed}: sockets leaked");
    assert_eq!(clean.faults(), 0);
    let mut rng = seed ^ 0x5EED_FA17;
    for &(site, arm) in sites {
        let n = WARMUP + 1 + xorshift(&mut rng) % HORIZON;
        let faulted = run_seeded(seed, Some(arm(FaultPlan::none(), n)), io_timeout);
        eprintln!("seed {seed}: {site} armed at {n}");
        assert!(faulted.faults() > 0, "the armed site never fired");
        assert_eq!(faulted.live, ["0"; WORKERS], "sockets leaked");
        check(&clean, &faulted);
    }
}

fn transparent_sites_leave_results_unchanged(seeds: Range<u64>) {
    for seed in seeds {
        differential(seed, &TRANSPARENT, None, |clean, faulted| {
            assert_eq!(faulted.results, clean.results);
            assert_eq!(faulted.report.counters.failed, 0);
        });
    }
}

fn lossy_sites_resolve_every_job_once(seeds: Range<u64>) {
    for seed in seeds {
        differential(seed, &LOSSY, Some(Duration::from_millis(150)), |clean, faulted| {
            // Listeners, the jobs, and the audits each completed once.
            let total = (PAIRS + 2 * PAIRS + TIMERS + WORKERS) as u64;
            let c = &faulted.report.counters;
            assert_eq!((c.completed, c.failed), (total, 0));
            for r in &faulted.results {
                let caught = r == "(caught io-timeout)" || r == "(caught io-error)";
                assert!(caught || clean.results.contains(r), "{r}: neither result nor caught");
            }
        });
    }
}

#[test]
fn transparent_faults_leave_the_seeded_results_unchanged() {
    transparent_sites_leave_results_unchanged(0..4);
}

#[test]
fn lossy_faults_still_resolve_every_job_exactly_once() {
    lossy_sites_resolve_every_job_once(0..4);
}

/// The wide sweeps, run in release by CI: `cargo test --release -p
/// oneshot-exec -- --ignored`.
#[test]
#[ignore]
fn transparent_faults_leave_the_seeded_results_unchanged_wide() {
    transparent_sites_leave_results_unchanged(4..516);
}

#[test]
#[ignore]
fn lossy_faults_still_resolve_every_job_exactly_once_wide() {
    lossy_sites_resolve_every_job_once(4..516);
}

// --- single scenarios ---

#[test]
fn a_one_worker_timer_storm_retires_identical_instructions_under_injected_eintr() {
    // Readiness plumbing is nothing the guest can see: 16 jobs of three
    // timer waits each execute the same bytecode whether or not a wait
    // was interrupted. (Exact on one worker only — with several, which
    // worker admits a job, and so its slice re-entries, depend on
    // scheduling.)
    let storm = |plan: Option<FaultPlan>| {
        let cfg = VmConfig { fault_plan: plan, ..VmConfig::default() };
        let pool = pool_with(1).vm_config(cfg).build().unwrap();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let src = "(let loop ((i 0))
                             (if (< i 3) (begin (timer-wait 5) (loop (+ i 1))) 'done))";
                pool.submit(JobSpec::new(format!("storm-{i}"), src)).unwrap()
            })
            .collect();
        for h in &handles {
            assert_eq!(h.wait().result.as_deref(), Ok("done"), "{plan:?}");
        }
        let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.counters.failed, 0, "{plan:?}");
        assert_eq!(report.counters.timer_waits, 48, "{plan:?}");
        assert_eq!(report.counters.wake_lateness.iter().sum::<u64>(), 48, "{plan:?}");
        assert_eq!(report.counters.io_faults_injected, u64::from(plan.is_some()));
        report.workers[0].vm.instructions
    };
    assert_eq!(storm(None), storm(Some(FaultPlan::none().with_wait_eintr(3))));
}

#[test]
fn deadline_cancelled_wait_ignores_late_readiness() {
    // A job blocks reading a socket that stays silent past its deadline.
    // The deadline fails the job and cancels the wait; the peer THEN
    // writes, so readiness arrives for a cancelled wait (the stale-wakeup
    // case — the edge-triggered kernel event still fires). The stale
    // delivery must be dropped by the seq guard: no panic, no double
    // resume, and the worker keeps serving jobs afterwards.
    let pool = pool_with(1).build().unwrap();
    let port = listen_on_worker_0(&pool);
    let doomed = pool
        .submit(
            JobSpec::new("doomed-read", "(let ((c (tcp-accept lst))) (tcp-read c 64))")
                .pin(0)
                .deadline(Duration::from_millis(120)),
        )
        .unwrap();
    let mut peer = TcpStream::connect(("127.0.0.1", port)).unwrap();
    // Wait out the deadline, then make the fd readable.
    let outcome = doomed.wait();
    assert_eq!(outcome.result.unwrap_err().kind(), oneshot_exec::ErrorKind::DeadlineExceeded);
    peer.write_all(b"too-late").unwrap();
    // Give the late readiness time to reach the (cancelled) wait.
    std::thread::sleep(Duration::from_millis(60));
    // The worker must still be healthy: run a fresh job to completion.
    let after = pool.submit(JobSpec::new("after", "(+ 20 22)").pin(0)).unwrap();
    assert_eq!(after.wait().result.as_deref(), Ok("42"));
    drop(peer);
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 1, "only the doomed job failed");
}

#[test]
fn shared_listener_distributes_and_echoes() {
    // Pool::serve: N Rust-side clients against one shared AF_INET
    // listener, handlers fetched via (conn-take). Checks echo
    // correctness, completion accounting, accepts-per-worker
    // distribution, and a leak-free shutdown.
    const CLIENTS: usize = 8;
    let pool = pool_with(2).build().unwrap();
    let done = Arc::new(AtomicU64::new(0));
    let done_cb = Arc::clone(&done);
    let handler = JobSpec::new(
        "echo-handler",
        "(let ((c (conn-take)))
           (let loop ()
             (let ((d (tcp-read c 4096)))
               (if (eq? d 'eof)
                   (begin (tcp-close c) 'served)
                   (begin (tcp-write c d) (loop))))))",
    )
    .on_complete(move |o| {
        assert_eq!(o.result.as_deref(), Ok("served"));
        done_cb.fetch_add(1, Ordering::SeqCst);
    });
    let serve = pool.serve("127.0.0.1:0", handler).unwrap();
    let port = serve.port();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
                let msg = format!("shared-{i}");
                s.write_all(msg.as_bytes()).unwrap();
                let mut buf = vec![0u8; msg.len()];
                s.read_exact(&mut buf).unwrap();
                assert_eq!(buf, msg.as_bytes());
                drop(s); // EOF ends the handler
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    // One more client from inside the pool: a green thread connecting to
    // the shared listener parks on the same reactors that serve it.
    let guest = pool
        .submit(JobSpec::new(
            "guest-client",
            format!(
                "(let ((s (tcp-connect {port})))
                   (tcp-write s \"guest\")
                   (let ((d (tcp-read s 5))) (tcp-close s) d))"
            ),
        ))
        .unwrap();
    assert_eq!(guest.wait().result.as_deref(), Ok("\"guest\""));
    const CLIENTS_AND_GUEST: u64 = CLIENTS as u64 + 1;
    // Handlers finish after the peers close; wait for the callbacks.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while done.load(Ordering::SeqCst) < CLIENTS_AND_GUEST {
        assert!(std::time::Instant::now() < deadline, "handlers drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(serve.accepted(), CLIENTS_AND_GUEST);
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 0);
    assert_eq!(
        report.counters.accepts_per_worker.iter().sum::<u64>(),
        CLIENTS_AND_GUEST,
        "every accept was routed to a worker"
    );
    assert_eq!(report.counters.accept_overflow, 0);
}

#[test]
fn counters_delta_since_subtracts_counters_and_carries_gauges() {
    let pool = pool_with(2).build().unwrap();
    let before = pool.stats();
    for i in 0..4 {
        pool.submit(JobSpec::new(format!("n-{i}"), format!("(* {i} {i})"))).unwrap().wait();
    }
    pool.submit(JobSpec::new("nap", "(timer-wait 5)")).unwrap().wait();
    let after = pool.stats();
    let delta = after.delta_since(&before);
    assert_eq!(delta.submitted, 5);
    assert_eq!(delta.completed, 5);
    // Gauges carry the later value rather than subtracting.
    assert_eq!(delta.blocked_highwater, after.blocked_highwater);
    assert_eq!(delta.resume_depth_highwater, after.resume_depth_highwater);
    assert_eq!(delta.accepts_per_worker.len(), 2);
    // The timer delivery landed in exactly one lateness bucket.
    assert_eq!(delta.wake_lateness.len(), oneshot_exec::WAKE_LATENESS_BUCKETS_MS.len() + 1);
    assert_eq!(delta.wake_lateness.iter().sum::<u64>(), 1);
    pool.shutdown().unwrap();
}

/// Pinned to worker 0: bind a loopback listener as the global `lst` and
/// return its port.
fn listen_on_worker_0(pool: &Pool) -> u16 {
    pool.submit(JobSpec::new("listen", "(define lst (tcp-listen 0)) (tcp-local-port lst)").pin(0))
        .unwrap()
        .wait()
        .result
        .expect("listener binds")
        .parse()
        .unwrap()
}

#[test]
fn close_then_reopen_inside_one_slice_still_wakes_the_new_socket() {
    // The job parks on its first connection (the fd enters the reactor),
    // then — in one slice — closes it and accepts the second, which the
    // kernel gives the fd number just freed, and parks on that. The
    // kernel dropped the old registration at close; the closed-fd sweep
    // must make the reactor forget it too, so the new socket's wait
    // registers afresh and the second message wakes it.
    let pool = pool_with(1).build().unwrap();
    let port = listen_on_worker_0(&pool);
    let mut first = TcpStream::connect(("127.0.0.1", port)).unwrap();
    let mut second = TcpStream::connect(("127.0.0.1", port)).unwrap();
    let job = pool
        .submit(
            JobSpec::new(
                "reopen",
                "(let* ((a (tcp-accept lst))
                        (d1 (tcp-read a 16)))
                   (tcp-close a)
                   (let* ((b (tcp-accept lst))
                          (d2 (tcp-read b 16)))
                     (tcp-close b)
                     (tcp-close lst)
                     (list d1 d2 (%net-live))))",
            )
            .pin(0)
            .deadline(Duration::from_secs(20)),
        )
        .unwrap();
    // Let the job park on the first connection, wake it, and give it time
    // to close, re-accept and park again before the second peer speaks.
    std::thread::sleep(Duration::from_millis(50));
    first.write_all(b"one").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    second.write_all(b"two").unwrap();
    assert_eq!(job.wait().result.as_deref(), Ok("(\"one\" \"two\" 0)"));
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 0);
}

#[test]
fn data_arriving_mid_slice_resolves_later_reads() {
    // The second message lands while the handler is busy (not waiting):
    // its next read finds the bytes without suspending, and the read
    // after that parks on readiness the reactor may already have seen —
    // at worst one spurious wake, never a lost one.
    let pool = pool_with(1).build().unwrap();
    let port = listen_on_worker_0(&pool);
    let job = pool
        .submit(
            JobSpec::new(
                "busy-reader",
                "(let* ((c (tcp-accept lst))
                        (d1 (tcp-read c 16)))
                   (sleep-ms 80)
                   (let* ((d2 (tcp-read c 16))
                          (d3 (tcp-read c 16)))
                     (tcp-close c)
                     (tcp-close lst)
                     (list d1 d2 d3)))",
            )
            .pin(0)
            .deadline(Duration::from_secs(20)),
        )
        .unwrap();
    let mut peer = TcpStream::connect(("127.0.0.1", port)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    peer.write_all(b"one").unwrap();
    std::thread::sleep(Duration::from_millis(40)); // inside the sleep-ms
    peer.write_all(b"two").unwrap();
    std::thread::sleep(Duration::from_millis(150)); // parked on d3
    peer.write_all(b"three").unwrap();
    assert_eq!(job.wait().result.as_deref(), Ok("(\"one\" \"two\" \"three\")"));
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 0);
    assert!(report.counters.io_wakeups <= report.counters.io_blocked, "every wake answers a wait");
}

#[test]
fn cpu_bound_residents_cannot_starve_a_timer_wait() {
    // Eight residents spin for 1.5 s of wall clock each, all at once on
    // one worker; the ready ring never empties, so the only harvests are
    // the between-slices ones. A 20 ms timer must still be delivered
    // within a few revolutions of the ring, long before any spinner ends.
    let pool = Pool::builder().workers(1).resident_cap(16).fuel_slice(256).build().unwrap();
    let spun = Arc::new(AtomicU64::new(0));
    let spinners: Vec<_> = (0..8)
        .map(|i| {
            let spun = Arc::clone(&spun);
            pool.submit(
                JobSpec::new(
                    format!("spin-{i}"),
                    "(let ((end (+ (now-us) 1500000)))
                       (let loop () (if (< (now-us) end) (loop) 'spun)))",
                )
                .on_complete(move |_| {
                    spun.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .unwrap()
        })
        .collect();
    let timer = pool.submit(JobSpec::new("timer", "(begin (timer-wait 20) 'woke)")).unwrap();
    let outcome = timer.wait();
    assert_eq!(outcome.result.as_deref(), Ok("woke"));
    assert_eq!(spun.load(Ordering::SeqCst), 0, "the timer beat every spinner");
    assert!(
        outcome.latency < Duration::from_millis(750),
        "timer took {:?} behind 8 spinners",
        outcome.latency
    );
    for s in &spinners {
        assert_eq!(s.wait().result.as_deref(), Ok("spun"));
    }
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.timer_waits, 1);
}

/// Serves `conns` sequential connect–echo–close connections on a
/// one-worker pool and returns the worker VM's linked code-object count.
fn code_objects_after_churn(conns: usize) -> u64 {
    let pool = pool_with(1).build().unwrap();
    let done = Arc::new(AtomicU64::new(0));
    let done_cb = Arc::clone(&done);
    let handler = JobSpec::new(
        "echo-handler",
        "(let ((c (conn-take)))
           (let loop ()
             (let ((d (tcp-read c 4096)))
               (if (eq? d 'eof)
                   (begin (tcp-close c) 'served)
                   (begin (tcp-write c d) (loop))))))",
    )
    .on_complete(move |o| {
        assert_eq!(o.result.as_deref(), Ok("served"));
        done_cb.fetch_add(1, Ordering::SeqCst);
    });
    let port = pool.serve("127.0.0.1:0", handler).unwrap().port();
    let mut buf = [0u8; 5];
    for _ in 0..conns {
        let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.write_all(b"churn").unwrap();
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"churn");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while done.load(Ordering::SeqCst) < conns as u64 {
        assert!(std::time::Instant::now() < deadline, "handlers drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 0);
    report.workers[0].code_objects
}

#[test]
fn churned_connections_do_not_grow_the_worker_vms_code() {
    // The serve template is linked once per worker VM: 5 000 connections
    // leave the count where one did.
    assert_eq!(code_objects_after_churn(5_000), code_objects_after_churn(1));
}
