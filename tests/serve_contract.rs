//! The serving path's contract, in tier-1: resident loopback connections
//! through `Pool::serve` on each reactor backend. A handler parked in
//! `tcp-read` is one sealed one-shot continuation; every round trip is one
//! would-block → park → wake → resume cycle. If the park path breaks —
//! a lost wakeup, a stale delivery, a leaked socket or segment — this
//! fails under `cargo test -q` at the root. So does a parked one-shot that
//! is resumed twice or never: one seeded chaos-serve run per backend and a
//! shutdown over jobs parked on timers and sockets check that every
//! connection and every job resolves exactly once and leaves nothing
//! behind.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oneshot::exec::{Backend, ErrorKind, JobSpec, Pool};
use oneshot::vm::{FaultPlan, VmConfig};

const CONNECTIONS: usize = 64;
const ROUND_TRIPS: usize = 200;

const ECHO_HANDLER: &str = "(let ((c (conn-take)))
   (let loop ()
     (let ((d (tcp-read c 4096)))
       (if (eq? d 'eof)
           (begin (tcp-close c) 'served)
           (begin (tcp-write c d) (loop))))))";

/// Open sockets and live (uncached) stack segments on worker 0, after a
/// collection: a dead continuation pins its segment until one runs.
const AUDIT: &str =
    "(begin (gc) (cons (%net-live) (cdr (assq 'live-uncached-segments (vm-stats)))))";

fn audit(pool: &Pool) -> String {
    pool.submit(JobSpec::new("audit", AUDIT).pin(0)).unwrap().wait().result.expect("audit runs")
}

fn resident_connections_echo_byte_exact(backend: Backend) {
    let pool = Pool::builder()
        .workers(1)
        .resident_cap(CONNECTIONS + 8)
        .reactor_backend(backend)
        .build()
        .unwrap();
    assert_eq!(pool.reactor_backend(), backend);
    let before = audit(&pool);

    let served = Arc::new(AtomicU64::new(0));
    let served_cb = Arc::clone(&served);
    let handler = JobSpec::new("echo", ECHO_HANDLER).on_complete(move |o| {
        assert_eq!(o.result.as_deref(), Ok("served"));
        served_cb.fetch_add(1, Ordering::SeqCst);
    });
    let port = pool.serve("127.0.0.1:0", handler).unwrap().port();

    let mut conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            s.set_nodelay(true).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            s
        })
        .collect();

    // Round-robin over the resident set, one request in flight: between
    // two requests on one connection its handler has parked again.
    let mut reply = [0u8; 32];
    for round in 0..ROUND_TRIPS {
        for (i, conn) in conns.iter_mut().enumerate() {
            let msg = format!("conn-{i:02}-round-{round:03}");
            conn.write_all(msg.as_bytes()).unwrap();
            let got = &mut reply[..msg.len()];
            conn.read_exact(got).unwrap_or_else(|e| panic!("{backend}: {msg}: {e}"));
            assert_eq!(got, msg.as_bytes(), "{backend}: byte-exact echo");
        }
    }

    conns.clear(); // every peer closes: every handler reads eof and returns
    let deadline = Instant::now() + Duration::from_secs(30);
    while served.load(Ordering::SeqCst) < CONNECTIONS as u64 {
        assert!(Instant::now() < deadline, "{backend}: handlers drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(audit(&pool), before, "{backend}: no socket or segment outlives its handler");

    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    let c = &report.counters;
    assert_eq!(c.failed, 0, "{backend}");
    // A handler must park between two requests on its connection: the
    // client sends the next one only after a round over all the others.
    // The parks before the first request and before eof are races the
    // client can win, so they are not counted on.
    assert!(
        c.io_blocked >= (CONNECTIONS * (ROUND_TRIPS - 1)) as u64,
        "{backend}: {} parks — handlers parked between requests",
        c.io_blocked
    );
    assert!(
        c.io_wakeups <= c.io_blocked + CONNECTIONS as u64,
        "{backend}: {} wakeups for {} waits — a wait is delivered at most once",
        c.io_wakeups,
        c.io_blocked
    );
}

#[test]
fn resident_connections_echo_byte_exact_on_poll() {
    resident_connections_echo_byte_exact(Backend::Poll);
}

#[test]
fn resident_connections_echo_byte_exact_on_epoll() {
    resident_connections_echo_byte_exact(Backend::Epoll);
}

/// One read, echo, close; any injected condition is caught by the guard,
/// which scraps the socket before reporting, so the handler itself never
/// leaks.
const GUARDED_HANDLER: &str = "(let ((c (conn-take)))
   (call-with-guard
     (lambda (e) (begin (tcp-close c) (list 'caught (condition-kind e))))
     (lambda ()
       (let ((d (tcp-read c 4096)))
         (if (not (eq? d 'eof)) (tcp-write c d))
         (tcp-close c)
         'served))))";

/// A seeded fault plan armed in the VM *and* the reactor while real
/// connections flow (`crates/exec/tests/faults.rs` sweeps more seeds).
/// Only invariants are asserted — how many connections a schedule lets
/// through varies from run to run; that each one resolves does not.
fn seeded_chaos_serve_resolves_every_connection(backend: Backend) {
    const CONNS: usize = 12;
    // Seed 19 cuts the 2nd guest read short and makes the 15th read or
    // write spuriously would-block, before its segment, timer and
    // allocation clocks (51, 80, 103) come due: twelve connections reach
    // the first two on every run, so "some fault fired" is deterministic.
    let cfg = VmConfig { fault_plan: Some(FaultPlan::seeded(19, 256)), ..VmConfig::default() };
    let pool = Pool::builder()
        .workers(1)
        .resident_cap(64)
        .reactor_backend(backend)
        .vm_config(cfg)
        .max_retries(2)
        .build()
        .unwrap();
    let handler =
        JobSpec::new("chaos-echo", GUARDED_HANDLER).io_timeout(Duration::from_millis(500));
    let serve = pool.serve("127.0.0.1:0", handler).unwrap();
    let (mut answered, mut degraded) = (0, 0);
    for i in 0..CONNS {
        let msg = format!("chaos-{i:02}");
        let mut s = TcpStream::connect(("127.0.0.1", serve.port())).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(msg.as_bytes()).unwrap();
        let mut got = Vec::new();
        // A fault may shorten, reset or time out the echo: anything but a
        // client-side timeout (a wedge) is a resolution.
        match s.read_to_end(&mut got) {
            Ok(_) if got == msg.as_bytes() => answered += 1,
            Ok(_) => degraded += 1,
            Err(e) => {
                assert_ne!(e.kind(), std::io::ErrorKind::WouldBlock, "{backend}: {msg} wedged");
                assert_ne!(e.kind(), std::io::ErrorKind::TimedOut, "{backend}: {msg} wedged");
                degraded += 1;
            }
        }
    }
    serve.stop();
    assert_eq!(answered + degraded, CONNS, "{backend}");
    // The audit job can itself eat a still-armed one-shot fault clock —
    // the plan working as intended — so retry until the clocks are spent.
    let mut audits = 0u64;
    let live = (0..5).find_map(|attempt| {
        audits += 1;
        let audit = JobSpec::new(format!("audit-{attempt}"), "(%net-live)").pin(0);
        pool.submit(audit).unwrap().wait().result.ok()
    });
    assert_eq!(live.as_deref(), Some("0"), "{backend}: sockets leaked under chaos");
    let report =
        pool.shutdown_timeout(Duration::from_secs(60)).expect("the pool drains under chaos");
    let c = &report.counters;
    let faults = c.io_faults_injected + report.workers[0].vm.faults_injected;
    assert!(faults > 0, "{backend}: the schedule injected nothing");
    assert_eq!(
        c.completed + c.failed,
        CONNS as u64 + audits,
        "{backend}: every handler and audit resolves exactly once"
    );
}

#[test]
fn seeded_chaos_serve_resolves_every_connection_on_poll() {
    seeded_chaos_serve_resolves_every_connection(Backend::Poll);
}

#[test]
fn seeded_chaos_serve_resolves_every_connection_on_epoll() {
    seeded_chaos_serve_resolves_every_connection(Backend::Epoll);
}

/// A job that opens sockets itself and is then failed by its deadline
/// while its VM lives on: the sockets it opened are the job's and are
/// closed with it. (A job that completes keeps its sockets — storing a
/// listener in a global for later accept loops is a pinned pattern.)
fn a_failed_jobs_own_sockets_are_closed(backend: Backend) {
    let pool = Pool::builder().workers(1).reactor_backend(backend).build().unwrap();
    let live = || {
        let audit = JobSpec::new("live", "(%net-live)").pin(0);
        pool.submit(audit).unwrap().wait().result.expect("audit runs")
    };
    let before = live();
    let own = "(let* ((l (tcp-listen 0)) (c (tcp-connect (tcp-local-port l))))
                 (timer-wait 10000)
                 'woke)";
    let spec = JobSpec::new("own-sockets", own).pin(0).deadline(Duration::from_millis(100));
    let failed = pool.submit(spec).unwrap().wait().result.map_err(|e| e.kind());
    assert_eq!(failed, Err(ErrorKind::DeadlineExceeded), "{backend}");
    assert_eq!(live(), before, "{backend}: the listener and connection outlived their job");
    pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
}

#[test]
fn a_failed_jobs_own_sockets_are_closed_on_poll() {
    a_failed_jobs_own_sockets_are_closed(Backend::Poll);
}

#[test]
fn a_failed_jobs_own_sockets_are_closed_on_epoll() {
    a_failed_jobs_own_sockets_are_closed(Backend::Epoll);
}

fn shutdown_resolves_every_parked_job_exactly_once(backend: Backend) {
    // A graceful shutdown begins while one worker holds seventeen sealed
    // one-shots: timers, handlers whose peer speaks during the drain,
    // handlers whose peer never does (their deadline fails them and the
    // worker scraps their connection), and — parked longest — the audit
    // itself. Each must be resumed or failed exactly once, and the audit,
    // the last thing the worker runs, must find the sockets and stack
    // segments it had before any of it.
    const EACH: usize = 4;
    let pool =
        Pool::builder().workers(1).resident_cap(64).reactor_backend(backend).build().unwrap();
    let before = audit(&pool);

    let resolutions = Arc::new(AtomicU64::new(0));
    let (spoke, timed_out) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (resolved, spoke_cb, timed_out_cb) =
        (Arc::clone(&resolutions), Arc::clone(&spoke), Arc::clone(&timed_out));
    let handler =
        JobSpec::new("read-once", "(let* ((c (conn-take)) (d (tcp-read c 64))) (tcp-close c) d)")
            .deadline(Duration::from_millis(600))
            .on_complete(move |o| {
                resolved.fetch_add(1, Ordering::SeqCst);
                match &o.result {
                    Ok(d) if d == "\"late\"" => spoke_cb.fetch_add(1, Ordering::SeqCst),
                    Err(e) if e.kind() == ErrorKind::DeadlineExceeded => {
                        timed_out_cb.fetch_add(1, Ordering::SeqCst)
                    }
                    other => panic!("handler resolved as {other:?}"),
                };
            });
    let port = pool.serve("127.0.0.1:0", handler).unwrap().port();
    let mut peers: Vec<TcpStream> =
        (0..2 * EACH).map(|_| TcpStream::connect(("127.0.0.1", port)).unwrap()).collect();
    let submit = |name: String, src: String| {
        let resolved = Arc::clone(&resolutions);
        let spec = JobSpec::new(name, src).pin(0).on_complete(move |_| {
            resolved.fetch_add(1, Ordering::SeqCst);
        });
        pool.submit(spec).unwrap()
    };
    let timers: Vec<_> = (0..2 * EACH)
        .map(|i| submit(format!("timer-{i}"), "(begin (timer-wait 300) 'woke)".into()))
        .collect();
    let last = submit("audit-after-drain".into(), format!("(begin (timer-wait 1200) {AUDIT})"));
    let parked = (4 * EACH + 1) as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while pool.stats().io_blocked + pool.stats().timer_waits < parked {
        assert!(Instant::now() < deadline, "{backend}: the jobs never all parked");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Half the peers speak while the pool drains, half never do.
    let silent = peers.split_off(EACH);
    let speaker = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        for mut peer in peers {
            peer.write_all(b"late").unwrap();
        }
    });
    let report = pool.shutdown_timeout(Duration::from_secs(30)).expect("the pool drains");
    speaker.join().unwrap();
    drop(silent);

    for t in &timers {
        assert_eq!(t.wait().result.as_deref(), Ok("woke"), "{backend}");
    }
    let after = last.wait().result;
    assert_eq!(after.as_deref(), Ok(before.as_str()), "{backend}: (sockets . segments)");
    assert_eq!(resolutions.load(Ordering::SeqCst), parked, "{backend}: one resolution per job");
    let each = EACH as u64;
    assert_eq!((spoke.load(Ordering::SeqCst), timed_out.load(Ordering::SeqCst)), (each, each));
    let c = &report.counters;
    assert_eq!((c.completed, c.failed), (parked - each + 1, each), "{backend}");
}

#[test]
fn shutdown_resolves_every_parked_job_exactly_once_on_poll() {
    shutdown_resolves_every_parked_job_exactly_once(Backend::Poll);
}

#[test]
fn shutdown_resolves_every_parked_job_exactly_once_on_epoll() {
    shutdown_resolves_every_parked_job_exactly_once(Backend::Epoll);
}
