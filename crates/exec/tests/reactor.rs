//! End-to-end reactor tests: guest jobs blocking on real loopback
//! sockets and timers, woken by epoll readiness, with the pool's
//! accounting checked after every drain.
//!
//! The scenarios mirror the embedder contract:
//! - readiness wakeup: an echo server and its client, all green threads;
//! - timer ordering: staggered `timer-wait`s complete in deadline order;
//! - peer close mid-read: EOF, not a wedge;
//! - FD exhaustion: a catchable `io-error` condition, not a crash;
//! - determinism: N echo clients produce the same multiset of results
//!   under 1, 2, and 4 workers (proptest).

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use oneshot_exec::{JobSpec, Pool, PoolBuilder};
use oneshot_vm::VmConfig;
use proptest::prelude::*;

/// A pool sized for socket tests: enough residents per worker that one
/// worker can interleave a listener's handlers and their clients.
fn net_pool(workers: usize) -> PoolBuilder {
    Pool::builder().workers(workers).resident_cap(64).fuel_slice(2048)
}

/// Pinned to worker 0: bind a loopback listener into the worker's
/// globals, return its port.
const LISTEN: &str = "(define lst (tcp-listen 0)) (tcp-local-port lst)";

/// Serve exactly one connection on the worker-global `lst`, echoing every
/// chunk until the peer closes, then return what was served.
const SERVE_ONE: &str = "(define (serve-once)
       (let ((c (tcp-accept lst)))
         (let loop ((seen \"\"))
           (let ((d (tcp-read c 4096)))
             (if (eq? d 'eof)
                 (begin (tcp-close c) seen)
                 (begin (tcp-write c d) (loop (string-append seen d))))))))
     (serve-once)";

/// Connect to `port`, send `msg`, read it back in full, close, return it.
fn client_src(port: u16, msg: &str) -> String {
    format!(
        "(define (read-n s n acc)
           (if (>= (string-length acc) n)
               acc
               (let ((d (tcp-read s 4096)))
                 (if (eq? d 'eof) acc (read-n s n (string-append acc d))))))
         (let ((s (tcp-connect {port})))
           (tcp-write s \"{msg}\")
           (let ((r (read-n s (string-length \"{msg}\") \"\")))
             (tcp-close s)
             r))"
    )
}

fn setup_listener(pool: &Pool) -> u16 {
    let port = pool
        .submit(JobSpec::new("listen", LISTEN).pin(0))
        .unwrap()
        .wait()
        .result
        .expect("listener binds");
    port.parse().expect("port is a fixnum")
}

#[test]
fn echo_roundtrip_between_green_threads() {
    let pool = net_pool(2).build().unwrap();
    let port = setup_listener(&pool);
    let server = pool.submit(JobSpec::new("server", SERVE_ONE).pin(0)).unwrap();
    let client = pool.submit(JobSpec::new("client", client_src(port, "hello-reactor"))).unwrap();
    assert_eq!(client.wait().result.as_deref(), Ok("\"hello-reactor\""));
    assert_eq!(server.wait().result.as_deref(), Ok("\"hello-reactor\""));
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 0);
    assert!(report.counters.io_blocked >= 1, "accept or read must have suspended");
    assert!(report.counters.io_wakeups >= 1, "the reactor must have delivered");
}

#[test]
fn staggered_timers_complete_in_deadline_order() {
    // Submitted longest-first on one worker; completion callbacks record
    // the order, which must follow the deadlines, not submission.
    use std::sync::{Arc, Mutex};
    let pool = net_pool(1).build().unwrap();
    let order = Arc::new(Mutex::new(Vec::new()));
    // Gaps are wide (150 ms) so a loaded one-core CI host can't delay a
    // later submit past an earlier job's deadline.
    let handles: Vec<_> = [450u64, 300, 150]
        .iter()
        .map(|ms| {
            let order = Arc::clone(&order);
            let ms = *ms;
            pool.submit(
                JobSpec::new(format!("t-{ms}"), format!("(begin (timer-wait {ms}) {ms})"))
                    .on_complete(move |_| order.lock().unwrap().push(ms)),
            )
            .unwrap()
        })
        .collect();
    for h in &handles {
        assert!(h.wait().result.is_ok());
    }
    assert_eq!(*order.lock().unwrap(), vec![150, 300, 450]);
    let report = pool.shutdown().unwrap();
    assert_eq!(report.counters.timer_waits, 3);
}

#[test]
fn a_thousand_timer_waits_park_at_once_on_one_worker() {
    // A blocked job is a sealed one-shot continuation, so a thousand of
    // them cost memory, not threads: one worker holds the whole storm
    // suspended at once, delivers every timer exactly once, and is left
    // with no socket and no stack segment it did not start with.
    const JOBS: usize = 1_000;
    const WAIT_MS: u64 = 1_500;
    let audit = |pool: &Pool| {
        let src = "(begin (gc) (cons (%net-live) (cdr (assq 'live-uncached-segments (vm-stats)))))";
        pool.submit(JobSpec::new("audit", src).pin(0)).unwrap().wait().result.expect("audit runs")
    };
    let pool = net_pool(1).resident_cap(JOBS + 8).queue_capacity(JOBS + 64).build().unwrap();
    let before = audit(&pool);
    let start = std::time::Instant::now();
    let handles: Vec<_> = (0..JOBS)
        .map(|i| {
            let src = format!("(begin (timer-wait {WAIT_MS}) 'woke)");
            pool.submit(JobSpec::new(format!("storm-{i}"), src)).unwrap()
        })
        .collect();
    // The wait must outlast the submit phase, or the first timers fire
    // before the last jobs park and the highwater below proves nothing.
    let submit = start.elapsed();
    assert!(submit < Duration::from_millis(WAIT_MS), "submitting took {submit:?}");
    for h in &handles {
        assert_eq!(h.wait().result.as_deref(), Ok("woke"));
    }
    assert_eq!(audit(&pool), before, "a socket or segment outlived the storm");
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    let c = &report.counters;
    assert_eq!((c.completed, c.failed), (JOBS as u64 + 2, 0));
    assert_eq!(c.timer_waits, JOBS as u64);
    assert!(c.blocked_highwater >= JOBS as u64, "only {} parked at once", c.blocked_highwater);
    assert_eq!(
        c.wake_lateness.iter().sum::<u64>(),
        JOBS as u64,
        "every delivery lands in exactly one lateness bucket: {:?}",
        c.wake_lateness
    );
}

#[test]
fn peer_close_mid_read_is_eof_not_a_wedge() {
    let pool = net_pool(1).build().unwrap();
    let port = setup_listener(&pool);
    let server = pool
        .submit(
            JobSpec::new(
                "count-until-eof",
                "(let ((c (tcp-accept lst)))
                   (let loop ((n 0))
                     (let ((d (tcp-read c 4096)))
                       (if (eq? d 'eof)
                           (begin (tcp-close c) (list 'eof-after n))
                           (loop (+ n (string-length d)))))))",
            )
            .pin(0),
        )
        .unwrap();
    let mut peer = TcpStream::connect(("127.0.0.1", port)).unwrap();
    peer.write_all(b"abc").unwrap();
    drop(peer); // close mid-conversation: the blocked read must see EOF
    assert_eq!(server.wait().result.as_deref(), Ok("(eof-after 3)"));
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 0);
}

#[test]
fn fd_exhaustion_is_a_catchable_condition() {
    let cfg = VmConfig { max_open_sockets: 2, ..VmConfig::default() };
    let pool = net_pool(1).vm_config(cfg).build().unwrap();
    let h = pool
        .submit(JobSpec::new(
            "exhaust",
            "(call-with-guard
               (lambda (c) (list 'caught (condition-kind c)))
               (lambda ()
                 (begin (tcp-listen 0) (tcp-listen 0) (tcp-listen 0) 'no-condition)))",
        ))
        .unwrap();
    assert_eq!(h.wait().result.as_deref(), Ok("(caught io-error)"));
    let report = pool.shutdown().unwrap();
    assert_eq!(report.counters.completed, 1, "the job recovered, it did not fail");
}

fn run_echo_fleet(workers: usize, msgs: &[String]) -> Vec<String> {
    let pool = net_pool(workers).build().unwrap();
    let port = setup_listener(&pool);
    let servers: Vec<_> = (0..msgs.len())
        .map(|i| pool.submit(JobSpec::new(format!("server-{i}"), SERVE_ONE).pin(0)).unwrap())
        .collect();
    let clients: Vec<_> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            pool.submit(JobSpec::new(format!("client-{i}"), client_src(port, m))).unwrap()
        })
        .collect();
    let mut got: Vec<String> =
        clients.iter().map(|h| h.wait().result.expect("echo client succeeds")).collect();
    for s in &servers {
        assert!(s.wait().result.is_ok());
    }
    pool.shutdown_timeout(Duration::from_secs(60)).unwrap();
    got.sort();
    got
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    /// The multiset of echoed payloads is worker-count-invariant: the
    /// reactor's wakeup order and work stealing stay invisible in results.
    #[test]
    fn echo_results_are_worker_count_invariant(
        msgs in proptest::collection::vec("[a-z0-9]{1,24}", 1..8),
    ) {
        let mut expected: Vec<String> = msgs.iter().map(|m| format!("\"{m}\"")).collect();
        expected.sort();
        for workers in [1usize, 2, 4] {
            let got = run_echo_fleet(workers, &msgs);
            prop_assert_eq!(&got, &expected, "diverged at {} workers", workers);
        }
    }
}
