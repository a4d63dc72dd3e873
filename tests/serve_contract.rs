//! The serving path's contract, in tier-1: resident loopback connections
//! through `Pool::serve` on each reactor backend. A handler parked in
//! `tcp-read` is one sealed one-shot continuation; every round trip is one
//! would-block → park → wake → resume cycle. If the park path breaks —
//! a lost wakeup, a stale delivery, a leaked socket or segment — this
//! fails under `cargo test -q` at the root.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oneshot::exec::{Backend, JobSpec, Pool};

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
