//! A concurrent echo server where every connection is a green thread.
//!
//! The server side is [`Pool::serve`]: ONE shared `AF_INET` listener
//! whose accepted connections are distributed least-loaded/round-robin
//! across the per-worker reactors. Each accepted socket is adopted into
//! its worker's VM and handled by a green thread that fetches it with
//! `(conn-take)` — a handler blocked in `(tcp-read c 4096)` is a sealed
//! one-shot continuation, not an OS thread, so thousands of open
//! connections cost thousands of stack segments and nothing else. The
//! load generator's clients run as unpinned guest jobs on the same pool,
//! connecting to the shared port.
//!
//! ```text
//! cargo run --release --example server                  # demo load
//! cargo run --release --example server -- --smoke       # CI: 100 conns,
//! #   asserts every echo verified, zero leaked jobs, zero leaked
//! #   sockets, all heap segments reclaimed, clean shutdown
//! cargo run --release --example server -- --conns 2000 --workers 2
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oneshot::prelude::*;

/// The per-connection echo handler: take the adopted socket, echo every
/// chunk until EOF.
const HANDLER: &str = "(let ((c (conn-take)))
       (let loop ()
         (let ((d (tcp-read c 4096)))
           (if (eq? d 'eof)
               (begin (tcp-close c) 'served)
               (begin (tcp-write c d) (loop))))))";

/// Pinned to every worker (clients are unpinned, so every VM needs it):
/// the verifying echo client.
const CLIENT_LIB: &str = "(define (read-n s n acc)
       (if (>= (string-length acc) n)
           acc
           (let ((d (tcp-read s 4096)))
             (if (eq? d 'eof) acc (read-n s n (string-append acc d))))))
     (define (echo-client port msg rounds)
       (let ((s (tcp-connect port)))
         (let loop ((i 0) (bad 0))
           (if (< i rounds)
               (begin
                 (tcp-write s msg)
                 (let ((r (read-n s (string-length msg) \"\")))
                   (loop (+ i 1) (if (string=? r msg) bad (+ bad 1)))))
               (begin (tcp-close s)
                      (if (zero? bad) 'ok (list 'bad bad)))))))
     'lib";

/// Pinned per worker after the drain: report (live-sockets . in-use
/// segments). Cached segments are excluded — a drained continuation's
/// segments land in the reuse cache, which is recycling, not leakage.
const AUDIT: &str = "(cons (%net-live) (cdr (assq 'live-uncached-segments (vm-stats))))";

fn arg_val(args: &[String], name: &str) -> Option<usize> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let conns = arg_val(&args, "--conns").unwrap_or(if smoke { 100 } else { 400 });
    let workers = arg_val(&args, "--workers").unwrap_or(2).max(1);
    let rounds = arg_val(&args, "--rounds").unwrap_or(2);

    let pool = Pool::builder()
        .workers(workers)
        .resident_cap(2 * conns.div_ceil(workers) + 8)
        .fuel_slice(2048)
        .build()
        .expect("pool spawns");
    println!("echo server: {conns} connections x {rounds} rounds on {workers} workers");

    for w in 0..workers {
        let ok = pool
            .submit(JobSpec::new(format!("client-lib-{w}"), CLIENT_LIB).pin(w))
            .expect("submit lib")
            .wait()
            .result
            .expect("client lib loads");
        assert_eq!(ok, "lib");
    }

    // One shared listener; each accept becomes a handler green thread on
    // whichever worker the acceptor picked.
    let served = Arc::new(AtomicU64::new(0));
    let handler_bad = Arc::new(AtomicU64::new(0));
    let (served_cb, bad_cb) = (Arc::clone(&served), Arc::clone(&handler_bad));
    let handler = JobSpec::new("echo-handler", HANDLER)
        .deadline(Duration::from_secs(120))
        .on_complete(move |o| {
            if o.result.as_deref() == Ok("served") {
                served_cb.fetch_add(1, Ordering::Relaxed);
            } else {
                bad_cb.fetch_add(1, Ordering::Relaxed);
            }
        });
    let serve = pool.serve("127.0.0.1:0", handler).expect("shared listener binds");
    let port = serve.port();

    // The load: one unpinned client job per connection, all against the
    // one shared port. The main thread samples the accept-queue depth
    // while the storm runs.
    let t0 = Instant::now();
    let clients: Vec<_> = (0..conns)
        .map(|i| {
            pool.submit(
                JobSpec::new(
                    format!("client-{i}"),
                    format!("(echo-client {port} \"payload-{i}-abcdefgh\" {rounds})"),
                )
                .deadline(Duration::from_secs(120)),
            )
            .expect("submit client")
        })
        .collect();

    let mut accept_depth_peak = 0usize;
    let mut latencies: Vec<Duration> = Vec::with_capacity(conns);
    let mut bad = 0usize;
    // Per-class failure counts: under fault injection or overload the
    // *mix* of failures is the signal, not just the total.
    let mut errors: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for h in &clients {
        // Sample between waits: cheap, and the storm is long enough that
        // the peak shows up.
        accept_depth_peak = accept_depth_peak.max(pool.accept_queue_depth());
        let outcome = h.wait();
        match outcome.result.as_deref() {
            Ok("ok") => latencies.push(outcome.latency),
            other => {
                bad += 1;
                let class = match &outcome.result {
                    Err(e) => match e.condition_kind() {
                        Some("io-timeout") => "timeout",
                        Some("io-error") if e.message().contains("refused") => "refused",
                        Some("io-error") => "reset",
                        _ => "other",
                    },
                    Ok(_) => "corrupt", // echoed, but not what was sent
                };
                *errors.entry(class).or_insert(0) += 1;
                eprintln!("client {} failed [{class}]: {other:?}", outcome.name);
            }
        }
    }
    // Every client closed; wait for the handlers to see EOF and finish.
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    while served.load(Ordering::Relaxed) + handler_bad.load(Ordering::Relaxed) < conns as u64 {
        assert!(Instant::now() < drain_deadline, "handlers drained");
        std::thread::sleep(Duration::from_millis(5));
    }
    let wall = t0.elapsed();
    serve.stop();
    bad += handler_bad.load(Ordering::Relaxed) as usize;

    // Leak audit while the workers are still alive: every socket closed,
    // every blocked continuation's segments back in the cache.
    let mut leaked_sockets = 0i64;
    let mut live_segments = 0i64;
    for w in 0..workers {
        let shown = pool
            .submit(JobSpec::new(format!("audit-{w}"), AUDIT).pin(w))
            .expect("submit audit")
            .wait()
            .result
            .expect("audit runs");
        let (socks, segs) = shown.trim_matches(['(', ')']).split_once(" . ").expect("audit pair");
        leaked_sockets += socks.parse::<i64>().expect("sockets");
        live_segments += segs.parse::<i64>().expect("segments");
    }

    latencies.sort();
    let echoes = (conns * rounds) as f64;
    println!(
        "{echoes:.0} echoes in {:.1} ms  =>  {:.0} echoes/s",
        wall.as_secs_f64() * 1e3,
        echoes / wall.as_secs_f64()
    );
    println!(
        "client latency p50={:.1} ms  p99={:.1} ms  max={:.1} ms",
        percentile(&latencies, 0.50).as_secs_f64() * 1e3,
        percentile(&latencies, 0.99).as_secs_f64() * 1e3,
        percentile(&latencies, 1.0).as_secs_f64() * 1e3,
    );

    let report = pool.shutdown_timeout(Duration::from_secs(60)).expect("clean shutdown");
    let c = report.counters;
    println!(
        "counters: {} jobs submitted, {} jobs completed, {} jobs failed; \
         {} I/O suspensions, {} I/O wakeups, blocked high-water {} fds",
        c.submitted, c.completed, c.failed, c.io_blocked, c.io_wakeups, c.blocked_highwater
    );
    println!(
        "accepts: {} conns total, per-worker {:?}; queue depth peak {} conns (sampled) / \
         {} conns (high-water); accept_overflow = {} conns shed",
        serve.accepted(),
        c.accepts_per_worker,
        accept_depth_peak,
        c.accept_queue_highwater,
        c.accept_overflow
    );
    println!("leak audit: {leaked_sockets} open sockets, {live_segments} live stack segments");
    if bad > 0 {
        let classes: Vec<String> = errors.iter().map(|(class, n)| format!("{class}={n}")).collect();
        println!("client errors: {bad} total ({})", classes.join(", "));
    }

    if smoke {
        assert_eq!(bad, 0, "every echo must verify and every handler must serve");
        assert_eq!(c.failed, 0, "no job may fail");
        assert_eq!(serve.accepted(), conns as u64, "one accept per connection");
        assert_eq!(
            c.accepts_per_worker.iter().sum::<u64>(),
            conns as u64,
            "every accept routed to a worker"
        );
        assert_eq!(c.accept_overflow, 0, "no connection shed");
        assert_eq!(leaked_sockets, 0, "zero leaked sockets");
        // The audit job itself runs on a handful of live segments; the
        // bound catches any per-connection segment leak at conns scale.
        assert!(
            live_segments < 16 * workers as i64,
            "segments were not reclaimed: {live_segments}"
        );
        println!("SMOKE OK: {conns} connections served and verified, clean shutdown");
    }
}
