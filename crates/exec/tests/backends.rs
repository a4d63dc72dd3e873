//! Poll-vs-epoll differential suite: the readiness backend must be
//! observationally invisible. The same seeded workload runs on a
//! poll-backed pool and an epoll-backed pool (selected programmatically
//! via `PoolBuilder::reactor_backend`, so both run in one process without
//! racing on `ONESHOT_REACTOR`), and everything the embedder can see —
//! job results, leak audits, failure counts — must agree.
//!
//! Also here: the integration-level stale-wakeup scenario for
//! edge-triggered mode (readiness arriving *after* the wait was cancelled
//! by a deadline must not resume the continuation a second time), the
//! shared-listener accept path under both backends, and the
//! lifetime-registration contract seen from the guest: a recycled fd
//! number, readiness nobody was waiting for, the harvest cap under CPU
//! load, and a serve template linked once however many connections churn.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oneshot_exec::{Backend, JobSpec, Pool, PoolBuilder};

fn pool_with(backend: Backend, workers: usize) -> PoolBuilder {
    Pool::builder().workers(workers).resident_cap(64).fuel_slice(2048).reactor_backend(backend)
}

const BACKENDS: [Backend; 2] = [Backend::Poll, Backend::Epoll];

/// xorshift64* — the repo's standard seeded PRNG, for a deterministic
/// workload shared by both backend runs.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One seeded mixed workload: echo pairs over loopback sockets plus
/// timer sleeps, every job returning a value derived from the seed.
/// Returns (sorted results, final counters) after a clean shutdown.
fn run_seeded_workload(
    backend: Backend,
    seed: u64,
) -> (Vec<String>, oneshot_exec::PoolCountersSnapshot) {
    let pool = pool_with(backend, 2).build().unwrap();
    assert_eq!(pool.reactor_backend(), backend, "builder selection is authoritative");
    let mut rng = seed;
    let mut handles = Vec::new();
    for i in 0..12 {
        let r = xorshift(&mut rng);
        if r.is_multiple_of(3) {
            // A timer job: sleeps a seeded 5..40 ms, returns its label.
            let ms = 5 + r % 36;
            handles.push(
                pool.submit(JobSpec::new(
                    format!("timer-{i}"),
                    format!("(begin (timer-wait {ms}) (list 'timer {i}))"),
                ))
                .unwrap(),
            );
        } else {
            // An echo pair inside one job: listener, client, roundtrip.
            let msg = format!("msg-{i}-{:08x}", r & 0xFFFF_FFFF);
            handles.push(
                pool.submit(JobSpec::new(
                    format!("echo-{i}"),
                    format!(
                        "(let* ((l (tcp-listen 0))
                                (p (tcp-local-port l))
                                (c (tcp-connect p))
                                (a (tcp-accept l)))
                           (tcp-write c \"{msg}\")
                           (let ((d (tcp-read a {len})))
                             (tcp-close c) (tcp-close a) (tcp-close l)
                             (list (%net-live) d)))",
                        len = msg.len(),
                    ),
                ))
                .unwrap(),
            );
        }
    }
    let mut results: Vec<String> = handles
        .iter()
        .map(|h| h.wait().result.expect("seeded workload jobs all succeed"))
        .collect();
    results.sort();
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 0, "{backend}: no failures");
    (results, report.counters)
}

#[test]
fn same_seeded_workload_gives_identical_results_on_both_backends() {
    for seed in [0x1BAD_5EED_u64, 0xFACE_FEED] {
        let (poll_results, poll_counters) = run_seeded_workload(Backend::Poll, seed);
        let (epoll_results, epoll_counters) = run_seeded_workload(Backend::Epoll, seed);
        assert_eq!(
            poll_results, epoll_results,
            "seed {seed:#x}: results must not depend on backend"
        );
        assert_eq!(poll_counters.completed, epoll_counters.completed);
        assert_eq!(poll_counters.reactor_backend, "poll");
        assert_eq!(epoll_counters.reactor_backend, "epoll");
        // Leak-free teardown on both: every echo job asserted its own
        // socket count via (%net-live) in its result; results matching
        // means the audits matched too.
        assert!(
            poll_results.iter().filter(|r| r.starts_with("((")).count() == 0,
            "echo results embed (%net-live) after close: 3 sockets open mid-roundtrip"
        );
    }
}

#[test]
fn a_one_worker_timer_storm_retires_identical_instructions_on_both_backends() {
    // The backend is readiness plumbing and nothing the guest can see: 16
    // jobs of three timer waits each execute the same bytecode however
    // their wakeups were multiplexed. (Exact on one worker only — with
    // stealing in play, slice re-entries depend on scheduling.)
    let storm = |backend: Backend| {
        let pool = pool_with(backend, 1).build().unwrap();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let src = "(let loop ((i 0))
                             (if (< i 3) (begin (timer-wait 5) (loop (+ i 1))) 'done))";
                pool.submit(JobSpec::new(format!("storm-{i}"), src)).unwrap()
            })
            .collect();
        for h in &handles {
            assert_eq!(h.wait().result.as_deref(), Ok("done"), "{backend}");
        }
        let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.counters.failed, 0, "{backend}");
        assert_eq!(report.counters.timer_waits, 48, "{backend}");
        assert_eq!(report.counters.wake_lateness.iter().sum::<u64>(), 48, "{backend}");
        report.workers[0].vm.instructions
    };
    assert_eq!(storm(Backend::Poll), storm(Backend::Epoll));
}

#[test]
fn deadline_cancelled_wait_ignores_late_readiness_on_both_backends() {
    // A job blocks reading a socket that stays silent past its deadline.
    // The deadline fails the job and cancels the wait; the peer THEN
    // writes, so readiness arrives for a cancelled wait (the stale-wakeup
    // case — under edge-triggered epoll the kernel event still fires).
    // The stale delivery must be dropped by the seq guard: no panic, no
    // double resume, and the worker keeps serving jobs afterwards.
    for backend in BACKENDS {
        let pool = pool_with(backend, 1).build().unwrap();
        let port: u16 = pool
            .submit(
                JobSpec::new("listen", "(define lst (tcp-listen 0)) (tcp-local-port lst)").pin(0),
            )
            .unwrap()
            .wait()
            .result
            .expect("listener binds")
            .parse()
            .unwrap();
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
        assert_eq!(
            outcome.result.unwrap_err().kind(),
            oneshot_exec::ErrorKind::DeadlineExceeded,
            "{backend}"
        );
        peer.write_all(b"too-late").unwrap();
        // Give the late readiness time to reach the (cancelled) wait.
        std::thread::sleep(Duration::from_millis(60));
        // The worker must still be healthy: run a fresh job to completion.
        let after = pool.submit(JobSpec::new("after", "(+ 20 22)").pin(0)).unwrap();
        assert_eq!(after.wait().result.as_deref(), Ok("42"), "{backend}");
        drop(peer);
        let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.counters.failed, 1, "{backend}: only the doomed job failed");
    }
}

#[test]
fn shared_listener_distributes_and_echoes_on_both_backends() {
    // Pool::serve under both backends: N Rust-side clients against one
    // shared AF_INET listener, handlers fetched via (conn-take). Checks
    // echo correctness, completion accounting, accepts-per-worker
    // distribution, and a leak-free shutdown.
    const CLIENTS: usize = 8;
    for backend in BACKENDS {
        let pool = pool_with(backend, 2).build().unwrap();
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
        // One more client from inside the pool: a green thread connecting
        // to the shared listener parks on the same reactors that serve it.
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
        assert_eq!(guest.wait().result.as_deref(), Ok("\"guest\""), "{backend}");
        const CLIENTS_AND_GUEST: u64 = CLIENTS as u64 + 1;
        // Handlers finish after the peers close; wait for the callbacks.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while done.load(Ordering::SeqCst) < CLIENTS_AND_GUEST {
            assert!(std::time::Instant::now() < deadline, "{backend}: handlers drained");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(serve.accepted(), CLIENTS_AND_GUEST, "{backend}");
        let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.counters.failed, 0, "{backend}");
        assert_eq!(
            report.counters.accepts_per_worker.iter().sum::<u64>(),
            CLIENTS_AND_GUEST,
            "{backend}: every accept was routed to a worker"
        );
        assert_eq!(report.counters.accept_overflow, 0, "{backend}");
        assert_eq!(report.counters.reactor_backend, backend.name());
    }
}

#[test]
fn counters_delta_since_subtracts_counters_and_carries_gauges() {
    let pool = pool_with(Backend::Poll, 2).build().unwrap();
    let before = pool.stats();
    for i in 0..4 {
        pool.submit(JobSpec::new(format!("n-{i}"), format!("(* {i} {i})"))).unwrap().wait();
    }
    pool.submit(JobSpec::new("nap", "(timer-wait 5)")).unwrap().wait();
    let after = pool.stats();
    let delta = after.delta_since(&before);
    assert_eq!(delta.submitted, 5);
    assert_eq!(delta.completed, 5);
    assert_eq!(delta.reactor_backend, "poll");
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
    for backend in BACKENDS {
        let pool = pool_with(backend, 1).build().unwrap();
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
        // Let the job park on the first connection, wake it, and give it
        // time to close, re-accept and park again before the second peer
        // speaks.
        std::thread::sleep(Duration::from_millis(50));
        first.write_all(b"one").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        second.write_all(b"two").unwrap();
        assert_eq!(job.wait().result.as_deref(), Ok("(\"one\" \"two\" 0)"), "{backend}");
        let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.counters.failed, 0, "{backend}");
    }
}

#[test]
fn data_arriving_mid_slice_resolves_later_reads_on_both_backends() {
    // The second message lands while the handler is busy (not waiting):
    // its next read finds the bytes without suspending, and the read
    // after that parks on readiness the reactor may already have seen —
    // at worst one spurious wake, never a lost one.
    for backend in BACKENDS {
        let pool = pool_with(backend, 1).build().unwrap();
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
        assert_eq!(job.wait().result.as_deref(), Ok("(\"one\" \"two\" \"three\")"), "{backend}");
        let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.counters.failed, 0, "{backend}");
        assert!(
            report.counters.io_wakeups <= report.counters.io_blocked,
            "{backend}: every wake answers a wait"
        );
    }
}

#[test]
fn cpu_bound_residents_cannot_starve_a_timer_wait() {
    // Eight residents spin for 1.5 s of wall clock each, all at once on
    // one worker; the ready ring never empties, so the only harvests are
    // the between-slices ones. A 20 ms timer must still be delivered
    // within a few revolutions of the ring, long before any spinner ends.
    for backend in BACKENDS {
        let pool = Pool::builder()
            .workers(1)
            .resident_cap(16)
            .fuel_slice(256)
            .reactor_backend(backend)
            .build()
            .unwrap();
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
        assert_eq!(outcome.result.as_deref(), Ok("woke"), "{backend}");
        assert_eq!(spun.load(Ordering::SeqCst), 0, "{backend}: the timer beat every spinner");
        assert!(
            outcome.latency < Duration::from_millis(750),
            "{backend}: timer took {:?} behind 8 spinners",
            outcome.latency
        );
        for s in &spinners {
            assert_eq!(s.wait().result.as_deref(), Ok("spun"), "{backend}");
        }
        let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.counters.timer_waits, 1, "{backend}");
    }
}

/// Serves `conns` sequential connect–echo–close connections on a
/// one-worker pool and returns the worker VM's linked code-object count.
fn code_objects_after_churn(backend: Backend, conns: usize) -> u64 {
    let pool = pool_with(backend, 1).build().unwrap();
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
        assert!(std::time::Instant::now() < deadline, "{backend}: handlers drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 0, "{backend}");
    report.workers[0].code_objects
}

#[test]
fn churned_connections_do_not_grow_the_worker_vms_code() {
    // Every accepted connection used to link the handler program again,
    // appending its code and constants to the VM for good. The template
    // is linked once per worker VM: 5 000 connections leave the count
    // where one did.
    let after_one = code_objects_after_churn(Backend::Epoll, 1);
    assert_eq!(code_objects_after_churn(Backend::Epoll, 5_000), after_one);
    assert_eq!(code_objects_after_churn(Backend::Poll, 50), after_one);
}
