//! The execution subsystem end to end: a worker pool running Scheme jobs
//! as engine-preempted green threads, fed by one shared injector, with fuel
//! budgets and job-level fault isolation.
//!
//! ```text
//! cargo run --release --example pool
//! ```

use std::time::Instant;

use oneshot::exec::{ErrorKind, JobSpec, Pool};

fn main() {
    let pool = Pool::builder().workers(4).fuel_slice(1024).build().expect("pool spawns");
    println!("pool: {} workers, 1024-call fuel slices\n", pool.worker_count());

    // A mixed load: CPU-bound fib, I/O-style sleeps (the OS thread blocks,
    // so these overlap across workers), one runaway loop with a fuel
    // budget, and one job that dies with a Scheme type error.
    let start = Instant::now();
    let mut handles = Vec::new();
    for n in [16, 18, 20] {
        handles.push(
            pool.submit(JobSpec::new(
                format!("fib-{n}"),
                format!(
                    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib {n})"
                ),
            ))
            .expect("submit"),
        );
    }
    for i in 0..4 {
        handles.push(
            pool.submit(JobSpec::new(format!("io-{i}"), "(begin (sleep-ms 40) 'served)"))
                .expect("submit"),
        );
    }
    handles.push(
        pool.submit(JobSpec::new("runaway", "(let loop ((i 0)) (loop (+ i 1)))").fuel(20_000))
            .expect("submit"),
    );
    handles.push(pool.submit(JobSpec::new("type-error", "(car 42)")).expect("submit"));

    for h in &handles {
        let outcome = h.wait();
        match &outcome.result {
            Ok(v) => println!(
                "{:<12} => {v:<8} ({} slices, {:.1} ms)",
                outcome.name,
                outcome.slices,
                outcome.latency.as_secs_f64() * 1e3
            ),
            Err(e) if e.kind() == ErrorKind::FuelExhausted => {
                println!("{:<12} => {e}", outcome.name);
            }
            Err(e) => println!("{:<12} => error ({}): {e}", outcome.name, e.kind()),
        }
    }
    println!("\nall outcomes in {:.1} ms wall", start.elapsed().as_secs_f64() * 1e3);

    let report = pool.shutdown().expect("clean shutdown");
    let c = report.counters;
    println!(
        "counters: {} completed, {} failed ({} timed out), {} requeues",
        c.completed, c.failed, c.timed_out, c.requeues
    );
    for w in &report.workers {
        println!(
            "worker {}: {} ok, {} failed, {} slices, {} instructions, {} slots copied",
            w.worker,
            w.jobs_ok,
            w.jobs_failed,
            w.slices,
            w.vm.instructions,
            w.vm.stack.slots_copied
        );
    }
}
