//! `pool-jobs`: a closed loop of mixed compute jobs on a one-worker pool.
//! `exec`'s queue and worker, the compile every `submit` performs on the
//! caller, and engine slice switching (one one-shot capture per
//! preemption) do the work; no socket is ever touched.

use std::sync::mpsc;
use std::time::Instant;

use super::{Block, LayerCounters, Scale, Teardown, Workload, POOL_FUEL_SLICE, POOL_OUTSTANDING};
use crate::affinity;
use crate::api::{Audit, JobPool};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::{At, Tracer};

const FIB: &str = include_str!("../../scheme/fib.scm");

/// Jobs a worker keeps started at once (the pool's default): a job in
/// `timer-wait` holds one of these while it is parked.
const RESIDENT_JOBS: usize = 8;

/// `(row name, source, share of the mix in percent)`. `(fib 20)` outlives
/// its 1024-call slice about 25 times; the timer job parks once.
const CLASSES: [(&str, &str, usize); 3] = [
    ("job.fib12", "(fib 12)", 70),
    ("job.fib20", "(fib 20)", 20),
    ("job.timer", "(begin (timer-wait 1) (fib 10))", 10),
];

struct Done {
    job: u64,
    class: usize,
    latency_us: f64,
    complaint: Option<String>,
}

pub struct PoolJobs {
    pool: JobPool,
    after_setup: Audit,
}

fn draw_class(rng: &mut Rng) -> usize {
    let mut roll = rng.below(100);
    for (i, (_, _, share)) in CLASSES.iter().enumerate() {
        if roll < *share {
            return i;
        }
        roll -= share;
    }
    unreachable!("shares sum to 100")
}

impl Workload for PoolJobs {
    fn setup(_t: &mut Tracer, _scale: &Scale) -> Result<Self, String> {
        let pool = JobPool::start(POOL_FUEL_SLICE, RESIDENT_JOBS)?;
        // The worker was created on the work CPU and keeps it; the
        // submitter, which compiles every job, moves off it.
        affinity::caller_apart(true);
        pool.run_pinned(FIB)?;
        let after_setup = pool.audit()?;
        Ok(PoolJobs { pool, after_setup })
    }

    fn block(&mut self, t: &mut Tracer, rng: &mut Rng, scale: &Scale) -> Result<Block, String> {
        let jobs = u64::from(scale.jobs_per_block);
        let mut block = Block::default();
        let mut by_class: [Vec<f64>; CLASSES.len()] = Default::default();
        let (tx, rx) = mpsc::channel::<Done>();
        let wants = [
            crate::expected::answer(CLASSES[0].1)?,
            crate::expected::answer(CLASSES[1].1)?,
            crate::expected::answer(CLASSES[2].1)?,
        ];
        let (mut submitted, mut finished) = (0u64, 0u64);
        let t0 = Instant::now();
        while finished < jobs {
            while submitted < jobs && submitted - finished < POOL_OUTSTANDING as u64 {
                let job = submitted;
                submitted += 1;
                block.attempted += 1;
                let class = draw_class(rng);
                let (_, source, _) = CLASSES[class];
                let want = wants[class];
                let tx = tx.clone();
                let sent = Instant::now();
                let accepted = self.pool.submit(t, job, source, move |result| {
                    let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                    let complaint = match result {
                        Ok(got) if got == want => None,
                        Ok(got) => Some(format!("{source}: wrote {got}, want {want}")),
                        Err(e) => Some(format!("{source}: {e}")),
                    };
                    // The receiver outlives every job of its block.
                    let _ = tx.send(Done { job, class, latency_us, complaint });
                });
                if let Err(e) = accepted {
                    block.complain(format!("submit {source}: {e}"));
                    finished += 1;
                }
            }
            if finished == jobs {
                break;
            }
            let span = t.enter(At::ExecWait, 0);
            let done = rx.recv().map_err(|_| "completion channel closed")?;
            t.exit_as(span, done.job);
            finished += 1;
            match done.complaint {
                None => {
                    block.latencies_us.push(done.latency_us);
                    by_class[done.class].push(done.latency_us);
                }
                Some(what) => block.complain(what),
            }
        }
        block.seconds = t0.elapsed().as_secs_f64();
        for ((name, _, _), latencies) in CLASSES.iter().zip(&by_class) {
            block.rows.push((name, median(latencies) / 1e3));
        }
        Ok(block)
    }

    fn counters(&mut self) -> Result<LayerCounters, String> {
        Ok(LayerCounters { vm: self.pool.vm_counters()?, pool: Some(self.pool.snapshot()) })
    }

    fn teardown(self, t: &mut Tracer) -> Result<Teardown, String> {
        let audit = self.pool.audit()?;
        let shutdown_s = self.pool.shutdown(t)?;
        affinity::caller_apart(false);
        Ok(Teardown {
            leaked_sockets: audit.open_sockets,
            leaked_segments: (audit.live_segments - self.after_setup.live_segments).max(0),
            shutdown_s,
        })
    }
}
