//! `paper-control`: the reproduction itself (section 4, Figure 5). Every
//! program here spends its time capturing, reinstating, overflowing or
//! splicing the segmented stack.

use std::time::Instant;

use super::{
    Block, LayerCounters, Scale, Teardown, Workload, CTAK_ARGS, ENGINE_FUEL, FIG5_SWITCH_EVERY,
};
use crate::api::{self, Engines, Machine, Program, Step, Switching, Threads, Thunk};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;

const FIB: &str = include_str!("../../scheme/fib.scm");
const FIB_CPS: &str = include_str!("../../scheme/fib-cps.scm");
const CTAK: &str = include_str!("../../scheme/ctak.scm");
const DEEP: &str = include_str!("../../scheme/deep.scm");
const GENERATOR: &str = include_str!("../../scheme/generator.scm");

/// The program rows, in ledger order; a block runs them in seeded order.
pub const ROWS: [&str; 8] = [
    "ctak-1cc",
    "ctak-cc",
    "fig5-1cc",
    "fig5-cc",
    "fig5-cps",
    "deep-overflow",
    "gen-prompt",
    "engine-rr",
];

pub struct PaperControl {
    main: Machine,
    ctak_1cc: Thunk,
    ctak_cc: Thunk,
    deep: Thunk,
    generator: Thunk,
    threads: [(Switching, Threads); 3],
    engines: Engines,
    engine_job: Program,
    /// Live segments across the five VMs once the first block has run.
    /// Not after set-up: the call/cc scheduler keeps its last scheduler
    /// continuation (one segment) in a global from its first run on, which
    /// is a constant, not a leak.
    segments_when_warm: Option<i64>,
}

fn ctak_source(name: &str, capture: &str) -> String {
    CTAK.replace("NAME", name).replace("CAPTURE", capture)
}

/// A Figure 5 thread body: one fib, added to the shared sum. The `let`
/// keeps the read of the sum and its update on the same side of any
/// preemption (switches happen at procedure calls).
fn fig5_thread(kind: Switching, n: u32) -> String {
    match kind {
        Switching::Cps => {
            format!("(lambda (k) (fib-cps {n} (lambda (v) (set! fig5-sum (+ fig5-sum v)) (k v))))")
        }
        _ => format!("(lambda () (let ((v (fib {n}))) (set! fig5-sum (+ fig5-sum v))))"),
    }
}

impl PaperControl {
    fn live_segments(&mut self) -> Result<i64, String> {
        let mut total = self.main.live_segments()? + self.engines.live_segments()?;
        for (_, ts) in &mut self.threads {
            total += ts.live_segments()?;
        }
        Ok(total)
    }

    /// Spawns the threads (untimed), runs them to completion (the row),
    /// and checks the sum they left behind.
    pub fn fig5(
        &mut self,
        t: &mut Tracer,
        which: usize,
        switch_every: u64,
        scale: &Scale,
        block: &mut Block,
        id: u64,
    ) -> Result<f64, String> {
        let (kind, ts) = &mut self.threads[which];
        ts.eval("(set! fig5-sum 0)")?;
        let body = fig5_thread(*kind, scale.fig5_fib);
        for _ in 0..scale.fig5_threads {
            ts.spawn(&body)?;
        }
        let t0 = Instant::now();
        ts.run(t, switch_every, id)?;
        let took = t0.elapsed().as_secs_f64();
        let sum = ts.eval("fig5-sum");
        block.check(&format!("(fig5-sum {} {})", scale.fig5_threads, scale.fig5_fib), sum);
        Ok(took)
    }

    fn engine_round_robin(
        &mut self,
        t: &mut Tracer,
        scale: &Scale,
        block: &mut Block,
        id: u64,
    ) -> Result<f64, String> {
        let t0 = Instant::now();
        let mut live = Vec::with_capacity(scale.engines as usize);
        for _ in 0..scale.engines {
            live.push(self.engines.spawn(&self.engine_job)?);
        }
        let mut sum: i64 = 0;
        while !live.is_empty() {
            let mut still = Vec::with_capacity(live.len());
            for e in live {
                match self.engines.step(t, e, ENGINE_FUEL, id)? {
                    Step::Parked => still.push(e),
                    Step::Done(shown) => {
                        sum += shown.parse::<i64>().map_err(|_| format!("engine wrote {shown}"))?;
                    }
                }
            }
            live = still;
        }
        let took = t0.elapsed().as_secs_f64();
        block.check(
            &format!("(engine-sum {} {})", scale.engines, scale.engine_fib),
            Ok(sum.to_string()),
        );
        Ok(took)
    }

    fn row(
        &mut self,
        t: &mut Tracer,
        name: &'static str,
        scale: &Scale,
        block: &mut Block,
        id: u64,
    ) -> Result<f64, String> {
        let (x, y, z) = CTAK_ARGS;
        let main_row = |m: &mut Machine, t: &mut Tracer, thunk, block: &mut Block, q: String| {
            let t0 = Instant::now();
            let got = m.run(t, thunk, id);
            let took = t0.elapsed().as_secs_f64();
            block.check(&q, got);
            took
        };
        Ok(match name {
            "ctak-1cc" => {
                main_row(&mut self.main, t, self.ctak_1cc, block, format!("(ctak {x} {y} {z})"))
            }
            "ctak-cc" => {
                main_row(&mut self.main, t, self.ctak_cc, block, format!("(ctak {x} {y} {z})"))
            }
            "deep-overflow" => main_row(
                &mut self.main,
                t,
                self.deep,
                block,
                format!("(deep {})", scale.deep_depth),
            ),
            "gen-prompt" => main_row(
                &mut self.main,
                t,
                self.generator,
                block,
                format!("(gen-sum {})", scale.gen_yields),
            ),
            "fig5-1cc" => self.fig5(t, 0, FIG5_SWITCH_EVERY, scale, block, id)?,
            "fig5-cc" => self.fig5(t, 1, FIG5_SWITCH_EVERY, scale, block, id)?,
            "fig5-cps" => self.fig5(t, 2, FIG5_SWITCH_EVERY, scale, block, id)?,
            "engine-rr" => self.engine_round_robin(t, scale, block, id)?,
            other => return Err(format!("no such row: {other}")),
        })
    }
}

/// "Never switch", for the unswitched half of the switch-cost pair.
const NEVER: u64 = 1 << 30;

/// Pricing a context switch: the Figure 5 rows again, unswitched.
impl PaperControl {
    /// `(time switching every 32 calls − time never switching) ÷ switches`,
    /// the median of three pairs.
    pub fn switch_ns(
        &mut self,
        t: &mut Tracer,
        which: usize,
        scale: &Scale,
    ) -> Result<f64, String> {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let mut block = Block::default();
            let (switched, switches) = self.fig5_counting_switches(t, which, scale, &mut block)?;
            let unswitched = self.fig5(t, which, NEVER, scale, &mut block, 0)?;
            if block.failed > 0 {
                return Err(block.complaints.join("; "));
            }
            samples.push((switched - unswitched) * 1e9 / switches.max(1) as f64);
        }
        Ok(median(&samples))
    }

    fn fig5_counting_switches(
        &mut self,
        t: &mut Tracer,
        which: usize,
        scale: &Scale,
        block: &mut Block,
    ) -> Result<(f64, u64), String> {
        let before = self.threads[which].1.counters();
        let took = self.fig5(t, which, FIG5_SWITCH_EVERY, scale, block, 0)?;
        let d = self.threads[which].1.counters().delta_since(&before);
        // The capture-based systems switch by capturing; the CPS system
        // switches once per `FIG5_SWITCH_EVERY` checked calls, and a
        // thread makes 2·fib(n+1) − 1 of them.
        let switches = match which {
            0 => d.captures_one,
            1 => d.captures_multi,
            _ => {
                let calls = 2 * fib(scale.fig5_fib + 1) - 1;
                u64::from(scale.fig5_threads) * calls / FIG5_SWITCH_EVERY
            }
        };
        Ok((took, switches))
    }
}

fn fib(n: u32) -> u64 {
    (0..n).fold((0u64, 1u64), |(a, b), _| (b, a + b)).0
}

impl Workload for PaperControl {
    fn setup(t: &mut Tracer, scale: &Scale) -> Result<Self, String> {
        let (x, y, z) = CTAK_ARGS;
        let mut main = Machine::boot(t);
        for src in [DEEP, GENERATOR] {
            main.eval(t, src, 0)?;
        }
        main.eval(t, &ctak_source("ctak-1cc", "call/1cc"), 0)?;
        main.eval(t, &ctak_source("ctak-cc", "call/cc"), 0)?;
        let mut keep = |t: &mut Tracer, global: &str, call: String| -> Result<Thunk, String> {
            let prog = api::compile(t, &call, 0)?;
            Ok(main.load(t, &prog, global, 0))
        };
        let rounds = scale.ctak_rounds;
        let ctak_1cc =
            keep(t, "%bench-ctak-1cc", format!("(ctak-1cc-rounds {rounds} {x} {y} {z})"))?;
        let ctak_cc = keep(t, "%bench-ctak-cc", format!("(ctak-cc-rounds {rounds} {x} {y} {z})"))?;
        let deep = keep(
            t,
            "%bench-deep",
            format!("(deep-rounds {} {})", scale.deep_rounds, scale.deep_depth),
        )?;
        let generator = keep(t, "%bench-gen", format!("(gen-sum {})", scale.gen_yields))?;

        let boot_threads = |t: &mut Tracer, kind: Switching| -> Result<_, String> {
            let mut ts = Threads::boot(t, kind);
            ts.eval(if kind == Switching::Cps { FIB_CPS } else { FIB })?;
            ts.eval("(define fig5-sum 0)")?;
            Ok((kind, ts))
        };
        let threads = [
            boot_threads(t, Switching::OneShot)?,
            boot_threads(t, Switching::MultiShot)?,
            boot_threads(t, Switching::Cps)?,
        ];

        let mut engines = Engines::boot(t);
        engines.eval(t, FIB, 0)?;
        let engine_job = api::compile(t, &format!("(fib {})", scale.engine_fib), 0)?;

        Ok(PaperControl {
            main,
            ctak_1cc,
            ctak_cc,
            deep,
            generator,
            threads,
            engines,
            engine_job,
            segments_when_warm: None,
        })
    }

    fn block(&mut self, t: &mut Tracer, rng: &mut Rng, scale: &Scale) -> Result<Block, String> {
        // The seed draws the order the programs run in; what each one
        // computes is fixed, which is what lets instruction counts repeat.
        let mut order = ROWS;
        rng.shuffle(&mut order);
        let mut block = Block::default();
        let before = self.counters()?.vm.instructions;
        let t0 = Instant::now();
        for (i, name) in order.into_iter().enumerate() {
            let took = self.row(t, name, scale, &mut block, i as u64 + 1)?;
            block.rows.push((name, took * 1e3));
            block.latencies_us.push(took * 1e6);
        }
        block.seconds = t0.elapsed().as_secs_f64();
        // Ledger order, whatever order the seed ran them in.
        block.rows.sort_by_key(|(name, _)| ROWS.iter().position(|r| r == name));
        block.instructions = Some(self.counters()?.vm.instructions - before);
        if self.segments_when_warm.is_none() {
            self.segments_when_warm = Some(self.live_segments()?);
        }
        Ok(block)
    }

    fn counters(&mut self) -> Result<LayerCounters, String> {
        let mut vm = self.main.counters().plus(&self.engines.counters());
        for (_, ts) in &self.threads {
            vm = vm.plus(&ts.counters());
        }
        Ok(LayerCounters { vm, ..LayerCounters::default() })
    }

    fn teardown(mut self, _t: &mut Tracer) -> Result<Teardown, String> {
        let leaked = match self.segments_when_warm {
            Some(warm) => self.live_segments()? - warm,
            None => 0,
        };
        Ok(Teardown { leaked_segments: leaked.max(0), ..Teardown::default() })
    }
}
