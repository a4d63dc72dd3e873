//! `compute-plain`: calls, arithmetic, consing and the front end, with no
//! first-class control anywhere. `core` only pushes and pops frames here,
//! so a change to capture, reinstatement, threads or the reactor should
//! leave every number on this workload where it was.

use std::time::Instant;

use super::{Block, LayerCounters, Scale, Teardown, Workload};
use crate::api::{self, Machine, Thunk};
use crate::rng::Rng;
use crate::trace::Tracer;

const FIB: &str = include_str!("../../scheme/fib.scm");
const TAK: &str = include_str!("../../scheme/tak.scm");
pub const BOYER: &str = include_str!("../../scheme/boyer.scm");

/// The program rows, in ledger order; a block runs them in seeded order.
pub const ROWS: [&str; 4] = ["fib", "tak", "boyer", "frontend"];

pub struct ComputePlain {
    main: Machine,
    fib: Thunk,
    tak: Thunk,
    boyer: Thunk,
    segments_after_setup: i64,
}

impl ComputePlain {
    /// Boots throwaway VMs, then reads and compiles boyer.scm over and
    /// over: `vm` boot, `sexp` and `compiler` with nothing run.
    fn frontend(t: &mut Tracer, scale: &Scale, block: &mut Block) {
        for _ in 0..scale.frontend_boots {
            drop(Machine::boot(t));
        }
        for i in 0..u64::from(scale.frontend_compiles) {
            let forms = api::read(t, BOYER, i).map(|n| n.to_string());
            block.check("(toplevel-forms boyer.scm)", forms);
            block.attempted += 1;
            if let Err(e) = api::compile(t, BOYER, i) {
                block.complain(format!("compile boyer.scm: {e}"));
            }
        }
    }
}

impl Workload for ComputePlain {
    fn setup(t: &mut Tracer, scale: &Scale) -> Result<Self, String> {
        let mut main = Machine::boot(t);
        for src in [FIB, TAK, BOYER] {
            main.eval(t, src, 0)?;
        }
        let mut keep = |t: &mut Tracer, global: &str, call: String| -> Result<Thunk, String> {
            let prog = api::compile(t, &call, 0)?;
            Ok(main.load(t, &prog, global, 0))
        };
        let (x, y, z) = scale.tak_args;
        let fib = keep(t, "%bench-fib", format!("(fib {})", scale.fib_n))?;
        let tak = keep(t, "%bench-tak", format!("(tak {x} {y} {z})"))?;
        let boyer = keep(t, "%bench-boyer", "(boyer-run 1)".to_string())?;
        let segments_after_setup = main.live_segments()?;
        Ok(ComputePlain { main, fib, tak, boyer, segments_after_setup })
    }

    fn block(&mut self, t: &mut Tracer, rng: &mut Rng, scale: &Scale) -> Result<Block, String> {
        let mut order = ROWS;
        rng.shuffle(&mut order);
        let mut block = Block::default();
        let before = self.main.counters().instructions;
        let (x, y, z) = scale.tak_args;
        let t0 = Instant::now();
        for (i, name) in order.into_iter().enumerate() {
            let id = i as u64 + 1;
            let row0 = Instant::now();
            match name {
                "fib" => {
                    let got = self.main.run(t, self.fib, id);
                    block.check(&format!("(fib {})", scale.fib_n), got);
                }
                "tak" => {
                    let got = self.main.run(t, self.tak, id);
                    block.check(&format!("(tak {x} {y} {z})"), got);
                }
                "boyer" => {
                    for _ in 0..scale.boyer_rounds {
                        let got = self.main.run(t, self.boyer, id);
                        block.check("(boyer-run 1)", got);
                    }
                }
                "frontend" => Self::frontend(t, scale, &mut block),
                other => return Err(format!("no such row: {other}")),
            }
            let took = row0.elapsed().as_secs_f64();
            block.rows.push((name, took * 1e3));
            block.latencies_us.push(took * 1e6);
        }
        block.seconds = t0.elapsed().as_secs_f64();
        // Ledger order, whatever order the seed ran them in.
        block.rows.sort_by_key(|(name, _)| ROWS.iter().position(|r| r == name));
        block.instructions = Some(self.main.counters().instructions - before);
        Ok(block)
    }

    fn counters(&mut self) -> Result<LayerCounters, String> {
        Ok(LayerCounters { vm: self.main.counters(), ..LayerCounters::default() })
    }

    fn teardown(mut self, _t: &mut Tracer) -> Result<Teardown, String> {
        let leaked = self.main.live_segments()? - self.segments_after_setup;
        Ok(Teardown { leaked_segments: leaked.max(0), ..Teardown::default() })
    }
}
