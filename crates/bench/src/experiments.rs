//! The paper's evaluation, E1–E8: Figure 5, the §4 `tak` and deep-recursion
//! rows and the §3/§5 ablations (DESIGN.md's per-experiment index).
//!
//! Each experiment is declared once, as an entry of [`EXPERIMENTS`]: its
//! subcommand, title, columns, the function that measures its rows, the
//! paper's claim printed under the table, and a `check` of that claim's
//! *shape* on the deterministic counter columns (never on wall time).
//! [`Experiment::report`] is the one driver: it prints the table, returns
//! it for the JSON document and runs the check, every time.

use std::time::Instant;

use oneshot_core::{Config, OneShotPolicy, OverflowPolicy, PromotionStrategy};
use oneshot_threads::{Strategy, ThreadSystem};
use oneshot_vm::{Pipeline, Vm};

use crate::measure::run_measured;
use crate::table::{render, Cell, Table};
use crate::workloads;

/// The schema id of the document the binary writes (DESIGN.md, "Metrics
/// JSON schema").
pub const SCHEMA: &str = "oneshot-experiments/v11";

/// How large a run is. Everything an experiment's size depends on is here,
/// so the three scales differ in nothing else.
#[derive(Debug, Clone)]
pub struct Scale {
    /// `"quick"`, `"paper"` or `"sanity"` — the JSON's `scale` member.
    pub name: &'static str,
    /// E1: each thread computes `(fib fib_n)`.
    pub fib_n: u32,
    /// E1: thread counts, one printed panel each.
    pub threads: Vec<usize>,
    /// E1: procedure calls per context switch.
    pub freqs: Vec<u64>,
    /// E2, E5: `(ctak x y z)`.
    pub tak: (i64, i64, i64),
    /// E3: `(deep-rounds rounds depth)`.
    pub deep: (u64, u64),
    /// E6: rounds of the boundary-hovering recursion.
    pub hover_rounds: u64,
    /// E7: suspended `call/1cc` threads.
    pub suspended: usize,
    /// E8: lengths of the one-shot chain one `call/cc` promotes.
    pub chains: Vec<usize>,
}

impl Scale {
    /// The paper's shapes in about ten seconds (the default).
    pub fn quick() -> Scale {
        Scale {
            name: "quick",
            fib_n: 15,
            threads: vec![10, 100],
            freqs: vec![1, 2, 4, 8, 16, 32, 64, 128],
            tak: (16, 8, 0),
            deep: (5, 200_000),
            hover_rounds: 20_000,
            suspended: 100,
            chains: vec![10, 100, 1000],
        }
    }

    /// The paper's own parameters (`--paper`): fib 20, up to 1000 threads,
    /// switch frequencies to 512.
    pub fn paper() -> Scale {
        Scale {
            name: "paper",
            fib_n: 20,
            threads: vec![10, 100, 1000],
            freqs: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            tak: (18, 12, 6),
            deep: (5, 1_000_000),
            ..Scale::quick()
        }
    }

    /// The smallest runs on which every shape still shows — what the test
    /// suites run (debug builds included).
    pub fn sanity() -> Scale {
        Scale {
            name: "sanity",
            fib_n: 8,
            threads: vec![3],
            freqs: vec![1, 8],
            tak: (12, 6, 0),
            deep: (3, 20_000),
            hover_rounds: 300,
            suspended: 50,
            chains: vec![10, 200],
        }
    }
}

/// One table or figure of the paper.
pub struct Experiment {
    /// Subcommand of the `experiments` binary and key in its JSON.
    pub key: &'static str,
    /// Printed above the table; `{name}` stands for the parameter `name`.
    pub title: &'static str,
    /// The scale values this experiment depends on, by name.
    pub params: fn(&Scale) -> Vec<(&'static str, u64)>,
    /// A leading column printed not as a column but as a heading, one
    /// sub-table per distinct value (Figure 5's panels).
    pub panel: Option<&'static str>,
    /// The printed columns.
    pub columns: &'static [&'static str],
    /// Trailing columns the table does not print: counters only `check`
    /// (and the JSON) read.
    pub unprinted: &'static [&'static str],
    /// Measures the rows: `panel`, `columns`, `unprinted` cells in order.
    pub rows: fn(&Scale) -> Vec<Vec<Cell>>,
    /// Printed under the table: what the paper reports.
    pub paper: &'static [&'static str],
    /// Whether the rows have the paper's shape.
    pub check: fn(&Table) -> Result<(), String>,
}

impl Experiment {
    /// Every column name, in row order.
    pub fn all_columns(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.panel.iter().chain(self.columns).chain(self.unprinted).copied()
    }

    /// Measures this experiment at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if a workload fails to load or run — a build defect.
    pub fn run(&self, scale: &Scale) -> Table {
        Table {
            params: (self.params)(scale),
            columns: self.all_columns().collect(),
            rows: (self.rows)(scale),
        }
    }

    /// The one driver: runs the experiment, prints its title, table and the
    /// paper's claim, and checks the shape. Returns the table (the
    /// experiment's member of the JSON document) with the check's verdict.
    ///
    /// # Panics
    ///
    /// As [`Experiment::run`].
    pub fn report(&self, scale: &Scale) -> (Table, Result<(), String>) {
        let table = self.run(scale);
        let mut title = self.title.to_string();
        for (name, value) in &table.params {
            title = title.replace(&format!("{{{name}}}"), &value.to_string());
        }
        println!("\n== {title} ==");
        let first = usize::from(self.panel.is_some());
        let printed = first..first + self.columns.len();
        // One sub-table per run of rows sharing a panel value.
        for group in table.rows.chunk_by(|a, b| self.panel.is_none() || a[0] == b[0]) {
            if let Some(name) = self.panel {
                println!("\n-- {} {name} --", group[0][0]);
            }
            let shown: Vec<Vec<String>> = group
                .iter()
                .map(|row| row[printed.clone()].iter().map(Cell::to_string).collect())
                .collect();
            println!("{}", render(self.columns, &shown));
        }
        for line in self.paper {
            println!("{line}");
        }
        let verdict = (self.check)(&table);
        (table, verdict)
    }
}

/// Fails the enclosing check with the formatted message unless `$holds`.
macro_rules! require {
    ($holds:expr, $($message:tt)+) => {
        if !$holds {
            return Err(format!($($message)+));
        }
    };
}

fn vm_with(stack: Config) -> Vm {
    Vm::builder().stack(stack).build()
}

fn no_params(_: &Scale) -> Vec<(&'static str, u64)> {
    Vec::new()
}

fn tak_params(s: &Scale) -> Vec<(&'static str, u64)> {
    let (x, y, z) = s.tak;
    vec![("x", x as u64), ("y", y as u64), ("z", z as u64)]
}

/// E1–E8, in the order `all` runs them (Figure 5, the long one, last).
pub static EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        key: "tak",
        title: "E2 / §4: (ctak {x} {y} {z}) — capture+invoke per call",
        params: tak_params,
        panel: None,
        columns: &[
            "operator",
            "ms",
            "rel-time",
            "words-alloc",
            "rel-alloc",
            "stack-words",
            "slots-copied",
        ],
        unprinted: &[],
        rows: tak_rows,
        paper: &["Paper: call/1cc 13% faster, 23% less allocation."],
        check: tak_check,
    },
    Experiment {
        key: "overflow",
        title: "E3 / §4: deep recursion ({rounds} rounds x depth {depth}), overflow policy",
        params: |s| vec![("rounds", s.deep.0), ("depth", s.deep.1)],
        panel: None,
        columns: &["overflow-as", "ms", "slots-copied", "segments", "cache-hits", "words-alloc"],
        unprinted: &[],
        rows: overflow_rows,
        paper: &[
            "Paper: one-shot overflow handling ~300% faster on this extreme case,",
            "allocating almost nothing after the first round (cache hits).",
        ],
        check: overflow_check,
    },
    Experiment {
        key: "frames",
        title: "E4 / §5: closure-creation overhead per frame, direct vs CPS",
        params: no_params,
        panel: None,
        columns: &["program", "pipeline", "calls", "closures", "closures/call", "ops/call"],
        unprinted: &[],
        rows: frames_rows,
        paper: &[
            "Paper (vs Appel-Shao): the stack compiler's closure overhead is ~0",
            "(boyer allocates no closures at all); CPS pays >=1 per non-tail call.",
        ],
        check: frames_check,
    },
    Experiment {
        key: "cache",
        title: "E5 / §3.2 ablation: segment cache, (ctak {x} {y} {z}) with call/1cc",
        params: tak_params,
        panel: None,
        columns: &["cache", "ms", "segments-allocated", "cache-hits"],
        unprinted: &[],
        rows: cache_rows,
        paper: &["Paper: without the cache, call/1cc programs were \"unacceptably slow\"."],
        check: cache_check,
    },
    Experiment {
        key: "hysteresis",
        title: "E6 / §3.2 ablation: overflow hysteresis (boundary-hovering recursion)",
        params: |s| vec![("rounds", s.hover_rounds)],
        panel: None,
        columns: &["hysteresis", "ms", "overflows", "slots-copied"],
        unprinted: &[],
        rows: hysteresis_rows,
        paper: &["Paper: copying up a few frames on overflow prevents bouncing."],
        check: hysteresis_check,
    },
    Experiment {
        key: "fragmentation",
        title: "E7 / §3.4: resident stack memory for {suspended} call/1cc threads",
        params: |s| vec![("suspended", s.suspended as u64)],
        panel: None,
        columns: &["policy", "threads", "resident-slots", "~bytes"],
        unprinted: &[],
        rows: fragmentation_rows,
        paper: &[
            "Paper: 100 threads x 16KB default stacks = 1.6MB mostly wasted;",
            "sealing at a displacement above the occupied portion bounds it.",
        ],
        check: fragmentation_check,
    },
    Experiment {
        key: "promotion",
        title: "E8 / §3.3: promotion of one-shot chains by one call/cc",
        params: no_params,
        panel: None,
        columns: &["chain-length", "strategy", "promotions", "walk-steps"],
        unprinted: &[],
        rows: promotion_rows,
        paper: &[
            "Paper: the eager walk is linear in the chain (amortized: each one-shot",
            "promotes once); the proposed shared flag promotes a whole chain in O(1).",
        ],
        check: promotion_check,
    },
    Experiment {
        key: "figure5",
        title: "E1 / Figure 5: thread systems (fib {fib_n} per thread; times in ms)",
        params: |s| vec![("fib_n", u64::from(s.fib_n))],
        panel: Some("threads"),
        columns: &["calls/switch", "cps", "call/cc", "call/1cc", "fastest"],
        unprinted: &[
            "cps-closures",
            "cps-slots-copied",
            "call/cc-slots-copied",
            "call/1cc-slots-copied",
            "cps-segments",
            "call/cc-segments",
            "call/1cc-segments",
            "cps-segment-slots",
            "call/cc-segment-slots",
            "call/1cc-segment-slots",
        ],
        rows: figure5_rows,
        paper: &[
            "Expected shape: call/1cc <= call/cc everywhere; CPS wins only at the",
            "most rapid switch rates (paper: more often than every 4-8 calls).",
        ],
        check: figure5_check,
    },
];

// ----------------------------------------------------------------------
// E1 — Figure 5: the thread-system comparison
// ----------------------------------------------------------------------

/// One point of Figure 5.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Wall-clock milliseconds.
    pub ms: f64,
    /// Stack slots copied during the run (0 for call/1cc and CPS).
    pub slots_copied: u64,
    /// Closures allocated during the run (large for CPS).
    pub closures: u64,
    /// Stack segments allocated during the run (cache hits excluded).
    pub segments: u64,
    /// Their slots: a fresh segment is initialised whole, so this is also
    /// the slots written to set segments up — Figure 5's per-thread floor.
    pub segment_slots: u64,
}

/// Runs one Figure 5 configuration: `threads` threads each computing
/// `fib(fib_n)` with a context switch every `freq` calls.
///
/// # Panics
///
/// Panics if the scheduler or workload fails — a build defect.
pub fn figure5_point(strategy: Strategy, threads: usize, freq: u64, fib_n: u32) -> Fig5Point {
    let mut ts = ThreadSystem::new(strategy);
    let (workload, thunk) = match strategy {
        Strategy::Cps => (workloads::FIB_CPS, format!("(lambda (k) (fib-cps {fib_n} k))")),
        _ => (workloads::FIB, format!("(lambda () (fib {fib_n}))")),
    };
    ts.eval(workload).expect("workload loads");
    for _ in 0..threads {
        ts.spawn(&thunk).expect("spawn");
    }
    let before = ts.stats();
    let start = Instant::now();
    ts.run(freq).expect("threads run");
    let wall = start.elapsed();
    let d = ts.stats().delta_since(&before);
    Fig5Point {
        ms: wall.as_secs_f64() * 1e3,
        slots_copied: d.stack.slots_copied,
        closures: d.heap.closures_allocated,
        segments: d.stack.segments_allocated,
        segment_slots: d.stack.segment_slots_allocated,
    }
}

fn figure5_rows(scale: &Scale) -> Vec<Vec<Cell>> {
    let mut rows = Vec::new();
    for &threads in &scale.threads {
        for &freq in &scale.freqs {
            let [cps, cc, one] =
                Strategy::ALL.map(|s| figure5_point(s, threads, freq, scale.fib_n));
            let fastest = if cps.ms < cc.ms.min(one.ms) {
                "cps"
            } else if one.ms <= cc.ms {
                "call/1cc"
            } else {
                "call/cc"
            };
            rows.push(vec![
                Cell::Count(threads as u64),
                Cell::Count(freq),
                Cell::ms(cps.ms),
                Cell::ms(cc.ms),
                Cell::ms(one.ms),
                Cell::text(fastest),
                Cell::Count(cps.closures),
                Cell::Count(cps.slots_copied),
                Cell::Count(cc.slots_copied),
                Cell::Count(one.slots_copied),
                Cell::Count(cps.segments),
                Cell::Count(cc.segments),
                Cell::Count(one.segments),
                Cell::Count(cps.segment_slots),
                Cell::Count(cc.segment_slots),
                Cell::Count(one.segment_slots),
            ]);
        }
    }
    rows
}

/// One-shot and CPS switches copy nothing, `call/cc` switches copy the
/// stack back, and CPS pays in closures instead.
fn figure5_check(t: &Table) -> Result<(), String> {
    for row in 0..t.rows.len() {
        let at = format!(
            "{} threads, {} calls/switch",
            t.count(row, "threads"),
            t.count(row, "calls/switch")
        );
        for column in ["call/1cc-slots-copied", "cps-slots-copied"] {
            let copied = t.count(row, column);
            require!(copied == 0, "{at}: {column} = {copied}");
        }
        require!(
            t.count(row, "call/cc-slots-copied") > 0,
            "{at}: call/cc reinstated without copying"
        );
        let closures = t.count(row, "cps-closures");
        require!(closures > 100, "{at}: CPS allocated only {closures} closures");
    }
    Ok(())
}

// ----------------------------------------------------------------------
// E2 — §4 tak: call/cc vs call/1cc capture-per-call
// ----------------------------------------------------------------------

/// ctak under both capture operators, plus `call/1cc` under the §3.4
/// seal-with-pad policy (which packs many one-shot continuations into each
/// segment, as the paper's implementation does, recovering its allocation
/// advantage).
fn tak_rows(scale: &Scale) -> Vec<Vec<Cell>> {
    let (x, y, z) = scale.tak;
    let sealed = Config { oneshot_policy: OneShotPolicy::SealWithPad(128), ..Config::default() };
    let measured: Vec<_> = [
        ("call/cc", "call/cc", Config::default()),
        ("call/1cc", "call/1cc", Config::default()),
        ("call/1cc+seal", "call/1cc", sealed),
    ]
    .into_iter()
    .map(|(label, capture, cfg)| {
        let mut vm = vm_with(cfg);
        vm.eval_str(&workloads::ctak(capture)).expect("ctak loads");
        (label, run_measured(&mut vm, &format!("(ctak {x} {y} {z})")).expect("ctak runs"))
    })
    .collect();
    let base = &measured[0].1;
    measured
        .iter()
        .map(|(label, m)| {
            vec![
                Cell::text(*label),
                Cell::ms(m.ms()),
                Cell::percent_of(m.ms(), base.ms()),
                Cell::Count(m.words_allocated()),
                Cell::percent_of(m.words_allocated() as f64, base.words_allocated() as f64),
                Cell::Count(m.delta.stack.segment_slots_allocated),
                Cell::Count(m.delta.stack.slots_copied),
            ]
        })
        .collect()
}

/// `call/cc` copies on every invoke; `call/1cc` copies nothing and
/// allocates less, less still when sealing packs its segments.
fn tak_check(t: &Table) -> Result<(), String> {
    let (cc, one, sealed) = (0, 1, 2);
    require!(t.count(cc, "slots-copied") > 0, "call/cc copied no slots");
    for row in [one, sealed] {
        let copied = t.count(row, "slots-copied");
        require!(copied == 0, "call/1cc row {row} copied {copied} slots");
    }
    require!(
        t.count(one, "words-alloc") < t.count(cc, "words-alloc"),
        "call/1cc allocated no less than call/cc"
    );
    require!(
        t.count(sealed, "stack-words") < t.count(one, "stack-words"),
        "seal-with-pad allocated no fewer stack words than fresh segments"
    );
    Ok(())
}

// ----------------------------------------------------------------------
// E3 — §4 overflow: deep recursion under both overflow policies
// ----------------------------------------------------------------------

/// `rounds` repetitions of a `depth`-deep recursion with trivial bodies,
/// with stack overflow handled as an implicit `call/1cc` vs an implicit
/// `call/cc`.
fn overflow_rows(scale: &Scale) -> Vec<Vec<Cell>> {
    let (rounds, depth) = scale.deep;
    // A cache deep enough for one full descent, so steady-state rounds
    // allocate nothing (the paper: "always finds fresh stack segments in
    // the stack cache").
    let segment_slots = 16 * 1024;
    let cache_limit = (depth as usize * 6 / segment_slots) + 8;
    [OverflowPolicy::OneShot, OverflowPolicy::MultiShot]
        .into_iter()
        .map(|policy| {
            let mut vm = vm_with(Config {
                overflow_policy: policy,
                segment_slots,
                copy_bound: 4096,
                cache_limit,
                ..Config::default()
            });
            vm.eval_str(workloads::DEEP).expect("deep loads");
            let m = run_measured(&mut vm, &format!("(deep-rounds {rounds} {depth})"))
                .expect("deep runs");
            vec![
                Cell::text(format!("{policy:?}")),
                Cell::ms(m.ms()),
                Cell::Count(m.delta.stack.slots_copied),
                Cell::Count(m.delta.stack.segments_allocated),
                Cell::Count(m.delta.stack.cache_hits),
                Cell::Count(m.words_allocated()),
            ]
        })
        .collect()
}

/// One-shot overflow copies only the hysteresis frames and, after the
/// first descent, finds every segment in the cache.
fn overflow_check(t: &Table) -> Result<(), String> {
    let (one, multi) = (0, 1);
    let copied = |row| t.count(row, "slots-copied");
    require!(
        copied(multi) > 5 * copied(one).max(1),
        "multi-shot overflow copied {} slots, one-shot {}",
        copied(multi),
        copied(one)
    );
    let (segments, hits) = (t.count(one, "segments"), t.count(one, "cache-hits"));
    require!(
        hits > segments,
        "one-shot overflow allocated {segments} segments against {hits} cache hits"
    );
    require!(
        t.count(one, "words-alloc") < t.count(multi, "words-alloc"),
        "one-shot overflow allocated no less than multi-shot"
    );
    Ok(())
}

// ----------------------------------------------------------------------
// E4 — §5 frame overhead: direct vs CPS on the benchmark set
// ----------------------------------------------------------------------

/// For each benchmark, closures per call under the direct (stack) compiler
/// and the CPS (heap) compiler — the Appel–Shao closure-creation measure.
fn frames_rows(_: &Scale) -> Vec<Vec<Cell>> {
    let programs = [
        ("tak", workloads::TAK, "(tak 18 12 6)"),
        ("fib", workloads::FIB, "(fib 18)"),
        ("deep", workloads::DEEP, "(deep-rounds 1 20000)"),
        ("boyer", workloads::BOYER, "(boyer-run 1)"),
    ];
    let mut rows = Vec::new();
    for (name, setup, run) in programs {
        for pipeline in [Pipeline::Direct, Pipeline::Cps] {
            let mut vm = Vm::builder().pipeline(pipeline).build();
            vm.eval_str(setup).expect("workload loads");
            let d = run_measured(&mut vm, run).expect("workload runs").delta;
            let per_call = |n: u64| n as f64 / d.calls.max(1) as f64;
            rows.push(vec![
                Cell::text(name),
                Cell::text(format!("{pipeline:?}")),
                Cell::Count(d.calls),
                Cell::Count(d.heap.closures_allocated),
                Cell::real(per_call(d.heap.closures_allocated), 3),
                Cell::real(per_call(d.instructions), 1),
            ]);
        }
    }
    rows
}

/// The stack compiler allocates (next to) no closures; CPS allocates one
/// for a large share of its calls. (The call counter includes continuation
/// invocations, so the CPS ratio lands under 1; it must still be far from
/// the direct pipeline's zero.)
fn frames_check(t: &Table) -> Result<(), String> {
    for (row, pipeline) in (0..t.rows.len()).zip(["direct", "CPS"].into_iter().cycle()) {
        let (closures, calls) = (t.count(row, "closures"), t.count(row, "calls"));
        let in_shape = match pipeline {
            "direct" => 1000 * closures < calls,
            _ => 5 * closures > calls,
        };
        require!(in_shape, "{pipeline} row {row}: {closures} closures in {calls} calls");
    }
    Ok(())
}

// ----------------------------------------------------------------------
// E5 — §3.2 segment cache ablation
// ----------------------------------------------------------------------

/// §3.2: without the segment cache, call/1cc-intensive programs were
/// "unacceptably slow" — every capture allocates a fresh segment.
fn cache_rows(scale: &Scale) -> Vec<Vec<Cell>> {
    let (x, y, z) = scale.tak;
    [64usize, 0]
        .into_iter()
        .map(|cache_limit| {
            let mut vm = vm_with(Config { cache_limit, ..Config::default() });
            vm.eval_str(&workloads::ctak("call/1cc")).expect("ctak loads");
            let m = run_measured(&mut vm, &format!("(ctak {x} {y} {z})")).expect("ctak runs");
            vec![
                match cache_limit {
                    0 => Cell::text("disabled"),
                    n => Cell::CountOf(n as u64, "segments"),
                },
                Cell::ms(m.ms()),
                Cell::Count(m.delta.stack.segments_allocated),
                Cell::Count(m.delta.stack.cache_hits),
            ]
        })
        .collect()
}

/// With the cache nearly every capture reuses a segment; without it every
/// capture allocates one.
fn cache_check(t: &Table) -> Result<(), String> {
    let (cached, disabled) = (0, 1);
    require!(t.count(disabled, "cache-hits") == 0, "the disabled cache served hits");
    let allocated = |row| t.count(row, "segments-allocated");
    require!(
        allocated(disabled) > 100 * allocated(cached).max(1),
        "{} segments allocated without the cache, {} with it",
        allocated(disabled),
        allocated(cached)
    );
    Ok(())
}

// ----------------------------------------------------------------------
// E6 — §3.2 overflow hysteresis ablation
// ----------------------------------------------------------------------

/// §3.2: naive one-shot overflow "bounces" when a recursion hovers across
/// a segment boundary; copying a few frames up amortizes it.
fn hysteresis_rows(scale: &Scale) -> Vec<Vec<Cell>> {
    let rounds = scale.hover_rounds;
    [0usize, 128]
        .into_iter()
        .map(|hysteresis_slots| {
            let mut vm = vm_with(Config {
                segment_slots: 1024,
                copy_bound: 256,
                hysteresis_slots,
                ..Config::default()
            });
            vm.eval_str(workloads::BOUNCER).expect("bouncer loads");
            // Fill most of the first segment, then hover: each `down`
            // crosses into a new segment and returns.
            let m = run_measured(
                &mut vm,
                &format!(
                    "(define (pad n) (if (zero? n) (hover 8 {rounds}) (+ 1 (pad (- n 1)))))
                     (pad 330)"
                ),
            )
            .expect("bouncer runs");
            vec![
                Cell::CountOf(hysteresis_slots as u64, "slots"),
                Cell::ms(m.ms()),
                Cell::Count(m.delta.stack.overflows),
                Cell::Count(m.delta.stack.slots_copied),
            ]
        })
        .collect()
}

/// Without hysteresis every round overflows; with it the recursion stops
/// crossing the boundary.
fn hysteresis_check(t: &Table) -> Result<(), String> {
    let (naive, with) = (t.count(0, "overflows"), t.count(1, "overflows"));
    require!(naive > 2 * with.max(1), "{naive} overflows without hysteresis, {with} with");
    Ok(())
}

// ----------------------------------------------------------------------
// E7 — §3.4 fragmentation
// ----------------------------------------------------------------------

/// §3.4: shallow threads suspended via call/1cc each pin a whole segment
/// (1.6 MB for 100 at the paper's 16 KB default) under the fresh-segment
/// policy; sealing with a pad bounds the waste. Residency is probed by a
/// final thread that runs while all the others sit suspended in the run
/// queue.
fn fragmentation_rows(scale: &Scale) -> Vec<Vec<Cell>> {
    [OneShotPolicy::FreshSegment, OneShotPolicy::SealWithPad(64)]
        .into_iter()
        .map(|policy| {
            let cfg = Config { oneshot_policy: policy, cache_limit: 0, ..Config::default() };
            let mut ts = ThreadSystem::with_vm(Strategy::Call1Cc, vm_with(cfg));
            ts.eval("(define probe 0)").expect("setup");
            for _ in 0..scale.suspended {
                ts.spawn("(lambda () (thread-yield!))").expect("spawn");
            }
            // The probe runs after every other thread has yielded once.
            ts.spawn("(lambda () (set! probe (assq-ref (vm-stats) 'resident-slots)))")
                .expect("spawn probe");
            ts.run(0).expect("run");
            let probe = ts.eval("probe").expect("probe read");
            let resident = probe.as_fixnum().unwrap_or_else(|| panic!("probe was {probe:?}"));
            vec![
                Cell::text(format!("{policy:?}")),
                Cell::Count(scale.suspended as u64),
                Cell::Count(resident as u64),
                // A slot models a 4-byte word, matching the paper's 16 KB /
                // 4096-word default segments.
                Cell::Real { value: resident as f64 * 4.0 / 1e6, decimals: 2, suffix: " MB" },
            ]
        })
        .collect()
}

/// A fresh segment per suspended thread pins several times what sealing
/// in place does.
fn fragmentation_check(t: &Table) -> Result<(), String> {
    let (fresh, padded) = (t.count(0, "resident-slots"), t.count(1, "resident-slots"));
    require!(
        fresh > 5 * padded,
        "{fresh} slots resident under fresh segments, {padded} sealed with a pad"
    );
    Ok(())
}

// ----------------------------------------------------------------------
// E8 — §3.3 promotion strategies
// ----------------------------------------------------------------------

/// §3.3: promoting a chain of n one-shots costs n steps eagerly, O(1) with
/// the shared flag (the paper's proposed variant).
fn promotion_rows(scale: &Scale) -> Vec<Vec<Cell>> {
    let mut rows = Vec::new();
    for &chain in &scale.chains {
        for strategy in [PromotionStrategy::EagerWalk, PromotionStrategy::SharedFlag] {
            // Small segments: under the fresh-segment policy every link of
            // the chain seals a whole one, and only counts are reported.
            let mut vm = vm_with(Config {
                promotion: strategy,
                segment_slots: 256,
                copy_bound: 64,
                ..Config::default()
            });
            let d = run_measured(
                &mut vm,
                &format!(
                    "(define (chain n)
                       (if (zero? n)
                           (call/cc (lambda (k) 0))
                           (+ 1 (call/1cc (lambda (k) (chain (- n 1)))))))
                     (chain {chain})"
                ),
            )
            .expect("chain runs")
            .delta;
            rows.push(vec![
                Cell::Count(chain as u64),
                Cell::text(format!("{strategy:?}")),
                Cell::Count(d.stack.promotions),
                Cell::Count(d.stack.promotion_steps),
            ]);
        }
    }
    rows
}

/// The eager walk takes one step per link; the shared flag promotes the
/// chain with one store and walks nothing.
fn promotion_check(t: &Table) -> Result<(), String> {
    for pair in 0..t.rows.len() / 2 {
        let (eager, shared) = (2 * pair, 2 * pair + 1);
        let chain = t.count(eager, "chain-length");
        let of = |row| (t.count(row, "promotions"), t.count(row, "walk-steps"));
        require!(
            of(eager) == (chain, chain),
            "eager walk: {:?} (promotions, steps) on a chain of {chain}",
            of(eager)
        );
        require!(
            of(shared) == (1, 0),
            "shared flag: {:?} (promotions, steps) on a chain of {chain}",
            of(shared)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What breaks each experiment's shape: a cell to overwrite so that
    /// `check` must fail (row, column, value).
    const BREAKS: [(&str, usize, &str, u64); 8] = [
        ("tak", 1, "slots-copied", 9),
        ("overflow", 1, "slots-copied", 0),
        ("frames", 1, "closures", 0),
        ("cache", 1, "segments-allocated", 1),
        ("hysteresis", 0, "overflows", 1),
        ("fragmentation", 0, "resident-slots", 1),
        ("promotion", 1, "walk-steps", 3),
        ("figure5", 0, "call/1cc-slots-copied", 5),
    ];

    #[test]
    fn every_check_accepts_the_measured_shape_and_rejects_a_broken_one() {
        let scale = Scale::sanity();
        for (exp, (key, row, column, value)) in EXPERIMENTS.iter().zip(BREAKS) {
            assert_eq!(exp.key, key);
            let mut table = exp.run(&scale);
            for r in &table.rows {
                assert_eq!(r.len(), table.columns.len(), "{key}: a row per the declared columns");
            }
            (exp.check)(&table).unwrap_or_else(|e| panic!("{key}: {e}"));
            table.set(row, column, Cell::Count(value));
            assert!((exp.check)(&table).is_err(), "{key}: check accepted {column} = {value}");
        }
    }

    #[test]
    fn design_md_documents_every_key_and_column_the_code_emits() {
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("### Metrics JSON schema").expect("the schema section exists");
        let rest = &design[start + 4..];
        let section = &rest[..rest.find("\n## ").unwrap_or(rest.len())];
        assert!(section.contains(SCHEMA), "schema id {SCHEMA} is not in the section");
        for exp in &EXPERIMENTS {
            assert!(section.contains(&format!("`{}`", exp.key)), "experiment `{}`", exp.key);
            let params = (exp.params)(&Scale::quick());
            for name in params.iter().map(|(name, _)| *name).chain(exp.all_columns()) {
                assert!(section.contains(&format!("`{name}`")), "`{}`: `{name}`", exp.key);
            }
        }
    }
}
