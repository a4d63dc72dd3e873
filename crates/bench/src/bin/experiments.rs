//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments <cmd> [--paper]
//!   figure5        Figure 5: CPS vs call/cc vs call/1cc thread systems
//!   tak            §4: tak with a capture+invoke per call
//!   overflow       §4: deep recursion, overflow as call/1cc vs call/cc
//!   frames         §5: closures per frame, direct vs CPS
//!   cache          §3.2 ablation: segment cache on/off
//!   hysteresis     §3.2 ablation: overflow hysteresis on/off
//!   fragmentation  §3.4: fresh-segment vs seal-with-pad residency
//!   promotion      §3.3: eager-walk vs shared-flag promotion
//!   dispatch       E9: dispatch cost, superinstruction fusion on/off
//!   gc             E10: segregated-pool heap under a threshold sweep
//!   e11            E11: worker-pool throughput/latency, workers x fuel slice
//!   chaos          E12: recovery rate under seeded fault schedules
//!   e13            E13: reactor — loopback echo + timer storms, 10k+ green threads
//!   e14            E14: value representation — word sizes, segment-copy cost,
//!                  fused paper workloads (optionally vs `--baseline PATH`)
//!   e15            E15: reactor scaling — poll vs epoll blocked-fd curves,
//!                  timer-storm lateness, shared-listener echo throughput
//!   e16            E16: delimited control — native prompts vs the call/1cc
//!                  coroutine encoding (same-answer differential, instruction
//!                  counts, captured-segment bytes)
//!   e17            E17: fault-tolerant serving — seeded chaos-serve sweeps on
//!                  both backends, overload shedding, worker supervision
//!   all            everything above
//! ```
//!
//! `--paper` uses the paper's full parameters (fib 20, up to 1000 threads,
//! frequencies to 512); the default is a scaled-down sweep with the same
//! shape that finishes in a few minutes. `--max-workers N` drops E11 sweep
//! points above N workers (for CI smoke runs on small machines).
//! `--baseline PATH` points E14 at an earlier experiments JSON (a `dispatch`
//! or `e14` run from a previous revision at the same scale) and reports
//! per-workload speedups, an instruction-identity check, and the geomean.
//! `--max-fds N` caps E15's fd appetite (default: the process `RLIMIT_NOFILE`
//! soft limit); clamped sweep points record requested vs actual.
//!
//! Alongside the printed tables the binary writes a machine-readable
//! report — per-experiment control-event counts (captures, reinstatements,
//! overflows, slots copied, ...) next to every wall-clock number — to
//! `experiments.json`, or to the path given with `--json PATH`.

use oneshot_bench::experiments::{
    cache_experiment, chaos_experiment, chaos_overhead, dispatch_experiment, e15_experiment,
    e16_experiment, e17_experiment, exec_experiment, figure5, fragmentation_experiment,
    frame_overhead, gc_experiment, hysteresis_experiment, overflow_experiment,
    promotion_experiment, reactor_experiment, tak_experiment, value_rep_experiment, DispatchScale,
    E15Scale, E16Scale, E17Scale, ExecScale, GcScale, ReactorScale, GC_UNBOUNDED,
};
use oneshot_bench::measure::render_table;
use oneshot_bench::metrics::{measurement_json, Json};
use oneshot_threads::Strategy;

struct Scale {
    fib_n: u32,
    threads: Vec<usize>,
    freqs: Vec<u64>,
    tak: (i64, i64, i64),
    deep_rounds: u64,
    deep_depth: u64,
}

impl Scale {
    fn quick() -> Self {
        Scale {
            fib_n: 15,
            threads: vec![10, 100],
            freqs: vec![1, 2, 4, 8, 16, 32, 64, 128],
            tak: (16, 8, 0),
            deep_rounds: 5,
            deep_depth: 200_000,
        }
    }

    fn paper() -> Self {
        Scale {
            fib_n: 20,
            threads: vec![10, 100, 1000],
            freqs: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            tak: (18, 12, 6),
            deep_rounds: 5,
            deep_depth: 1_000_000,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let scale = if paper { Scale::paper() } else { Scale::quick() };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "experiments.json".to_string());
    let max_workers: Option<usize> = args
        .iter()
        .position(|a| a == "--max-workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let baseline: Option<String> =
        args.iter().position(|a| a == "--baseline").and_then(|i| args.get(i + 1)).cloned();
    let max_fds: usize = args
        .iter()
        .position(|a| a == "--max-fds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(default_max_fds);
    let cmd = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flags and the value of any value-taking flag.
            !a.starts_with("--")
                && !matches!(
                    args.get(i.wrapping_sub(1)).map(String::as_str),
                    Some("--json" | "--max-workers" | "--baseline" | "--max-fds")
                )
        })
        .map(|(_, a)| a.as_str())
        .next()
        .unwrap_or("all");

    let mut report: Vec<(String, Json)> = Vec::new();
    let mut run = |name: &str, result: Json| report.push((name.to_string(), result));

    match cmd {
        "figure5" => run("figure5", run_figure5(&scale)),
        "tak" => run("tak", run_tak(&scale)),
        "overflow" => run("overflow", run_overflow(&scale)),
        "frames" => run("frames", run_frames()),
        "cache" => run("cache", run_cache(&scale)),
        "hysteresis" => run("hysteresis", run_hysteresis()),
        "fragmentation" => run("fragmentation", run_fragmentation()),
        "promotion" => run("promotion", run_promotion()),
        "dispatch" => run("dispatch", run_dispatch(paper)),
        "gc" => run("gc", run_gc(paper)),
        "e11" => run("exec", run_exec(paper, max_workers)),
        "chaos" => run("chaos", run_chaos(paper)),
        "e13" => run("reactor", run_reactor(paper, max_workers)),
        "e14" => run("value_rep", run_value_rep(paper, baseline.as_deref())),
        "e15" => run("reactor_scaling", run_e15(paper, max_workers, max_fds)),
        "e16" => run("delimited", run_e16(paper)),
        "e17" => run("fault_tolerance", run_e17(paper, max_workers)),
        "all" => {
            run("tak", run_tak(&scale));
            run("overflow", run_overflow(&scale));
            run("frames", run_frames());
            run("cache", run_cache(&scale));
            run("hysteresis", run_hysteresis());
            run("fragmentation", run_fragmentation());
            run("promotion", run_promotion());
            run("dispatch", run_dispatch(paper));
            run("gc", run_gc(paper));
            run("exec", run_exec(paper, max_workers));
            run("chaos", run_chaos(paper));
            run("reactor", run_reactor(paper, max_workers));
            run("value_rep", run_value_rep(paper, baseline.as_deref()));
            run("reactor_scaling", run_e15(paper, max_workers, max_fds));
            run("delimited", run_e16(paper));
            run("fault_tolerance", run_e17(paper, max_workers));
            run("figure5", run_figure5(&scale));
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }

    let doc = Json::obj([
        ("schema", Json::str("oneshot-experiments/v10")),
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("experiments", Json::Obj(report)),
    ]);
    match std::fs::write(&json_path, doc.render()) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }
}

fn run_figure5(scale: &Scale) -> Json {
    println!("\n== E1 / Figure 5: thread systems (fib {} per thread; times in ms) ==", scale.fib_n);
    let mut points_json = Vec::new();
    for &threads in &scale.threads {
        println!("\n-- {threads} threads --");
        let points = figure5(&[threads], &scale.freqs, scale.fib_n);
        for p in &points {
            points_json.push(Json::obj([
                ("threads", Json::int(p.threads as u64)),
                ("calls_per_switch", Json::int(p.freq)),
                ("strategy", Json::str(p.strategy.label())),
                ("ms", Json::Num(p.ms)),
                ("slots_copied", Json::int(p.slots_copied)),
                ("closures", Json::int(p.closures)),
            ]));
        }
        let mut rows = Vec::new();
        for &freq in &scale.freqs {
            let get = |s: Strategy| {
                points.iter().find(|p| p.freq == freq && p.strategy == s).map_or(f64::NAN, |p| p.ms)
            };
            let cps = get(Strategy::Cps);
            let cc = get(Strategy::CallCc);
            let one = get(Strategy::Call1Cc);
            let fastest = if cps < cc.min(one) {
                "cps"
            } else if one <= cc {
                "call/1cc"
            } else {
                "call/cc"
            };
            rows.push(vec![
                freq.to_string(),
                format!("{cps:.1}"),
                format!("{cc:.1}"),
                format!("{one:.1}"),
                fastest.to_string(),
            ]);
        }
        println!(
            "{}",
            render_table(&["calls/switch", "cps", "call/cc", "call/1cc", "fastest"], &rows)
        );
    }
    println!("Expected shape: call/1cc <= call/cc everywhere; CPS wins only at the");
    println!("most rapid switch rates (paper: more often than every 4-8 calls).");
    Json::obj([("fib_n", Json::int(u64::from(scale.fib_n))), ("points", Json::Arr(points_json))])
}

fn run_tak(scale: &Scale) -> Json {
    let (x, y, z) = scale.tak;
    println!("\n== E2 / §4: (ctak {x} {y} {z}) — capture+invoke per call ==");
    let rows = tak_experiment(x, y, z);
    let base = rows[0].m.ms();
    let base_words = rows[0].m.words_allocated();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.op.to_string(),
                format!("{:.1}", r.m.ms()),
                format!("{:.0}%", 100.0 * r.m.ms() / base),
                r.m.words_allocated().to_string(),
                format!("{:.0}%", 100.0 * r.m.words_allocated() as f64 / base_words as f64),
                r.m.delta.stack.segment_slots_allocated.to_string(),
                r.m.delta.stack.slots_copied.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "operator",
                "ms",
                "rel-time",
                "words-alloc",
                "rel-alloc",
                "stack-words",
                "slots-copied"
            ],
            &table
        )
    );
    println!("Paper: call/1cc 13% faster, 23% less allocation.");
    Json::obj([
        ("args", Json::Arr(vec![Json::int(x as u64), Json::int(y as u64), Json::int(z as u64)])),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("operator", Json::str(r.op)),
                            ("measurement", measurement_json(&r.m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_overflow(scale: &Scale) -> Json {
    println!(
        "\n== E3 / §4: deep recursion ({} rounds x depth {}), overflow policy ==",
        scale.deep_rounds, scale.deep_depth
    );
    let rows = overflow_experiment(scale.deep_rounds, scale.deep_depth);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.policy),
                format!("{:.1}", r.m.ms()),
                r.m.delta.stack.slots_copied.to_string(),
                r.m.delta.stack.segments_allocated.to_string(),
                r.m.delta.stack.cache_hits.to_string(),
                r.m.words_allocated().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["overflow-as", "ms", "slots-copied", "segments", "cache-hits", "words-alloc"],
            &table
        )
    );
    println!("Paper: one-shot overflow handling ~300% faster on this extreme case,");
    println!("allocating almost nothing after the first round (cache hits).");
    Json::obj([
        ("rounds", Json::int(scale.deep_rounds)),
        ("depth", Json::int(scale.deep_depth)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("overflow_as", Json::str(format!("{:?}", r.policy))),
                            ("measurement", measurement_json(&r.m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_frames() -> Json {
    println!("\n== E4 / §5: closure-creation overhead per frame, direct vs CPS ==");
    let rows = frame_overhead();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:?}", r.pipeline),
                r.calls.to_string(),
                r.closures.to_string(),
                format!("{:.3}", r.closures_per_call()),
                format!("{:.1}", r.instructions as f64 / r.calls.max(1) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["program", "pipeline", "calls", "closures", "closures/call", "ops/call"],
            &table
        )
    );
    println!("Paper (vs Appel-Shao): the stack compiler's closure overhead is ~0");
    println!("(boyer allocates no closures at all); CPS pays >=1 per non-tail call.");
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("program", Json::str(r.name)),
                    ("pipeline", Json::str(format!("{:?}", r.pipeline))),
                    ("calls", Json::int(r.calls)),
                    ("closures", Json::int(r.closures)),
                    ("instructions", Json::int(r.instructions)),
                    ("closures_per_call", Json::Num(r.closures_per_call())),
                ])
            })
            .collect(),
    )
}

fn run_cache(scale: &Scale) -> Json {
    let (x, y, z) = scale.tak;
    println!("\n== E5 / §3.2 ablation: segment cache, (ctak {x} {y} {z}) with call/1cc ==");
    let rows = cache_experiment(x, y, z);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                if r.cache_limit == 0 {
                    "disabled".into()
                } else {
                    format!("{} segments", r.cache_limit)
                },
                format!("{:.1}", r.m.ms()),
                r.m.delta.stack.segments_allocated.to_string(),
                r.m.delta.stack.cache_hits.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["cache", "ms", "segments-allocated", "cache-hits"], &table));
    println!("Paper: without the cache, call/1cc programs were \"unacceptably slow\".");
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("cache_limit", Json::int(r.cache_limit as u64)),
                    ("measurement", measurement_json(&r.m)),
                ])
            })
            .collect(),
    )
}

fn run_hysteresis() -> Json {
    println!("\n== E6 / §3.2 ablation: overflow hysteresis (boundary-hovering recursion) ==");
    let rows = hysteresis_experiment(20_000);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} slots", r.hysteresis),
                format!("{:.1}", r.m.ms()),
                r.m.delta.stack.overflows.to_string(),
                r.m.delta.stack.slots_copied.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["hysteresis", "ms", "overflows", "slots-copied"], &table));
    println!("Paper: copying up a few frames on overflow prevents bouncing.");
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("hysteresis_slots", Json::int(r.hysteresis as u64)),
                    ("measurement", measurement_json(&r.m)),
                ])
            })
            .collect(),
    )
}

fn run_fragmentation() -> Json {
    println!("\n== E7 / §3.4: resident stack memory for 100 call/1cc threads ==");
    let rows = fragmentation_experiment(100);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            // A slot models a 4-byte word, matching the paper's 16 KB /
            // 4096-word default segments.
            vec![
                format!("{:?}", r.policy),
                r.konts.to_string(),
                r.resident_slots.to_string(),
                format!("{:.2} MB", r.resident_slots as f64 * 4.0 / 1e6),
            ]
        })
        .collect();
    println!("{}", render_table(&["policy", "threads", "resident-slots", "~bytes"], &table));
    println!("Paper: 100 threads x 16KB default stacks = 1.6MB mostly wasted;");
    println!("sealing at a displacement above the occupied portion bounds it.");
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("policy", Json::str(format!("{:?}", r.policy))),
                    ("threads", Json::int(r.konts as u64)),
                    ("resident_slots", Json::int(r.resident_slots as u64)),
                ])
            })
            .collect(),
    )
}

fn run_dispatch(paper: bool) -> Json {
    let scale = if paper { DispatchScale::paper() } else { DispatchScale::quick() };
    println!("\n== E9: dispatch cost — flat code + superinstruction fusion on/off ==");
    let rows = dispatch_experiment(scale);
    let names: Vec<&'static str> = {
        let mut seen = Vec::new();
        for r in &rows {
            if !seen.contains(&r.name) {
                seen.push(r.name);
            }
        }
        seen
    };
    let mut table = Vec::new();
    let mut workloads_json = Vec::new();
    for name in names {
        let unfused = rows.iter().find(|r| r.name == name && !r.fused).expect("unfused row");
        let fused = rows.iter().find(|r| r.name == name && r.fused).expect("fused row");
        let speedup = unfused.ms / fused.ms;
        table.push(vec![
            name.to_string(),
            format!("{:.1}", unfused.ms),
            format!("{:.1}", fused.ms),
            format!("{speedup:.2}x"),
            unfused.instructions.to_string(),
            fused.instructions.to_string(),
            format!("{:.1}", unfused.ns_per_instruction()),
            format!("{:.1}", fused.ns_per_instruction()),
        ]);
        let row_json = |r: &oneshot_bench::experiments::DispatchRow| {
            Json::obj([
                ("ms", Json::Num(r.ms)),
                ("instructions", Json::int(r.instructions)),
                ("ns_per_instruction", Json::Num(r.ns_per_instruction())),
            ])
        };
        workloads_json.push(Json::obj([
            ("name", Json::str(name)),
            ("unfused", row_json(unfused)),
            ("fused", row_json(fused)),
            ("speedup", Json::Num(speedup)),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "unfused-ms",
                "fused-ms",
                "speedup",
                "unfused-instr",
                "fused-instr",
                "unfused-ns/i",
                "fused-ns/i"
            ],
            &table
        )
    );
    println!("Fusion halves dispatch on the hottest pairs (compare+branch, return-of-");
    println!("local, immediate arithmetic); results and control events are identical.");
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("reps", Json::int(u64::from(scale.reps))),
        ("workloads", Json::Arr(workloads_json)),
    ])
}

fn run_gc(paper: bool) -> Json {
    let scale = if paper { GcScale::paper() } else { GcScale::quick() };
    println!("\n== E10: segregated-pool heap — collection-threshold sweep ==");
    let rows = gc_experiment(&scale);
    let threshold_label = |t: usize| {
        if t >= GC_UNBOUNDED {
            "unbounded".to_string()
        } else {
            t.to_string()
        }
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                threshold_label(r.gc_threshold),
                format!("{:.1}", r.ms),
                r.words_allocated.to_string(),
                r.objects_allocated.to_string(),
                r.collections.to_string(),
                r.objects_freed.to_string(),
                format!("{:.2}", r.sweep_ns as f64 / 1e6),
                format!("{:.2}", r.max_pause_ns as f64 / 1e6),
                r.live_after.to_string(),
                if r.leaked { "LEAK" } else { "ok" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "threshold",
                "ms",
                "words-alloc",
                "objects",
                "collections",
                "freed",
                "sweep-ms",
                "max-pause-ms",
                "live-after",
                "leak"
            ],
            &table
        )
    );
    println!("Expected shape: identical results and allocation volume down each");
    println!("workload's column; only collections/sweep time vary with the threshold.");
    for r in &rows {
        assert!(!r.leaked, "{} leaked at threshold {}", r.name, r.gc_threshold);
    }
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::str(r.name)),
                            (
                                "gc_threshold",
                                if r.gc_threshold >= GC_UNBOUNDED {
                                    Json::str("unbounded")
                                } else {
                                    Json::int(r.gc_threshold as u64)
                                },
                            ),
                            ("ms", Json::Num(r.ms)),
                            ("result", Json::str(r.result.clone())),
                            ("words_allocated", Json::int(r.words_allocated)),
                            ("objects_allocated", Json::int(r.objects_allocated)),
                            ("objects_freed", Json::int(r.objects_freed)),
                            ("collections", Json::int(r.collections)),
                            ("sweep_ns", Json::int(r.sweep_ns)),
                            ("max_pause_ns", Json::int(r.max_pause_ns)),
                            ("live_after", Json::int(r.live_after as u64)),
                            ("leaked", Json::Bool(r.leaked)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_exec(paper: bool, max_workers: Option<usize>) -> Json {
    let mut scale = if paper { ExecScale::paper() } else { ExecScale::quick() };
    if let Some(max) = max_workers {
        scale.clamp_workers(max);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n== E11: worker pool — {} mixed jobs (fib/ctak/deep/io) per cell, {cores} core(s) ==",
        scale.jobs()
    );
    let rows = exec_experiment(&scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                r.fuel_slice.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.1}", r.throughput),
                format!("{:.1}", r.p50_ms),
                format!("{:.1}", r.p99_ms),
                r.steals.to_string(),
                r.requeues.to_string(),
                r.slices.to_string(),
                r.slots_copied.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "workers",
                "fuel-slice",
                "wall-ms",
                "jobs/s",
                "p50-ms",
                "p99-ms",
                "steals",
                "requeues",
                "slices",
                "slots-copied"
            ],
            &table
        )
    );
    if let Some(one) = rows.iter().find(|r| r.workers == 1) {
        let widest = rows
            .iter()
            .filter(|r| r.fuel_slice == one.fuel_slice)
            .max_by_key(|r| r.workers)
            .expect("the 1-worker row itself matches");
        if widest.workers > 1 {
            println!(
                "Scaling at fuel-slice {}: {:.2}x throughput from 1 to {} workers.",
                one.fuel_slice,
                widest.throughput / one.throughput,
                widest.workers
            );
        }
    }
    println!("Expected shape: throughput grows with workers (the io jobs release the");
    println!("core while sleeping); small slices buy p99 latency at some wall cost;");
    println!("slots-copied stays near 0 — engine preemption is a one-shot subcontinuation take,");
    println!("so only overflow hysteresis on the deep jobs copies anything.");
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("cores", Json::int(cores as u64)),
        ("jobs_per_cell", Json::int(scale.jobs() as u64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("workers", Json::int(r.workers as u64)),
                            ("fuel_slice", Json::int(r.fuel_slice)),
                            ("jobs", Json::int(r.jobs as u64)),
                            ("wall_ms", Json::Num(r.wall_ms)),
                            ("throughput_jobs_per_s", Json::Num(r.throughput)),
                            ("p50_ms", Json::Num(r.p50_ms)),
                            ("p99_ms", Json::Num(r.p99_ms)),
                            ("completed", Json::int(r.completed)),
                            ("failed", Json::int(r.failed)),
                            ("timed_out", Json::int(r.timed_out)),
                            ("panicked", Json::int(r.panicked)),
                            ("steals", Json::int(r.steals)),
                            ("requeues", Json::int(r.requeues)),
                            ("slices", Json::int(r.slices)),
                            ("queue_depth_highwater", Json::int(r.queue_depth_highwater)),
                            ("instructions", Json::int(r.instructions)),
                            ("captures_one", Json::int(r.captures_one)),
                            ("reinstates_one", Json::int(r.reinstates_one)),
                            ("slots_copied", Json::int(r.slots_copied)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_chaos(paper: bool) -> Json {
    let horizons: &[u64] = &[500, 5_000, 50_000];
    let seeds: u64 = if paper { 400 } else { 48 };
    println!(
        "\n== E12: chaos sweep — {} seeded fault schedules per cell, workload x horizon ==",
        seeds
    );
    let rows = chaos_experiment(horizons, seeds);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.horizon.to_string(),
                r.runs.to_string(),
                r.clean.to_string(),
                r.recovered.to_string(),
                r.uncaught.to_string(),
                format!("{:.2}", r.recovery_rate()),
                r.faults_injected.to_string(),
                r.conditions_raised.to_string(),
                format!("{:.1}", r.wall_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "horizon",
                "runs",
                "clean",
                "recovered",
                "uncaught",
                "recovery",
                "faults",
                "conditions",
                "wall-ms"
            ],
            &table
        )
    );
    let (baseline_ms, guarded_ms) = chaos_overhead(if paper { 200 } else { 40 });
    println!(
        "Guard overhead (armed, never tripping): {baseline_ms:.3} ms -> {guarded_ms:.3} ms \
         per run ({:+.1}%).",
        (guarded_ms / baseline_ms - 1.0) * 100.0
    );
    println!("Expected shape: recovery stays near 1.0 — the guard catches nearly every");
    println!("schedule (the uncaught tail is faults firing before the guard installs);");
    println!("denser faults (small horizon) raise recovered counts, and the armed-but-");
    println!("quiet guards cost low single-digit percent.");
    Json::obj([
        ("seeds_per_cell", Json::int(seeds)),
        ("overhead_baseline_ms", Json::Num(baseline_ms)),
        ("overhead_guarded_ms", Json::Num(guarded_ms)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::str(r.workload)),
                            ("horizon", Json::int(r.horizon)),
                            ("runs", Json::int(r.runs)),
                            ("clean", Json::int(r.clean)),
                            ("recovered", Json::int(r.recovered)),
                            ("uncaught", Json::int(r.uncaught)),
                            ("recovery_rate", Json::Num(r.recovery_rate())),
                            ("faults_injected", Json::int(r.faults_injected)),
                            ("conditions_raised", Json::int(r.conditions_raised)),
                            ("wall_ms", Json::Num(r.wall_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_reactor(paper: bool, max_workers: Option<usize>) -> Json {
    let mut scale = if paper { ReactorScale::paper() } else { ReactorScale::quick() };
    if let Some(max) = max_workers {
        scale.clamp_workers(max);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n== E13: reactor — loopback echo ({} rounds/conn) + timer storms, {cores} core(s) ==",
        scale.echo_rounds
    );
    let rows = reactor_experiment(&scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.workers.to_string(),
                r.green_threads.to_string(),
                r.ops.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.0}", r.throughput),
                format!("{:.2}", r.p50_us / 1e3),
                format!("{:.2}", r.p99_us / 1e3),
                format!("{:.2}", r.max_us / 1e3),
                r.blocked_highwater.to_string(),
                r.io_wakeups.to_string(),
                format!("{}/{}", r.leaked_sockets, r.live_segments),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "mode",
                "workers",
                "green-threads",
                "ops",
                "wall-ms",
                "ops/s",
                "p50-ms",
                "p99-ms",
                "max-ms",
                "blocked-hw",
                "wakeups",
                "leaks(fd/seg)"
            ],
            &table
        )
    );
    if let Some(peak) = rows.iter().max_by_key(|r| r.green_threads) {
        println!(
            "Peak concurrency: {} green threads ({}) on {} worker(s); \
             single-worker blocked highwater {}.",
            peak.green_threads, peak.mode, peak.workers, peak.blocked_highwater
        );
    }
    println!("Expected shape: every op verifies with zero failures and zero leaked");
    println!("sockets/segments; a blocked connection is a sealed one-shot continuation,");
    println!("so green-thread counts far beyond the worker count cost memory, not");
    println!("threads; echo latency (p50 vs p99) measures reactor requeue fairness and");
    println!("timer-storm lateness stays small against the requested wait.");
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("cores", Json::int(cores as u64)),
        ("echo_rounds", Json::int(scale.echo_rounds as u64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("mode", Json::str(r.mode)),
                            ("reactor_backend", Json::str(r.backend)),
                            ("workers", Json::int(r.workers as u64)),
                            ("green_threads", Json::int(r.green_threads as u64)),
                            ("ops", Json::int(r.ops as u64)),
                            ("wall_ms", Json::Num(r.wall_ms)),
                            ("throughput_ops_per_s", Json::Num(r.throughput)),
                            ("p50_us", Json::Num(r.p50_us)),
                            ("p99_us", Json::Num(r.p99_us)),
                            ("max_us", Json::Num(r.max_us)),
                            ("completed", Json::int(r.completed)),
                            ("failed", Json::int(r.failed)),
                            ("io_blocked", Json::int(r.io_blocked)),
                            ("io_wakeups", Json::int(r.io_wakeups)),
                            ("timer_waits", Json::int(r.timer_waits)),
                            ("blocked_highwater", Json::int(r.blocked_highwater)),
                            ("leaked_sockets", Json::int(r.leaked_sockets.max(0) as u64)),
                            ("live_segments", Json::int(r.live_segments.max(0) as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The process `RLIMIT_NOFILE` soft limit from `/proc/self/limits`, or a
/// conservative 1024 when it cannot be read — E15's default fd budget.
fn default_max_fds() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(1024)
}

fn run_e15(paper: bool, max_workers: Option<usize>, max_fds: usize) -> Json {
    let mut scale = if paper { E15Scale::paper() } else { E15Scale::quick() };
    if let Some(max) = max_workers {
        scale.clamp_workers(max);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (storm_jobs, storm_waits, storm_wait_ms) = scale.storm;
    println!(
        "\n== E15: reactor scaling — poll vs epoll, {max_fds}-fd budget, \
         {storm_jobs}x{storm_waits} timer waits @ {storm_wait_ms} ms, {cores} core(s) =="
    );
    let rows = e15_experiment(&scale, max_fds);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.backend.to_string(),
                r.workers.to_string(),
                if r.actual == r.requested {
                    r.actual.to_string()
                } else {
                    format!("{} (req {})", r.actual, r.requested)
                },
                r.ops.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.0}", r.throughput),
                format!("{:.0}", r.p50_us),
                format!("{:.0}", r.p99_us),
                format!("{:.0}", r.max_us),
                r.blocked_highwater.to_string(),
                r.resume_depth_highwater.to_string(),
                format!("{}/{}", r.leaked_sockets, r.live_segments),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "mode",
                "backend",
                "workers",
                "n",
                "ops",
                "wall-ms",
                "ops/s",
                "p50-us",
                "p99-us",
                "max-us",
                "blocked-hw",
                "resume-hw",
                "leaks(fd/seg)"
            ],
            &table
        )
    );
    // The headline curve: probe round-trip p50 as the parked-fd count
    // grows — poll's wake cost is O(blocked), epoll's O(ready).
    for backend in ["poll", "epoll"] {
        let curve: Vec<String> = rows
            .iter()
            .filter(|r| r.mode == "blocked-probe" && r.backend == backend)
            .map(|r| format!("{} parked: {:.0} us", r.actual, r.p50_us))
            .collect();
        println!("Probe p50 vs parked fds [{backend}]: {}", curve.join(", "));
    }
    // The storm's reactor-side lateness histograms, and the plumbing
    // invariant: identical guest instruction counts per cell.
    let bounds: Vec<String> = oneshot_exec::WAKE_LATENESS_BUCKETS_MS
        .iter()
        .map(|b| format!("<{b}ms"))
        .chain(std::iter::once("tail".to_string()))
        .collect();
    for r in rows.iter().filter(|r| r.mode == "timer-storm") {
        let cells: Vec<String> =
            bounds.iter().zip(&r.wake_lateness).map(|(b, n)| format!("{b}:{n}")).collect();
        println!(
            "Storm lateness [{} w={}]: {} (mean p50 {:.0} us/wait)",
            r.backend,
            r.workers,
            cells.join(" "),
            r.p50_us
        );
    }
    for r in rows.iter().filter(|r| r.backend == "poll") {
        if let Some(twin) = rows.iter().find(|t| {
            t.backend == "epoll"
                && t.mode == r.mode
                && t.workers == r.workers
                && t.requested == r.requested
        }) {
            if r.mode == "timer-storm" && r.instructions != twin.instructions {
                // Exact identity is the single-worker invariant; with
                // stealing in play slice re-entries are scheduling-
                // dependent, so multi-worker runs drift by a hair.
                let drift =
                    (r.instructions.abs_diff(twin.instructions)) as f64 / r.instructions as f64;
                if r.workers == 1 || drift > 0.001 {
                    println!(
                        "WARNING: {} w={} instruction counts diverge across backends: \
                         poll {} vs epoll {} ({:.4}%)",
                        r.mode,
                        r.workers,
                        r.instructions,
                        twin.instructions,
                        100.0 * drift
                    );
                } else {
                    println!(
                        "Storm instructions w={}: poll {} vs epoll {} \
                         ({:.4}% scheduling drift; exact at 1 worker)",
                        r.workers,
                        r.instructions,
                        twin.instructions,
                        100.0 * drift
                    );
                }
            }
            if r.mode == "serve-echo" {
                println!(
                    "Serve throughput w={}: epoll {:.0} ops/s vs poll {:.0} ops/s ({:.2}x); \
                     accepts/worker {:?}, accept-queue highwater {}",
                    r.workers,
                    twin.throughput,
                    r.throughput,
                    twin.throughput / r.throughput,
                    twin.accepts_per_worker,
                    twin.accept_queue_highwater
                );
            }
        }
    }
    println!("Expected shape: the probe's per-round-trip cost climbs with parked fds");
    println!("under poll (every wake rebuilds and scans the whole interest set) and");
    println!("stays flat under epoll (the kernel hands over only the ready fd); storm");
    println!("lateness concentrates in the lowest buckets; the shared listener spreads");
    println!("accepts evenly; and every cell drains with zero leaks on both backends.");
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("cores", Json::int(cores as u64)),
        ("max_fds", Json::int(max_fds as u64)),
        (
            "wake_lateness_bounds_ms",
            Json::Arr(
                oneshot_exec::WAKE_LATENESS_BUCKETS_MS.iter().map(|&b| Json::int(b)).collect(),
            ),
        ),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("mode", Json::str(r.mode)),
                            ("reactor_backend", Json::str(r.backend)),
                            ("workers", Json::int(r.workers as u64)),
                            ("requested", Json::int(r.requested as u64)),
                            ("actual", Json::int(r.actual as u64)),
                            ("ops", Json::int(r.ops as u64)),
                            ("wall_ms", Json::Num(r.wall_ms)),
                            ("throughput_ops_per_s", Json::Num(r.throughput)),
                            ("p50_us", Json::Num(r.p50_us)),
                            ("p99_us", Json::Num(r.p99_us)),
                            ("max_us", Json::Num(r.max_us)),
                            ("completed", Json::int(r.completed)),
                            ("failed", Json::int(r.failed)),
                            ("io_blocked", Json::int(r.io_blocked)),
                            ("io_wakeups", Json::int(r.io_wakeups)),
                            ("timer_waits", Json::int(r.timer_waits)),
                            ("blocked_highwater", Json::int(r.blocked_highwater)),
                            ("resume_depth_highwater", Json::int(r.resume_depth_highwater)),
                            (
                                "accepts_per_worker",
                                Json::Arr(
                                    r.accepts_per_worker.iter().map(|&n| Json::int(n)).collect(),
                                ),
                            ),
                            ("accept_queue_highwater", Json::int(r.accept_queue_highwater)),
                            (
                                "wake_lateness",
                                Json::Arr(r.wake_lateness.iter().map(|&n| Json::int(n)).collect()),
                            ),
                            ("instructions", Json::int(r.instructions)),
                            ("leaked_sockets", Json::int(r.leaked_sockets.max(0) as u64)),
                            ("live_segments", Json::int(r.live_segments.max(0) as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_e16(paper: bool) -> Json {
    let scale = if paper { E16Scale::paper() } else { E16Scale::quick() };
    println!(
        "\n== E16: delimited control — native prompts vs the call/1cc coroutine encoding \
         (pipeline {}x{}, generator {}, sampler {}@{}) ==",
        scale.pipeline_n,
        scale.pipeline_stages,
        scale.generator_n,
        scale.sampler_n,
        scale.sampler_depth
    );
    let rows = e16_experiment(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.encoding.to_string(),
                format!("{:.1}", r.m.ms()),
                r.m.delta.instructions.to_string(),
                r.captured_bytes().to_string(),
                r.m.delta.stack.prompts_pushed.to_string(),
                r.m.delta.stack.subconts_taken.to_string(),
                (r.m.delta.stack.captures_one + r.m.delta.stack.captures_multi).to_string(),
                if r.leaked { "LEAK".to_string() } else { "0".to_string() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "encoding",
                "ms",
                "instructions",
                "captured-bytes",
                "prompts",
                "takes",
                "captures",
                "leaks"
            ],
            &table
        )
    );
    // The differential and the headline ratios, per workload pair.
    let mut pairs_json = Vec::new();
    for pair in rows.chunks(2) {
        let (native, one_shot) = (&pair[0], &pair[1]);
        let same = native.answer == one_shot.answer;
        let instr_ratio =
            one_shot.m.delta.instructions as f64 / native.m.delta.instructions.max(1) as f64;
        let bytes_ratio = one_shot.captured_bytes() as f64 / native.captured_bytes().max(1) as f64;
        println!(
            "{:9}: answers {} ({}); call/1cc retires {instr_ratio:.2}x the instructions and \
             seals {bytes_ratio:.1}x the bytes",
            native.workload,
            if same { "agree" } else { "DISAGREE" },
            native.answer,
        );
        pairs_json.push(Json::obj([
            ("workload", Json::str(native.workload)),
            ("same_answer", Json::Bool(same)),
            ("answer", Json::str(native.answer.clone())),
            ("instruction_ratio", Json::Num(instr_ratio)),
            ("captured_bytes_ratio", Json::Num(bytes_ratio)),
        ]));
    }
    println!(
        "Expected shape: native wins instructions and captured bytes on the \
         suspension-dominated workloads (pipeline, generator) — the delimited \
         take seals only the producer's slice, the full capture the whole span."
    );
    Json::obj([
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::str(r.workload)),
                            ("encoding", Json::str(r.encoding)),
                            ("answer", Json::str(r.answer.clone())),
                            ("captured_bytes", Json::int(r.captured_bytes())),
                            ("live_after", Json::int(r.live_after as u64)),
                            ("live_segments_after", Json::int(r.live_segments_after as u64)),
                            ("leaked", Json::Bool(r.leaked)),
                            ("measurement", measurement_json(&r.m)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("differential", Json::Arr(pairs_json)),
    ])
}

fn run_e17(paper: bool, max_workers: Option<usize>) -> Json {
    let mut scale = if paper { E17Scale::paper() } else { E17Scale::quick() };
    if let Some(max) = max_workers {
        scale.clamp_workers(max);
    }
    println!(
        "\n== E17: fault-tolerant serving — {} seeded chaos-serve schedules per backend \
         (horizon {}, {} conns/seed, {} workers), overload burst {}, supervision drill ==",
        scale.seeds, scale.horizon, scale.conns, scale.workers, scale.overload_burst
    );
    let rows = e17_experiment(&scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.backend.to_string(),
                r.seeds.to_string(),
                r.conns.to_string(),
                format!("{}/{}", r.answered, r.degraded),
                format!("{}/{}", r.completed, r.failed),
                r.retried.to_string(),
                r.faults_injected.to_string(),
                r.io_timeouts.to_string(),
                r.accepts_shed.to_string(),
                r.worker_restarts.to_string(),
                r.leaked_sockets.to_string(),
                format!("{:.0}", r.wall_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "mode",
                "backend",
                "seeds",
                "conns",
                "ans/deg",
                "done/fail",
                "retried",
                "faults",
                "io-to",
                "shed",
                "restarts",
                "leaks",
                "wall-ms"
            ],
            &table
        )
    );
    for backend in ["poll", "epoll"] {
        if let Some(r) = rows.iter().find(|r| r.mode == "chaos-serve" && r.backend == backend) {
            println!(
                "Chaos [{backend}]: {} seeds, {} faults injected, {} answered / {} degraded \
                 of {} conns, 0 leaks — every connection resolved",
                r.seeds, r.faults_injected, r.answered, r.degraded, r.conns
            );
        }
    }
    Json::obj([(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("mode", Json::str(r.mode)),
                        ("backend", Json::str(r.backend)),
                        ("seeds", Json::int(r.seeds)),
                        ("conns", Json::int(r.conns as u64)),
                        ("answered", Json::int(r.answered as u64)),
                        ("degraded", Json::int(r.degraded as u64)),
                        ("completed", Json::int(r.completed)),
                        ("failed", Json::int(r.failed)),
                        ("retried", Json::int(r.retried)),
                        ("faults_injected", Json::int(r.faults_injected)),
                        ("io_timeouts", Json::int(r.io_timeouts)),
                        ("accepts_shed", Json::int(r.accepts_shed)),
                        ("shed_duration_ns", Json::int(r.shed_duration_ns)),
                        ("worker_restarts", Json::int(r.worker_restarts)),
                        ("audit_jobs", Json::int(r.audit_jobs)),
                        ("leaked_sockets", Json::int(r.leaked_sockets as u64)),
                        ("wall_ms", Json::Num(r.wall_ms)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Pulls `(name, ms, instructions)` baseline rows out of an earlier
/// experiments document: either an `e14` report's own rows or the fused
/// side of a `dispatch` run (the E14 workloads are the E9 fused cases, so
/// any pre-change `dispatch` JSON at the same scale is a valid baseline).
fn baseline_workloads(doc: &Json) -> Vec<(String, f64, u64)> {
    let Some(exps) = doc.get("experiments") else { return Vec::new() };
    let mut out = Vec::new();
    if let Some(rows) = exps.get("value_rep").and_then(|vr| vr.get("rows")).and_then(Json::as_arr) {
        for r in rows {
            if let (Some(name), Some(ms), Some(instructions)) = (
                r.get("name").and_then(Json::as_str),
                r.get("ms").and_then(Json::as_f64),
                r.get("instructions").and_then(Json::as_u64),
            ) {
                out.push((name.to_string(), ms, instructions));
            }
        }
    } else if let Some(workloads) =
        exps.get("dispatch").and_then(|d| d.get("workloads")).and_then(Json::as_arr)
    {
        for w in workloads {
            if let (Some(name), Some(fused)) =
                (w.get("name").and_then(Json::as_str), w.get("fused"))
            {
                if let (Some(ms), Some(instructions)) = (
                    fused.get("ms").and_then(Json::as_f64),
                    fused.get("instructions").and_then(Json::as_u64),
                ) {
                    out.push((name.to_string(), ms, instructions));
                }
            }
        }
    }
    out
}

fn run_value_rep(paper: bool, baseline: Option<&str>) -> Json {
    let scale = if paper { DispatchScale::paper() } else { DispatchScale::quick() };
    println!("\n== E14: value representation — NaN-boxed word on the paper workloads ==");
    let report = value_rep_experiment(scale);
    println!(
        "value word: {} bytes; stack slot: {} bytes; segment copy: {:.3} ns/slot",
        report.value_word_bytes, report.slot_bytes, report.segment_copy_ns_per_slot
    );
    let base = baseline.map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("could not read baseline {path}: {e}"));
        let doc =
            Json::parse(&text).unwrap_or_else(|e| panic!("could not parse baseline {path}: {e}"));
        let rows = baseline_workloads(&doc);
        assert!(!rows.is_empty(), "baseline {path} has no dispatch/e14 workload rows");
        rows
    });

    let mut table = Vec::new();
    let mut rows_json = Vec::new();
    let mut speedups = Vec::new();
    let mut instructions_identical = true;
    for r in &report.rows {
        let found = base
            .as_deref()
            .and_then(|rows| rows.iter().find(|(name, _, _)| name == r.name))
            .map(|&(_, ms, instructions)| (ms, instructions));
        let mut fields = vec![
            ("name", Json::str(r.name)),
            ("ms", Json::Num(r.ms)),
            ("instructions", Json::int(r.instructions)),
            ("ns_per_instruction", Json::Num(r.ns_per_instruction())),
        ];
        let (base_ms_s, speedup_s, instr_s) = if let Some((base_ms, base_instructions)) = found {
            let speedup = base_ms / r.ms;
            // The representation must not change what the compiler emits
            // or how often control events fire — only how fast the same
            // instruction stream retires. fig5-loop runs a scheduler on
            // wall-clock-dependent switch points, so only the four
            // deterministic workloads assert identity strictly.
            let identical = base_instructions == r.instructions;
            instructions_identical &= identical;
            speedups.push(speedup);
            fields.push(("baseline_ms", Json::Num(base_ms)));
            fields.push(("baseline_instructions", Json::int(base_instructions)));
            fields.push(("speedup", Json::Num(speedup)));
            fields.push(("instructions_identical", Json::Bool(identical)));
            (format!("{base_ms:.1}"), format!("{speedup:.2}x"), identical.to_string())
        } else {
            ("-".into(), "-".into(), "-".into())
        };
        table.push(vec![
            r.name.to_string(),
            format!("{:.1}", r.ms),
            r.instructions.to_string(),
            base_ms_s,
            speedup_s,
            instr_s,
        ]);
        rows_json.push(Json::obj(fields));
    }
    println!(
        "{}",
        render_table(
            &["workload", "ms", "instructions", "baseline-ms", "speedup", "instr-identical"],
            &table
        )
    );

    let geomean = (!speedups.is_empty()).then(|| {
        let log_sum: f64 = speedups.iter().map(|s| s.ln()).sum();
        (log_sum / speedups.len() as f64).exp()
    });
    if let Some(g) = geomean {
        println!(
            "Geomean speedup vs baseline: {g:.3}x across {} workloads; \
             instruction counts identical: {instructions_identical}.",
            speedups.len()
        );
    } else {
        println!("No baseline given (--baseline PATH): absolute numbers only.");
    }
    println!("Expected shape: the 8-byte word shrinks every stack slot and pool");
    println!("payload, so the same instruction streams retire faster and segment");
    println!("copies move fewer bytes; instruction counts must not move at all.");

    let mut fields = vec![
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("reps", Json::int(u64::from(scale.reps))),
        ("value_word_bytes", Json::int(report.value_word_bytes)),
        ("slot_bytes", Json::int(report.slot_bytes)),
        ("segment_copy_ns_per_slot", Json::Num(report.segment_copy_ns_per_slot)),
        ("rows", Json::Arr(rows_json)),
    ];
    if let Some(g) = geomean {
        fields.push(("geomean_speedup", Json::Num(g)));
        fields.push(("instructions_identical", Json::Bool(instructions_identical)));
    }
    Json::obj(fields)
}

fn run_promotion() -> Json {
    println!("\n== E8 / §3.3: promotion of one-shot chains by one call/cc ==");
    let mut table = Vec::new();
    let mut rows_json = Vec::new();
    for chain in [10usize, 100, 1000] {
        for r in promotion_experiment(chain) {
            table.push(vec![
                chain.to_string(),
                format!("{:?}", r.strategy),
                r.promotions.to_string(),
                r.promotion_steps.to_string(),
            ]);
            rows_json.push(Json::obj([
                ("chain_length", Json::int(chain as u64)),
                ("strategy", Json::str(format!("{:?}", r.strategy))),
                ("promotions", Json::int(r.promotions)),
                ("promotion_steps", Json::int(r.promotion_steps)),
            ]));
        }
    }
    println!("{}", render_table(&["chain-length", "strategy", "promotions", "walk-steps"], &table));
    println!("Paper: the eager walk is linear in the chain (amortized: each one-shot");
    println!("promotes once); the proposed shared flag promotes a whole chain in O(1).");
    Json::Arr(rows_json)
}
