//! The one ledger for the oneshot stack: five workloads, six end-to-end
//! metrics, per-layer probes and counters, and a traced pass. See
//! `README.md` beside this package for what each number means.
//!
//! ```text
//! oneshot-benchmark --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! oneshot-benchmark run [--seed N] [--seconds S] [--smoke]          every workload, both passes
//! oneshot-benchmark repeat N [--seed N] [--seconds S] [--smoke]     N sets; do they agree?
//! oneshot-benchmark compare A.json B.json                           two ledgers, row by row
//! oneshot-benchmark manifest                                        BENCHMARK.json's content
//! ```

mod affinity;
mod api;
mod calibrate;
mod expected;
mod json;
mod ledger;
mod measure;
mod probes;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use measure::{measure, Until};
use report::{END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::compute_plain::ComputePlain;
use workloads::paper_control::PaperControl;
use workloads::pool_jobs::PoolJobs;
use workloads::serve::{ServeChurn, ServeEcho};
use workloads::{Scale, Workload, WORKLOADS};

/// Seconds one run measures when the caller does not say; also
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u32 = 10;

/// Results, traces and ledgers are written here and nowhere else:
/// `out/` beside this package's manifest. `cargo run` names that directory
/// in the environment (and child passes inherit it); a binary started by
/// hand falls back to where it was built.
pub fn out_dir() -> Result<PathBuf, String> {
    let package = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    let dir = package.join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

#[derive(Debug, Clone)]
pub struct Pass {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Pass {
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        }
    }

    /// Where this pass leaves its full result (overwritten by the next
    /// pass of the same kind, so `out/` stays bounded).
    pub fn result_path(&self) -> Result<PathBuf, String> {
        Ok(out_dir()?.join(format!("{}.trace{}.json", self.workload, u8::from(self.trace))))
    }
}

/// The result line the contract asks for, and the self-describing document
/// written beside it.
struct Finished {
    line: Json,
    full: Json,
    correct: bool,
}

fn metrics_json(values: impl Iterator<Item = (&'static str, &'static str, f64)>) -> Json {
    Json::Obj(
        values
            .map(|(name, unit, value)| {
                let m = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]);
                (name.to_string(), m)
            })
            .collect(),
    )
}

fn finish(
    pass: &Pass,
    correct: bool,
    attempted: u64,
    failed: u64,
    complaints: &[String],
    metrics: Json,
    mut detail: Vec<(&'static str, Json)>,
) -> Finished {
    let failed = failed.min(attempted);
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1) as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics),
    ]);
    let mut full = vec![
        ("schema", Json::str("oneshot-ledger-pass/v1")),
        ("workload", Json::str(&pass.workload)),
        ("seed", Json::Int(pass.seed as i64)),
        ("seconds", Json::Num(pass.seconds)),
        ("trace", Json::Bool(pass.trace)),
        ("environment", report::environment(&pass.scale())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("fail_ratio", Json::Num(failed as f64 / attempted.max(1) as f64)),
        ("complaints", Json::Arr(complaints.iter().map(Json::str).collect())),
    ];
    full.append(&mut detail);
    Finished { line, full: Json::obj(full), correct }
}

fn untraced_pass<W: Workload>(pass: &Pass) -> Result<Finished, String> {
    let scale = pass.scale();
    let measured = measure::<W>(
        &mut Tracer::off(),
        &scale,
        pass.seed,
        scale.setups,
        Until::Seconds(pass.seconds),
    )?;
    let o = report::outcome(measured)?;
    let metrics =
        metrics_json(END_TO_END.iter().zip(&o.end_to_end).map(|(m, s)| (m.name, m.unit, s.median)));
    let end_to_end = Json::Obj(
        END_TO_END
            .iter()
            .zip(o.end_to_end.iter().zip(&o.wall))
            .map(|(m, (s, wall))| (m.name.to_string(), report::summary_json(s, m.unit, Some(wall))))
            .collect(),
    );
    let rows = Json::Obj(
        o.rows.iter().map(|(n, s)| (n.to_string(), report::summary_json(s, "ms", None))).collect(),
    );
    let host_speed = Json::obj(vec![
        ("reference_chain_ns", Json::Num(calibrate::REFERENCE_NS)),
        ("setups", Json::nums(&o.host_speed_setups)),
        ("blocks", Json::nums(&o.host_speed_blocks)),
    ]);
    Ok(finish(
        pass,
        o.correct(),
        o.attempted,
        o.failed,
        &o.complaints,
        metrics,
        vec![
            ("blocks", Json::Int(o.blocks as i64)),
            ("setups", Json::Int(i64::from(scale.setups))),
            ("measured_seconds", Json::Num(o.measured_seconds)),
            ("host_speed", host_speed),
            ("end_to_end", end_to_end),
            ("rows", rows),
        ],
    ))
}

fn traced_pass<W: Workload>(pass: &Pass) -> Result<Finished, String> {
    let scale = pass.scale();
    let probed = probes::run(&scale)?;
    // Room for a few spans per operation of the busiest workload over the
    // warm-up and the recording blocks, plus the resident ramp.
    let ops_per_block = scale.jobs_per_block.max(scale.echoes_per_block).max(scale.conns_per_block);
    let mut tracer = Tracer::on(
        4 * ops_per_block as usize * (scale.traced_pairs as usize + 1) + 4 * scale.resident,
    );
    let traced =
        measure::<W>(&mut tracer, &scale, pass.seed, 1, Until::TracedPairs(scale.traced_pairs))?;
    let per_layer = report::per_layer(&probed, &traced, &tracer)?;

    let trace_file = out_dir()?.join(format!("{}.spans.jsonl", pass.workload));
    tracer.write_jsonl(&trace_file).map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let o = report::outcome(traced)?;
    let metrics =
        metrics_json(PER_LAYER.iter().zip(&per_layer).map(|(m, (_, v))| (m.name, m.unit, *v)));
    Ok(finish(
        pass,
        o.correct(),
        o.attempted,
        o.failed,
        &o.complaints,
        metrics.clone(),
        vec![
            ("blocks", Json::Int(i64::from(2 * scale.traced_pairs))),
            ("per_layer", metrics),
            ("spans_file", Json::str(trace_file.display().to_string())),
        ],
    ))
}

fn one_pass(pass: &Pass) -> Result<Finished, String> {
    // Before any thread is created: they inherit the work CPU.
    affinity::plan();
    fn both<W: Workload>(pass: &Pass) -> Result<Finished, String> {
        if pass.trace {
            traced_pass::<W>(pass)
        } else {
            untraced_pass::<W>(pass)
        }
    }
    match pass.workload.as_str() {
        "paper-control" => both::<PaperControl>(pass),
        "compute-plain" => both::<ComputePlain>(pass),
        "pool-jobs" => both::<PoolJobs>(pass),
        "serve-echo" => both::<ServeEcho>(pass),
        "serve-churn" => both::<ServeChurn>(pass),
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            Err(format!("no workload `{other}`; there are {}", known.join(", ")))
        }
    }
}

/// `BENCHMARK.json`, from the same tables the code reports by.
fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(i64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(n, why)| {
                        Json::obj(vec![("name", Json::str(*n)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ----------------------------------------------------------------------
// Arguments
// ----------------------------------------------------------------------

#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut raw = raw.peekable();
    while let Some(arg) = raw.next() {
        let mut value = |name: &str| raw.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn dispatch(args: Args) -> Result<bool, String> {
    if let Some(workload) = args.workload.clone() {
        if !args.positional.is_empty() {
            return Err("--workload runs one pass; it takes no subcommand".to_string());
        }
        let pass = Pass {
            workload,
            seed: args.seed,
            seconds: args.seconds.unwrap_or(f64::from(RUN_SECONDS)),
            trace: args.trace,
            smoke: args.smoke,
        };
        let done = one_pass(&pass)?;
        let path = pass.result_path()?;
        std::fs::write(&path, done.full.to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for complaint in done.full.get("complaints").and_then(Json::as_arr).unwrap_or(&[]) {
            eprintln!("{}: {}", pass.workload, complaint.as_str().unwrap_or("?"));
        }
        // The result is the last line of standard output.
        println!("{}", done.line.to_line());
        return Ok(done.correct);
    }
    match args.positional.first().map(String::as_str) {
        Some("run") | None => ledger::run(&args),
        Some("repeat") => ledger::repeat(&args),
        Some("compare") => ledger::compare(&args),
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        Some(other) => {
            Err(format!("unknown subcommand `{other}` (run, repeat, compare, manifest)"))
        }
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("oneshot-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
