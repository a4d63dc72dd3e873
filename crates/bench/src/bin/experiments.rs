//! Regenerates the tables and figures of the paper's evaluation (E1–E8).
//!
//! Alongside the printed tables it writes the same rows, un-rounded, to
//! `experiments.json` (or `--json PATH`). Every experiment's shape is
//! checked on its deterministic counter columns each time it runs: the exit
//! status is 1 if any check failed, 2 for a command line it does not know.

use std::process::ExitCode;

use oneshot_bench::experiments::{Experiment, Scale, EXPERIMENTS, SCHEMA};
use oneshot_bench::table::json_document;

const USAGE: &str = "\
usage: experiments [<experiment>|all] [--paper] [--json PATH]
  figure5        E1, Figure 5: CPS vs call/cc vs call/1cc thread systems
  tak            E2, §4: tak with a capture+invoke per call
  overflow       E3, §4: deep recursion, overflow as call/1cc vs call/cc
  frames         E4, §5: closures per frame, direct vs CPS
  cache          E5, §3.2 ablation: segment cache on/off
  hysteresis     E6, §3.2 ablation: overflow hysteresis on/off
  fragmentation  E7, §3.4: fresh-segment vs seal-with-pad residency
  promotion      E8, §3.3: eager-walk vs shared-flag promotion
  all            everything above (the default)
  --paper        the paper's own parameters (fib 20, up to 1000 threads,
                 frequencies to 512) instead of the ten-second sweep
  --json PATH    where to write the rows (default: experiments.json)";

/// What the command line asked for: the experiments to run, the scale and
/// the JSON path.
fn parse(args: &[String]) -> Result<(Vec<&'static Experiment>, Scale, String), String> {
    let mut selected = None;
    let mut scale = Scale::quick();
    let mut json_path = "experiments.json".to_string();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::paper(),
            "--json" => json_path = args.next().ok_or("--json needs a path")?.clone(),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            _ if selected.is_some() => return Err(format!("more than one experiment: {arg:?}")),
            "all" => selected = Some(EXPERIMENTS.iter().collect()),
            key => match EXPERIMENTS.iter().find(|e| e.key == key) {
                Some(exp) => selected = Some(vec![exp]),
                None => return Err(format!("unknown experiment {key:?}")),
            },
        }
    }
    Ok((selected.unwrap_or_else(|| EXPERIMENTS.iter().collect()), scale, json_path))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selected, scale, json_path) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("experiments: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut tables = Vec::new();
    let mut failed = false;
    for exp in selected {
        let (table, verdict) = exp.report(&scale);
        if let Err(e) = verdict {
            eprintln!("experiments: {}: shape check FAILED: {e}", exp.key);
            failed = true;
        }
        tables.push((exp.key, table));
    }

    match std::fs::write(&json_path, json_document(SCHEMA, scale.name, &tables)) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => {
            eprintln!("\ncould not write {json_path}: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
