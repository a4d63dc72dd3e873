//! `run`, `repeat` and `compare`: every workload through both passes into
//! one ledger file, several ledgers checked against each other, and two
//! ledgers compared row by row against the bounds.
//!
//! Each pass of each workload runs in a child process of its own (this
//! executable, `--workload ...`): a cold heap and its own RSS high-water
//! mark, exactly what a contract-mode invocation measures.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Json};
use crate::report::{Better, END_TO_END};
use crate::stats::Summary;
use crate::workloads::WORKLOADS;
use crate::{out_dir, Args, Pass, RUN_SECONDS};

/// A smoke run measures this long per workload: enough for three blocks
/// at smoke scale.
const SMOKE_SECONDS: f64 = 0.5;

fn child_pass(pass: &Pass) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &pass.workload])
        .args(["--seed", &pass.seed.to_string()])
        .args(["--seconds", &pass.seconds.to_string()])
        .args(["--trace", if pass.trace { "1" } else { "0" }])
        .stdout(Stdio::null());
    if pass.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn {}: {e}", pass.workload))?;
    // Exit 1 is "ran, but incorrect": the result file says why. Anything
    // else never produced a result.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{} (trace {}) ended with {status}", pass.workload, pass.trace));
    }
    read_json(&pass.result_path()?)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("ledger lacks `{key}`"))
}

/// Runs every workload through the untraced pass, and the traced one when
/// `traced`, and returns the merged ledger.
fn run_set(args: &Args, traced: bool) -> Result<Json, String> {
    let seconds =
        args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { f64::from(RUN_SECONDS) });
    let mut environment = Json::Null;
    let mut workloads = Vec::new();
    for (name, why) in WORKLOADS {
        let pass = |trace| Pass {
            workload: name.to_string(),
            seed: args.seed,
            seconds,
            trace,
            smoke: args.smoke,
        };
        eprintln!("{name}: measuring");
        let plain = child_pass(&pass(false))?;
        environment = field(&plain, "environment")?.clone();
        let mut entry =
            vec![("name".to_string(), Json::str(name)), ("why".to_string(), Json::str(why))];
        for key in [
            "correct",
            "attempted",
            "failed",
            "fail_ratio",
            "complaints",
            "blocks",
            "setups",
            "measured_seconds",
            "host_speed",
            "end_to_end",
            "rows",
        ] {
            entry.push((key.to_string(), field(&plain, key)?.clone()));
        }
        if traced {
            eprintln!("{name}: tracing");
            let traced = child_pass(&pass(true))?;
            entry.push(("traced_correct".to_string(), field(&traced, "correct")?.clone()));
            entry.push(("traced_complaints".to_string(), field(&traced, "complaints")?.clone()));
            entry.push(("per_layer".to_string(), field(&traced, "per_layer")?.clone()));
            entry.push(("spans_file".to_string(), field(&traced, "spans_file")?.clone()));
        }
        workloads.push(Json::Obj(entry));
    }
    Ok(Json::obj(vec![
        ("schema", Json::str("oneshot-ledger/v1")),
        ("environment", environment),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Arr(workloads)),
    ]))
}

fn write_ledger(ledger: &Json, name: &str) -> Result<PathBuf, String> {
    let path = out_dir()?.join(name);
    std::fs::write(&path, ledger.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn workloads_of(ledger: &Json) -> Result<&[Json], String> {
    field(ledger, "workloads")?.as_arr().ok_or_else(|| "`workloads` is not a list".to_string())
}

fn name_of(workload: &Json) -> &str {
    workload.get("name").and_then(Json::as_str).unwrap_or("?")
}

fn all_correct(ledger: &Json) -> Result<bool, String> {
    Ok(workloads_of(ledger)?.iter().all(|w| {
        ["correct", "traced_correct"]
            .iter()
            .all(|k| w.get(k).is_none_or(|v| *v == Json::Bool(true)))
    }))
}

/// Every metric by name with its unit: the end-to-end table, then each
/// workload's per-layer numbers.
fn print_ledger(ledger: &Json) -> Result<(), String> {
    println!("environment: {}", field(ledger, "environment")?.to_line());
    println!(
        "\n{:<14} {:<12} {:>14} {:>14} {:>14} {:>4}  unit",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    for w in workloads_of(ledger)? {
        let e2e = field(w, "end_to_end")?.as_obj().ok_or("`end_to_end` is not an object")?;
        for (metric, s) in e2e {
            let num = |k| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>14.4} {:>4}  {}",
                name_of(w),
                metric,
                num("value"),
                num("q1"),
                num("q3"),
                num("samples"),
                s.get("unit").and_then(Json::as_str).unwrap_or("?"),
            );
        }
        let n = |k| w.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "{:<14} {:<12} {:>14.6} {:>14} {:>14} {:>4}  ratio ({} failed of {})",
            name_of(w),
            "fail_ratio",
            n("fail_ratio"),
            "",
            "",
            "",
            n("failed"),
            n("attempted"),
        );
    }
    for w in workloads_of(ledger)? {
        if let Some(rows) = w.get("rows").and_then(Json::as_obj) {
            println!("\n{} rows (median ms per block):", name_of(w));
            for (row, s) in rows {
                println!(
                    "  {:<40} {:>14.4}",
                    row,
                    s.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN)
                );
            }
        }
        if let Some(layers) = w.get("per_layer").and_then(Json::as_obj) {
            println!("\n{} per layer:", name_of(w));
            for (metric, v) in layers {
                println!(
                    "  {:<40} {:>18.4}  {}",
                    metric,
                    v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    v.get("unit").and_then(Json::as_str).unwrap_or("?"),
                );
            }
        }
        for key in ["complaints", "traced_complaints"] {
            for c in w.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
                println!("!! {}: {}", name_of(w), c.as_str().unwrap_or("?"));
            }
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<bool, String> {
    let ledger = run_set(args, true)?;
    let path = write_ledger(&ledger, "ledger.json")?;
    print_ledger(&ledger)?;
    println!("\nledger: {}", path.display());
    all_correct(&ledger)
}

// ----------------------------------------------------------------------
// compare
// ----------------------------------------------------------------------

/// One (workload, end-to-end metric) cell of a ledger.
struct Cell {
    summary: Summary,
}

fn cell(workload: &Json, metric: &str) -> Option<Cell> {
    let s = workload.get("end_to_end")?.get(metric)?;
    let raw: Vec<f64> = s.get("raw")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
    Some(Cell { summary: Summary::of(raw) })
}

/// By what share of `base` the metric got worse going to `change`
/// (negative: it improved).
fn worsening(better: Better, base: f64, change: f64) -> f64 {
    match better {
        Better::Lower => (change - base) / base,
        Better::Higher => (base - change) / base,
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Ok,
    Better,
    Unresolved,
    Regression,
}

/// The rule of choosing-metrics section 6: past the bound is a regression;
/// where either side's own spread is wider than the bound the pair is
/// unresolved, unless every sample of the change beats every sample of the
/// base.
fn judge(better: Better, bound: f64, base: &Summary, change: &Summary) -> Verdict {
    let worse = worsening(better, base.median, change.median);
    let spread = base.spread().max(change.spread());
    if spread > bound {
        let all_better =
            base.raw.iter().all(|b| change.raw.iter().all(|c| worsening(better, *b, *c) < 0.0));
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

pub fn compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: compare BASE.json CHANGE.json".to_string());
    };
    let (base, change) = (read_json(Path::new(a))?, read_json(Path::new(b))?);
    println!(
        "{:<14} {:<12} {:>12} {:>22} {:>12} {:>22} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "[q1, q3]", "change", "[q1, q3]", "worse%", "bound%"
    );
    let mut regressions = 0;
    for w in workloads_of(&base)? {
        let Some(other) = workloads_of(&change)?.iter().find(|o| name_of(o) == name_of(w)) else {
            println!("{:<14} only in the base ledger", name_of(w));
            continue;
        };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (cell(w, m.name), cell(other, m.name)) else {
                println!("{:<14} {:<12} missing on one side", name_of(w), m.name);
                continue;
            };
            let verdict = judge(m.better, m.bound, &x.summary, &y.summary);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{:<14} {:<12} {:>12.4} {:>22} {:>12.4} {:>22} {:>+8.2} {:>6.1}  {}",
                name_of(w),
                m.name,
                x.summary.median,
                format!("[{:.4}, {:.4}]", x.summary.q1, x.summary.q3),
                y.summary.median,
                format!("[{:.4}, {:.4}]", y.summary.q1, y.summary.q3),
                worsening(m.better, x.summary.median, y.summary.median) * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                    Verdict::Regression => "REGRESSION",
                },
            );
        }
        let fails = |l: &Json| l.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if fails(other) > fails(w) {
            regressions += 1;
            println!(
                "{:<14} {:<12} more failures: {} -> {}  REGRESSION",
                name_of(w),
                "fail_ratio",
                fails(w),
                fails(other)
            );
        }
    }
    println!("{regressions} regression(s)");
    Ok(regressions == 0)
}

// ----------------------------------------------------------------------
// repeat
// ----------------------------------------------------------------------

pub fn repeat(args: &Args) -> Result<bool, String> {
    let n: usize = args
        .positional
        .get(1)
        .and_then(|v| v.parse().ok())
        .filter(|n| *n >= 2)
        .ok_or("usage: repeat N (N >= 2)")?;
    let mut ledgers = Vec::new();
    for i in 0..n {
        eprintln!("set {} of {n}", i + 1);
        let ledger = run_set(args, false)?;
        let path = write_ledger(&ledger, &format!("ledger.repeat{i}.json"))?;
        eprintln!("wrote {}", path.display());
        ledgers.push(ledger);
    }
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>9} {:>9} {:>7}  agree",
        "workload", "metric", "min", "max", "spread%", "apart%", "bound%"
    );
    let mut agree = true;
    for (name, _) in WORKLOADS {
        for m in &END_TO_END {
            let mut medians = Vec::new();
            for ledger in &ledgers {
                let w = workloads_of(ledger)?
                    .iter()
                    .find(|w| name_of(w) == name)
                    .ok_or("workload missing")?;
                medians.push(cell(w, m.name).ok_or("metric missing")?.summary.median);
            }
            let across = Summary::of(medians.clone());
            let (min, max) =
                medians.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            // The sets agree when no set is worse than another by more
            // than the bound.
            let apart = (max - min) / min;
            let ok = apart <= m.bound;
            agree &= ok;
            println!(
                "{:<14} {:<12} {:>12.4} {:>12.4} {:>9.2} {:>9.2} {:>7.1}  {}",
                name,
                m.name,
                min,
                max,
                across.spread() * 100.0,
                apart * 100.0,
                m.bound * 100.0,
                if ok { "yes" } else { "NO" },
            );
        }
    }
    let correct =
        ledgers.iter().map(all_correct).collect::<Result<Vec<_>, _>>()?.iter().all(|c| *c);
    println!(
        "{}",
        if agree { "every pair agrees within its bound" } else { "some pairs disagree" }
    );
    Ok(agree && correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values.to_vec())
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = s(&[1.00, 1.01, 0.99, 1.00]);
        assert_eq!(judge(Better::Lower, 0.05, &base, &s(&[1.02, 1.03, 1.02])), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.05, &base, &s(&[1.10, 1.11, 1.10])), Verdict::Regression);
        assert_eq!(judge(Better::Higher, 0.05, &base, &s(&[1.10, 1.11, 1.10])), Verdict::Better);
        let noisy = s(&[1.0, 1.3, 0.8, 1.1]);
        assert_eq!(judge(Better::Lower, 0.05, &noisy, &s(&[1.2, 1.0, 1.25])), Verdict::Unresolved);
        assert_eq!(judge(Better::Lower, 0.05, &noisy, &s(&[0.5, 0.6, 0.55])), Verdict::Better);
    }
}
