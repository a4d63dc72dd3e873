//! Cross-crate integration tests through the `oneshot` facade: the
//! substrate (`core`), the VM, and the thread systems working together,
//! plus sanity-scale versions of the paper's experiments.

use oneshot::core::{Config, CounterField, OverflowPolicy, Stats};
use oneshot::exec::PoolCountersSnapshot;
use oneshot::runtime::HeapStats;
use oneshot::threads::{Strategy, ThreadSystem};
use oneshot::vm::{ConditionKind, Pipeline, Vm, VmStats};

#[test]
fn facade_reexports_work_together() {
    let mut vm = Vm::builder()
        .stack(Config { segment_slots: 512, copy_bound: 128, ..Config::default() })
        .build();
    let v =
        vm.eval_str("(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 5000)").unwrap();
    assert_eq!(vm.display_value(&v), "12502500");
    assert!(vm.stats().stack.overflows > 10);
}

#[test]
fn thread_systems_share_results_across_strategies() {
    let mut answers = Vec::new();
    for strategy in Strategy::ALL {
        let mut ts = ThreadSystem::new(strategy);
        ts.eval("(define acc '())").unwrap();
        match strategy {
            Strategy::Cps => {
                ts.eval(
                    "(define (job-cps i)
                       (lambda (k)
                         (cps-call (lambda ()
                           (set! acc (cons (* i i) acc))
                           (k 0)))))",
                )
                .unwrap();
                for i in 0..6 {
                    ts.spawn(&format!("(job-cps {i})")).unwrap();
                }
            }
            _ => {
                ts.eval("(define (job i) (lambda () (set! acc (cons (* i i) acc))))").unwrap();
                for i in 0..6 {
                    ts.spawn(&format!("(job {i})")).unwrap();
                }
            }
        }
        ts.run(4).unwrap();
        answers.push(ts.eval_to_string("(reverse acc)").unwrap());
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[1], answers[2]);
    assert_eq!(answers[0], "(0 1 4 9 16 25)");
}

#[test]
fn experiment_shapes_hold_at_sanity_scale() {
    // E1–E8, each with the check the `experiments` binary applies on every
    // run: one-shot switches and captures copy nothing, multi-shot ones do,
    // CPS pays in closures, the cache and hysteresis ablations bite, and so
    // on — on counters, never on wall time.
    let scale = oneshot_bench::experiments::Scale::sanity();
    for exp in &oneshot_bench::experiments::EXPERIMENTS {
        let table = exp.run(&scale);
        (exp.check)(&table).unwrap_or_else(|e| panic!("{}: {e}", exp.key));
    }
}

#[test]
fn direct_and_cps_agree_through_the_facade() {
    let src = "(define (tak x y z)
                 (if (not (< y x)) z
                     (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
               (tak 10 5 0)";
    let mut d = Vm::new();
    let expected = d.eval_str(src).map(|v| d.write_value(&v)).unwrap();
    let mut c = Vm::builder().pipeline(Pipeline::Cps).build();
    let got = c.eval_str(src).map(|v| c.write_value(&v)).unwrap();
    assert_eq!(got, expected);
}

#[test]
fn overflow_policies_agree_on_results() {
    for policy in [OverflowPolicy::OneShot, OverflowPolicy::MultiShot] {
        let mut vm = Vm::builder()
            .stack(Config {
                segment_slots: 256,
                copy_bound: 64,
                overflow_policy: policy,
                ..Config::default()
            })
            .build();
        let v = vm
            .eval_str("(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) (length (build 3000))")
            .unwrap();
        assert_eq!(vm.display_value(&v), "3000", "{policy:?}");
    }
}

#[test]
fn sexp_reader_feeds_the_vm() {
    use oneshot::sexp::read_all;
    let forms = read_all("(+ 1 2) (* 3 4)").unwrap();
    assert_eq!(forms.len(), 2);
    let mut vm = Vm::new();
    let v = vm.eval_str("(* 3 4)").unwrap();
    assert_eq!(vm.display_value(&v), "12");
}

/// DESIGN.md's §Counters has one row per declared counter, saying what the
/// declaration says: adding a counter is its declaration and its row.
#[test]
fn design_md_has_a_row_for_every_declared_counter() {
    let design = include_str!("../DESIGN.md");
    let section = &design[design.find("### Counters").expect("the section exists")..];
    let section = &section[..section[1..].find("\n#").map_or(section.len(), |end| end + 1)];
    let tables: [(&str, &[CounterField], bool); 4] = [
        ("Stats", Stats::FIELDS, true),
        ("HeapStats", HeapStats::FIELDS, true),
        ("VmStats", VmStats::FIELDS, true),
        ("PoolCountersSnapshot", PoolCountersSnapshot::FIELDS, false),
    ];
    let mut declared = 0;
    for (table, fields, in_vm_stats) in tables {
        for f in fields {
            let key = match f.vm_key() {
                Some(key) if in_vm_stats && f.kind != "nested" => format!("`{key}`"),
                _ => "—".to_string(),
            };
            let row = format!("| `{}` | `{table}` | {} | {key} |", f.name, f.kind);
            assert!(section.contains(&row), "DESIGN.md §Counters lacks `{row} … |`");
            declared += 1;
        }
    }
    let rows = section.lines().filter(|line| line.starts_with("| `")).count();
    assert_eq!(rows, declared, "§Counters has a row for a field no table declares");
}

/// DESIGN.md's §Condition kinds has one row per declared `ConditionKind`,
/// and no other.
#[test]
fn design_md_has_a_row_for_every_condition_kind() {
    let design = include_str!("../DESIGN.md");
    let section = &design[design.find("### Condition kinds").expect("the section exists")..];
    let section = &section[..section[1..].find("\n#").map_or(section.len(), |end| end + 1)];
    for kind in ConditionKind::ALL {
        let row = format!("| `{}` |", kind.name());
        assert!(section.contains(&row), "DESIGN.md §Condition kinds lacks `{row} … |`");
    }
    let rows = section.lines().filter(|line| line.starts_with("| `")).count();
    assert_eq!(rows, ConditionKind::ALL.len(), "§Condition kinds has a row for an undeclared kind");
}
