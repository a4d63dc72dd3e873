//! The `experiments` command line: it runs what it is asked and refuses
//! what it does not know.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("experiments runs")
}

#[test]
fn unknown_flags_and_subcommands_exit_2_with_usage() {
    // `--quick` and `e11` were accepted once; `--papr` is the typo that
    // would otherwise quietly run the quick scale.
    for args in [&["--papr"][..], &["tak", "--quick"], &["e11"], &["tak", "cache"], &["--json"]] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: experiments"), "{args:?}");
    }
}

#[test]
fn a_run_prints_its_table_and_writes_the_same_rows_as_json() {
    let path =
        std::env::temp_dir().join(format!("oneshot-experiments-{}.json", std::process::id()));
    let out = experiments(&["promotion", "--json", path.to_str().unwrap()]);
    let json = std::fs::read_to_string(&path).expect("the JSON was written");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let printed = String::from_utf8_lossy(&out.stdout);
    assert!(printed.contains("        1000   EagerWalk        1000        1000"), "{printed}");
    assert!(json.contains("\"schema\": \"oneshot-experiments/v11\""), "{json}");
    assert!(json.contains("[1000, \"EagerWalk\", 1000, 1000]"), "{json}");
}
