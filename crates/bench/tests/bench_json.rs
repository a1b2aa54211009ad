//! `bench --json` is an exact record: CI byte-diffs it against the committed
//! `BENCH_<scenario>.json`, so it must carry no host-dependent field and
//! must refuse the options it would otherwise ignore.

use std::process::{Command, Output};

use ipipe_bench::scenario::NAMES;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("run bench")
}

#[test]
fn json_is_byte_identical_across_runs() {
    for scenario in NAMES {
        let args = ["--scenario", scenario, "--smoke", "--json"];
        // The two runs are independent processes; run them side by side.
        let (a, b) = std::thread::scope(|s| {
            let b = s.spawn(|| bench(&args));
            (bench(&args), b.join().expect("bench thread"))
        });
        assert!(a.status.success() && b.status.success(), "{args:?} failed");
        let line = String::from_utf8(a.stdout).expect("utf-8 output");
        assert_eq!(line.lines().count(), 1, "one line of JSON: {line}");
        assert_eq!(line.as_bytes(), b.stdout, "{scenario}: two runs differ");
    }
}

#[test]
fn json_rejects_options_it_would_ignore() {
    let out = bench(&["--scenario", "pod", "--smoke", "--json", "--shards", "2"]);
    assert!(!out.status.success(), "--json --shards 2 must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage: bench"),
        "the failure prints the usage message"
    );
}
