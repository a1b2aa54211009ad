//! `scripts/perf_gate.sh` gates each scenario's serial events/s by grepping
//! `"<key>":{...}` out of `bench --json` and `"events_per_sec":<n>` out of
//! that object. Pin that the line keeps that shape for every gated
//! scenario (at smoke size, so the test stays quick).

use std::process::Command;

/// The `"key":{...}` object of a one-line bench JSON, as the gate's
/// `grep -o "\"key\":{[^}]*}"` extracts it.
fn object<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":{{"))?;
    let end = start + line[start..].find('}')?;
    Some(&line[start..=end])
}

#[test]
fn gated_scenarios_report_events_per_sec() {
    for (scenario, key) in [
        ("rkv-scale", "scale"),
        ("rkv-overload", "overload"),
        ("tcp-offload", "tcp"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(["--scenario", scenario, "--smoke", "--json"])
            .output()
            .expect("run bench");
        assert!(out.status.success(), "bench --scenario {scenario} failed");
        let line = String::from_utf8(out.stdout).expect("utf-8 output");
        assert_eq!(line.lines().count(), 1, "one line of JSON: {line}");
        let obj = object(&line, key).unwrap_or_else(|| panic!("no \"{key}\" object: {line}"));
        let rate = obj
            .split("\"events_per_sec\":")
            .nth(1)
            .unwrap_or_else(|| panic!("no events_per_sec in {obj}"));
        let digits: String = rate
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let eps: f64 = digits.parse().expect("numeric events_per_sec");
        assert!(eps > 0.0, "{scenario}: events_per_sec {eps}");
    }
}
