//! Run one whole-cluster scenario and summarize it, or print its committed
//! figure as one line of JSON.
//!
//! ```text
//! cargo run --release -p ipipe-bench --bin bench -- \
//!     [--scenario rkv|rkv-fault|rkv-scale|rkv-overload|tcp-offload|pod] \
//!     [--smoke] [--seed N] [--shards N] [--out DIR] [--verbose] [--json]
//! ```
//!
//! By default the scenario runs once at full size (`--smoke`: the CI size)
//! and prints its summary line, if any, and counter/histogram/trace tables
//! of the cluster's canonical merged view; `--out DIR` writes
//! `metrics.jsonl` and `chrome.json` (open it in Perfetto). Stdout and both
//! files are byte-identical across same-seed runs and every `--shards N`.
//! Only `rkv` and `rkv-fault` trace (`--verbose`: per-request records too);
//! the high-volume scenarios run metrics-only.
//!
//! `--json` prints the figure instead: a warmup, the timed serial run and
//! timed shard re-runs asserted to export its bytes (`--shards` does not
//! apply). `--seed` defaults to the seed of the scenario's committed
//! `BENCH_*.json`.

use ipipe::rt::Cluster;
use ipipe_bench::render_table;
use ipipe_bench::scenario::{bench_json, run_traced, visit, Scenario, Visit, NAMES};
use ipipe_sim::obs::{Obs, TraceKind, TraceLevel};
use ipipe_sim::SimTime;
use std::collections::BTreeMap;

struct Opts {
    scenario: String,
    smoke: bool,
    seed: Option<u64>,
    shards: usize,
    out: Option<String>,
    verbose: bool,
    json: bool,
}

fn usage() -> String {
    format!(
        "usage: bench [--scenario {}] [--smoke] [--seed N] [--shards N] [--out DIR] \
         [--verbose] [--json]",
        NAMES.join("|")
    )
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        scenario: "rkv".into(),
        smoke: false,
        seed: None,
        shards: 1,
        out: None,
        verbose: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenario" => opts.scenario = args.next().expect("--scenario needs a value"),
            "--smoke" => opts.smoke = true,
            "--seed" => {
                opts.seed = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs an integer"),
                )
            }
            "--shards" => {
                opts.shards = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--shards needs an integer >= 1")
            }
            "--out" => opts.out = Some(args.next().expect("--out needs a directory")),
            "--verbose" => opts.verbose = true,
            "--json" => opts.json = true,
            "--help" | "-h" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}\n{}", usage()),
        }
    }
    assert!(opts.shards >= 1, "--shards needs an integer >= 1");
    opts
}

impl Visit for &Opts {
    fn visit<S: Scenario>(self) {
        let seed = self.seed.unwrap_or(S::SEED);
        if self.json {
            println!("{}", bench_json::<S>(seed, self.smoke));
            return;
        }
        let spec = if self.smoke {
            S::smoke(seed, self.shards)
        } else {
            S::full(seed, self.shards)
        };
        let level = if self.verbose {
            TraceLevel::Verbose
        } else {
            TraceLevel::Spans
        };
        let (stats, c) = run_traced(&spec, &Obs::with_level(level));
        if let Some(line) = spec.summary(&stats) {
            println!("{line}");
        }
        print_tables(&c, &format!("{} seed {seed}", S::NAME));
        if let Some(dir) = &self.out {
            write_exports(&c, dir);
        }
    }
}

/// Counter, histogram and trace tables of the cluster's merged view.
fn print_tables(c: &Cluster, title: &str) {
    let snap = c.snapshot();
    let rows: Vec<Vec<String>> = snap
        .counters
        .iter()
        .map(|((name, node), v)| vec![name.clone(), node.to_string(), v.to_string()])
        .collect();
    print!(
        "{}",
        render_table(
            &format!("counters — {title}"),
            &["name", "node", "value"],
            &rows
        )
    );
    let rows: Vec<Vec<String>> = snap
        .hists
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|((name, node), h)| {
            vec![
                name.clone(),
                node.to_string(),
                h.count().to_string(),
                format!("{:.1}", h.mean().as_us_f64()),
                format!("{:.1}", h.p99().as_us_f64()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "histograms",
            &["name", "node", "count", "mean(us)", "p99(us)"],
            &rows
        )
    );

    let events = c.merged_trace();
    let mut by_name: BTreeMap<(&str, &str), (u64, SimTime)> = BTreeMap::new();
    for ev in &events {
        let slot = by_name.entry((ev.cat, ev.name)).or_default();
        slot.0 += 1;
        if let TraceKind::Span { dur } = ev.kind {
            slot.1 += dur;
        }
    }
    let rows: Vec<Vec<String>> = by_name
        .iter()
        .map(|((cat, name), (n, total))| {
            vec![
                format!("{cat}/{name}"),
                n.to_string(),
                format!("{:.1}", total.as_us_f64()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "trace — {} recorded, {} dropped",
                events.len(),
                c.trace_totals().1
            ),
            &["cat/name", "events", "span-total(us)"],
            &rows,
        )
    );
}

/// `DIR/metrics.jsonl` and `DIR/chrome.json` from the canonical merged view.
fn write_exports(c: &Cluster, dir: &str) {
    std::fs::create_dir_all(dir).expect("create --out dir");
    let metrics = format!("{dir}/metrics.jsonl");
    let chrome = format!("{dir}/chrome.json");
    std::fs::write(&metrics, c.export_canonical_jsonl()).expect("write metrics");
    std::fs::write(&chrome, c.export_canonical_chrome()).expect("write chrome trace");
    // stderr, so stdout summaries of two same-seed runs with different
    // --out dirs stay byte-identical (the CI smoke matrix diffs them).
    eprintln!("wrote {metrics} and {chrome} (open the latter in Perfetto)");
}

fn main() {
    let opts = parse_opts();
    if !visit(&opts.scenario, &opts) {
        panic!("unknown scenario {:?}\n{}", opts.scenario, usage());
    }
}
