//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds of host time and prints,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the per-layer
//! ones, and the spans are written to `out/` beside this package's
//! manifest. The line before it is a detail record: seed, host
//! fingerprint, export digests, every metric with its unit, and which
//! metrics are exact.
//!
//! A run derives a fixed number of scenario seeds from `--seed` and drives
//! them in passes until the time is up. The first pass fixes the exact
//! results; every later pass must reproduce its exports byte for byte.
//! Host times are medians over every instance driven; the end-to-end ones
//! are rescaled to a reference host speed timed around each instance. Any
//! audit or check failure exits with status 1 and prints no result.

use ipipe_perfbench::probe::Probe;
use ipipe_perfbench::reference::{self, Reference};
use ipipe_perfbench::report::{
    host_metrics, layer_counts, layer_times, sim_metrics, HostSample, LayerSample, Metric,
};
use ipipe_perfbench::stats::{fnv1a64, quartiles, splitmix64};
use ipipe_perfbench::workload::{Outcome, Workload};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, in `BENCHMARK.json` order. The remaining `sim.*`
/// metrics read 0 on some workload, so they are reported per layer.
const END_TO_END: [&str; 8] = [
    "wall_s",
    "events_per_s",
    "setup_s",
    "peak_rss_mb",
    "sim.goodput_rps",
    "sim.p50_us",
    "sim.p99_us",
    "sim.failed_frac",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process in MB (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{:?},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_array<'a>(names: impl Iterator<Item = &'a str>) -> String {
    let v: Vec<String> = names.map(json_str).collect();
    format!("[{}]", v.join(","))
}

fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", workload.name()))
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let seeds: Vec<u64> = (0..w.instances())
        .map(|j| splitmix64(splitmix64(args.seed) ^ j))
        .collect();
    let deadline = Duration::from_secs(args.seconds);
    // A traced run alternates untraced and traced passes, so it needs two
    // to report the tracing overhead.
    let min_passes = if args.trace { 2 } else { 1 };

    let mut probe = Probe::new(false);
    let mut first: Vec<Outcome> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut untraced: Vec<HostSample> = Vec::new();
    let mut traced: Vec<LayerSample> = Vec::new();
    let n = seeds.len();
    let mut driven = 0usize;
    let start = Instant::now();
    let mut reference = Reference::new();
    // The first call faults the kernel's memory in; it is not a sample.
    reference.time();
    let mut ref_before = reference.time();
    loop {
        let (pass, j) = (driven / n, driven % n);
        if pass >= min_passes && start.elapsed() >= deadline {
            break;
        }
        let seed = seeds[j];
        let tracing = args.trace && pass % 2 == 1;
        if j == 0 {
            probe.set_on(tracing);
        }
        let mark = probe.mark();
        let scenario = probe.begin("scenario");
        let mut out = w.run(seed, &mut probe)?;
        probe.end(scenario);
        let ref_after = reference.time();
        let ref_s = (ref_before * ref_after).sqrt();
        ref_before = ref_after;
        driven += 1;
        if tracing {
            traced.push(LayerSample::of(&probe.spans()[mark..], &out));
        } else {
            untraced.push(HostSample::of(&out, ref_s));
        }
        let digest = fnv1a64(out.export.as_bytes());
        if pass > 0 {
            if digest != digests[j] {
                return Err(format!(
                    "seed {seed}: export digest {digest:016x} differs from the first pass's {:016x}",
                    digests[j]
                ));
            }
            continue;
        }
        if let Some(serial) = w.serial_export(seed) {
            if serial != out.export {
                return Err(format!(
                    "seed {seed}: sharded export differs from the 1-shard export"
                ));
            }
        }
        out.export = String::new();
        digests.push(digest);
        first.push(out);
    }

    let sim = sim_metrics(&first);
    let mut all: Vec<Metric> = host_metrics(&untraced, peak_rss_mb()?);
    all.extend(sim.iter().cloned());
    let mut layers: Vec<Metric> = Vec::new();
    if args.trace {
        layers = layer_times(&traced, &untraced);
        layers.extend(layer_counts(&first));
        layers.extend(sim.into_iter().filter(|m| !END_TO_END.contains(&m.name)));
        let path = spans_path(w, args.seed);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, probe.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        all.extend(layers.iter().cloned());
    }

    let find = |name: &str| {
        all.iter()
            .find(|m| m.name == name)
            .expect("every end-to-end metric is computed")
    };
    let result: Vec<&Metric> = if args.trace {
        layers.iter().collect()
    } else {
        END_TO_END.iter().map(|n| find(n)).collect()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    let digests_json = json_array(hex.iter().map(String::as_str));
    let detail = format!(
        "{{\"detail\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\
         \"host\":{{\"nproc\":{nproc},\"cpu_model\":{}}},\"instances\":{},\
         \"instances_driven\":{driven},\"export_fnv1a64\":{digests_json},\
         \"reference_nominal_s\":{:?},\"reference_s_quartiles\":{:?},\
         \"raw_wall_s_quartiles\":{:?},\"raw_setup_s_quartiles\":{:?},\
         \"exact\":{},\"host_time\":{},\"metrics\":{}}}}}",
        json_str(w.name()),
        args.seed,
        args.trace as u8,
        args.seconds,
        json_str(&cpu_model()),
        w.instances(),
        reference::NOMINAL_S,
        quartiles(&untraced.iter().map(|s| s.ref_s).collect::<Vec<_>>()),
        quartiles(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
        quartiles(&untraced.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
        json_array(all.iter().filter(|m| m.exact).map(|m| m.name)),
        json_array(all.iter().filter(|m| !m.exact).map(|m| m.name)),
        metrics_json(&all.iter().collect::<Vec<_>>()),
    );
    let last = format!(
        "{{\"correct\":true,\"attempted\":{driven},\"failed\":0,\"metrics\":{}}}",
        metrics_json(&result)
    );
    Ok(format!("{detail}\n{last}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <rkv-scale|pod-sharded|tcp-offload|rkv-overload> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            // A closed pipe is the reader's choice; nothing is left to do.
            let _ = writeln!(std::io::stdout().lock(), "{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
