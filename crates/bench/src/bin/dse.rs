//! The committed design-space exploration figure: the full DSE grid (96
//! synthesized designs x 3 workloads) swept in parallel, reduced to Pareto
//! frontiers and an offload recommendation table.
//!
//! Prints a single line of JSON to stdout. Run with
//! `cargo run --release -p ipipe-bench --bin dse`. Every field is a
//! function of the seed, so the output byte-matches the committed
//! `BENCH_dse.json` (CI diffs them); host time is measured only by
//! `perfbench`.
//!
//! Flags:
//! * `--smoke`      CI-sized 16-design grid (same JSON shape);
//! * `--seed N`     master seed (default 17);
//! * `--serial`     force `workers = 1` (the serial reference);
//! * `--export P`   also write the wall-clock-free canonical export to `P`
//!   — CI byte-diffs a `--serial` export against a parallel one;
//! * `--table`      print the human-readable Pareto + recommendation
//!   tables instead of the JSON line.

use ipipe_bench::dse::{run_dse, DseResult, DseSpec};

fn main() {
    let mut smoke = false;
    let mut serial = false;
    let mut table = false;
    let mut seed: u64 = 17;
    let mut export_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--serial" => serial = true,
            "--table" => table = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer")
            }
            "--export" => export_path = Some(args.next().expect("--export needs a path")),
            other => panic!("unknown argument {other:?} (want --smoke | --seed N | --serial | --export PATH | --table)"),
        }
    }

    let mut spec = if smoke {
        DseSpec::smoke(seed)
    } else {
        DseSpec::full(seed)
    };
    if serial {
        spec.workers = 1;
    }

    let r: DseResult = run_dse(&spec);

    if let Some(path) = &export_path {
        std::fs::write(path, &r.export).expect("write export");
    }
    if table {
        print!("{}", r.render_tables());
        return;
    }

    let frontier = r
        .frontiers
        .iter()
        .map(|(w, f)| format!("\"{}\":{}", w.name(), f.len()))
        .collect::<Vec<_>>()
        .join(",");
    let recommend = r
        .recommendations
        .iter()
        .map(|rec| {
            let c = &r.cells[rec.cell];
            format!(
                "{{\"workload\":\"{}\",\"design\":\"{}\",\"thr_rps\":{:.0},\"saved_cores\":{:.2},\"p99_us\":{:.1},\"bottleneck\":\"{}\"}}",
                c.workload.name(),
                c.id,
                c.throughput_rps,
                c.host_cores_saved,
                c.p99_us,
                rec.bottleneck,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"bench\":\"dse\",\"smoke\":{},\"seed\":{},\"designs\":{},\"frontier\":{{{}}},\"recommend\":[{}],\"cells\":{}}}",
        smoke,
        seed,
        r.designs.len(),
        frontier,
        recommend,
        r.cells.len(),
    );
}
