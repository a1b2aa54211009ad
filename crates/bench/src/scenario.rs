//! One abstraction for every whole-cluster scenario: the `bench` binary,
//! the shard differential ([`diff_sharded`]) and the bench-JSON figures all
//! drive a [`Scenario`] and nothing else.
//!
//! A scenario is a spec value. It knows its smoke (CI) and full (figure)
//! sizes, how to [`build`](Scenario::build) its cluster, how to
//! [`drive`](Scenario::drive) it to completion, and how to render its
//! result as a one-line summary and as bench-JSON fields. Adding a
//! scenario is one impl plus one [`visit`] arm.
//!
//! The bench-JSON figure ([`bench_json`]) is exact: every field is a
//! function of the seed, so the committed `BENCH_<scenario>.json` records
//! are byte-diffed, not compared within a tolerance. Host time is measured
//! only by `perfbench`, as the median of repeated runs.
//!
//! [`diff_sharded`]: crate::differential::diff_sharded

use ipipe::rt::Cluster;
use ipipe_sim::obs::Obs;

use crate::fault::FaultSpec;
use crate::overload::OverloadSpec;
use crate::rkv::RkvSpec;
use crate::scale::ScaleSpec;
use crate::sharded::GridSpec;
use crate::tcp::TcpOffloadSpec;

/// A whole-cluster scenario, parameterized by its spec value.
pub trait Scenario: Sized {
    /// Headline numbers of one run.
    type Stats;
    /// Name on the `bench --scenario` command line.
    const NAME: &'static str;
    /// Seed `bench` uses without `--seed`: the one its committed
    /// `BENCH_*.json` was made with.
    const SEED: u64;
    /// Shard counts `bench --json` re-runs and byte-diffs against serial.
    const JSON_SHARDS: &'static [usize];

    /// The committed-figure size.
    fn full(seed: u64, shards: usize) -> Self;
    /// The CI size; single-size scenarios run their full size.
    fn smoke(seed: u64, shards: usize) -> Self {
        Self::full(seed, shards)
    }
    /// The same spec with each epoch's shard slices on OS threads. Only
    /// scenarios whose actors share no `Rc` state across shards allow it.
    fn threaded(self) -> Self {
        panic!(
            "{} shares Rc state across shards: sequential only",
            Self::NAME
        )
    }
    /// The spec whose export `bench --json` diffs across shard counts; most
    /// figures use the spec itself.
    fn bench_reference(self) -> Self {
        self
    }

    /// Build the cluster. Scenarios that trace hand `obs` to the builder
    /// (shard 0 records into it); the high-volume ones stay metrics-only so
    /// the per-shard trace ring never overflows.
    fn build(&self, obs: &Obs) -> Cluster;
    /// Drive the built cluster to the end of the run and return the headline
    /// numbers. Every run but `rkv` and the committed pod ends in the
    /// conservation audit, which panics on any violation; those two keep
    /// the audit's own counters out of their pinned exports.
    fn drive(&self, c: &mut Cluster) -> Self::Stats;

    /// The one-line summary `bench` prints above its tables, if any. It is
    /// deterministic, so the differential prefixes it to each export.
    fn summary(&self, stats: &Self::Stats) -> Option<String>;
    /// Scenario-specific bench-JSON fields (`"key":value` pairs, no braces).
    fn bench_fields(&self, stats: &Self::Stats) -> String;
}

/// Build and drive `spec` metrics-only; hand back the cluster so callers can
/// pull canonical merged exports.
pub fn run<S: Scenario>(spec: &S) -> (S::Stats, Cluster) {
    run_traced(spec, &Obs::disabled())
}

/// [`run`] with `obs` handed to the scenario's builder.
pub fn run_traced<S: Scenario>(spec: &S, obs: &Obs) -> (S::Stats, Cluster) {
    let mut c = spec.build(obs);
    let stats = spec.drive(&mut c);
    (stats, c)
}

/// The scenario's committed figure as one line of JSON: the serial
/// reference's fields and event count, then one re-run per
/// [`Scenario::JSON_SHARDS`] count whose canonical export must byte-match
/// the serial one (a mismatch panics). Every field is a function of the
/// seed, so the committed `BENCH_<scenario>.json` is byte-diffed against it.
pub fn bench_json<S: Scenario>(seed: u64, smoke: bool) -> String {
    let spec = |shards| {
        let s = if smoke {
            S::smoke(seed, shards)
        } else {
            S::full(seed, shards)
        };
        s.bench_reference()
    };
    let reference = spec(1);
    let (stats, c) = run(&reference);
    let export = c.export_canonical_jsonl();
    let events = c.epoch_stats().events;
    drop(c);
    let sharded: Vec<String> = S::JSON_SHARDS
        .iter()
        .map(|&shards| {
            let (_, c) = run(&spec(shards));
            assert!(
                c.export_canonical_jsonl() == export,
                "{shards}-shard canonical export diverged from serial"
            );
            let epochs = c.epoch_stats();
            format!(
                concat!(
                    "{{\"shards\":{},\"critical_path_speedup\":{:.2},",
                    "\"epochs\":{},\"byte_identical\":true}}"
                ),
                shards,
                epochs.speedup(),
                epochs.epochs,
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"{}\",\"smoke\":{},{},\"events\":{},\"sharded\":[{}]}}",
        S::NAME,
        smoke,
        reference.bench_fields(&stats),
        events,
        sharded.join(","),
    )
}

/// Something generic over the scenario type, applied by name via [`visit`].
pub trait Visit {
    /// Run for scenario `S`.
    fn visit<S: Scenario>(self);
}

/// Every scenario name [`visit`] accepts.
pub const NAMES: [&str; 6] = [
    RkvSpec::NAME,
    FaultSpec::NAME,
    ScaleSpec::NAME,
    OverloadSpec::NAME,
    TcpOffloadSpec::NAME,
    GridSpec::NAME,
];

/// Apply `v` to the scenario called `name`; false if there is none.
pub fn visit(name: &str, v: impl Visit) -> bool {
    match name {
        RkvSpec::NAME => v.visit::<RkvSpec>(),
        FaultSpec::NAME => v.visit::<FaultSpec>(),
        ScaleSpec::NAME => v.visit::<ScaleSpec>(),
        OverloadSpec::NAME => v.visit::<OverloadSpec>(),
        TcpOffloadSpec::NAME => v.visit::<TcpOffloadSpec>(),
        GridSpec::NAME => v.visit::<GridSpec>(),
        _ => return false,
    }
    true
}
