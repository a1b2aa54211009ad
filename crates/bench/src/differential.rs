//! Differential oracle (DESIGN.md §11): re-run a scenario under mechanisms
//! that must not change a single observable result, and byte-diff the
//! exported metric snapshots.
//!
//! Four pure-mechanism axes exist in the DES, each introduced as a
//! performance optimisation with an explicit "semantically invisible"
//! contract:
//!
//! * the timing-wheel event queue vs the reference binary heap
//!   ([`QueueKind`]),
//! * batched event dispatch vs one-at-a-time dispatch,
//! * the parallel sweep runner vs a serial sweep
//!   ([`ipipe_sim::sweep::parallel_sweep`] with `workers = 1`),
//! * event sharding, sequential or threaded, vs the serial engine — one
//!   generic [`diff_sharded`] over every [`Scenario`].
//!
//! The unit/property suites already pin these at the data-structure level;
//! the oracle closes the remaining gap by diffing *whole scenarios* — every
//! counter, gauge and histogram the run exports — so a divergence anywhere
//! in the stack (scheduler, rings, faults, Paxos) surfaces as a one-line
//! mismatch instead of a subtly wrong figure.

use crate::fault::FaultSpec;
use crate::scenario::{run, Scenario};
use ipipe_baseline::fig16::run_fig16_obs;
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::Obs;
use ipipe_sim::sweep::{default_workers, parallel_sweep};
use ipipe_sim::QueueKind;
use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};

/// One scenario run per mechanism variant: a label and the full metric
/// snapshot it exported, in the registry's canonical JSONL form.
pub struct DiffOutcome {
    /// `(variant label, snapshot)` pairs; index 0 is the reference.
    pub variants: Vec<(String, String)>,
}

impl DiffOutcome {
    /// True when every variant exported a byte-identical snapshot.
    pub fn identical(&self) -> bool {
        self.divergent().is_empty()
    }

    /// Labels of the variants whose snapshot differs from the reference.
    pub fn divergent(&self) -> Vec<&str> {
        let Some((_, reference)) = self.variants.first() else {
            return Vec::new();
        };
        self.variants
            .iter()
            .skip(1)
            .filter(|(_, snap)| snap != reference)
            .map(|(label, _)| label.as_str())
            .collect()
    }

    /// One-line human summary (CI log line).
    pub fn render(&self) -> String {
        if self.identical() {
            format!(
                "differential: {} variants byte-identical ({} bytes each)",
                self.variants.len(),
                self.variants.first().map(|(_, s)| s.len()).unwrap_or(0)
            )
        } else {
            format!(
                "differential: DIVERGED — {:?} disagree with {}",
                self.divergent(),
                self.variants[0].0
            )
        }
    }

    /// Panic with the summary and the first divergence unless every
    /// variant is byte-identical.
    pub fn assert_identical(&self) {
        assert!(
            self.identical(),
            "{}\nfirst divergence: {}",
            self.render(),
            self.first_divergence().unwrap_or_default()
        );
    }

    /// First differing line between the reference and the first divergent
    /// variant — enough to name the metric that broke, without dumping
    /// whole snapshots into a CI log.
    pub fn first_divergence(&self) -> Option<String> {
        let (_, reference) = self.variants.first()?;
        let (label, snap) = self.variants.iter().skip(1).find(|(_, s)| s != reference)?;
        for (a, b) in reference.lines().zip(snap.lines()) {
            if a != b {
                return Some(format!("{label}: `{a}` vs `{b}`"));
            }
        }
        Some(format!(
            "{label}: line counts differ ({} vs {})",
            reference.lines().count(),
            snap.lines().count()
        ))
    }
}

/// Re-run the rkv-fault scenario (crash + restart + 1% loss + retries)
/// under every {event queue} × {dispatch} combination and diff the metric
/// snapshots. Only the mechanism knobs vary.
pub fn diff_rkv_fault(seed: u64) -> DiffOutcome {
    let variants = [
        ("wheel+batched", QueueKind::Wheel, false),
        ("heap+batched", QueueKind::Heap, false),
        ("wheel+unbatched", QueueKind::Wheel, true),
        ("heap+unbatched", QueueKind::Heap, true),
    ];
    DiffOutcome {
        variants: variants
            .iter()
            .map(|&(label, queue, unbatched)| {
                let (_, c) = run(&FaultSpec {
                    queue,
                    unbatched,
                    ..FaultSpec::new(seed, 1)
                });
                (label.to_string(), c.snapshot().to_jsonl())
            })
            .collect(),
    }
}

/// Run a small Fig 16 grid through [`parallel_sweep`] serially and with the
/// machine's worker count, and diff the per-cell snapshots. Each cell builds
/// its own [`Obs`] inside the worker, so the only thing that changes between
/// the variants is which OS thread executes which cell, in which order.
pub fn diff_fig16_parallel(requests: u64, seed: u64) -> DiffOutcome {
    use ipipe::sched::{Discipline, SchedConfig};
    let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
    let cells: Vec<(Discipline, f64)> = [
        Discipline::FcfsOnly,
        Discipline::DrrOnly,
        Discipline::Hybrid,
    ]
    .into_iter()
    .flat_map(|d| [(d, 0.5), (d, 0.9)])
    .collect();
    let run_grid = |workers: usize| -> String {
        parallel_sweep(&cells, workers, |i, &(d, load)| {
            let obs = Obs::default();
            let cfg = SchedConfig::for_nic(&CN2350)
                .with_discipline(d)
                .no_migration();
            let p = run_fig16_obs(&CN2350, dist, cfg, load, 8, requests, seed ^ i as u64, &obs);
            format!(
                "cell {i} mean={} p99={} n={}\n{}",
                p.mean,
                p.p99,
                p.completed,
                obs.registry().snapshot().to_jsonl()
            )
        })
        .join("\n---\n")
    };
    DiffOutcome {
        variants: vec![
            ("serial".to_string(), run_grid(1)),
            (
                format!("parallel×{}", default_workers()),
                run_grid(default_workers()),
            ),
        ],
    }
}

/// The sharding axis of the differential oracle: re-run the smoke-size
/// scenario under every `(shards, threaded)` variant and diff the summary
/// line plus canonical export. The first variant is the reference;
/// sharding is a pure execution mechanism and must not move a single byte.
pub fn diff_sharded<S: Scenario>(seed: u64, variants: &[(usize, bool)]) -> DiffOutcome {
    DiffOutcome {
        variants: variants
            .iter()
            .map(|&(shards, threaded)| {
                let mut spec = S::smoke(seed, shards);
                if threaded {
                    spec = spec.threaded();
                }
                let (stats, c) = run(&spec);
                let label = format!("{shards}-shard{}", if threaded { "-parallel" } else { "" });
                let export = c.export_canonical_jsonl();
                let summary = spec.summary(&stats).unwrap_or_default();
                (label, format!("{summary}\n{export}"))
            })
            .collect(),
    }
}

/// The design-space exploration grid as a differential subject: run a tiny
/// DSE grid (4 designs x 3 workloads) serially, under the machine's worker
/// count, and with the cluster-scenario cells sharded 4 ways, and byte-diff
/// the full canonical exports — cell lines, Pareto/recommendation tables
/// and the merged per-cell-prefixed metric snapshot. Cell identity is pure
/// in the spec (`DesignPoint::id`) and per-cell seeds derive from it, so
/// neither sweep scheduling nor shard count may move a byte (DESIGN.md §15).
pub fn diff_dse_grid(seed: u64) -> DiffOutcome {
    use crate::dse::{run_dse, DseSpec};
    let run = |label: &str, workers: usize, shards: usize| {
        let mut spec = DseSpec::tiny(seed);
        spec.workers = workers;
        spec.shards = shards;
        (label.to_string(), run_dse(&spec).export)
    };
    DiffOutcome {
        variants: vec![
            run("serial-1shard", 1, 1),
            run(
                &format!("parallel×{}", default_workers().max(2)),
                default_workers().max(2),
                1,
            ),
            run("parallel-4shard", default_workers().max(2), 4),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::OverloadSpec;
    use crate::scale::ScaleSpec;
    use crate::sharded::GridSpec;
    use crate::tcp::TcpOffloadSpec;

    /// The acceptance gate: the full fault scenario — crash, failover,
    /// retries, redirects — exports byte-identical metrics whichever event
    /// queue backs the DES and however dispatch is chunked.
    #[test]
    fn rkv_fault_is_mechanism_invariant() {
        let out = diff_rkv_fault(7);
        assert_eq!(out.variants.len(), 4);
        out.assert_identical();
        // The snapshots carry real content, not trivially empty strings.
        assert!(out.variants[0].1.lines().count() > 20);
    }

    /// Scenario-level pin of the sweep runner's determinism claim:
    /// `workers = 1` and `workers = N` produce identical per-cell metric
    /// exports for a Fig 16 grid.
    #[test]
    fn fig16_grid_is_schedule_invariant() {
        let out = diff_fig16_parallel(6_000, 3);
        out.assert_identical();
    }

    /// The sharded engine's acceptance gate on the hardest scenario we have:
    /// crash, failover, per-link faults and thousands of retransmissions
    /// export byte-identical canonical results under 1/2/4/8 shards and
    /// threaded epochs.
    #[test]
    fn rkv_fault_is_shard_invariant() {
        let out = diff_sharded::<FaultSpec>(
            7,
            &[(1, false), (2, false), (4, false), (8, false), (4, true)],
        );
        assert_eq!(out.variants.len(), 5);
        out.assert_identical();
        assert!(out.variants[0].1.lines().count() > 20);
    }

    /// Sharding invariance at multi-group scale: 16 Paxos groups, 10^5
    /// aggregated users, rebalancer-driven shard moves mid-run — the
    /// canonical export may not move a byte under 1/2/4/8 shards.
    #[test]
    fn rkv_scale_is_shard_invariant() {
        let out = diff_sharded::<ScaleSpec>(21, &[(1, false), (2, false), (4, false), (8, false)]);
        assert_eq!(out.variants.len(), 4);
        out.assert_identical();
        assert!(out.variants[0].1.lines().count() > 20);
    }

    /// Sharding invariance under overload: a 10x spike, compaction storms
    /// and thousands of admission sheds — the canonical export may not
    /// move a byte under 1/2/4/8 shards.
    #[test]
    fn rkv_overload_is_shard_invariant() {
        let out =
            diff_sharded::<OverloadSpec>(31, &[(1, false), (2, false), (4, false), (8, false)]);
        assert_eq!(out.variants.len(), 4);
        out.assert_identical();
        assert!(out.variants[0].1.lines().count() > 20);
        // The diff is only meaningful if the scenario actually shed work.
        let summary = out.variants[0].1.lines().next().unwrap_or_default();
        assert!(
            summary.starts_with("rkv-overload:") && !summary.contains(", 0 shed"),
            "overload run shed nothing: {summary}"
        );
    }

    /// Sharding invariance for the TCP-offload scenario: lossy stateful
    /// transport with retransmission timers may not move a byte of the
    /// canonical export under 1/2/4 shards.
    #[test]
    fn tcp_offload_is_shard_invariant() {
        let out = diff_sharded::<TcpOffloadSpec>(43, &[(1, false), (2, false), (4, false)]);
        assert_eq!(out.variants.len(), 3);
        out.assert_identical();
        // The diff is only meaningful if loss actually bit: the summary
        // line must show nonzero retransmissions.
        let summary = out.variants[0].1.lines().next().unwrap_or_default();
        assert!(
            summary.starts_with("tcp-offload:") && !summary.contains(", 0 segments retransmitted"),
            "tcp run retransmitted nothing: {summary}"
        );
    }

    /// Sharding invariance at fan-out: the 20-node racked grid with bimodal
    /// service times and a mid-run audit sweep.
    #[test]
    fn fig16_grid_is_shard_invariant() {
        let out = diff_sharded::<GridSpec>(
            3,
            &[(1, false), (2, false), (4, false), (8, false), (8, true)],
        );
        out.assert_identical();
    }

    /// The DSE acceptance gate: the tiny exploration grid — cluster cells,
    /// scheduler cells, Pareto reduction and the merged prefixed snapshot —
    /// exports byte-identical results whether the sweep runs serially, on
    /// all workers, or with the cluster cells sharded 4 ways.
    #[test]
    fn dse_grid_is_schedule_and_shard_invariant() {
        let out = diff_dse_grid(9);
        assert_eq!(out.variants.len(), 3);
        out.assert_identical();
        // Real content: cell lines plus a non-trivial metric snapshot.
        assert!(out.variants[0].1.lines().count() > 20);
        assert!(out.variants[0].1.contains("== dse grid =="));
    }

    #[test]
    fn divergence_reporting_names_the_broken_metric() {
        let out = DiffOutcome {
            variants: vec![
                ("ref".into(), "a 1\nb 2\n".into()),
                ("same".into(), "a 1\nb 2\n".into()),
                ("bad".into(), "a 1\nb 3\n".into()),
            ],
        };
        assert!(!out.identical());
        assert_eq!(out.divergent(), vec!["bad"]);
        let line = out.first_divergence().unwrap();
        assert!(line.contains("bad") && line.contains("b 2") && line.contains("b 3"));
        assert!(out.render().contains("DIVERGED"));
    }
}
