//! Metric definitions: what each reported number is and how it is pooled.
//!
//! A run drives the same fixed set of scenario instances (one per derived
//! seed) in repeated passes. Exact metrics pool the instances of one pass;
//! host-time metrics are medians over every timed instance, the end-to-end
//! ones rescaled to the reference host speed ([`crate::reference`]).

use crate::probe::{Probe, Span};
use crate::reference::NOMINAL_S;
use crate::stats::{counter, counter_prefix, median, merge_hists, quantile_ns};
use crate::workload::Outcome;
use ipipe_sim::Histogram;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Deterministic for a given seed: compare bit for bit.
    pub exact: bool,
}

fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: true,
    }
}

fn host(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: false,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host timings of one untraced scenario instance.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    /// Build plus deploy, seconds.
    pub setup_s: f64,
    /// Drive, audits and export, seconds.
    pub wall_s: f64,
    /// Simulated events of the instance.
    pub events: u64,
    /// Reference kernel time around the instance, seconds: the geometric
    /// mean of the timings just before and just after it.
    pub ref_s: f64,
}

impl HostSample {
    /// The timings of `out`, bracketed by reference timings `ref_s`.
    pub fn of(out: &Outcome, ref_s: f64) -> HostSample {
        HostSample {
            setup_s: out.setup.as_secs_f64(),
            wall_s: out.wall.as_secs_f64(),
            events: out.events,
            ref_s,
        }
    }

    /// Factor that turns this instance's host seconds into seconds at the
    /// reference host speed.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / self.ref_s
    }
}

/// Per-layer host timings of one traced scenario instance, summed from its
/// spans.
#[derive(Debug, Clone, Copy)]
pub struct LayerSample {
    build_ns: u64,
    deploy_ns: u64,
    run_for_ns: u64,
    rebalance_ns: u64,
    audit_ns: u64,
    export_ns: u64,
    events: u64,
    epochs: u64,
    wall_s: f64,
}

impl LayerSample {
    /// Sum the spans of one traced instance.
    pub fn of(spans: &[Span], out: &Outcome) -> LayerSample {
        LayerSample {
            build_ns: Probe::total_ns(spans, "rt.build"),
            deploy_ns: Probe::total_ns(spans, "apps.deploy"),
            run_for_ns: Probe::total_ns(spans, "rt.run_for"),
            rebalance_ns: Probe::total_ns(spans, "rkv.rebalance"),
            audit_ns: Probe::total_ns(spans, "audit"),
            export_ns: Probe::total_ns(spans, "obs.export"),
            events: out.events,
            epochs: out.epochs.epochs,
            wall_s: out.wall.as_secs_f64(),
        }
    }
}

/// The host-time end-to-end metrics: medians over untraced instances, each
/// instance rescaled to the reference host speed.
pub fn host_metrics(samples: &[HostSample], peak_rss_mb: f64) -> Vec<Metric> {
    let col = |f: fn(&HostSample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    vec![
        host("wall_s", "s", median(&col(|s| s.wall_s * s.scale()))),
        host(
            "events_per_s",
            "1/s",
            median(&col(|s| s.events as f64 / (s.wall_s * s.scale()))),
        ),
        host("setup_s", "s", median(&col(|s| s.setup_s * s.scale()))),
        host("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// The `sim.*` metrics, pooled over one pass of scenario instances.
pub fn sim_metrics(pass: &[Outcome]) -> Vec<Metric> {
    let sum = |f: fn(&Outcome) -> f64| pass.iter().map(f).sum::<f64>();
    let mut latency = Histogram::new();
    for o in pass {
        latency.merge(&o.sim.latency);
    }
    let transfers: Vec<f64> = pass
        .iter()
        .flat_map(|o| o.sim.transfer_fct.iter().map(|t| t.as_us_f64() / 1000.0))
        .collect();
    let tcp_window_s: f64 = pass
        .iter()
        .filter(|o| o.sim.delivered_bits > 0)
        .map(|o| o.sim.window_s)
        .sum();
    vec![
        exact(
            "sim.goodput_rps",
            "req/s",
            sum(|o| o.sim.completed as f64) / sum(|o| o.sim.window_s),
        ),
        exact("sim.p50_us", "us", quantile_ns(&latency, 0.50) / 1000.0),
        exact("sim.p99_us", "us", quantile_ns(&latency, 0.99) / 1000.0),
        exact("sim.latency_samples", "count", latency.count() as f64),
        exact(
            "sim.host_cores",
            "cores",
            sum(|o| o.sim.host_cores) / pass.len() as f64,
        ),
        exact(
            "sim.failed_frac",
            "fraction",
            sum(|o| o.sim.failed_attempts as f64) / sum(|o| o.sim.attempts as f64),
        ),
        exact(
            "sim.goodput_gbps",
            "Gb/s",
            ratio(sum(|o| o.sim.delivered_bits as f64) / 1e9, tcp_window_s),
        ),
        exact(
            "sim.fct_ms",
            "ms",
            ratio(transfers.iter().sum(), transfers.len() as f64),
        ),
    ]
}

/// Exact per-layer counts, totalled over one pass of scenario instances.
pub fn layer_counts(pass: &[Outcome]) -> Vec<Metric> {
    let c = |name: &str| pass.iter().map(|o| counter(&o.snapshot, name)).sum::<u64>() as f64;
    let prefix = |p: &str| {
        pass.iter()
            .map(|o| counter_prefix(&o.snapshot, p))
            .sum::<u64>() as f64
    };
    let p99_us = |names: &[&str]| {
        let mut h = Histogram::new();
        for o in pass {
            merge_hists(&o.snapshot, names, &mut h);
        }
        quantile_ns(&h, 0.99) / 1000.0
    };
    let events: u64 = pass.iter().map(|o| o.epochs.events).sum();
    let critical: u64 = pass.iter().map(|o| o.epochs.critical_path).sum();
    let mut per_shard: Vec<u64> = Vec::new();
    for o in pass {
        per_shard.resize(per_shard.len().max(o.shard_events.len()), 0);
        for (t, e) in per_shard.iter_mut().zip(&o.shard_events) {
            *t += e;
        }
    }
    let shard_mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    let shard_max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    let (admit_ok, admit_shed) = (c("admit.ok"), c("admit.shed"));
    let (exec_host, exec_nic) = (c("rt.exec.host"), c("rt.exec.nic"));
    let tcp_sent = c("tcp.tx.bytes") + c("tcp.retx.bytes");
    vec![
        exact(
            "rt.epochs",
            "count",
            pass.iter().map(|o| o.epochs.epochs).sum::<u64>() as f64,
        ),
        exact(
            "rt.critical_path_speedup",
            "ratio",
            ratio(events as f64, critical as f64),
        ),
        exact("rt.shard_imbalance", "ratio", ratio(shard_max, shard_mean)),
        exact(
            "sim.event.events",
            "count",
            pass.iter().map(|o| o.events).sum::<u64>() as f64,
        ),
        exact("rkv.applies", "count", prefix("rkv.applies.g")),
        exact("rkv.dup_commits", "count", prefix("rkv.dup.commits.g")),
        exact("migrate.completed", "count", c("migrate.completed")),
        exact("migrate.state_bytes", "bytes", c("migrate.state_bytes")),
        exact("migrate.total.p99_us", "us", p99_us(&["migrate.total"])),
        exact("ring.to_host", "count", c("rt.ring.to_host")),
        exact("ring.to_host_bytes", "bytes", c("rt.ring.to_host_bytes")),
        exact("ring.xfer.p99_us", "us", p99_us(&["rt.ring.xfer"])),
        exact(
            "rt.exec.host_share",
            "fraction",
            ratio(exec_host, exec_host + exec_nic),
        ),
        exact("sched.exec.fcfs", "count", c("sched.exec.fcfs")),
        exact("sched.exec.drr", "count", c("sched.exec.drr")),
        exact("sched.regroup.to_drr", "count", c("sched.regroup.to_drr")),
        exact(
            "sched.sojourn.p99_us",
            "us",
            p99_us(&["sched.sojourn.fcfs", "sched.sojourn.drr"]),
        ),
        exact("admit.ok", "count", admit_ok),
        exact("admit.shed", "count", admit_shed),
        // With no admission layer nothing is refused: the ratio reads 1.
        exact(
            "admission.accept_ratio",
            "fraction",
            if admit_ok + admit_shed == 0.0 {
                1.0
            } else {
                admit_ok / (admit_ok + admit_shed)
            },
        ),
        exact("client.shed.source", "count", c("client.shed.source")),
        exact("client.retry.sent", "count", c("client.retry.sent")),
        exact(
            "client.retry.abandoned",
            "count",
            c("client.retry.abandoned"),
        ),
        exact("net.packets", "count", c("net.packets")),
        exact("net.bytes", "bytes", c("net.bytes")),
        exact("net.tx_wait.p99_us", "us", p99_us(&["net.tx_wait"])),
        exact("fault.drop.loss", "count", c("fault.drop.loss")),
        exact("tcp.retx.segs", "count", c("tcp.retx.segs")),
        exact("tcp.rto.fired", "count", c("tcp.rto.fired")),
        exact("tcp.rx.ooo_segs", "count", c("tcp.rx.ooo_segs")),
        exact(
            "tcp.useful_ratio",
            "fraction",
            ratio(c("tcp.rx.delivered_bytes"), tcp_sent),
        ),
    ]
}

/// Per-layer host times: medians over traced instances, plus the tracing
/// overhead against the untraced instances of the same run.
pub fn layer_times(traced: &[LayerSample], untraced: &[HostSample]) -> Vec<Metric> {
    let med = |f: fn(&LayerSample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    vec![
        host("rt.build_s", "s", med(|s| s.build_ns as f64 / 1e9)),
        host("apps.deploy_s", "s", med(|s| s.deploy_ns as f64 / 1e9)),
        host("rt.run_for_s", "s", med(|s| s.run_for_ns as f64 / 1e9)),
        host(
            "rt.run_for_ns_per_event",
            "ns",
            med(|s| ratio(s.run_for_ns as f64, s.events as f64)),
        ),
        host(
            "rt.epoch_us",
            "us",
            med(|s| ratio(s.run_for_ns as f64 / 1e3, s.epochs as f64)),
        ),
        host("rkv.rebalance_s", "s", med(|s| s.rebalance_ns as f64 / 1e9)),
        host("audit.s", "s", med(|s| s.audit_ns as f64 / 1e9)),
        host("obs.export_s", "s", med(|s| s.export_ns as f64 / 1e9)),
        host("trace.wall_s", "s", med(|s| s.wall_s)),
        host("trace.overhead_s", "s", med(|s| s.wall_s) - untraced_wall),
    ]
}
