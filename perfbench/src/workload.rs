//! The four scenario workloads, each driven by the benchmark's own loop so
//! every call into the program can be timed.
//!
//! Each loop repeats, call for call, the library's drive function for the
//! same spec (`drive_rkv_scale`, `drive_rkv_overload`, `drive_tcp_offload`,
//! `build_grid` + `run_for`): it only adds timers around the calls and reads
//! counters at `run_for` boundaries. `tests/faithful.rs` pins that the two
//! produce byte-identical canonical exports.

use crate::probe::Probe;
use ipipe::prelude::*;
use ipipe::rt::{ClientReq, OpenLoopCfg, RetryPolicy, RuntimeMode};
use ipipe::tcp::{audit_tcp_into, deploy_tcp_pair, TcpEndpoints};
use ipipe_apps::rkv::actors::RkvMsg;
use ipipe_apps::rkv::multi::{
    audit_multi_rkv_exactly_once, deploy_multi_rkv, MultiRkv, MultiRkvCfg, RebalanceCfg, Rebalancer,
};
use ipipe_apps::rkv::storm::{CompactionStorm, StormCfg};
use ipipe_bench::overload::{run_rkv_overload, OverloadSpec};
use ipipe_bench::scale::{run_rkv_scale, ScaleSpec};
use ipipe_bench::sharded::{build_grid, GridSpec};
use ipipe_bench::tcp::{run_tcp_offload, TcpOffloadSpec};
use ipipe_netsim::FaultPlan;
use ipipe_nicsim::CN2350;
use ipipe_sim::audit::{AuditReport, CLUSTER_WIDE};
use ipipe_sim::obs::Snapshot;
use ipipe_sim::rng::ServiceDist;
use ipipe_sim::{DetRng, EpochStats, Histogram};
use ipipe_workload::agg::{aggregate_rate, AggKvStream};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Simulated time one pod-sharded run covers.
pub const POD_RUN: SimTime = SimTime::from_ms(10);
/// `run_for` slices the pod-sharded run is cut into.
pub const POD_SLICES: u64 = 5;
/// Event shards of the pod-sharded run. The shards run one after another
/// on the calling thread: on a small shared host the threaded epochs'
/// wall time varies far more from run to run than any bound allows.
pub const POD_SHARDS: usize = 2;
/// Barrier granularity of the tcp-offload drive loop. The library's
/// figure uses 500 µs; at that grain a transfer's completion time reads
/// the same for most seeds, so the benchmark resolves it to 10 µs.
pub const TCP_STEP: SimTime = SimTime::from_us(10);

/// The tcp-offload spec: `TcpOffloadSpec::full` with a finer barrier.
pub fn tcp_spec(seed: u64) -> TcpOffloadSpec {
    TcpOffloadSpec {
        step: TCP_STEP,
        ..TcpOffloadSpec::full(seed, 1)
    }
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 Multi-Paxos groups, 2^20 open-loop Zipf-1.1 users, live
    /// rebalancing; serial.
    RkvScale,
    /// 64-node pod, Fig 16 bimodal service times, closed loop; 2 shards.
    PodSharded,
    /// 8 bulk TCP connections, endpoints on the NIC, 2% seeded loss; serial.
    TcpOffload,
    /// 10x spike plus compaction storm under SLO-aware admission; serial.
    RkvOverload,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::RkvScale,
        Workload::PodSharded,
        Workload::TcpOffload,
        Workload::RkvOverload,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RkvScale => "rkv-scale",
            Workload::PodSharded => "pod-sharded",
            Workload::TcpOffload => "tcp-offload",
            Workload::RkvOverload => "rkv-overload",
        }
    }

    /// Scenario instances (derived seeds) one run pools. More instances
    /// steady the pooled `sim.*` results across seeds; the counts give each
    /// workload a pass of a few host seconds.
    pub fn instances(self) -> u64 {
        match self {
            Workload::RkvScale => 16,
            Workload::PodSharded => 32,
            Workload::TcpOffload => 48,
            Workload::RkvOverload => 24,
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Drive one scenario instance for `seed` through the benchmark's loop,
    /// timing set-up (build and deploy) and the run (drive, audit, export)
    /// separately. Fails if the audit or a workload check does not pass.
    pub fn run(self, seed: u64, probe: &mut Probe) -> Result<Outcome, String> {
        match self {
            Workload::RkvScale => rkv_scale(seed, probe),
            Workload::PodSharded => pod_sharded(seed, probe),
            Workload::TcpOffload => tcp_offload(seed, probe),
            Workload::RkvOverload => rkv_overload(seed, probe),
        }
    }

    /// The canonical export the library's own drive gives for `seed`.
    pub fn library_export(self, seed: u64) -> String {
        match self {
            Workload::RkvScale => run_rkv_scale(&ScaleSpec::planetary(seed, 1))
                .1
                .export_canonical_jsonl(),
            Workload::PodSharded => pod_library_export(&GridSpec::pod64(seed, POD_SHARDS, false)),
            Workload::TcpOffload => run_tcp_offload(&tcp_spec(seed)).1.export_canonical_jsonl(),
            Workload::RkvOverload => run_rkv_overload(&OverloadSpec::full(seed, 1))
                .1
                .export_canonical_jsonl(),
        }
    }

    /// For the sharded workload, the same scenario run on one shard: its
    /// export must match the sharded one byte for byte.
    pub fn serial_export(self, seed: u64) -> Option<String> {
        (self == Workload::PodSharded).then(|| pod_library_export(&GridSpec::pod64(seed, 1, false)))
    }
}

/// What the modelled system did in one scenario instance. Every field is
/// deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Requests completed (tcp-offload: transfers completed).
    pub completed: u64,
    /// Simulated seconds the goodput is taken over: the open-loop arrival
    /// window, the closed-loop run, or the time the last transfer closed.
    pub window_s: f64,
    /// Sends attempted: first sends plus retransmissions.
    pub attempts: u64,
    /// Attempts that did not complete: shed, abandoned, timed out and
    /// resent, or still outstanding at the end.
    pub failed_attempts: u64,
    /// Per-request latency (tcp-offload: per-transfer completion time).
    pub latency: Histogram,
    /// Host cores kept busy, summed over server nodes.
    pub host_cores: f64,
    /// tcp-offload only: stream bits delivered in order.
    pub delivered_bits: u64,
    /// tcp-offload only: completion time of each transfer.
    pub transfer_fct: Vec<SimTime>,
}

/// One scenario instance: host timings, the export, and what the model did.
pub struct Outcome {
    /// Host time of `ClusterBuilder::build` plus the `deploy_*` calls.
    pub setup: Duration,
    /// Host time of the drive loop, audits and export.
    pub wall: Duration,
    /// Canonical JSONL export.
    pub export: String,
    /// Simulated events across all shards.
    pub events: u64,
    /// Epoch statistics of the sharded engine.
    pub epochs: EpochStats,
    /// Events each shard processed.
    pub shard_events: Vec<u64>,
    /// Merged metrics snapshot at the end of the run.
    pub snapshot: Snapshot,
    /// End-to-end simulated results.
    pub sim: SimRun,
}

fn run_slice(c: &mut Cluster, probe: &mut Probe, dur: SimTime) {
    probe.span("rt.run_for", || c.run_for(dur));
    probe.boundary(c);
}

fn check_clean(report: &AuditReport) -> Result<(), String> {
    if report.is_clean() {
        Ok(())
    } else {
        Err(report.render())
    }
}

/// Read everything the benchmark reports from a finished cluster; runs
/// after the timed region.
fn finish(
    c: &mut Cluster,
    servers: usize,
    export: String,
    mut sim: SimRun,
    setup: Duration,
    wall: Duration,
) -> Outcome {
    sim.host_cores = (0..servers).map(|n| c.host_cores_used(n)).sum();
    let shard_events = c.shard_events();
    Outcome {
        setup,
        wall,
        export,
        events: shard_events.iter().sum(),
        epochs: c.epoch_stats(),
        shard_events,
        snapshot: c.snapshot(),
        sim,
    }
}

/// Request-level results of an rkv or pod run, read from the clients.
fn request_sim(c: &Cluster, window: SimTime) -> SimRun {
    let s = c.completions();
    let attempts = s.issued() + c.counter_total("client.retry.sent");
    SimRun {
        completed: s.completed(),
        window_s: window.as_secs_f64(),
        attempts,
        failed_attempts: attempts - s.completed(),
        latency: s.histogram(),
        host_cores: 0.0,
        delivered_bits: 0,
        transfer_fct: Vec::new(),
    }
}

type Ledgers = Vec<Rc<RefCell<Vec<u64>>>>;

fn deploy_groups(c: &mut Cluster, spec: &ScaleSpec) -> MultiRkv {
    deploy_multi_rkv(
        c,
        &MultiRkvCfg {
            groups: spec.groups,
            replicas: spec.replicas,
            server_nodes: spec.servers,
            buckets: spec.buckets,
            memtable_flush: 8 << 20,
            heartbeat: None,
            seed: spec.seed,
        },
    )
}

/// Install the aggregated open-loop clients exactly as the library's rkv
/// drives do; `classes` alternates best-effort and premium clients.
fn install_rkv_clients(
    c: &mut Cluster,
    spec: &ScaleSpec,
    dep: &MultiRkv,
    classes: bool,
) -> Ledgers {
    let stream = AggKvStream::new(
        spec.seed ^ 0xA66,
        spec.users_per_client,
        spec.keys,
        spec.skew,
        spec.read_ratio,
        spec.value_len,
    );
    let mut ledgers: Ledgers = Vec::new();
    for cl in 0..spec.clients {
        let table = Rc::new(RefCell::new(dep.table.clone()));
        let ledger = Rc::new(RefCell::new(vec![0u64; spec.groups]));
        ledgers.push(ledger.clone());
        let gen_table = table.clone();
        c.set_client_open_loop(
            cl,
            Box::new(move |rng, token| {
                let op = stream.op_for(token);
                let t = gen_table.borrow();
                let g = t.group_of(op.key());
                if !op.is_read() {
                    ledger.borrow_mut()[g as usize] += 1;
                }
                ClientReq {
                    dst: t.leader_of(g),
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            OpenLoopCfg {
                rate_rps: aggregate_rate(spec.users_per_client, spec.per_user_rps),
                until: spec.run,
            },
        );
        c.set_client_retry(
            cl,
            RetryPolicy {
                timeout: SimTime::from_us(500),
                cap: SimTime::from_ms(2),
                max_tries: 64,
            },
            Some(Box::new(move |token| {
                Some(Box::new(RkvMsg::Client(stream.op_for(token))))
            })),
        );
        c.set_client_route_refresh(
            cl,
            Box::new(move |old, new| {
                table.borrow_mut().refresh(old, new);
            }),
        );
        if classes {
            c.set_client_class(cl, (cl % 2) as u8);
        }
    }
    ledgers
}

/// The cluster audit merged with the per-group exactly-once audit.
fn audit_rkv(
    c: &mut Cluster,
    dep: &MultiRkv,
    ledgers: &Ledgers,
    groups: usize,
    drained_check: &'static str,
    drained: bool,
    full_coverage: bool,
) -> AuditReport {
    let mut report = c.audit();
    report.check(drained_check, CLUSTER_WIDE, drained, || {
        "the in-flight tail did not drain".to_string()
    });
    let mut writes = vec![0u64; groups];
    for l in ledgers {
        for (g, n) in l.borrow().iter().enumerate() {
            writes[g] += n;
        }
    }
    let mut rkv_report = AuditReport::new(c.now());
    audit_multi_rkv_exactly_once(
        c.obs().registry(),
        dep,
        &writes,
        full_coverage && drained,
        &mut rkv_report,
    );
    report.merge(rkv_report);
    report
}

fn rkv_scale(seed: u64, probe: &mut Probe) -> Result<Outcome, String> {
    let spec = ScaleSpec::planetary(seed, 1);
    let t = Instant::now();
    let setup = probe.begin("setup");
    let mut c = probe.span("rt.build", || {
        Cluster::builder(CN2350)
            .servers(spec.servers)
            .clients(spec.clients)
            .mode(RuntimeMode::IPipe)
            .seed(spec.seed)
            .shards(spec.shards)
            .build()
    });
    let (dep, ledgers) = probe.span("apps.deploy", || {
        let dep = deploy_groups(&mut c, &spec);
        let ledgers = install_rkv_clients(&mut c, &spec, &dep, false);
        (dep, ledgers)
    });
    probe.end(setup);
    let setup_time = t.elapsed();

    let t = Instant::now();
    let drive = probe.begin("drive");
    let mut reb = Rebalancer::new(spec.groups, RebalanceCfg::default());
    let mut elapsed = SimTime::ZERO;
    while elapsed < spec.run {
        let step = spec.rebalance_every.min(spec.run.saturating_sub(elapsed));
        run_slice(&mut c, probe, step);
        elapsed += step;
        probe.span("rkv.rebalance", || reb.step(&mut c, &dep));
    }
    run_slice(&mut c, probe, spec.drain);
    for _ in 0..16 {
        let s = c.completions();
        if s.issued() == s.completed() {
            break;
        }
        run_slice(&mut c, probe, spec.drain);
    }
    probe.end(drive);
    let report = probe.span("audit", || {
        let s = c.completions();
        let drained = s.issued() == s.completed();
        audit_rkv(
            &mut c,
            &dep,
            &ledgers,
            spec.groups,
            "scale.drained",
            drained,
            true,
        )
    });
    let export = probe.span("obs.export", || c.export_canonical_jsonl());
    let wall = t.elapsed();

    check_clean(&report)?;
    let sim = request_sim(&c, spec.run);
    Ok(finish(&mut c, spec.servers, export, sim, setup_time, wall))
}

fn rkv_overload(seed: u64, probe: &mut Probe) -> Result<Outcome, String> {
    let spec = OverloadSpec::full(seed, 1);
    let base = &spec.base;
    let t = Instant::now();
    let setup = probe.begin("setup");
    let mut c = probe.span("rt.build", || {
        Cluster::builder(CN2350)
            .servers(base.servers)
            .clients(base.clients)
            .mode(RuntimeMode::IPipe)
            .seed(base.seed)
            .shards(base.shards)
            .build()
    });
    let (dep, ledgers) = probe.span("apps.deploy", || {
        let dep = deploy_groups(&mut c, base);
        c.set_admission(spec.admission());
        for node in 0..base.servers {
            c.register_actor(
                node,
                "storm",
                Box::new(CompactionStorm::new(StormCfg::erupting(
                    spec.spike_at,
                    spec.spike_until,
                ))),
                Placement::Nic,
            );
        }
        let ledgers = install_rkv_clients(&mut c, base, &dep, true);
        (dep, ledgers)
    });
    probe.end(setup);
    let setup_time = t.elapsed();

    let t = Instant::now();
    let drive = probe.begin("drive");
    let base_rate = aggregate_rate(base.users_per_client, base.per_user_rps);
    run_slice(&mut c, probe, spec.spike_at);
    for cl in 0..base.clients {
        c.set_client_open_loop_rate(cl, base_rate * spec.spike_factor);
    }
    run_slice(
        &mut c,
        probe,
        spec.spike_until.saturating_sub(spec.spike_at),
    );
    for cl in 0..base.clients {
        c.set_client_open_loop_rate(cl, base_rate);
    }
    run_slice(&mut c, probe, base.run.saturating_sub(spec.spike_until));
    run_slice(&mut c, probe, base.drain);
    let balanced = |c: &Cluster| {
        let s = c.completions();
        s.issued() == s.completed() + s.shed() + c.counter_total("client.retry.abandoned")
    };
    for _ in 0..16 {
        if balanced(&c) {
            break;
        }
        run_slice(&mut c, probe, base.drain);
    }
    probe.end(drive);
    let report = probe.span("audit", || {
        let drained = balanced(&c);
        audit_rkv(
            &mut c,
            &dep,
            &ledgers,
            base.groups,
            "overload.drained",
            drained,
            false,
        )
    });
    let export = probe.span("obs.export", || c.export_canonical_jsonl());
    let wall = t.elapsed();

    check_clean(&report)?;
    let sim = request_sim(&c, base.run);
    Ok(finish(&mut c, base.servers, export, sim, setup_time, wall))
}

fn tcp_offload(seed: u64, probe: &mut Probe) -> Result<Outcome, String> {
    let spec = tcp_spec(seed);
    let t = Instant::now();
    let setup = probe.begin("setup");
    let mut c = probe.span("rt.build", || {
        Cluster::builder(CN2350)
            .servers(spec.servers())
            .clients(1)
            .mode(RuntimeMode::IPipe)
            .seed(spec.seed)
            .shards(spec.shards)
            .build()
    });
    let eps: Vec<TcpEndpoints> = probe.span("apps.deploy", || {
        if spec.loss > 0.0 {
            c.set_fault_plan(FaultPlan::new(spec.seed ^ 0x7C9_F00D).with_loss(spec.loss));
        }
        (0..spec.conns)
            .map(|i| {
                deploy_tcp_pair(
                    &mut c,
                    spec.conn_cfg(i),
                    i,
                    spec.conns + i,
                    i as u64,
                    spec.placement,
                )
            })
            .collect()
    });
    probe.end(setup);
    let setup_time = t.elapsed();

    let t = Instant::now();
    let drive = probe.begin("drive");
    let mut closed_at: Vec<Option<SimTime>> = vec![None; eps.len()];
    let mut elapsed = SimTime::ZERO;
    while elapsed < spec.budget && closed_at.iter().any(Option::is_none) {
        run_slice(&mut c, probe, spec.step);
        elapsed += spec.step;
        for (at, ep) in closed_at.iter_mut().zip(&eps) {
            if at.is_none() && ep.tx.closed.get() == 1 {
                *at = Some(c.now());
            }
        }
    }
    let fct = c.now();
    let drain = eps
        .first()
        .map(|ep| ep.cfg.rto_max)
        .unwrap_or(SimTime::from_ms(2));
    run_slice(&mut c, probe, drain + drain);
    probe.end(drive);
    let report = probe.span("audit", || {
        let mut report = c.audit();
        for ep in &eps {
            audit_tcp_into(&mut report, ep);
        }
        report
    });
    let export = probe.span("obs.export", || c.export_canonical_jsonl());
    let wall = t.elapsed();

    check_clean(&report)?;
    let delivered: u64 = eps.iter().map(|ep| ep.rx.delivered_bytes.get()).sum();
    let want = spec.conns as u64 * spec.bytes_per_conn;
    if delivered != want {
        return Err(format!("delivered {delivered} stream bytes, want {want}"));
    }
    let transfer_fct: Vec<SimTime> = closed_at
        .iter()
        .map(|at| at.ok_or("a connection never closed"))
        .collect::<Result<_, _>>()?;
    let mut latency = Histogram::new();
    for &t in &transfer_fct {
        latency.record(t);
    }
    let sent: u64 = eps.iter().map(|ep| ep.tx.tx_segs.get()).sum();
    let resent: u64 = eps.iter().map(|ep| ep.tx.retx_segs.get()).sum();
    let sim = SimRun {
        completed: transfer_fct.len() as u64,
        window_s: fct.as_secs_f64(),
        attempts: sent + resent,
        failed_attempts: resent,
        latency,
        host_cores: 0.0,
        delivered_bits: delivered * 8,
        transfer_fct,
    };
    Ok(finish(
        &mut c,
        spec.servers(),
        export,
        sim,
        setup_time,
        wall,
    ))
}

/// Server actor of the pod grid: charges a service time drawn from its own
/// deterministic stream, then replies. The same logic as the library's grid
/// worker, so the benchmark can time the build and the deploy apart.
struct DistWorker {
    dist: ServiceDist,
    rng: DetRng,
}

impl ActorLogic for DistWorker {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
        ctx.charge(self.dist.sample(&mut self.rng));
        ctx.reply(req, 64, None);
    }
}

fn pod_sharded(seed: u64, probe: &mut Probe) -> Result<Outcome, String> {
    let spec = GridSpec::pod64(seed, POD_SHARDS, false);
    let t = Instant::now();
    let setup = probe.begin("setup");
    let mut c = probe.span("rt.build", || {
        let mut b = Cluster::builder(CN2350)
            .servers(spec.servers)
            .clients(spec.clients)
            .seed(spec.seed)
            .shards(spec.shards)
            .parallel(spec.parallel);
        if let Some((per_rack, extra)) = spec.racks {
            b = b.racks(per_rack, extra);
        }
        b.build()
    });
    probe.span("apps.deploy", || {
        let actors: Vec<Address> = (0..spec.servers)
            .map(|n| {
                c.register_actor(
                    n,
                    "grid",
                    Box::new(DistWorker {
                        dist: spec.dist,
                        rng: DetRng::new(spec.seed ^ 0xD15F_0000 ^ n as u64),
                    }),
                    Placement::Nic,
                )
            })
            .collect();
        for cl in 0..spec.clients {
            let targets = actors.clone();
            c.set_client(
                cl,
                Box::new(move |rng, _| ClientReq {
                    dst: targets[rng.index(targets.len())],
                    wire_size: 256,
                    flow: rng.below(1 << 20),
                    payload: None,
                }),
                spec.outstanding,
            );
        }
    });
    probe.end(setup);
    let setup_time = t.elapsed();

    let t = Instant::now();
    let drive = probe.begin("drive");
    let slice = SimTime::from_ns(POD_RUN.as_ns() / POD_SLICES);
    for _ in 0..POD_SLICES {
        run_slice(&mut c, probe, slice);
    }
    probe.end(drive);
    let report = probe.span("audit", || c.audit());
    let export = probe.span("obs.export", || c.export_canonical_jsonl());
    let wall = t.elapsed();

    check_clean(&report)?;
    let sim = request_sim(&c, c.now());
    Ok(finish(&mut c, spec.servers, export, sim, setup_time, wall))
}

/// The library path for the pod grid: `build_grid`, one `run_for` over the
/// whole run, the cluster audit, and the export.
fn pod_library_export(spec: &GridSpec) -> String {
    let mut c = build_grid(spec);
    c.run_for(POD_RUN);
    c.audit().assert_clean();
    c.export_canonical_jsonl()
}
