//! The planetary-scale scenario behind `bench --scenario rkv-scale`, its
//! committed figure (`BENCH_rkv-scale.json`) and the CI smoke matrix: a
//! ≥64-group multi-Paxos keyspace serving the aggregated open-loop traffic
//! of a million-plus modeled users, with hotspot-driven rebalancing.
//!
//! Everything the multi-group layer claims is checked here end to end:
//!
//! * one open-loop generator per source node carries the Poisson
//!   superposition of its whole user population (no per-user actors),
//! * every client routes through its own copy of the versioned
//!   [`RoutingTable`] and keeps a per-group write ledger,
//! * the [`Rebalancer`] reads the per-group ops counters at fixed
//!   observation boundaries and migrates hot groups' leader actors from
//!   NIC to host cores mid-run,
//! * after the arrival window closes the in-flight tail fully drains, and
//!   the cluster-wide conservation audit plus the per-group
//!   [`audit_multi_rkv_exactly_once`] reconciliation must come back clean —
//!   shard moves included,
//! * and the whole run is byte-identical at any `--shards` count: the
//!   scenario runs metrics-only (the per-shard trace ring would retain
//!   more records under sharding), all workload draws are token-pure, and
//!   rebalance decisions read shard-invariant counters at epoch barriers.
//!
//! The aggregated clients, their ledgers and the exactly-once fold live in
//! [`OpenLoopClients`], shared with the overload scenario.
//!
//! [`RoutingTable`]: ipipe_apps::rkv::placement::RoutingTable
//! [`Rebalancer`]: ipipe_apps::rkv::multi::Rebalancer
//! [`audit_multi_rkv_exactly_once`]: ipipe_apps::rkv::multi::audit_multi_rkv_exactly_once

use ipipe::rt::{ClientReq, Cluster, OpenLoopCfg, RetryPolicy, RuntimeMode};
use ipipe_apps::rkv::actors::RkvMsg;
use ipipe_apps::rkv::multi::{
    audit_multi_rkv_exactly_once, deploy_multi_rkv, MultiRkv, MultiRkvCfg, RebalanceCfg, Rebalancer,
};
use ipipe_nicsim::CN2350;
use ipipe_sim::audit::CLUSTER_WIDE;
use ipipe_sim::obs::Obs;
use ipipe_sim::SimTime;
use ipipe_workload::agg::{aggregate_rate, AggKvStream};
use std::cell::RefCell;
use std::rc::Rc;

use crate::scenario::{run, Scenario};

/// Full parameterization of one scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSpec {
    /// Paxos groups the keyspace is sharded over.
    pub groups: usize,
    /// Replicas per group.
    pub replicas: usize,
    /// Server nodes.
    pub servers: usize,
    /// Source (client) nodes; each aggregates `users_per_client` users.
    pub clients: usize,
    /// Modeled users behind each source node.
    pub users_per_client: u64,
    /// Poisson rate per user (requests/second).
    pub per_user_rps: f64,
    /// Key population.
    pub keys: u64,
    /// Zipf skew of key popularity (hotspot pressure).
    pub skew: f64,
    /// Read fraction of the mix.
    pub read_ratio: f64,
    /// Write value size in bytes.
    pub value_len: usize,
    /// Routing-table hash buckets.
    pub buckets: usize,
    /// Open-loop arrival window.
    pub run: SimTime,
    /// Extra window for the in-flight tail to drain.
    pub drain: SimTime,
    /// Rebalancer observation period.
    pub rebalance_every: SimTime,
    /// Master seed.
    pub seed: u64,
    /// Event shards (1 = serial reference; must not change one byte).
    pub shards: usize,
}

impl ScaleSpec {
    /// Scale a spec from the two headline knobs. Servers track half the
    /// group count (each node carries a handful of replica sets), clients
    /// split the user population into per-source aggregates.
    pub fn custom(seed: u64, shards: usize, groups: usize, users: u64) -> ScaleSpec {
        let replicas = 3;
        let servers = (groups / 2).max(replicas);
        let clients = if users >= 1 << 20 { 8 } else { 4 };
        ScaleSpec {
            groups,
            replicas,
            servers,
            clients,
            users_per_client: users / clients as u64,
            per_user_rps: 2.5,
            keys: 1_000_000,
            skew: 1.1,
            read_ratio: 0.95,
            value_len: 32,
            buckets: (groups * 64).max(1024),
            run: SimTime::from_ms(8),
            drain: SimTime::from_ms(4),
            rebalance_every: SimTime::from_ms(2),
            seed,
            shards,
        }
    }

    /// The headline deliverable: 64 groups over 32 NIC+host nodes serving
    /// 2^20 (1,048,576) modeled users from 8 source nodes — ~2.6M aggregate
    /// requests/second of Zipf-1.1 traffic.
    pub fn planetary(seed: u64, shards: usize) -> ScaleSpec {
        ScaleSpec::custom(seed, shards, 64, 1 << 20)
    }

    /// The CI smoke size: 16 groups, 10^5 modeled users.
    pub fn smoke(seed: u64, shards: usize) -> ScaleSpec {
        ScaleSpec::custom(seed, shards, 16, 100_000)
    }

    /// Total modeled users.
    pub fn users(&self) -> u64 {
        self.users_per_client * self.clients as u64
    }

    /// Aggregate open-loop rate of one source node (requests/second).
    pub fn client_rate(&self) -> f64 {
        aggregate_rate(self.users_per_client, self.per_user_rps)
    }

    /// The metrics-only cluster the multi-group scenarios run on.
    pub(crate) fn cluster(&self) -> Cluster {
        Cluster::builder(CN2350)
            .servers(self.servers)
            .clients(self.clients)
            .mode(RuntimeMode::IPipe)
            .seed(self.seed)
            .shards(self.shards)
            .build()
    }

    /// Deploy the Paxos groups over the server nodes.
    pub fn deploy(&self, c: &mut Cluster) -> MultiRkv {
        deploy_multi_rkv(
            c,
            &MultiRkvCfg {
                groups: self.groups,
                replicas: self.replicas,
                server_nodes: self.servers,
                buckets: self.buckets,
                memtable_flush: 8 << 20,
                heartbeat: None,
                seed: self.seed,
            },
        )
    }
}

/// The aggregated open-loop clients of a multi-group run: one generator per
/// source node carrying its whole user population, each routing through
/// its own copy of the versioned routing table (refreshed from Redirects),
/// retrying token-purely, and counting its writes per group in a ledger.
pub struct OpenLoopClients {
    ledgers: Vec<Rc<RefCell<Vec<u64>>>>,
}

impl OpenLoopClients {
    /// Install every client node's generator at the base rate until
    /// `spec.run`, with its retry policy and route refresh.
    pub fn install(c: &mut Cluster, spec: &ScaleSpec, dep: &MultiRkv) -> OpenLoopClients {
        let stream = AggKvStream::new(
            spec.seed ^ 0xA66,
            spec.users_per_client,
            spec.keys,
            spec.skew,
            spec.read_ratio,
            spec.value_len,
        );
        let mut ledgers = Vec::new();
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
                    rate_rps: spec.client_rate(),
                    until: spec.run,
                },
            );
            // Token-pure retransmission: the payload rebuilds from the
            // stream, the destination comes from the (possibly refreshed)
            // retry slot.
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
        }
        OpenLoopClients { ledgers }
    }

    /// Drain the in-flight tail — extra `window`s until the client ledger
    /// settles, read at `run_for` barriers so the event stream is identical
    /// at any shard count — then assert the cluster audit, the settled
    /// ledger and per-group exactly-once over the folded write ledgers.
    /// With `full_coverage` every request must complete and every counted
    /// write apply; without it (under admission) a request may also end
    /// shed or abandoned, and applies need only stay `<=` the writes.
    pub fn drain_and_audit(
        &self,
        c: &mut Cluster,
        dep: &MultiRkv,
        window: SimTime,
        full_coverage: bool,
    ) {
        let settled = |c: &Cluster| {
            let s = c.completions();
            let abandoned = c.counter_total("client.retry.abandoned");
            let ended = if full_coverage {
                s.completed()
            } else {
                s.completed() + s.shed() + abandoned
            };
            (
                s.issued() == ended,
                format!(
                    "issued {} != completed {} + shed {} + abandoned {}: the tail must drain",
                    s.issued(),
                    s.completed(),
                    s.shed(),
                    abandoned
                ),
            )
        };
        c.run_for(window);
        for _ in 0..16 {
            if settled(c).0 {
                break;
            }
            c.run_for(window);
        }
        let mut report = c.audit();
        let (drained, detail) = settled(c);
        report.check("clients.drained", CLUSTER_WIDE, drained, || detail);
        let mut writes = vec![0u64; dep.groups.len()];
        for l in &self.ledgers {
            for (g, n) in l.borrow().iter().enumerate() {
                writes[g] += n;
            }
        }
        audit_multi_rkv_exactly_once(
            c.obs().registry(),
            dep,
            &writes,
            full_coverage && drained,
            &mut report,
        );
        report.assert_clean();
    }
}

/// Headline numbers from one scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleStats {
    /// Paxos groups deployed.
    pub groups: usize,
    /// Modeled users.
    pub users: u64,
    /// Requests issued by the open-loop generators.
    pub issued: u64,
    /// Requests completed (equals `issued` after the drain).
    pub done: u64,
    /// Committed throughput over the arrival window (requests/second).
    pub throughput_rps: f64,
    /// Median end-to-end latency (µs).
    pub p50_us: f64,
    /// Tail end-to-end latency (µs).
    pub p99_us: f64,
    /// Hot-shard migrations the rebalancer started.
    pub migrations: u64,
    /// Events processed across all shards (the DES work metric).
    pub events: u64,
}

/// Run the scale scenario described by `spec`; hand back the cluster so
/// callers can pull canonical merged exports.
pub fn run_rkv_scale(spec: &ScaleSpec) -> (ScaleStats, Cluster) {
    run(spec)
}

/// Everything after cluster construction: deploy the groups, install the
/// aggregated open-loop clients, rebalance on a fixed cadence, drain, and
/// audit.
pub fn drive_rkv_scale(c: &mut Cluster, spec: &ScaleSpec) -> ScaleStats {
    let dep = spec.deploy(c);
    let clients = OpenLoopClients::install(c, spec, &dep);
    // Arrival window, with rebalance observations on a fixed cadence. The
    // ops counters are shard-invariant at run_for boundaries, so the move
    // decisions — and therefore the whole event stream — replay identically
    // at any shard count.
    let mut reb = Rebalancer::new(spec.groups, RebalanceCfg::default());
    let mut elapsed = SimTime::ZERO;
    while elapsed < spec.run {
        let step = spec.rebalance_every.min(spec.run.saturating_sub(elapsed));
        c.run_for(step);
        elapsed += step;
        reb.step(c, &dep);
    }
    // Quiesce: a fully drained tail and per-group exactly-once across
    // every shard move.
    clients.drain_and_audit(c, &dep, spec.drain, true);
    let stats = c.completions();
    let wall = c.now().as_secs_f64();
    ScaleStats {
        groups: spec.groups,
        users: spec.users(),
        issued: stats.issued(),
        done: stats.count(),
        throughput_rps: stats.count() as f64 / wall,
        p50_us: stats.p50().as_us_f64(),
        p99_us: stats.p99().as_us_f64(),
        migrations: reb.moves,
        events: c.shard_events().iter().sum(),
    }
}

impl Scenario for ScaleSpec {
    type Stats = ScaleStats;
    const NAME: &'static str = "rkv-scale";
    const SEED: u64 = 64;
    const JSON_SHARDS: &'static [usize] = &[2, 4, 8];

    fn smoke(seed: u64, shards: usize) -> ScaleSpec {
        ScaleSpec::smoke(seed, shards)
    }

    fn full(seed: u64, shards: usize) -> ScaleSpec {
        ScaleSpec::planetary(seed, shards)
    }

    fn build(&self, _: &Obs) -> Cluster {
        self.cluster()
    }

    fn drive(&self, c: &mut Cluster) -> ScaleStats {
        drive_rkv_scale(c, self)
    }

    fn summary(&self, s: &ScaleStats) -> Option<String> {
        Some(format!(
            "rkv-scale: {} groups, {} users: {} requests committed of {} issued, \
             {:.0} req/s, p50 {:.1}us p99 {:.1}us, {} hot-shard migrations",
            s.groups, s.users, s.done, s.issued, s.throughput_rps, s.p50_us, s.p99_us, s.migrations
        ))
    }

    fn bench_fields(&self, s: &ScaleStats) -> String {
        format!(
            concat!(
                "\"groups\":{},\"users\":{},\"issued\":{},\"done\":{},\"migrations\":{},",
                "\"throughput_rps\":{:.0},\"p50_us\":{:.1},\"p99_us\":{:.1}"
            ),
            s.groups, s.users, s.issued, s.done, s.migrations, s.throughput_rps, s.p50_us, s.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_audit_clean_and_fully_drained() {
        let (stats, _c) = run_rkv_scale(&ScaleSpec::smoke(7, 1));
        assert_eq!(stats.groups, 16);
        assert_eq!(stats.users, 100_000);
        assert_eq!(stats.issued, stats.done, "drain must complete");
        assert!(stats.issued > 500, "issued={}", stats.issued);
        assert!(stats.p99_us >= stats.p50_us);
        assert!(stats.events > 10_000);
    }

    #[test]
    fn hotspots_trigger_rebalancing_migrations() {
        // Zipf 1.1 concentrates enough traffic on the hottest groups that
        // the rebalancer must start at least one shard move.
        let (stats, _c) = run_rkv_scale(&ScaleSpec::smoke(7, 1));
        assert!(stats.migrations > 0, "no hot shard moved");
    }
}
