//! The `pod` scenario for the sharded (conservative-lookahead) DES: the
//! 64-node pod of `bench --scenario pod` (`BENCH_pod.json`) and, at smoke
//! size, the 20-node fig16-style grid behind the sharded differential case.
//!
//! The grid is deliberately closer to a datacenter pod than the 4-node RKV
//! scenario: tens of server nodes grouped into racks, several closed-loop
//! clients spraying requests across every actor, and per-request service
//! times drawn from the paper's Fig 16 bimodal distribution. Grouping nodes
//! into racks (with a cross-rack propagation extra) and aligning shard
//! boundaries to rack boundaries widens the conservative lookahead window,
//! which is what gives the sharded engine epochs worth parallelising.

use ipipe::prelude::*;
use ipipe::rt::ClientReq;
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::Obs;
use ipipe_sim::rng::ServiceDist;
use ipipe_sim::DetRng;
use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};

use crate::scenario::Scenario;

/// Server actor whose handler cost is drawn per-request from a service-time
/// distribution via an actor-owned deterministic stream. The stream is
/// seeded from `(seed, node)` alone, so draws depend only on how many
/// requests this actor has executed — never on which shard hosts it.
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

/// Topology and engine knobs for one grid run.
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// Server nodes (one `DistWorker` actor each).
    pub servers: usize,
    /// Closed-loop client nodes.
    pub clients: usize,
    /// Requests each client keeps in flight.
    pub outstanding: u32,
    /// Master seed for the cluster and every actor's service stream.
    pub seed: u64,
    /// Event shards (1 = the serial reference).
    pub shards: usize,
    /// Execute each epoch's shard slices on OS threads.
    pub parallel: bool,
    /// `Some((nodes_per_rack, cross_rack_extra))` groups nodes into racks.
    pub racks: Option<(usize, SimTime)>,
    /// Per-request service-time distribution.
    pub dist: ServiceDist,
    /// Simulated window of one run.
    pub run: SimTime,
    /// When inside the window the conservation audit sweeps the cluster;
    /// the sweep must leave no trace in what follows. The committed pod
    /// skips it: the audit's own counters would enter its export.
    pub audit_at: Option<SimTime>,
}

impl GridSpec {
    /// The fig16-style differential topology: 16 servers + 4 clients under
    /// the LiquidIO high-dispersion bimodal service distribution, racked in
    /// fives so shard boundaries at 2/4 shards line up with rack boundaries.
    pub fn fig16(seed: u64, shards: usize, parallel: bool) -> GridSpec {
        GridSpec {
            servers: 16,
            clients: 4,
            outstanding: 8,
            seed,
            shards,
            parallel,
            racks: Some((5, SimTime::from_us(1))),
            dist: fig16_distribution(Fig16Card::LiquidIo, Dispersion::High),
            run: SimTime::from_ms(5),
            audit_at: Some(SimTime::from_ms(3)),
        }
    }

    /// The committed pod: a 64-node pod (32 servers + 32 clients)
    /// in eight 8-node racks with a 10 µs cross-rack extra (a mid-range
    /// inter-rack one-way delay). Splitting nodes evenly between server and
    /// client racks matters for the parallelism claim: node ids are
    /// contiguous (servers first), so with an 8-way shard split four shards
    /// own server racks and four own client racks, and neither side's event
    /// load concentrates in a single shard.
    pub fn pod64(seed: u64, shards: usize, parallel: bool) -> GridSpec {
        GridSpec {
            servers: 32,
            clients: 32,
            outstanding: 32,
            seed,
            shards,
            parallel,
            racks: Some((8, SimTime::from_us(10))),
            dist: fig16_distribution(Fig16Card::LiquidIo, Dispersion::High),
            run: SimTime::from_ms(20),
            audit_at: None,
        }
    }

    /// Racks the nodes group into (1 when unracked).
    fn rack_count(&self) -> usize {
        let nodes = self.servers + self.clients;
        self.racks
            .map_or(1, |(per_rack, _)| nodes.div_ceil(per_rack))
    }
}

/// Headline numbers from one grid run.
#[derive(Debug, Clone, Copy)]
pub struct GridStats {
    /// Requests completed.
    pub done: u64,
    /// Events processed across all shards.
    pub events: u64,
}

/// Build the cluster for `spec`: one distribution-driven actor per server,
/// every client spraying uniformly across all actors.
pub fn build_grid(spec: &GridSpec) -> Cluster {
    let mut b = Cluster::builder(CN2350)
        .servers(spec.servers)
        .clients(spec.clients)
        .seed(spec.seed)
        .shards(spec.shards)
        .parallel(spec.parallel);
    if let Some((per_rack, extra)) = spec.racks {
        b = b.racks(per_rack, extra);
    }
    let mut c = b.build();
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
    c
}

impl Scenario for GridSpec {
    type Stats = GridStats;
    const NAME: &'static str = "pod";
    const SEED: u64 = 64;
    const JSON_SHARDS: &'static [usize] = &[2, 4, 8];

    fn smoke(seed: u64, shards: usize) -> GridSpec {
        GridSpec::fig16(seed, shards, false)
    }

    /// Sharded pods run their epochs on OS threads.
    fn full(seed: u64, shards: usize) -> GridSpec {
        GridSpec::pod64(seed, shards, shards > 1)
    }

    fn threaded(self) -> GridSpec {
        GridSpec {
            parallel: true,
            ..self
        }
    }

    fn build(&self, _: &Obs) -> Cluster {
        build_grid(self)
    }

    fn drive(&self, c: &mut Cluster) -> GridStats {
        match self.audit_at {
            Some(at) => {
                c.run_for(at);
                c.audit().assert_clean();
                c.run_for(self.run - at);
            }
            None => c.run_for(self.run),
        }
        GridStats {
            done: c.completions().count(),
            events: c.shard_events().iter().sum(),
        }
    }

    fn summary(&self, s: &GridStats) -> Option<String> {
        Some(format!(
            "pod: {} servers + {} clients in {} racks: {} requests completed over {:.0}ms, \
             {} events",
            self.servers,
            self.clients,
            self.rack_count(),
            s.done,
            self.run.as_secs_f64() * 1e3,
            s.events
        ))
    }

    fn bench_fields(&self, s: &GridStats) -> String {
        format!(
            "\"nodes\":{},\"racks\":{},\"sim_ms\":{:.0},\"completed\":{}",
            self.servers + self.clients,
            self.rack_count(),
            self.run.as_secs_f64() * 1e3,
            s.done
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_and_completes_work() {
        let (stats, c) = crate::scenario::run(&GridSpec::fig16(11, 1, false));
        assert!(stats.done > 500, "done={}", stats.done);
        assert!(c.export_canonical_jsonl().lines().count() > 50);
    }

    #[test]
    fn pod64_lookahead_spans_the_cross_rack_extra() {
        let c = build_grid(&GridSpec::pod64(1, 8, false));
        let la = c.lookahead().expect("8 shards must have a lookahead");
        assert!(
            la >= SimTime::from_us(1),
            "rack-aligned shards should see at least the cross-rack extra, got {la:?}"
        );
    }
}
