//! Whole-cluster scenarios for the sharded (conservative-lookahead) DES:
//! the fig16-style grid behind the sharded differential cases and the
//! `pardesbench` microbenchmark topology.
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
use ipipe_sim::rng::ServiceDist;
use ipipe_sim::DetRng;
use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};

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
        }
    }

    /// The `pardesbench` topology: a 64-node pod (32 servers + 32 clients)
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
        }
    }
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

/// Run the fig16-style grid for the differential oracle: drive it through a
/// mid-run audit (the sweep must stay invisible under sharding too), finish
/// the run, and return the completion count plus the canonical merged
/// export.
pub fn run_fig16_grid(seed: u64, shards: usize, parallel: bool) -> (u64, String) {
    let mut c = build_grid(&GridSpec::fig16(seed, shards, parallel));
    c.run_for(SimTime::from_ms(3));
    c.audit().assert_clean();
    c.run_for(SimTime::from_ms(2));
    (c.completions().count(), c.export_canonical_jsonl())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_and_completes_work() {
        let (done, export) = run_fig16_grid(11, 1, false);
        assert!(done > 500, "done={done}");
        assert!(export.lines().count() > 50);
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
