//! The traced replicated-KV scenario behind `bench --scenario rkv` and the
//! CI trace-export determinism diff: the 3-replica cluster of
//! `examples/replicated_kv.rs` under a closed-loop client, with one forced
//! memtable migration so the migration spans show up in the trace.

use ipipe::rt::{ClientReq, Cluster, RuntimeMode};
use ipipe_apps::rkv::actors::{deploy_rkv, RkvMsg};
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::Obs;
use ipipe_sim::SimTime;
use ipipe_workload::kv::KvWorkload;

use crate::scenario::Scenario;

/// Seed and shard count of one rkv run; the scenario has a single size.
#[derive(Debug, Clone, Copy)]
pub struct RkvSpec {
    /// Master seed.
    pub seed: u64,
    /// Event shards (byte-identical across counts).
    pub shards: usize,
}

impl Scenario for RkvSpec {
    /// Client requests completed.
    type Stats = u64;
    const NAME: &'static str = "rkv";
    const SEED: u64 = 2;
    const RATE_KEY: &'static str = "rkv";
    const JSON_SHARDS: &'static [usize] = &[2, 4, 8];

    fn full(seed: u64, shards: usize) -> RkvSpec {
        RkvSpec { seed, shards }
    }

    fn build(&self, obs: &Obs) -> Cluster {
        Cluster::builder(CN2350)
            .servers(3)
            .clients(1)
            .mode(RuntimeMode::IPipe)
            .seed(self.seed)
            .obs(obs.clone())
            .shards(self.shards)
            .build()
    }

    fn drive(&self, c: &mut Cluster) -> u64 {
        let dep = deploy_rkv(c, &[0, 1, 2], 8 << 20);
        let leader = dep.consensus[0];
        let mut wl = KvWorkload::paper_default(512, 1);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let op = wl.next_op();
                ClientReq {
                    dst: leader,
                    wire_size: 512u32.min(43 + op.wire_size()).max(64),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            64,
        );
        c.run_for(SimTime::from_ms(2));
        // Exercise the migration machinery so its spans show up in the trace.
        c.force_migrate(dep.memtable[0]);
        c.run_for(SimTime::from_ms(4));
        c.completions().count()
    }

    fn summary(&self, _: &u64) -> Option<String> {
        None
    }

    fn bench_fields(&self, done: &u64) -> String {
        format!("\"done\":{done}")
    }
}
