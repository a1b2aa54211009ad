//! The RTA actors (§4): filter → counter → ranker, each worker using "a
//! topology mapping table to determine the next worker to which the result
//! should be forwarded".

use super::pipeline::{Counter, Filter, Ranker};
use ipipe::prelude::*;
use ipipe::rt::Cluster;
use ipipe_workload::rta::{Tuple, INTERESTING_WORDS, TUPLE_WIRE_BYTES};
use std::cell::RefCell;
use std::rc::Rc;

/// Messages between RTA actors.
pub enum RtaMsg {
    /// A batch of raw tuples from the data source (one request packet).
    Batch(Vec<Tuple>),
    /// A (topic, windowed count) emission from counter to ranker.
    Count {
        /// Topic.
        topic: u32,
        /// Windowed count.
        count: u64,
    },
    /// Top-n update from a ranker to the aggregated ranker.
    TopN(Vec<(u32, u64)>),
}

/// The topology mapping table: where each stage forwards its results.
#[derive(Default)]
pub struct Topology {
    /// Counter stage address per worker node.
    pub counter: Vec<Address>,
    /// Ranker stage address per worker node.
    pub ranker: Vec<Address>,
    /// The aggregated ranker (one per deployment).
    pub aggregator: Option<Address>,
}

/// Shared topology handle.
pub type Topo = Rc<RefCell<Topology>>;

/// The filter actor (stateless).
pub struct FilterActor {
    filter: Filter,
    /// Which worker index this filter belongs to.
    worker: usize,
    topo: Topo,
    /// Tuples kept / dropped (diagnostics).
    pub kept: u64,
    /// Dropped tuples.
    pub dropped: u64,
}

impl FilterActor {
    /// Filter for `worker` with the default interesting-word patterns.
    pub fn new(worker: usize, topo: Topo) -> FilterActor {
        FilterActor {
            filter: Filter::new(&INTERESTING_WORDS),
            worker,
            topo,
            kept: 0,
            dropped: 0,
        }
    }
}

impl ActorLogic for FilterActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // Pattern set lives in a DMO so migration moves it (§3.3).
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let client = req.reply_to;
        let msg = req.payload_as::<RtaMsg>();
        if let RtaMsg::Batch(tuples) = *msg {
            // NFA simulation cost: states x bytes, ~1.1ns per state-byte on
            // the wimpy core.
            let scanned: usize = tuples.iter().map(|t| t.text.len()).sum();
            ctx.charge_work((self.filter.total_states() as u64 * scanned as u64) / 48);
            let kept: Vec<Tuple> = tuples
                .into_iter()
                .filter(|t| {
                    let k = self.filter.keep(t);
                    if k {
                        self.kept += 1;
                    } else {
                        self.dropped += 1;
                    }
                    k
                })
                .collect();
            if !kept.is_empty() {
                let counter = self.topo.borrow().counter[self.worker];
                let size = (kept.len() as u32 * TUPLE_WIRE_BYTES).min(1400);
                ctx.send(
                    counter,
                    token,
                    size,
                    token,
                    Some(Box::new(RtaMsg::Batch(kept))),
                );
            }
            // The data source gets a per-packet ack (the closed-loop driver
            // uses it as the completion signal).
            if let Some(c) = client {
                ctx.reply_to(c, 64, token, None);
            }
        }
    }

    fn host_speedup(&self) -> f64 {
        2.8 // regex scan: compute-bound
    }

    fn state_hint_bytes(&self) -> u64 {
        16 * 1024
    }
}

/// The counter actor: sliding-window statistics behind "a software-managed
/// cache".
pub struct CounterActor {
    counter: Counter,
    worker: usize,
    topo: Topo,
}

impl CounterActor {
    /// Counter for `worker`.
    pub fn new(worker: usize, topo: Topo) -> CounterActor {
        CounterActor {
            // 16 slots of 256 tuples, emitting every 8 tuples.
            counter: Counter::new(16, 256, 8),
            worker,
            topo,
        }
    }
}

impl ActorLogic for CounterActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // The sliding-window statistics live in a DMO region.
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let msg = req.payload_as::<RtaMsg>();
        if let RtaMsg::Batch(tuples) = *msg {
            ctx.charge_work(300 + 260 * tuples.len() as u64);
            let ranker = self.topo.borrow().ranker[self.worker];
            for t in &tuples {
                for (topic, count) in self.counter.ingest(t) {
                    ctx.send(
                        ranker,
                        token,
                        48,
                        token,
                        Some(Box::new(RtaMsg::Count { topic, count })),
                    );
                }
            }
        }
    }

    fn host_speedup(&self) -> f64 {
        1.7 // hash-map heavy: memory-bound
    }

    fn state_hint_bytes(&self) -> u64 {
        2 << 20
    }
}

/// The ranker actor: quicksort top-n, forwarding to the aggregated ranker.
/// This is the heavyweight stage that iPipe migrates to the host when
/// network load is high (§4: "quicksort ... could impact the NIC's ability
/// to receive new data tuples").
pub struct RankerActor {
    ranker: Ranker,
    is_aggregator: bool,
    topo: Topo,
    /// Top-n emissions produced.
    pub emissions: u64,
}

impl RankerActor {
    /// Per-worker ranker (forwards to the aggregator).
    pub fn new(topo: Topo) -> RankerActor {
        RankerActor {
            ranker: Ranker::new(10),
            is_aggregator: false,
            topo,
            emissions: 0,
        }
    }

    /// The deployment-wide aggregated ranker.
    pub fn aggregator() -> RankerActor {
        RankerActor {
            ranker: Ranker::new(10),
            is_aggregator: true,
            topo: Rc::new(RefCell::new(Topology::default())),
            emissions: 0,
        }
    }
}

impl ActorLogic for RankerActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // The consolidated top-n object (§4: "we consolidate all top-n data
        // tuples into one object").
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let msg = req.payload_as::<RtaMsg>();
        match *msg {
            RtaMsg::Count { topic, count } => {
                let sorted = self.ranker.update(topic, count);
                // Quicksort cost: n log n comparisons at ~6ns each.
                let n = sorted.max(2) as u64;
                ctx.charge_work(500 + 6 * n * n.ilog2() as u64);
                if !self.is_aggregator {
                    if let Some(agg) = self.topo.borrow().aggregator {
                        self.emissions += 1;
                        let top = self.ranker.top();
                        ctx.send(
                            agg,
                            token,
                            (top.len() as u32) * 12 + 32,
                            token,
                            Some(Box::new(RtaMsg::TopN(top))),
                        );
                    }
                }
            }
            RtaMsg::TopN(entries) => {
                let n = (entries.len().max(2)) as u64;
                ctx.charge_work(400 + 6 * n * n.ilog2() as u64);
                for (topic, count) in entries {
                    self.ranker.update(topic, count);
                }
                self.emissions += 1;
            }
            _ => {}
        }
    }

    fn host_speedup(&self) -> f64 {
        3.0 // quicksort: compute-bound, gains the most from the host
    }

    fn state_hint_bytes(&self) -> u64 {
        256 * 1024
    }
}

/// Handles to a deployed RTA pipeline.
pub struct RtaDeployment {
    /// Filter ingress per worker node (clients send tuple batches here).
    pub filters: Vec<Address>,
    /// The aggregated ranker.
    pub aggregator: Address,
    /// Shared topology.
    pub topo: Topo,
}

/// Deploy the RTA pipeline: one filter/counter/ranker chain per worker node
/// (the paper runs "an RTA worker on each server"), plus one aggregated
/// ranker on the first node.
pub fn deploy_rta(c: &mut Cluster, worker_nodes: &[usize]) -> RtaDeployment {
    let topo: Topo = Rc::new(RefCell::new(Topology::default()));
    let mut filters = Vec::new();
    let mut counters = Vec::new();
    let mut rankers = Vec::new();
    for (w, &node) in worker_nodes.iter().enumerate() {
        filters.push(c.register_actor(
            node,
            &format!("rta-filter-{w}"),
            Box::new(FilterActor::new(w, topo.clone())),
            Placement::Nic,
        ));
        counters.push(c.register_actor(
            node,
            &format!("rta-counter-{w}"),
            Box::new(CounterActor::new(w, topo.clone())),
            Placement::Nic,
        ));
        rankers.push(c.register_actor(
            node,
            &format!("rta-ranker-{w}"),
            Box::new(RankerActor::new(topo.clone())),
            Placement::Nic,
        ));
    }
    let aggregator = c.register_actor(
        worker_nodes[0],
        "rta-aggregator",
        Box::new(RankerActor::aggregator()),
        Placement::Nic,
    );
    {
        let mut t = topo.borrow_mut();
        t.counter = counters;
        t.ranker = rankers;
        t.aggregator = Some(aggregator);
    }
    RtaDeployment {
        filters,
        aggregator,
        topo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe::rt::{ClientReq, RuntimeMode};
    use ipipe_nicsim::CN2350;
    use ipipe_workload::rta::RtaWorkload;

    /// Three filter/counter/ranker chains under 16 outstanding tuple
    /// batches, run for 10 ms.
    fn rta_cluster(mode: RuntimeMode) -> Cluster {
        let mut c = Cluster::builder(CN2350)
            .servers(3)
            .clients(1)
            .mode(mode)
            .seed(0x27A)
            .build();
        let dep = deploy_rta(&mut c, &[0, 1, 2]);
        let mut wl = RtaWorkload::paper_default(6);
        let filters = dep.filters.clone();
        let mut next = 0usize;
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let batch = wl.next_request(512);
                let dst = filters[next % filters.len()];
                next += 1;
                ClientReq {
                    dst,
                    wire_size: 512,
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RtaMsg::Batch(batch))),
                }
            }),
            16,
        );
        c.run_for(SimTime::from_ms(10));
        c
    }

    #[test]
    fn pipeline_processes_tuple_batches() {
        let done = rta_cluster(RuntimeMode::IPipe).completions().count();
        assert!(done > 1_000, "done={done}");
    }

    /// Rankers break count ties by topic, not by per-process hash order, so
    /// two runs in one process export the same bytes. Host-placed rankers
    /// are the ones whose tie order shows in the export.
    #[test]
    fn same_seed_runs_export_identically() {
        let run = || rta_cluster(RuntimeMode::HostDpdk).export_canonical_jsonl();
        assert!(
            run() == run(),
            "two same-seed runs exported different bytes"
        );
    }
}
