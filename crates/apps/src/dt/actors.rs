//! The DT actors (§4): coordinator and participants run on the NIC; a
//! logging actor is pinned to the host for persistent storage access.

use super::txn::{Coordinator, DtMsg, LogRecord, PartIdx, Participant, Step, TxId, KEY_LEN};
use ipipe::prelude::*;
use ipipe::rt::Cluster;
use ipipe_workload::txn::TxnRequest;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Actor-level messages.
pub enum DtActorMsg {
    /// Client transaction request (arrives at the coordinator).
    Client(TxnRequest),
    /// Coordinator → participant protocol message.
    ToParticipant(DtMsg),
    /// Participant → coordinator protocol reply.
    FromParticipant {
        /// Replying participant.
        from: PartIdx,
        /// Protocol reply.
        msg: DtMsg,
    },
    /// Coordinator-log checkpoint bound for the logging actor.
    Checkpoint(Vec<LogRecord>),
}

/// Post-registration wiring.
#[derive(Default)]
pub struct DtWiring {
    /// Coordinator address.
    pub coordinator: Option<Address>,
    /// Participant addresses by index.
    pub participants: Vec<Address>,
    /// Host-pinned logging actor.
    pub logger: Option<Address>,
}

/// Shared wiring handle.
pub type Wiring = Rc<RefCell<DtWiring>>;

/// The coordinator actor.
pub struct CoordinatorActor {
    coord: Coordinator,
    wiring: Wiring,
    clients: HashMap<TxId, Address>,
    /// Checkpoint threshold for the coordinator log.
    pub log_limit: u64,
    /// Response cache (paper: "we also cache responses from outstanding
    /// transactions") keyed by txid.
    resp_cache: HashMap<TxId, bool>,
}

impl CoordinatorActor {
    /// Coordinator over `parts` participants.
    pub fn new(parts: u32, wiring: Wiring, log_limit: u64) -> CoordinatorActor {
        CoordinatorActor {
            coord: Coordinator::new(parts),
            wiring,
            clients: HashMap::new(),
            log_limit,
            resp_cache: HashMap::new(),
        }
    }

    fn msg_size(msg: &DtMsg) -> u32 {
        32 + match msg {
            DtMsg::ReadAndLock { reads, writes, .. } => {
                ((reads.len() + writes.len()) * KEY_LEN) as u32
            }
            DtMsg::ReadLockReply { reads, .. } => reads
                .iter()
                .map(|(_, v, _)| KEY_LEN as u32 + v.len() as u32 + 8)
                .sum(),
            DtMsg::Validate { reads, .. } => (reads.len() * (KEY_LEN + 8)) as u32,
            DtMsg::Commit { writes, .. } => writes
                .iter()
                .map(|(_, v)| KEY_LEN as u32 + v.len() as u32)
                .sum(),
            DtMsg::Abort { writes, .. } => (writes.len() * KEY_LEN) as u32,
            _ => 0,
        }
    }

    fn ship(&self, ctx: &mut ActorCtx<'_>, token: u64, outs: Vec<(PartIdx, DtMsg)>) {
        let wiring = self.wiring.borrow();
        for (p, m) in outs {
            let size = Self::msg_size(&m);
            ctx.send(
                wiring.participants[p as usize],
                token,
                size,
                token,
                Some(Box::new(DtActorMsg::ToParticipant(m))),
            );
        }
    }

    fn finish(&mut self, ctx: &mut ActorCtx<'_>, txid: TxId, committed: bool, resp_len: u32) {
        self.resp_cache.insert(txid, committed);
        if self.resp_cache.len() > 4096 {
            self.resp_cache.clear(); // crude eviction; a cache, not a log
        }
        if let Some(client) = self.clients.remove(&txid) {
            ctx.reply_to(client, 64 + resp_len, txid, None);
        }
        // Checkpoint the coordinator log when it hits the storage limit.
        if self.coord.log.bytes() >= self.log_limit {
            let records = self.coord.log.checkpoint();
            let bytes: u64 = records.iter().map(LogRecord::bytes).sum();
            ctx.charge_work(600);
            if let Some(logger) = self.wiring.borrow().logger {
                ctx.send(
                    logger,
                    txid,
                    (bytes as u32).min(60_000),
                    txid,
                    Some(Box::new(DtActorMsg::Checkpoint(records))),
                );
            }
        }
    }
}

impl ActorLogic for CoordinatorActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // Coordinator log + response cache are DMO-resident (§4).
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let msg = req.payload_as::<DtActorMsg>();
        match *msg {
            DtActorMsg::Client(txn) => {
                ctx.charge_work(900);
                let client = req.reply_to.expect("client txn carries reply address");
                self.clients.insert(token, client);
                let outs = self.coord.begin(token, txn.reads, txn.writes);
                self.ship(ctx, token, outs);
            }
            DtActorMsg::FromParticipant { from, msg } => {
                ctx.charge_work(650);
                match self.coord.on_reply(from, msg) {
                    Step::Send(outs) => self.ship(ctx, token, outs),
                    Step::Committed(reads) => {
                        let len: u32 = reads.iter().map(|(_, v)| v.len() as u32).sum();
                        self.finish(ctx, token, true, len);
                    }
                    Step::Aborted => self.finish(ctx, token, false, 0),
                    Step::Wait => {}
                }
            }
            _ => {}
        }
    }

    fn host_speedup(&self) -> f64 {
        3.2 // control-flow heavy, small state
    }

    fn state_hint_bytes(&self) -> u64 {
        512 * 1024 // coordinator log window + response cache
    }
}

/// A participant actor: OCC datastore + protocol handling.
pub struct ParticipantActor {
    part: Participant,
    index: PartIdx,
    wiring: Wiring,
}

impl ParticipantActor {
    /// Participant `index`.
    pub fn new(index: PartIdx, wiring: Wiring) -> ParticipantActor {
        ParticipantActor {
            part: Participant::new(),
            index,
            wiring,
        }
    }
}

impl ActorLogic for ParticipantActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // The extendible hashtable datastore is DMO-resident (§4).
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let msg = req.payload_as::<DtActorMsg>();
        if let DtActorMsg::ToParticipant(m) = *msg {
            // Hashtable probes: a few cache lines per key touched.
            let keys = match &m {
                DtMsg::ReadAndLock { reads, writes, .. } => reads.len() + writes.len(),
                DtMsg::Validate { reads, .. } => reads.len(),
                DtMsg::Commit { writes, .. } => writes.len(),
                DtMsg::Abort { writes, .. } => writes.len(),
                _ => 0,
            };
            ctx.charge_work(400 + 350 * keys as u64);
            let reply = self.part.handle(m);
            let size = CoordinatorActor::msg_size(&reply);
            let coord = self.wiring.borrow().coordinator.expect("wired");
            ctx.send(
                coord,
                token,
                size,
                token,
                Some(Box::new(DtActorMsg::FromParticipant {
                    from: self.index,
                    msg: reply,
                })),
            );
        }
    }

    fn host_speedup(&self) -> f64 {
        1.8 // hashtable probing: moderately memory-bound
    }

    fn state_hint_bytes(&self) -> u64 {
        16 << 20
    }
}

/// The host-pinned logging actor: absorbs coordinator-log checkpoints.
#[derive(Default)]
pub struct LoggingActor {
    /// Checkpointed records (stands in for persistent storage).
    pub persisted: u64,
    /// Checkpoint batches received.
    pub checkpoints: u64,
}

impl ActorLogic for LoggingActor {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let msg = req.payload_as::<DtActorMsg>();
        if let DtActorMsg::Checkpoint(records) = *msg {
            let bytes: u64 = records.iter().map(LogRecord::bytes).sum();
            // Sequential storage write at ~1 GB/s.
            ctx.charge(SimTime::from_ns(3_000 + bytes));
            self.persisted += records.len() as u64;
            self.checkpoints += 1;
        }
    }

    fn host_pinned(&self) -> bool {
        true
    }

    fn host_speedup(&self) -> f64 {
        2.0
    }
}

/// Handles to a deployed DT system.
pub struct DtDeployment {
    /// Client-facing coordinator.
    pub coordinator: Address,
    /// Participants.
    pub participants: Vec<Address>,
    /// Shared wiring.
    pub wiring: Wiring,
}

/// Deploy DT: coordinator on `coord_node`, one participant per entry of
/// `part_nodes`, logger colocated with the coordinator's host.
pub fn deploy_dt(
    c: &mut Cluster,
    coord_node: usize,
    part_nodes: &[usize],
    log_limit: u64,
) -> DtDeployment {
    let wiring: Wiring = Rc::new(RefCell::new(DtWiring::default()));
    let coordinator = c.register_actor(
        coord_node,
        "dt-coordinator",
        Box::new(CoordinatorActor::new(
            part_nodes.len() as u32,
            wiring.clone(),
            log_limit,
        )),
        Placement::Nic,
    );
    let participants: Vec<Address> = part_nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            c.register_actor(
                node,
                &format!("dt-participant-{i}"),
                Box::new(ParticipantActor::new(i as PartIdx, wiring.clone())),
                Placement::Nic,
            )
        })
        .collect();
    let logger = c.register_actor(
        coord_node,
        "dt-logger",
        Box::new(LoggingActor::default()),
        Placement::Host,
    );
    {
        let mut w = wiring.borrow_mut();
        w.coordinator = Some(coordinator);
        w.participants = participants.clone();
        w.logger = Some(logger);
    }
    DtDeployment {
        coordinator,
        participants,
        wiring,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe::rt::ClientReq;
    use ipipe_nicsim::CN2350;
    use ipipe_workload::txn::TxnWorkload;

    /// A coordinator and two participants under 16 outstanding
    /// transactions, run for 15 ms.
    fn txn_cluster(seed: u64) -> Cluster {
        let mut c = Cluster::builder(CN2350)
            .servers(3)
            .clients(1)
            .seed(seed)
            .build();
        let dep = deploy_dt(&mut c, 0, &[1, 2], 1 << 20);
        let coord = dep.coordinator;
        let mut wl = TxnWorkload::paper_default(512, 4);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let txn = wl.next_txn();
                ClientReq {
                    dst: coord,
                    wire_size: 42 + txn.wire_size().min(1400),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(DtActorMsg::Client(txn))),
                }
            }),
            16,
        );
        c.run_for(SimTime::from_ms(15));
        c
    }

    #[test]
    fn transactions_commit_end_to_end() {
        let c = txn_cluster(0xD7);
        let done = c.completions().count();
        assert!(done > 500, "done={done}");
        // Round trips: 3 protocol phases over the network keep latency well
        // above a single hop.
        assert!(c.completions().mean() > SimTime::from_us(10));
    }

    /// The coordinator's fan-outs go out in participant order, not in a
    /// per-process hash order, so two runs in one process export the same
    /// bytes.
    #[test]
    fn same_seed_runs_export_identically() {
        let run = || txn_cluster(0xD7).export_canonical_jsonl();
        assert!(
            run() == run(),
            "two same-seed runs exported different bytes"
        );
    }

    #[test]
    fn log_checkpoints_flow_to_host_logger() {
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(0xD8)
            .build();
        // Tiny log limit: checkpoints fire constantly.
        let dep = deploy_dt(&mut c, 0, &[1], 4 * 1024);
        let coord = dep.coordinator;
        let mut wl = TxnWorkload::paper_default(512, 5);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let txn = wl.next_txn();
                ClientReq {
                    dst: coord,
                    wire_size: 42 + txn.wire_size().min(1400),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(DtActorMsg::Client(txn))),
                }
            }),
            8,
        );
        c.run_for(SimTime::from_ms(10));
        assert!(c.completions().count() > 200);
        // The host must have been involved (logger executions charge CPU).
        assert!(c.host_cores_used(0) > 0.0);
    }
}
