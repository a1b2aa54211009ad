//! The fault-recovery scenario behind `bench --scenario rkv-fault`, the
//! `fault_recovery` acceptance test and the CI determinism diff: a 3-replica
//! RKV group under a seeded 1% packet loss plus one forced leader crash.
//!
//! The run must demonstrate the whole recovery stack end to end:
//!
//! * client timeout/retransmission rides out the lossy links,
//! * the heartbeat failure detector elects a replacement leader with **no**
//!   operator `StartElection` signal,
//! * the deposed leader steps down when it rejoins and its writes are shed
//!   toward the new leader via `Redirect`,
//! * apply-time token dedup keeps every client write exactly-once,
//! * and — because every random draw flows through seeded [`DetRng`]
//!   streams — two same-seed runs export byte-identical metrics and traces.
//!
//! [`DetRng`]: ipipe_sim::DetRng

use ipipe::rt::{ClientReq, Cluster, RetryPolicy, RuntimeMode};
use ipipe_apps::rkv::actors::{deploy_rkv_with, HeartbeatCfg, RkvMsg};
use ipipe_apps::rkv::lsm::KEY_LEN;
use ipipe_netsim::FaultPlan;
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::Obs;
use ipipe_sim::QueueKind;
use ipipe_sim::SimTime;
use ipipe_workload::kv::KvOp;

use crate::scenario::Scenario;

/// Requests the closed-loop client keeps in flight.
pub const OUTSTANDING: u32 = 32;

/// When the initial leader's node goes dark.
pub const CRASH_AT_MS: u64 = 4;

/// When it comes back (as a stale leader that must step down).
pub const RESTART_AT_MS: u64 = 10;

/// Total simulated duration.
pub const RUN_MS: u64 = 30;

/// One fault-recovery run: the seed plus the pure-mechanism knobs. None of
/// the knobs may change a single observable — the differential oracle
/// re-runs the scenario across them and byte-diffs the exports.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Master seed: fault draws, election timers and client flows.
    pub seed: u64,
    /// Event shards (clamped to the 4-node topology).
    pub shards: usize,
    /// Execute each epoch's shard slices on OS threads.
    pub parallel: bool,
    /// Event-queue implementation backing the DES.
    pub queue: QueueKind,
    /// Dispatch events one at a time instead of per-timestamp batches.
    pub unbatched: bool,
}

impl FaultSpec {
    /// The default mechanisms: timing wheel, batched, sequential shards.
    pub fn new(seed: u64, shards: usize) -> FaultSpec {
        FaultSpec {
            seed,
            shards,
            parallel: false,
            queue: QueueKind::default(),
            unbatched: false,
        }
    }
}

/// Headline numbers from one fault-recovery run.
#[derive(Debug, Clone, Copy)]
pub struct FaultRunStats {
    /// Unique client writes completed before the leader crash.
    pub before_crash: u64,
    /// Unique client writes completed by the end of the run.
    pub done: u64,
    /// Writes issued (each with a distinct token/key).
    pub issued: u64,
}

impl Scenario for FaultSpec {
    type Stats = FaultRunStats;
    const NAME: &'static str = "rkv-fault";
    const SEED: u64 = 2;
    const JSON_SHARDS: &'static [usize] = &[2, 4, 8];

    fn full(seed: u64, shards: usize) -> FaultSpec {
        FaultSpec::new(seed, shards)
    }

    fn threaded(self) -> FaultSpec {
        FaultSpec {
            parallel: true,
            ..self
        }
    }

    fn build(&self, obs: &Obs) -> Cluster {
        Cluster::builder(CN2350)
            .servers(3)
            .clients(1)
            .mode(RuntimeMode::IPipe)
            .seed(self.seed)
            .obs(obs.clone())
            .shards(self.shards)
            .parallel(self.parallel)
            .queue_kind(self.queue)
            .unbatched_dispatch(self.unbatched)
            .build()
    }

    fn drive(&self, c: &mut Cluster) -> FaultRunStats {
        drive_rkv_fault(c, self.seed)
    }

    fn summary(&self, s: &FaultRunStats) -> Option<String> {
        Some(format!(
            "rkv-fault: {} writes committed ({} before the leader crash, {} issued)",
            s.done, s.before_crash, s.issued
        ))
    }

    fn bench_fields(&self, s: &FaultRunStats) -> String {
        format!(
            "\"before_crash\":{},\"done\":{},\"issued\":{}",
            s.before_crash, s.done, s.issued
        )
    }
}

/// Deterministic write for a token: the client generator and the retry
/// machinery's `payload_fn` must rebuild identical commands.
fn put_for(token: u64) -> KvOp {
    let mut key = [0u8; KEY_LEN];
    key[..8].copy_from_slice(&token.to_le_bytes());
    KvOp::Put {
        key,
        value: vec![0xAB; 32],
    }
}

/// Everything after cluster construction: deploy the 3-replica RKV group,
/// wire the retrying client, inject the fault plan, run through crash and
/// recovery, and audit at quiesce.
fn drive_rkv_fault(c: &mut Cluster, seed: u64) -> FaultRunStats {
    let dep = deploy_rkv_with(c, &[0, 1, 2], 8 << 20, Some(HeartbeatCfg::lan_default()));
    // The client only ever targets the boot-time leader; after the crash it
    // must be steered to the replacement by Redirect replies alone.
    let leader = dep.consensus[0];
    c.set_client(
        0,
        Box::new(move |rng, token| {
            let op = put_for(token);
            ClientReq {
                dst: leader,
                wire_size: 42 + op.wire_size(),
                flow: rng.below(1 << 20),
                payload: Some(Box::new(RkvMsg::Client(op))),
            }
        }),
        OUTSTANDING,
    );
    // Generous retry budget: with ~17 transmissions reachable inside the
    // run, max_tries 64 means a write is never abandoned — "all client
    // writes commit" is checkable as issued - done <= OUTSTANDING.
    c.set_client_retry(
        0,
        RetryPolicy {
            timeout: SimTime::from_us(200),
            cap: SimTime::from_ms(2),
            max_tries: 64,
        },
        Some(Box::new(|token| {
            Some(Box::new(RkvMsg::Client(put_for(token))))
        })),
    );
    // Seeded faults: 1% loss on every link, and the leader's node dark for
    // [CRASH_AT_MS, RESTART_AT_MS).
    c.set_fault_plan(FaultPlan::new(seed ^ 0xFA17).with_loss(0.01).with_crash(
        0,
        SimTime::from_ms(CRASH_AT_MS),
        SimTime::from_ms(RESTART_AT_MS),
    ));
    c.run_for(SimTime::from_ms(CRASH_AT_MS));
    let before_crash = c.completions().count();
    c.run_for(SimTime::from_ms(RUN_MS - CRASH_AT_MS));
    // Quiesce-time conservation sweep: a crash, a restart and thousands of
    // retransmissions must still leave every ledger balanced.
    c.audit().assert_clean();
    FaultRunStats {
        before_crash,
        done: c.completions().count(),
        issued: c.completions().issued(),
    }
}
