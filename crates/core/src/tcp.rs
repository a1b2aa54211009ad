//! Transparent TCP-stack offload over the shim nstack (ROADMAP item 4a,
//! PnO-TCP-style).
//!
//! The shim stack ([`crate::nstack`]) stops at UDP encapsulation; this
//! module grows it into a real, stateful transport built from two actors —
//! a [`TcpSender`] and a [`TcpReceiver`] — that speak the 54-byte
//! Ethernet + IPv4 + TCP codec over the ordinary actor messaging fabric:
//!
//! * **three-way handshake** — SYN / SYN-ACK, with the final ACK piggybacked
//!   on the first data segment (both ends tolerate every handshake frame
//!   being lost: the sender's RTO re-fires the SYN, a duplicate SYN re-fires
//!   the SYN-ACK);
//! * **sequence/ack tracking** — SYN occupies sequence 0, data byte `i`
//!   occupies `1 + i`, FIN occupies `1 + total`; the receiver acknowledges
//!   cumulatively;
//! * **congestion control** — slow start below `ssthresh` (cwnd += MSS per
//!   new ACK), AIMD above it (cwnd += MSS·MSS/cwnd), multiplicative
//!   decrease to one MSS on timeout ([`cwnd_on_ack`] / [`cwnd_on_timeout`]
//!   are pure and unit-tested);
//! * **RTO-driven retransmission** — Tahoe-style go-back-N: a timeout marks
//!   every in-flight segment lost and the window retransmits in sequence
//!   order, with exponential backoff clamped to `[rto_min, rto_max]`. Loss
//!   comes from the existing seeded `FaultPlan` (a corrupted frame is
//!   rejected by the codec's checksums, so corruption degenerates to loss);
//! * **in-order exactly-once delivery** — the receiver reassembles
//!   out-of-order segments in a BTreeMap and advances `rcv_nxt` over
//!   contiguous bytes exactly once, verifying each delivered byte against
//!   the deterministic payload stream.
//!
//! [`stream_byte`] defines the payload stream, one 64-bit multiply per
//! byte. Both ends compute it through [`stream_fill`] instead: one multiply
//! per 64-byte block plus a 64-entry lane table, bit-identical to
//! [`stream_byte`] at every offset and pinned to it by tests. The sender
//! fills each segment with it; the receiver fills a reused buffer, compares
//! it with the payload as one slice, and counts mismatching bytes one by
//! one only when that compare fails.
//!
//! Both endpoints are plain [`ActorLogic`] implementations, so the same
//! connection runs on host cores or NIC cores by flipping
//! [`crate::rt::Placement`] — which is the whole point: the
//! `tcp-offload` bench scenario measures host-cores-freed vs
//! NIC-cores-burned under configurable loss.
//!
//! Timers are epoch-tagged delayed self-sends (the actor timer facility):
//! bumping `epoch` invalidates every armed timer, so a stale RTO fires,
//! fails the epoch check, and dies without re-arming. The conservation
//! invariant audited at quiesce is
//! `bytes_sent == bytes_acked + bytes_in_flight + bytes_dropped_pending_rto`
//! ([`audit_tcp_into`]), maintained exactly by construction:
//! every first-transmission moves bytes into in-flight, every cumulative
//! ACK moves them to acked, every timeout moves in-flight to lost, every
//! retransmission moves lost back to in-flight.

use std::collections::BTreeMap;

use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::{Counter, Gauge, Registry};
use ipipe_sim::SimTime;

use crate::actor::{ActorCtx, ActorLogic, Address, Request};
use crate::nstack::{
    build_tcp_headers, parse_tcp_headers, TcpHeader, TCP_ACK, TCP_FIN, TCP_HEADER_BYTES, TCP_SYN,
};
use crate::rt::{Cluster, Placement};

/// Connection configuration shared by both endpoints.
#[derive(Debug, Clone, Copy)]
pub struct TcpCfg {
    /// Maximum segment size, bytes of payload per segment.
    pub mss: u32,
    /// Initial congestion window, in segments (RFC 6928 uses 10; we default
    /// lower so slow start is visible in short transfers).
    pub init_cwnd_segs: u32,
    /// Hard cap on the congestion window, in segments (stands in for the
    /// receiver's advertised window).
    pub cwnd_cap_segs: u32,
    /// Initial retransmission timeout.
    pub rto_init: SimTime,
    /// Lower clamp on the backoff.
    pub rto_min: SimTime,
    /// Upper clamp on the backoff.
    pub rto_max: SimTime,
    /// Total stream bytes the sender pushes before FIN.
    pub total_bytes: u64,
    /// Seed of the deterministic payload stream ([`stream_byte`]).
    pub stream_seed: u64,
    /// Modeled protocol-processing cost per segment, ns on a nominal core.
    pub work_per_seg_ns: u64,
}

impl TcpCfg {
    /// A LAN-profile connection: 1460-byte MSS, 4-segment initial window,
    /// RTOs sized for microsecond-scale fabric RTTs.
    pub fn lan(total_bytes: u64, stream_seed: u64) -> TcpCfg {
        TcpCfg {
            mss: 1460,
            init_cwnd_segs: 4,
            cwnd_cap_segs: 32,
            rto_init: SimTime::from_us(100),
            rto_min: SimTime::from_us(50),
            rto_max: SimTime::from_ms(2),
            total_bytes,
            stream_seed,
            work_per_seg_ns: 300,
        }
    }

    fn validate(&self) {
        assert!(self.mss > 0, "mss must be nonzero");
        assert!(self.init_cwnd_segs > 0 && self.cwnd_cap_segs >= self.init_cwnd_segs);
        // Sequence numbers are 32-bit and must cover SYN + data + FIN
        // without wrapping.
        assert!(
            self.total_bytes + 2 <= u32::MAX as u64,
            "transfer too large for the unwrapped 32-bit sequence space"
        );
    }
}

/// Multiplier of the payload stream's hash (the 64-bit golden ratio).
const STREAM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// `j * STREAM_MUL` for every lane `j` of a 64-byte block.
const LANE_MUL: [u64; 64] = {
    let mut t = [0u64; 64];
    let mut j = 0;
    while j < 64 {
        t[j] = (j as u64).wrapping_mul(STREAM_MUL);
        j += 1;
    }
    t
};

/// Deterministic payload stream: byte at offset `off` of the connection
/// seeded with `seed`. The receiver regenerates it to verify in-order
/// delivery byte-for-byte without shipping a reference copy out-of-band.
///
/// This is the stream's definition; [`stream_fill`] computes the same bytes
/// a block at a time.
pub fn stream_byte(seed: u64, off: u64) -> u8 {
    let x = (off ^ seed).wrapping_mul(STREAM_MUL);
    ((x >> 56) ^ (x >> 29)) as u8
}

/// Fill `out` with the stream bytes at offsets `off..off + out.len()`,
/// bit-identical to [`stream_byte`] at every offset.
///
/// Inside a 64-aligned block of offsets starting at `b`, `(b + j) ^ seed ==
/// ((b ^ seed) & !63) + (j ^ (seed & 63))`, so one multiply per block gives
/// the block's base product and every lane adds a tabled
/// `(j ^ (seed & 63)) * STREAM_MUL`. The 64-bit sums are kept as 32-bit
/// halves with an explicit carry, which lets the lane loop auto-vectorize
/// on the baseline x86-64 target. Bytes before the first and after the last
/// whole block go through [`stream_byte`].
pub fn stream_fill(seed: u64, off: u64, out: &mut [u8]) {
    let head = (off.wrapping_neg() & 63).min(out.len() as u64) as usize;
    let (head_bytes, body) = out.split_at_mut(head);
    for (i, b) in head_bytes.iter_mut().enumerate() {
        *b = stream_byte(seed, off + i as u64);
    }
    let s = (seed & 63) as usize;
    let lane_lo: [u32; 64] = std::array::from_fn(|j| LANE_MUL[j ^ s] as u32);
    let lane_hi: [u32; 64] = std::array::from_fn(|j| (LANE_MUL[j ^ s] >> 32) as u32);
    let mut block = off + head as u64;
    let mut blocks = body.chunks_exact_mut(64);
    for chunk in &mut blocks {
        let base = ((block ^ seed) & !63).wrapping_mul(STREAM_MUL);
        let (base_lo, base_hi) = (base as u32, (base >> 32) as u32);
        for ((b, &lo), &hi) in chunk.iter_mut().zip(&lane_lo).zip(&lane_hi) {
            let x_lo = base_lo.wrapping_add(lo);
            let x_hi = base_hi
                .wrapping_add(hi)
                .wrapping_add((x_lo < base_lo) as u32);
            // Bits 56..63 of the product xor bits 29..36.
            *b = ((x_hi >> 24) ^ ((x_lo >> 29) | (x_hi << 3))) as u8;
        }
        block += 64;
    }
    for (i, b) in blocks.into_remainder().iter_mut().enumerate() {
        *b = stream_byte(seed, block + i as u64);
    }
}

/// Materialize `len` stream bytes starting at `off`.
pub fn stream_chunk(seed: u64, off: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0; len];
    stream_fill(seed, off, &mut v);
    v
}

/// Slow-start / AIMD window growth on a new cumulative ACK, pure for
/// testing: below `ssthresh` grow by one MSS per ACK (exponential per
/// RTT), above it grow by MSS·MSS/cwnd (one MSS per RTT), clamped to
/// `cap`.
pub fn cwnd_on_ack(cwnd: u64, ssthresh: u64, mss: u64, cap: u64) -> u64 {
    let grown = if cwnd < ssthresh {
        cwnd + mss
    } else {
        cwnd + (mss * mss / cwnd).max(1)
    };
    grown.min(cap)
}

/// Multiplicative decrease on RTO: ssthresh collapses to half the bytes
/// that were in flight (floored at two MSS), cwnd restarts at one MSS.
/// Returns `(cwnd, ssthresh)`.
pub fn cwnd_on_timeout(inflight: u64, mss: u64) -> (u64, u64) {
    (mss, (inflight / 2).max(2 * mss))
}

/// Messages exchanged between the endpoints. Every wire frame carries the
/// real 54-byte header block built by the nstack codec; `Rto` is the
/// epoch-tagged timer self-send, which never touches the network.
#[derive(Debug)]
pub enum TcpMsg {
    /// One TCP segment: header bytes + payload bytes.
    Seg {
        /// Encoded header block ([`build_tcp_headers`]).
        hdr: [u8; TCP_HEADER_BYTES],
        /// Payload bytes (empty for pure ACK/SYN/FIN frames).
        payload: Vec<u8>,
    },
    /// Retransmission-timer fire; stale if `epoch` lags the endpoint's.
    Rto {
        /// Timer generation at arm time.
        epoch: u64,
    },
}

/// Sender-side metrics, registered per node. `Clone` hands the same
/// underlying cells to the deployer for audit reads at quiesce.
#[derive(Debug, Clone)]
pub struct TcpSenderMetrics {
    /// Unique stream bytes transmitted for the first time (`tcp.tx.bytes`).
    pub tx_bytes: Counter,
    /// First-transmission segments (`tcp.tx.segs`).
    pub tx_segs: Counter,
    /// Retransmitted segments (`tcp.retx.segs`).
    pub retx_segs: Counter,
    /// Retransmitted bytes (`tcp.retx.bytes`).
    pub retx_bytes: Counter,
    /// Cumulatively acknowledged stream bytes (`tcp.tx.acked_bytes`).
    pub acked_bytes: Counter,
    /// Retransmission timeouts fired (`tcp.rto.fired`).
    pub rto_fired: Counter,
    /// Duplicate cumulative ACKs seen (`tcp.dup_acks`).
    pub dup_acks: Counter,
    /// Connections that completed the handshake (`tcp.conn.established`).
    pub established: Counter,
    /// Connections that closed via acked FIN (`tcp.conn.closed`).
    pub closed: Counter,
    /// Bytes in flight awaiting ACK (`tcp.tx.inflight_bytes`).
    pub inflight_bytes: Gauge,
    /// Bytes marked lost, pending retransmission (`tcp.tx.lost_bytes`).
    pub lost_bytes: Gauge,
    /// Current congestion window, bytes (`tcp.cwnd_bytes`).
    pub cwnd_bytes: Gauge,
}

impl TcpSenderMetrics {
    /// Register the sender metric family for `node`.
    pub fn register(reg: &Registry, node: u16) -> TcpSenderMetrics {
        TcpSenderMetrics {
            tx_bytes: reg.counter_on("tcp.tx.bytes", node),
            tx_segs: reg.counter_on("tcp.tx.segs", node),
            retx_segs: reg.counter_on("tcp.retx.segs", node),
            retx_bytes: reg.counter_on("tcp.retx.bytes", node),
            acked_bytes: reg.counter_on("tcp.tx.acked_bytes", node),
            rto_fired: reg.counter_on("tcp.rto.fired", node),
            dup_acks: reg.counter_on("tcp.dup_acks", node),
            established: reg.counter_on("tcp.conn.established", node),
            closed: reg.counter_on("tcp.conn.closed", node),
            inflight_bytes: reg.gauge_on("tcp.tx.inflight_bytes", node),
            lost_bytes: reg.gauge_on("tcp.tx.lost_bytes", node),
            cwnd_bytes: reg.gauge_on("tcp.cwnd_bytes", node),
        }
    }
}

/// Receiver-side metrics, registered per node.
#[derive(Debug, Clone)]
pub struct TcpReceiverMetrics {
    /// Segments received and parsed (`tcp.rx.segs`).
    pub rx_segs: Counter,
    /// Stream bytes delivered in order, exactly once (`tcp.rx.delivered_bytes`).
    pub delivered_bytes: Counter,
    /// Fully duplicate segments (already delivered) (`tcp.rx.dup_segs`).
    pub dup_segs: Counter,
    /// Segments buffered out of order (`tcp.rx.ooo_segs`).
    pub ooo_segs: Counter,
    /// Delivered bytes disagreeing with the reference stream
    /// (`tcp.rx.mismatched_bytes`) — any nonzero value is an audit failure.
    pub mismatched_bytes: Counter,
    /// ACK frames emitted (`tcp.rx.acks`).
    pub acks_tx: Counter,
    /// Frames whose header block failed codec validation (`tcp.rx.bad_frames`).
    pub bad_frames: Counter,
}

impl TcpReceiverMetrics {
    /// Register the receiver metric family for `node`.
    pub fn register(reg: &Registry, node: u16) -> TcpReceiverMetrics {
        TcpReceiverMetrics {
            rx_segs: reg.counter_on("tcp.rx.segs", node),
            delivered_bytes: reg.counter_on("tcp.rx.delivered_bytes", node),
            dup_segs: reg.counter_on("tcp.rx.dup_segs", node),
            ooo_segs: reg.counter_on("tcp.rx.ooo_segs", node),
            mismatched_bytes: reg.counter_on("tcp.rx.mismatched_bytes", node),
            acks_tx: reg.counter_on("tcp.rx.acks", node),
            bad_frames: reg.counter_on("tcp.rx.bad_frames", node),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendState {
    SynSent,
    Established,
    FinWait,
    Closed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegTrack {
    InFlight,
    Lost,
}

/// The sending endpoint: owns the congestion window, the retransmission
/// queue and the RTO timer. Pushes `cfg.total_bytes` of the deterministic
/// stream, then FIN, then reports closed.
pub struct TcpSender {
    cfg: TcpCfg,
    peer: Address,
    flow: u64,
    state: SendState,
    /// Highest contiguously acked stream offset.
    snd_una: u64,
    /// Next fresh stream offset to transmit.
    snd_nxt: u64,
    /// Outstanding segments: start offset -> (len, in-flight | lost).
    segs: BTreeMap<u64, (u32, SegTrack)>,
    inflight: u64,
    lost: u64,
    cwnd: u64,
    ssthresh: u64,
    rto: SimTime,
    /// Timer generation; bumping it invalidates every armed timer.
    epoch: u64,
    m: TcpSenderMetrics,
}

impl TcpSender {
    /// Build a sender that will stream to `peer` under flow label `flow`.
    pub fn new(cfg: TcpCfg, peer: Address, flow: u64, m: TcpSenderMetrics) -> TcpSender {
        cfg.validate();
        let mss = cfg.mss as u64;
        TcpSender {
            cfg,
            peer,
            flow,
            state: SendState::SynSent,
            snd_una: 0,
            snd_nxt: 0,
            segs: BTreeMap::new(),
            inflight: 0,
            lost: 0,
            cwnd: cfg.init_cwnd_segs as u64 * mss,
            ssthresh: cfg.cwnd_cap_segs as u64 * mss,
            rto: cfg.rto_init,
            epoch: 0,
            m,
        }
    }

    fn me(ctx: &ActorCtx<'_>) -> Address {
        Address {
            node: ctx.node(),
            actor: ctx.actor_id(),
        }
    }

    fn header(&self, ctx: &ActorCtx<'_>, seq: u32, flags: u8, payload_len: u16) -> TcpHeader {
        TcpHeader {
            src_node: ctx.node(),
            dst_node: self.peer.node,
            src_port: ctx.actor_id() as u16,
            dst_port: self.peer.actor as u16,
            seq,
            ack: 0,
            flags,
            window: self.cfg.cwnd_cap_segs as u16,
            payload_len,
        }
    }

    fn emit_seg(&self, ctx: &mut ActorCtx<'_>, hdr: TcpHeader, payload: Vec<u8>) {
        let wire = TCP_HEADER_BYTES as u32 + payload.len() as u32;
        let hdr = build_tcp_headers(hdr).expect("segment payload bounded by MSS");
        ctx.send(
            self.peer,
            self.flow,
            wire,
            hdr[38] as u64, // diagnostic token: top seq byte
            Some(Box::new(TcpMsg::Seg { hdr, payload })),
        );
    }

    /// Arm the retransmission timer under a fresh epoch.
    fn arm(&mut self, ctx: &mut ActorCtx<'_>) {
        self.epoch += 1;
        let me = Self::me(ctx);
        ctx.send_after(
            self.rto,
            me,
            self.flow,
            1,
            0,
            Some(Box::new(TcpMsg::Rto { epoch: self.epoch })),
        );
    }

    fn send_syn(&mut self, ctx: &mut ActorCtx<'_>) {
        let h = self.header(ctx, 0, TCP_SYN, 0);
        self.emit_seg(ctx, h, Vec::new());
        self.arm(ctx);
    }

    fn send_fin(&mut self, ctx: &mut ActorCtx<'_>) {
        let seq = (1 + self.cfg.total_bytes) as u32;
        let h = self.header(ctx, seq, TCP_FIN | TCP_ACK, 0);
        self.emit_seg(ctx, h, Vec::new());
        self.arm(ctx);
    }

    /// Transmit as much as the window allows: lost segments first (in
    /// sequence order), then fresh stream bytes.
    fn pump(&mut self, ctx: &mut ActorCtx<'_>) {
        loop {
            if self.inflight >= self.cwnd {
                break;
            }
            // Retransmit the lowest-offset lost segment first.
            if let Some((&off, &(len, _))) = self
                .segs
                .iter()
                .find(|(_, (_, track))| *track == SegTrack::Lost)
            {
                self.segs.insert(off, (len, SegTrack::InFlight));
                self.lost -= len as u64;
                self.inflight += len as u64;
                self.m.retx_segs.inc();
                self.m.retx_bytes.add(len as u64);
                let h = self.header(ctx, (1 + off) as u32, TCP_ACK, len as u16);
                let body = stream_chunk(self.cfg.stream_seed, off, len as usize);
                ctx.charge_work(self.cfg.work_per_seg_ns + len as u64 / 8);
                self.emit_seg(ctx, h, body);
                continue;
            }
            // Fresh data.
            if self.snd_nxt >= self.cfg.total_bytes {
                break;
            }
            let len = (self.cfg.total_bytes - self.snd_nxt).min(self.cfg.mss as u64) as u32;
            let off = self.snd_nxt;
            self.segs.insert(off, (len, SegTrack::InFlight));
            self.snd_nxt += len as u64;
            self.inflight += len as u64;
            self.m.tx_segs.inc();
            self.m.tx_bytes.add(len as u64);
            let h = self.header(ctx, (1 + off) as u32, TCP_ACK, len as u16);
            let body = stream_chunk(self.cfg.stream_seed, off, len as usize);
            ctx.charge_work(self.cfg.work_per_seg_ns + len as u64 / 8);
            self.emit_seg(ctx, h, body);
        }
        self.sync_gauges();
    }

    fn sync_gauges(&self) {
        self.m.inflight_bytes.set(self.inflight as i64);
        self.m.lost_bytes.set(self.lost as i64);
        self.m.cwnd_bytes.set(self.cwnd as i64);
    }

    fn on_rto(&mut self, ctx: &mut ActorCtx<'_>) {
        self.m.rto_fired.inc();
        self.rto = SimTime::from_ns(
            (self.rto.as_ns() * 2).clamp(self.cfg.rto_min.as_ns(), self.cfg.rto_max.as_ns()),
        );
        match self.state {
            SendState::SynSent => self.send_syn(ctx),
            SendState::FinWait if self.segs.is_empty() => self.send_fin(ctx),
            SendState::Established | SendState::FinWait => {
                // Tahoe: collapse the window and mark the whole flight lost.
                let (cwnd, ssthresh) = cwnd_on_timeout(self.inflight, self.cfg.mss as u64);
                self.cwnd = cwnd;
                self.ssthresh = ssthresh;
                for (_, entry) in self.segs.iter_mut() {
                    if entry.1 == SegTrack::InFlight {
                        self.inflight -= entry.0 as u64;
                        self.lost += entry.0 as u64;
                        entry.1 = SegTrack::Lost;
                    }
                }
                self.pump(ctx);
                self.arm(ctx);
            }
            SendState::Closed => {}
        }
    }

    fn on_ack(&mut self, ctx: &mut ActorCtx<'_>, hdr: TcpHeader) {
        let total = self.cfg.total_bytes;
        if self.state == SendState::SynSent {
            if hdr.flags & (TCP_SYN | TCP_ACK) == TCP_SYN | TCP_ACK && hdr.ack == 1 {
                self.state = SendState::Established;
                self.m.established.inc();
                self.rto = self.cfg.rto_init;
                if total == 0 {
                    self.state = SendState::FinWait;
                    self.send_fin(ctx);
                } else {
                    self.pump(ctx);
                    self.arm(ctx);
                }
            }
            return;
        }
        if hdr.flags & TCP_ACK == 0 || self.state == SendState::Closed {
            return;
        }
        // FIN acked: the whole stream plus both flags is accounted for.
        if self.state == SendState::FinWait && hdr.ack as u64 == total + 2 {
            self.state = SendState::Closed;
            self.m.closed.inc();
            self.epoch += 1; // kill the timer chain
            self.sync_gauges();
            return;
        }
        let acked_to = (hdr.ack as u64).saturating_sub(1).min(total);
        if acked_to > self.snd_una {
            let newly = acked_to - self.snd_una;
            self.snd_una = acked_to;
            self.m.acked_bytes.add(newly);
            // Cumulative ACKs land on segment boundaries (segments are
            // MSS-carved once and never re-split), so drain whole entries.
            while let Some((&off, &(len, track))) = self.segs.first_key_value() {
                if off + len as u64 <= acked_to {
                    match track {
                        SegTrack::InFlight => self.inflight -= len as u64,
                        SegTrack::Lost => self.lost -= len as u64,
                    }
                    self.segs.remove(&off);
                } else {
                    break;
                }
            }
            self.cwnd = cwnd_on_ack(
                self.cwnd,
                self.ssthresh,
                self.cfg.mss as u64,
                self.cfg.cwnd_cap_segs as u64 * self.cfg.mss as u64,
            );
            self.rto = self.cfg.rto_init;
            if self.snd_una == total && self.segs.is_empty() && self.state == SendState::Established
            {
                self.state = SendState::FinWait;
                self.send_fin(ctx);
            } else {
                self.pump(ctx);
                self.arm(ctx);
            }
        } else {
            self.m.dup_acks.inc();
            self.sync_gauges();
        }
    }
}

impl ActorLogic for TcpSender {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        ctx.charge_work(self.cfg.work_per_seg_ns);
        self.sync_gauges();
        self.send_syn(ctx);
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        match *req.payload_as::<TcpMsg>() {
            TcpMsg::Rto { epoch } => {
                if epoch != self.epoch || self.state == SendState::Closed {
                    ctx.charge_work(20); // stale timer: wheel maintenance only
                    return;
                }
                ctx.charge_work(self.cfg.work_per_seg_ns);
                self.on_rto(ctx);
            }
            TcpMsg::Seg { hdr, .. } => {
                ctx.charge_work(self.cfg.work_per_seg_ns);
                let Some(hdr) = parse_tcp_headers(&hdr) else {
                    return;
                };
                self.on_ack(ctx, hdr);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecvState {
    Listen,
    SynRcvd,
    Established,
    Closed,
}

/// The receiving endpoint: reassembles out-of-order segments, delivers
/// contiguous bytes exactly once (verifying them against the reference
/// stream), and acknowledges cumulatively. Learns the peer's address from
/// the TCP ports, so it needs no out-of-band peer configuration.
pub struct TcpReceiver {
    cfg: TcpCfg,
    flow: u64,
    state: RecvState,
    peer: Option<Address>,
    /// Next in-order stream offset expected.
    rcv_nxt: u64,
    /// Out-of-order reassembly buffer: offset -> payload.
    ooo: BTreeMap<u64, Vec<u8>>,
    fin_seen: bool,
    /// Reference stream bytes for the payload being verified, reused
    /// across deliveries.
    expected: Vec<u8>,
    m: TcpReceiverMetrics,
}

impl TcpReceiver {
    /// Build a passive receiver for one connection.
    pub fn new(cfg: TcpCfg, flow: u64, m: TcpReceiverMetrics) -> TcpReceiver {
        cfg.validate();
        TcpReceiver {
            cfg,
            flow,
            state: RecvState::Listen,
            peer: None,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            fin_seen: false,
            expected: Vec::new(),
            m,
        }
    }

    fn ack_value(&self) -> u32 {
        if self.fin_seen && self.rcv_nxt == self.cfg.total_bytes {
            (self.cfg.total_bytes + 2) as u32
        } else {
            (1 + self.rcv_nxt) as u32
        }
    }

    fn send_ack(&mut self, ctx: &mut ActorCtx<'_>, flags: u8) {
        let Some(peer) = self.peer else { return };
        let hdr = TcpHeader {
            src_node: ctx.node(),
            dst_node: peer.node,
            src_port: ctx.actor_id() as u16,
            dst_port: peer.actor as u16,
            seq: 0,
            ack: self.ack_value(),
            flags,
            window: self.cfg.cwnd_cap_segs as u16,
            payload_len: 0,
        };
        let hdr = build_tcp_headers(hdr).expect("pure ACK always encodes");
        self.m.acks_tx.inc();
        ctx.send(
            peer,
            self.flow,
            TCP_HEADER_BYTES as u32,
            hdr[42] as u64,
            Some(Box::new(TcpMsg::Seg {
                hdr,
                payload: Vec::new(),
            })),
        );
    }

    /// Verify and deliver `payload` at contiguous offset `rcv_nxt`.
    fn deliver(&mut self, payload: &[u8]) {
        self.expected.resize(payload.len(), 0);
        stream_fill(self.cfg.stream_seed, self.rcv_nxt, &mut self.expected);
        if payload != self.expected {
            let bad = payload
                .iter()
                .zip(&self.expected)
                .filter(|(got, want)| got != want)
                .count();
            self.m.mismatched_bytes.add(bad as u64);
        }
        self.m.delivered_bytes.add(payload.len() as u64);
        self.rcv_nxt += payload.len() as u64;
    }

    fn on_data(&mut self, ctx: &mut ActorCtx<'_>, hdr: TcpHeader, payload: Vec<u8>) {
        let off = (hdr.seq as u64).saturating_sub(1);
        let len = payload.len() as u64;
        ctx.charge_work(self.cfg.work_per_seg_ns + len / 8);
        if off + len <= self.rcv_nxt {
            self.m.dup_segs.inc();
        } else if off == self.rcv_nxt {
            self.deliver(&payload);
            // Drain the reassembly buffer over the newly contiguous range.
            while let Some((&o, _)) = self.ooo.first_key_value() {
                if o > self.rcv_nxt {
                    break;
                }
                let seg = self.ooo.remove(&o).expect("first key exists");
                if o + seg.len() as u64 <= self.rcv_nxt {
                    continue; // fully duplicate buffered copy
                }
                let skip = (self.rcv_nxt - o) as usize;
                self.deliver(&seg[skip..]);
            }
        } else {
            // Out of order: buffer at most one copy per offset.
            if self.ooo.contains_key(&off) {
                self.m.dup_segs.inc();
            } else {
                self.m.ooo_segs.inc();
                self.ooo.insert(off, payload);
            }
        }
        if hdr.flags & TCP_FIN != 0 && off >= self.cfg.total_bytes {
            self.fin_seen = true;
        }
        if self.fin_seen && self.rcv_nxt == self.cfg.total_bytes {
            self.state = RecvState::Closed;
            self.ooo.clear();
        }
        self.send_ack(ctx, TCP_ACK);
    }
}

impl ActorLogic for TcpReceiver {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let TcpMsg::Seg { hdr, payload } = *req.payload_as::<TcpMsg>() else {
            return; // receivers arm no timers
        };
        self.m.rx_segs.inc();
        let Some(hdr) = parse_tcp_headers(&hdr) else {
            self.m.bad_frames.inc();
            ctx.charge_work(self.cfg.work_per_seg_ns);
            return;
        };
        // Demultiplex the reply path from the ports: src_port is the
        // sender's actor id on src_node.
        self.peer = Some(Address {
            node: hdr.src_node,
            actor: hdr.src_port as u32,
        });
        if hdr.flags & TCP_SYN != 0 {
            ctx.charge_work(self.cfg.work_per_seg_ns);
            if self.state == RecvState::Listen {
                self.state = RecvState::SynRcvd;
            }
            // SYN or duplicate SYN: (re-)offer the SYN-ACK.
            self.send_ack(ctx, TCP_SYN | TCP_ACK);
            return;
        }
        if self.state == RecvState::Listen {
            // Data before any SYN — a stale frame from a previous
            // incarnation; ignore.
            ctx.charge_work(20);
            return;
        }
        if self.state == RecvState::SynRcvd {
            // First non-SYN frame implicitly completes the handshake.
            self.state = RecvState::Established;
        }
        if hdr.payload_len == 0 && hdr.flags & TCP_FIN == 0 {
            // A pure ACK carries nothing for the receiver.
            ctx.charge_work(20);
            return;
        }
        self.on_data(ctx, hdr, payload);
    }
}

/// Handles returned by [`deploy_tcp_pair`]: the endpoint addresses plus
/// cloned metric handles for audit reads at quiesce.
#[derive(Debug, Clone)]
pub struct TcpEndpoints {
    /// Sender actor address.
    pub sender: Address,
    /// Receiver actor address.
    pub receiver: Address,
    /// Sender metric handles (same cells the actor updates).
    pub tx: TcpSenderMetrics,
    /// Receiver metric handles.
    pub rx: TcpReceiverMetrics,
    /// Connection configuration.
    pub cfg: TcpCfg,
}

/// Deploy one connection: a [`TcpReceiver`] on `receiver_node` and a
/// [`TcpSender`] on `sender_node`, both under `placement` (host cores or
/// NIC cores — the offload axis). The sender's `init` fires the SYN
/// immediately. The two nodes must differ for the `FaultPlan` loss model
/// to apply (same-node delivery bypasses the network).
pub fn deploy_tcp_pair(
    c: &mut Cluster,
    cfg: TcpCfg,
    sender_node: usize,
    receiver_node: usize,
    flow: u64,
    placement: Placement,
) -> TcpEndpoints {
    cfg.validate();
    let (rx, tx) = {
        let reg = c.obs().registry();
        (
            TcpReceiverMetrics::register(reg, receiver_node as u16),
            TcpSenderMetrics::register(reg, sender_node as u16),
        )
    };
    let receiver = c.register_actor(
        receiver_node,
        "tcp.receiver",
        Box::new(TcpReceiver::new(cfg, flow, rx.clone())),
        placement,
    );
    assert!(
        receiver.actor <= u16::MAX as u32,
        "actor id must fit the 16-bit TCP port"
    );
    let sender = c.register_actor(
        sender_node,
        "tcp.sender",
        Box::new(TcpSender::new(cfg, receiver, flow, tx.clone())),
        placement,
    );
    assert!(sender.actor <= u16::MAX as u32);
    TcpEndpoints {
        sender,
        receiver,
        tx,
        rx,
        cfg,
    }
}

/// Check the per-connection conservation and delivery invariants at
/// quiesce, merging violations into `r`:
///
/// * `tcp.conservation` — `bytes_sent == bytes_acked + bytes_in_flight +
///   bytes_dropped_pending_rto` (the tentpole audit slice);
/// * `tcp.closed` — the connection reached `Closed` on both ends;
/// * `tcp.exactly_once` — delivered bytes equal the configured stream
///   length (nothing dropped, nothing delivered twice);
/// * `tcp.in_order` — every delivered byte matched the reference stream;
/// * `tcp.bounded` — first-transmissions never exceed the stream length.
pub fn audit_tcp_into(r: &mut AuditReport, ep: &TcpEndpoints) {
    let node = ep.sender.node;
    let sent = ep.tx.tx_bytes.get();
    let acked = ep.tx.acked_bytes.get();
    let inflight = ep.tx.inflight_bytes.get();
    let lost = ep.tx.lost_bytes.get();
    r.check(
        "tcp.conservation",
        node,
        sent as i64 == acked as i64 + inflight + lost,
        || format!("sent {sent} != acked {acked} + inflight {inflight} + lost-pending-rto {lost}"),
    );
    r.check("tcp.bounded", node, sent <= ep.cfg.total_bytes, || {
        format!(
            "{sent} unique bytes transmitted for a {}-byte stream",
            ep.cfg.total_bytes
        )
    });
    r.check(
        "tcp.closed",
        node,
        ep.tx.closed.get() == 1 && ep.tx.established.get() == 1,
        || {
            format!(
                "connection not cleanly closed: established={} closed={}",
                ep.tx.established.get(),
                ep.tx.closed.get()
            )
        },
    );
    let delivered = ep.rx.delivered_bytes.get();
    r.check(
        "tcp.exactly_once",
        ep.receiver.node,
        delivered == ep.cfg.total_bytes,
        || {
            format!(
                "receiver delivered {delivered} of {} stream bytes",
                ep.cfg.total_bytes
            )
        },
    );
    r.check(
        "tcp.in_order",
        ep.receiver.node,
        ep.rx.mismatched_bytes.get() == 0,
        || {
            format!(
                "{} delivered bytes disagreed with the reference stream",
                ep.rx.mismatched_bytes.get()
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe_netsim::FaultPlan;
    use ipipe_nicsim::CN2350;

    #[test]
    fn cwnd_slow_start_doubles_per_rtt_then_aimd() {
        let mss = 1460u64;
        let cap = 64 * mss;
        let mut cwnd = 4 * mss;
        let ssthresh = 16 * mss;
        // Slow start: one MSS per ACK.
        cwnd = cwnd_on_ack(cwnd, ssthresh, mss, cap);
        assert_eq!(cwnd, 5 * mss);
        // Above ssthresh: additive, about one MSS per window of ACKs.
        let mut c = ssthresh;
        for _ in 0..16 {
            c = cwnd_on_ack(c, ssthresh, mss, cap);
        }
        // Integer division makes each step undershoot slightly; accept
        // within 10% of one MSS per window.
        assert!(c >= ssthresh + mss * 9 / 10 && c < ssthresh + 2 * mss);
        // Cap clamps.
        assert_eq!(cwnd_on_ack(cap, ssthresh, mss, cap), cap);
        // Timeout collapses.
        let (cw, ss) = cwnd_on_timeout(20 * mss, mss);
        assert_eq!(cw, mss);
        assert_eq!(ss, 10 * mss);
        let (_, ss_floor) = cwnd_on_timeout(0, mss);
        assert_eq!(ss_floor, 2 * mss);
    }

    #[test]
    fn stream_bytes_are_deterministic_and_seed_sensitive() {
        assert_eq!(stream_byte(7, 42), stream_byte(7, 42));
        let a = stream_chunk(7, 0, 64);
        let b = stream_chunk(8, 0, 64);
        assert_ne!(a, b);
        assert_eq!(a, stream_chunk(7, 0, 64));
        // Chunks are offset-consistent: chunk(off)=bytes at off..off+len.
        assert_eq!(stream_chunk(7, 10, 6)[0], stream_byte(7, 10));
    }

    #[test]
    fn stream_fill_is_bit_identical_to_stream_byte() {
        let near_top = u32::MAX as u64;
        let offsets: Vec<u64> = (0..64)
            .chain([
                near_top - 2924,
                near_top - 1460,
                near_top - 64,
                near_top - 3,
            ])
            .collect();
        let mut buf = vec![0u8; 2921];
        for class in 0..64u64 {
            let seed = (0xA5C3_0F17_9B2D_4E00 & !63) | class;
            for &off in &offsets {
                for len in [0, 1, 63, 64, 65, 1460, 2921] {
                    let want: Vec<u8> = (0..len as u64)
                        .map(|i| stream_byte(seed, off + i))
                        .collect();
                    // Start from bytes that differ everywhere, so an
                    // unwritten byte shows.
                    for (b, w) in buf.iter_mut().zip(&want) {
                        *b = !w;
                    }
                    stream_fill(seed, off, &mut buf[..len]);
                    assert_eq!(
                        &buf[..len],
                        &want[..],
                        "fill seed {seed:#x} off {off} len {len}"
                    );
                    assert_eq!(
                        stream_chunk(seed, off, len),
                        want,
                        "chunk seed {seed:#x} off {off}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_digest_matches_the_per_byte_definition() {
        // FNV-1a 64 of the first MiB of one stream, as computed one
        // `stream_byte` at a time. A block kernel wrong in the same way on
        // both ends would still deliver clean; this pin would not pass.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream_chunk(0xC0FF_EE00_1234_5678, 0, 1 << 20) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(h, 0x337b_4978_9ed8_478d);
    }

    /// Hand `rx` one frame from node 0's actor 1, as the runtime would.
    fn feed(rx: &mut TcpReceiver, seq: u32, flags: u8, payload: Vec<u8>) {
        let hdr = build_tcp_headers(TcpHeader {
            src_node: 0,
            dst_node: 1,
            src_port: 1,
            dst_port: 2,
            seq,
            ack: 0,
            flags,
            window: 32,
            payload_len: payload.len() as u16,
        })
        .expect("test segment encodes");
        let mut dmo = crate::dmo::DmoTable::new(crate::dmo::Side::Nic, 1 << 20);
        let mut rng = ipipe_sim::DetRng::new(1);
        let mut ctx = ActorCtx::new(SimTime::ZERO, 2, 1, &mut dmo, &mut rng);
        let req = Request {
            actor: 2,
            flow: 1,
            wire_size: (TCP_HEADER_BYTES + payload.len()) as u32,
            arrived: SimTime::ZERO,
            reply_to: None,
            token: 0,
            payload: Some(Box::new(TcpMsg::Seg { hdr, payload })),
        };
        rx.exec(&mut ctx, req);
    }

    /// Deliver a 4000-byte stream in four data segments, through the
    /// in-order path and the out-of-order drain, and audit the result.
    /// `flips[i]` lists the stream offsets flipped in the i-th segment sent.
    fn deliver_with_flips(flips: [&[u64]; 4]) -> (TcpReceiverMetrics, AuditReport) {
        let seed = 0x5EED_0042;
        let cfg = TcpCfg::lan(4000, seed);
        let reg = Registry::new();
        let m = TcpReceiverMetrics::register(&reg, 1);
        let mut rx = TcpReceiver::new(cfg, 1, m.clone());
        let seg = |off: u64, len: usize, flips: &[u64]| {
            let mut p = stream_chunk(seed, off, len);
            for &f in flips {
                p[(f - off) as usize] ^= 0x5A;
            }
            p
        };
        feed(&mut rx, 0, TCP_SYN, Vec::new());
        // In order: [0, 1000).
        feed(&mut rx, 1, TCP_ACK, seg(0, 1000, flips[0]));
        // Out of order, buffered: [1500, 2600).
        feed(&mut rx, 1501, TCP_ACK, seg(1500, 1100, flips[1]));
        // Closes the gap with [1000, 2000); the drain then delivers only
        // [2000, 2600) of the buffered copy.
        feed(&mut rx, 1001, TCP_ACK, seg(1000, 1000, flips[2]));
        feed(&mut rx, 2601, TCP_ACK, seg(2600, 1400, flips[3]));
        feed(&mut rx, 4001, TCP_FIN | TCP_ACK, Vec::new());
        assert_eq!(m.delivered_bytes.get(), 4000);
        assert_eq!(m.ooo_segs.get(), 1);
        let ep = TcpEndpoints {
            sender: Address { node: 0, actor: 1 },
            receiver: Address { node: 1, actor: 2 },
            tx: TcpSenderMetrics::register(&reg, 0),
            rx: m.clone(),
            cfg,
        };
        let mut r = AuditReport::new(SimTime::ZERO);
        audit_tcp_into(&mut r, &ep);
        (m, r)
    }

    fn flags_in_order(r: &AuditReport) -> bool {
        r.violations().iter().any(|v| v.invariant == "tcp.in_order")
    }

    #[test]
    fn receiver_counts_every_corrupted_delivered_byte() {
        let (m, r) = deliver_with_flips([&[], &[], &[], &[]]);
        assert_eq!(m.mismatched_bytes.get(), 0);
        assert!(!flags_in_order(&r));

        // Four flips on the in-order path, at both ends of segments.
        let (m, r) = deliver_with_flips([&[0, 500, 999], &[], &[], &[3999]]);
        assert_eq!(m.mismatched_bytes.get(), 4);
        assert!(flags_in_order(&r));

        // Through the drain: 2100 and 2599 are delivered from the buffered
        // copy; 1600 lies in the part the in-order copy already delivered,
        // so only that copy's flip at 1999 counts.
        let (m, r) = deliver_with_flips([&[], &[1600, 2100, 2599], &[1999], &[]]);
        assert_eq!(m.mismatched_bytes.get(), 3);
        assert!(flags_in_order(&r));
    }

    fn run_one(
        loss: f64,
        total: u64,
        placement: Placement,
        seed: u64,
    ) -> (TcpEndpoints, AuditReport) {
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(seed)
            .build();
        if loss > 0.0 {
            c.set_fault_plan(FaultPlan::new(seed ^ 0x7C9).with_loss(loss));
        }
        let ep = deploy_tcp_pair(&mut c, TcpCfg::lan(total, seed), 0, 1, 1, placement);
        for _ in 0..200 {
            c.run_for(SimTime::from_ms(1));
            if ep.tx.closed.get() == 1 {
                break;
            }
        }
        // Let stale timers drain so the cluster audit sees quiesce.
        c.run_for(SimTime::from_ms(4));
        let mut r = c.audit();
        audit_tcp_into(&mut r, &ep);
        (ep, r)
    }

    #[test]
    fn lossless_transfer_delivers_exactly_once() {
        let (ep, r) = run_one(0.0, 100_000, Placement::Nic, 11);
        r.assert_clean();
        assert_eq!(ep.rx.delivered_bytes.get(), 100_000);
        assert_eq!(ep.tx.retx_segs.get(), 0, "no loss, no retransmissions");
        assert_eq!(ep.rx.mismatched_bytes.get(), 0);
    }

    #[test]
    fn lossy_transfer_recovers_via_rto() {
        let (ep, r) = run_one(0.05, 100_000, Placement::Nic, 13);
        r.assert_clean();
        assert!(
            ep.tx.retx_segs.get() > 0,
            "5% loss must force retransmissions"
        );
        assert!(ep.tx.rto_fired.get() > 0);
    }

    #[test]
    fn host_placement_closes_too() {
        let (ep, r) = run_one(0.03, 50_000, Placement::Host, 17);
        r.assert_clean();
        assert_eq!(ep.rx.delivered_bytes.get(), 50_000);
    }

    #[test]
    fn empty_stream_closes_with_fin_only() {
        let (ep, r) = run_one(0.0, 0, Placement::Nic, 19);
        r.assert_clean();
        assert_eq!(ep.rx.delivered_bytes.get(), 0);
        assert_eq!(ep.tx.tx_segs.get(), 0);
        assert_eq!(ep.tx.closed.get(), 1);
    }

    #[test]
    fn audit_flags_unclosed_connection() {
        // Stop the run long before the transfer can finish.
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(3)
            .build();
        let ep = deploy_tcp_pair(&mut c, TcpCfg::lan(10_000_000, 3), 0, 1, 1, Placement::Nic);
        c.run_for(SimTime::from_us(200));
        let mut r = AuditReport::new(SimTime::from_us(200));
        audit_tcp_into(&mut r, &ep);
        assert!(!r.is_clean(), "mid-flight connection must not audit clean");
        assert!(r
            .violations()
            .iter()
            .any(|v| v.invariant == "tcp.closed" || v.invariant == "tcp.exactly_once"));
        // But conservation holds even mid-flight.
        assert!(!r
            .violations()
            .iter()
            .any(|v| v.invariant == "tcp.conservation"));
    }
}
