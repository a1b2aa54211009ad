//! Message-ring benchmarks, including the I6 ablation: scatter-gather
//! aggregation vs per-message DMA (modelled cost), and the real ring's
//! push/pop wall-clock cost.

use criterion::{criterion_group, criterion_main, Criterion};
use ipipe::ring::RingBuffer;
use ipipe_nicsim::dma::{DmaEngine, DmaOp};
use ipipe_nicsim::CN2350;

fn bench_ring_pushpop(c: &mut Criterion) {
    c.bench_function("ring_push_pop_64B", |b| {
        let mut r = RingBuffer::new(64 * 1024);
        let msg = [0xA5u8; 64];
        b.iter(|| {
            r.push(&msg).unwrap();
            r.pop().unwrap().unwrap().0.len()
        })
    });
    c.bench_function("ring_push_pop_1KB", |b| {
        let mut r = RingBuffer::new(256 * 1024);
        let msg = vec![0x5Au8; 1024];
        b.iter(|| {
            r.push(&msg).unwrap();
            r.pop().unwrap().unwrap().0.len()
        })
    });
}

fn bench_sg_ablation(c: &mut Criterion) {
    // Modeled-cost ablation (implication I6): aggregate 8 x 256B segments
    // into one scatter-gather DMA vs eight separate blocking writes.
    let e = DmaEngine::new(&CN2350);
    c.bench_function("dma_model_scatter_gather_8x256", |b| {
        b.iter(|| e.scatter_gather_latency(DmaOp::Write, 8, 2048).as_ns())
    });
    c.bench_function("dma_model_separate_8x256", |b| {
        b.iter(|| (e.blocking_latency(DmaOp::Write, 256) * 8).as_ns())
    });
    // Report the modeled ratio once for the record.
    let sg = e.scatter_gather_latency(DmaOp::Write, 8, 2048);
    let sep = e.blocking_latency(DmaOp::Write, 256) * 8;
    eprintln!(
        "[ablation] scatter-gather {}us vs separate {}us ({:.2}x)",
        sg.as_us_f64(),
        sep.as_us_f64(),
        sep.as_ns() as f64 / sg.as_ns() as f64
    );
}

criterion_group!(benches, bench_ring_pushpop, bench_sg_ablation);
criterion_main!(benches);
