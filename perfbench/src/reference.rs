//! Host-speed reference: a fixed piece of work timed beside every scenario
//! instance.
//!
//! On a shared host the speed the benchmark gets drifts by tens of percent
//! over minutes, so raw host times of two runs of the same code can differ
//! by more than any useful bound. Every instance is bracketed by two timings
//! of [`Reference::kernel`], and the host-time end-to-end metrics are
//! rescaled by [`NOMINAL_S`] over the geometric mean of the two: they read
//! in seconds of a host on which the kernel takes [`NOMINAL_S`]. The kernel
//! belongs to the benchmark, not to the program, so no change to the
//! program moves it. The raw times and the reference times are kept in the
//! detail record.

use crate::stats::splitmix64;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Operations one timing of the kernel performs.
const OPS: u64 = 50_000;
/// Events the queue holds before every push is matched by a pop.
const QUEUE: usize = 8192;
/// Slots of the random-access table (16 MiB).
const TABLE: usize = 1 << 21;
/// Distinct keys of the hash map.
const KEYS: u64 = 1 << 16;

/// Median time of one [`Reference::kernel`] call on a 2-vCPU Intel Xeon
/// host, seconds: the host speed the rescaled metrics are quoted at.
pub const NOMINAL_S: f64 = 0.0125;

/// The reference kernel and the memory it works in. Everything is
/// allocated up front, so a timing does not depend on the state the
/// scenario runs leave the allocator in.
pub struct Reference {
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Allocate the kernel's memory.
    pub fn new() -> Reference {
        Reference {
            queue: BinaryHeap::with_capacity(QUEUE + 1),
            table: vec![0; TABLE],
            map: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
        }
    }

    /// A fixed mix of what the simulator spends its time on: a binary-heap
    /// event queue, a hash map probed at random keys, and loads and stores
    /// scattered over a table larger than the caches. Returns a digest so
    /// the work cannot be optimised away.
    pub fn kernel(&mut self) -> u64 {
        self.queue.clear();
        self.map.clear();
        let mut x = 7u64;
        let mut acc = 0u64;
        for i in 0..OPS {
            x = splitmix64(x);
            self.queue.push(Reverse((x >> 24, i)));
            if self.queue.len() > QUEUE {
                if let Some(Reverse((at, id))) = self.queue.pop() {
                    acc ^= at ^ id;
                }
            }
            let slot = (x as usize) % TABLE;
            self.table[slot] = self.table[slot].wrapping_add(i);
            acc = acc.wrapping_add(self.table[((x >> 32) as usize) % TABLE]);
            let key = (x >> 8) % KEYS;
            if x & 3 == 0 {
                self.map.remove(&key);
            } else {
                *self.map.entry(key).or_insert(0) += 1;
            }
        }
        acc ^ self.map.len() as u64
    }

    /// Host seconds one [`Reference::kernel`] call takes now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.kernel());
        t.elapsed().as_secs_f64()
    }
}
