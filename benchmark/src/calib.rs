//! A fixed reference kernel that gauges how fast the host runs right now,
//! so that `host_s` and `setup_s` can be reported at a reference speed.
//!
//! A shared host's speed steps by a third or more within minutes, as its
//! neighbours come and go. Such a step moves this kernel and a pass
//! together, and their ratio stays put. The kernel uses only `std`, never
//! the repository's crates, so a change to the program under test cannot
//! change it. It mixes the kinds of work the simulator does: a timer heap,
//! hash-map churn with small allocations, bulk copies and cache-missing
//! loads.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::clock::Stopwatch;
use crate::stats;

/// Thread CPU seconds the kernel takes on the host the baselines in
/// `README.md` were measured on. Reported host times are scaled to it.
pub const REFERENCE_S: f64 = 0.025;

/// Words in the pointer-chase table (16 MiB).
const CHASE_WORDS: usize = 4 << 20;
/// Bytes of each copy buffer.
const COPY_BYTES: usize = 4 << 20;
/// Fewest kernel runs behind one gauge.
const MIN_RUNS: usize = 3;

/// The kernel's buffers, built once and reused by every run.
pub struct Calibrator {
    chase: Vec<u32>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // one random cycle through every word (Sattolo's shuffle)
        let mut chase: Vec<u32> = (0..CHASE_WORDS as u32).collect();
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for i in (1..CHASE_WORDS).rev() {
            let j = (rng.next() % i as u64) as usize;
            chase.swap(i, j);
        }
        Calibrator {
            chase,
            src: (0..COPY_BYTES).map(|i| i as u8).collect(),
            dst: vec![0; COPY_BYTES],
        }
    }

    /// Median thread CPU seconds of one kernel run, over at least
    /// [`MIN_RUNS`] runs and at least `budget_s` wall-clock seconds.
    pub fn gauge(&mut self, budget_s: f64) -> f64 {
        let start = Stopwatch::start();
        let mut runs = Vec::new();
        while runs.len() < MIN_RUNS || start.wall_s() < budget_s {
            let w = Stopwatch::start();
            black_box(self.kernel());
            runs.push(w.cpu_s());
        }
        stats::median(&runs)
    }

    fn kernel(&mut self) -> u64 {
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let mut acc = 0u64;
        // timer heap: pop the earliest, push it back later, as an event loop
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..4096u32)
            .map(|i| Reverse((rng.next() % 1_000_000, i)))
            .collect();
        for _ in 0..60_000 {
            let Reverse((at, id)) = heap.pop().expect("non-empty heap");
            acc = acc.wrapping_add(at ^ u64::from(id));
            heap.push(Reverse((at + rng.next() % 50_000, id)));
        }
        // hash-map churn of small heap-allocated values, with a fixed hasher
        let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for i in 0..40_000u64 {
            let k = rng.next() % 16_384;
            if i % 3 == 0 {
                map.remove(&k);
            } else if let Some(v) = map.get(&k) {
                acc = acc.wrapping_add(v.len() as u64);
            } else {
                map.insert(k, vec![i as u8; 32 + (k % 480) as usize]);
            }
        }
        // bulk copies
        for _ in 0..6 {
            self.dst.copy_from_slice(black_box(&self.src));
            acc = acc.wrapping_add(u64::from(self.dst[rng.next() as usize % COPY_BYTES]));
        }
        // cache-missing loads
        let mut i = 0u32;
        for _ in 0..60_000 {
            i = self.chase[i as usize];
        }
        acc.wrapping_add(u64::from(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_gauges_positive() {
        let mut c = Calibrator::new();
        assert_eq!(c.kernel(), c.kernel());
        assert!(c.gauge(0.0) > 0.0);
    }
}
