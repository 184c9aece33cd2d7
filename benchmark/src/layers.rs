//! Per-layer figures read from outside the program: registry counters
//! summed across instances, and standalone timings of the per-byte
//! primitives the data path leans on.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use simkit::telemetry::{MetricValue, Snapshot};
use simkit::Sim;

use crate::stats;

/// Registry counters of the measured phase: `after` minus `before`.
pub struct Delta<'a> {
    /// Registry at the start of the measured phase (`None`: empty).
    pub before: Option<&'a Snapshot>,
    /// Registry at the end.
    pub after: &'a Snapshot,
}

impl Delta<'_> {
    /// A counter's growth.
    pub fn counter(&self, name: &str) -> u64 {
        self.after.counter(name) - self.before.map_or(0, |b| b.counter(name))
    }

    /// Growth of a counter family summed over instances, e.g. every
    /// `rkv.server*.gets`.
    pub fn family(&self, prefix: &str, suffix: &str) -> u64 {
        self.after.sum_matching(prefix, suffix)
            - self.before.map_or(0, |b| b.sum_matching(prefix, suffix))
    }

    /// Largest gauge of a family at the end.
    pub fn gauge_max(&self, prefix: &str, suffix: &str) -> i64 {
        self.after
            .names()
            .filter(|n| n.starts_with(prefix) && n.ends_with(suffix))
            .filter_map(|n| match self.after.get(n) {
                Some(MetricValue::Gauge(g)) => Some(*g),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// p99s of an rkv op class's stages from the op tracer: the sum of the
/// queueing stages' p99s (`client_queue`, `cq_wait`, `shard_queue`; the
/// tracer's public series hold no per-op sums) and the service stage's.
pub fn rkv_stage_p99_ns(sim: &Sim, class: &str) -> (u64, u64) {
    let t = sim.optrace();
    let p = |stage: &str| t.series_percentile(&format!("rkv.lat.{class}.{stage}"), 99.0);
    let queue = ["client_queue", "cq_wait", "shard_queue"]
        .map(p)
        .iter()
        .sum();
    (queue, p("service"))
}

const BATCH_BYTES: usize = 32 << 20;
const BATCHES: usize = 5;

/// Median over [`BATCHES`] of host ns per byte; `batch(count)` processes
/// `count` buffers of `len` bytes and returns the time it took.
fn ns_per_byte(len: usize, mut batch: impl FnMut(usize) -> Duration) -> f64 {
    let count = (BATCH_BYTES / len).max(1);
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| batch(count).as_nanos() as f64 / (count * len) as f64)
        .collect();
    stats::median(&per)
}

/// `rkv::checksum::crc32c` over `len`-byte buffers.
pub fn crc32c_ns_per_byte(len: usize) -> f64 {
    let buf: Vec<u8> = (0..len).map(|i| i as u8).collect();
    ns_per_byte(len, |count| {
        let t = Instant::now();
        for _ in 0..count {
            black_box(rkv::checksum::crc32c(black_box(&buf)));
        }
        t.elapsed()
    })
}

/// `Bytes::from(Vec<u8>)` of `len`-byte vectors (allocation untimed).
pub fn from_vec_ns_per_byte(len: usize) -> f64 {
    ns_per_byte(len, |count| {
        let vecs: Vec<Vec<u8>> = (0..count).map(|_| vec![7u8; len]).collect();
        let mut out = Vec::with_capacity(count);
        let t = Instant::now();
        for v in vecs {
            out.push(Bytes::from(black_box(v)));
        }
        let took = t.elapsed();
        black_box(&out);
        took
    })
}

/// `BytesMut::split_to` cutting `len`-byte buffers into `piece`-byte
/// packets front to back, as the packetising loops do.
pub fn split_to_ns_per_byte(len: usize, piece: usize) -> f64 {
    ns_per_byte(len, |count| {
        let mut bufs: Vec<BytesMut> = (0..count).map(|_| BytesMut::from(vec![7u8; len])).collect();
        let t = Instant::now();
        for b in &mut bufs {
            while !b.is_empty() {
                let n = piece.min(b.len());
                black_box(b.split_to(n));
            }
        }
        t.elapsed()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_report_positive_costs() {
        assert!(crc32c_ns_per_byte(64 << 10) > 0.0);
        assert!(from_vec_ns_per_byte(64 << 10) > 0.0);
        assert!(split_to_ns_per_byte(64 << 10, 4 << 10) > 0.0);
    }
}
