//! `dfsio_bb` and `dfsio_hdfs`: TestDFSIO — every file written by its
//! own task, drained to the backing store, then read back and checked
//! against the payload generator — on BB-Async or plain HDFS at
//! `TestbedConfig::default()`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bb_core::fs::FsError;
use bb_core::manager::lustre_path;
use bb_core::FileState;
use simkit::future::join_all;
use simkit::telemetry::Snapshot;
use simkit::SimRng;
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::{Core, Measured};

use crate::clock::Stopwatch;
use crate::digest::Digest;
use crate::layers;
use crate::probe::Probe;

/// Workload shape. [`Size::FULL`] is the benchmark; tests use smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Files, one writer and one reader task each.
    pub files: usize,
    /// Smallest file size.
    pub file_bytes: u64,
    /// Bytes per append and per read call.
    pub io_bytes: u64,
    /// Largest seeded extra on top of `file_bytes`. Every file gets the
    /// same extra: unequal files would let the seed pick which HDFS
    /// pipeline finishes last and split the write time into two modes.
    pub extra_bytes: u64,
}

impl Size {
    /// 16 files of 16 MiB plus up to 512 KiB in 256 KiB calls: at least
    /// 1024 reads, enough for ten samples beyond the p99.
    pub const FULL: Size = Size {
        files: 16,
        file_bytes: 16 << 20,
        io_bytes: 256 << 10,
        extra_bytes: 512 << 10,
    };
}

/// Generated inputs: file names, size and payload, from the seed alone.
#[derive(Clone)]
pub struct Inputs {
    /// Directory of the run's files.
    pub dir: String,
    /// Number of files.
    pub files: usize,
    /// Size of every file.
    pub file_bytes: u64,
    /// Payload-generator cursor of each file.
    pub cursors: Vec<u64>,
    /// The payload generator.
    pub pool: PayloadPool,
    /// Bytes per call.
    pub io_bytes: u64,
}

impl Inputs {
    /// Path of file `i`.
    pub fn path(&self, i: usize) -> String {
        format!("{}/test_io_{i}", self.dir)
    }

    /// The `k`-th `len`-byte piece file `i` is written with.
    fn piece(&self, i: usize, k: u64, len: u64) -> bytes::Bytes {
        self.pool.slice(self.cursors[i] + k, len as usize)
    }
}

/// Generate a pass's inputs from `seed`.
pub fn inputs(seed: u64, size: &Size) -> Inputs {
    let rng = SimRng::seed_from(seed);
    let dir = format!("/bench/dfsio-{:08x}", rng.range(0, 1 << 32));
    let step = 4096;
    let file_bytes = size.file_bytes + rng.range(0, size.extra_bytes / step + 1) * step;
    let cursors = (0..size.files).map(|_| rng.range(0, 1 << 40)).collect();
    let pool = PayloadPool::new(rng.range(0, u64::MAX), 4 << 20);
    Inputs {
        dir,
        files: size.files,
        file_bytes,
        cursors,
        pool,
        io_bytes: size.io_bytes,
    }
}

/// Figures of one pass.
pub struct Pass {
    /// User MB per virtual second, first create to last close.
    pub write_mbps: f64,
    /// User MB per virtual second, first open to last read.
    pub read_mbps: f64,
    /// Virtual seconds from the first create until every file is durable
    /// on its backing store.
    pub durable_s: f64,
    /// Virtual seconds spent waiting for the drain after the last close.
    pub flush_wait_s: f64,
    /// Bytes on every tier over user bytes, end of run.
    pub space_amp: f64,
    /// Bytes held by `storesim` devices (Lustre OSTs, HDFS disks).
    pub storesim_bytes: u64,
    /// Latency of every `AnyWriter::append`, ns.
    pub append_ns: Vec<u64>,
    /// Latency of every `AnyReader::read_at`, ns.
    pub read_ns: Vec<u64>,
    /// Read-phase calls per virtual second, thousands.
    pub read_kops: f64,
    /// Registry at the end of the pass.
    pub snapshot: Snapshot,
    /// rkv multi-get stage p99s, traced passes only (see
    /// [`layers::rkv_stage_p99_ns`]).
    pub stage_p99_ns: (u64, u64),
}

/// Call accounting shared by a pass's tasks.
#[derive(Default)]
struct Calls {
    attempted: Cell<u64>,
    failed: Cell<u64>,
    failures: RefCell<Vec<String>>,
}

impl Calls {
    fn fail(&self, what: String) {
        let mut f = self.failures.borrow_mut();
        if f.len() < 5 {
            f.push(what);
        }
    }

    fn result<T>(&self, r: Result<T, FsError>, what: impl FnOnce() -> String) -> Option<T> {
        self.attempted.set(self.attempted.get() + 1);
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed.set(self.failed.get() + 1);
                self.fail(format!("{}: {e}", what()));
                None
            }
        }
    }
}

struct Body {
    write_ns: u64,
    durable_ns: u64,
    flush_wait_ns: u64,
    read_ns: u64,
    stored: u64,
    storesim: u64,
    snapshot: Snapshot,
    stage_p99_ns: (u64, u64),
}

/// One pass: deploy and generate inputs (set-up), then write, drain and
/// read (measured).
pub fn pass(kind: SystemKind, seed: u64, size: &Size, traced: bool) -> Measured<Pass> {
    let t_setup = Stopwatch::start();
    let tb = Testbed::build(kind, TestbedConfig::default());
    let inp = Rc::new(inputs(seed, size));
    let setup_s = t_setup.cpu_s();

    let sim = tb.sim.clone();
    if traced {
        sim.optrace().enable();
    }
    let probe = Rc::new(Probe::new(sim.clone(), traced));
    let calls = Rc::new(Calls::default());
    let append_ns = Rc::new(RefCell::new(Vec::new()));
    let read_ns = Rc::new(RefCell::new(Vec::new()));
    let t_run = Stopwatch::start();
    let (tb, body) = {
        let (probe, calls, inp) = (Rc::clone(&probe), Rc::clone(&calls), Rc::clone(&inp));
        let (append_ns, read_ns) = (Rc::clone(&append_ns), Rc::clone(&read_ns));
        sim.block_on(async move {
            let body = run(&tb, inp, probe, calls, append_ns, read_ns).await;
            (tb, body)
        })
    };
    let (host_s, wall_s) = (t_run.cpu_s(), t_run.wall_s());
    let events = sim.events_processed();
    drop(tb);

    let total = inp.files as u64 * inp.file_bytes;
    let append_ns = append_ns.take();
    let read_ns = read_ns.take();
    let mut d = Digest::default();
    d.series("append", &append_ns);
    d.series("read", &read_ns);
    for v in [
        body.write_ns,
        body.durable_ns,
        body.flush_wait_ns,
        body.read_ns,
        body.stored,
        body.storesim,
        events,
    ] {
        d.u64(v);
    }
    d.bytes(body.snapshot.to_json().as_bytes());
    let secs = |ns: u64| ns as f64 / 1e9;
    let out = Pass {
        write_mbps: total as f64 / 1e6 / secs(body.write_ns),
        read_mbps: total as f64 / 1e6 / secs(body.read_ns),
        durable_s: secs(body.durable_ns),
        flush_wait_s: secs(body.flush_wait_ns),
        space_amp: body.stored as f64 / total as f64,
        storesim_bytes: body.storesim,
        read_kops: read_ns.len() as f64 / 1e3 / secs(body.read_ns),
        append_ns,
        read_ns,
        snapshot: body.snapshot,
        stage_p99_ns: body.stage_p99_ns,
    };
    let core = Core {
        digest: d.finish(),
        attempted: calls.attempted.get(),
        failed: calls.failed.get(),
        failures: calls.failures.take(),
        events,
        probe,
    };
    Measured {
        core,
        out,
        setup_s,
        host_s,
        wall_s,
    }
}

async fn run(
    tb: &Testbed,
    inp: Rc<Inputs>,
    probe: Rc<Probe>,
    calls: Rc<Calls>,
    append_ns: Rc<RefCell<Vec<u64>>>,
    read_ns: Rc<RefCell<Vec<u64>>>,
) -> Body {
    let sim = tb.sim.clone();
    let fs_for = tb.fs_for();
    let files = inp.files;
    let t0 = sim.now().as_nanos();

    probe.begin_phase("write");
    let mut tasks = Vec::with_capacity(files);
    for i in 0..files {
        let fs = fs_for(tb.nodes[i % tb.nodes.len()]);
        let (sim, inp, probe, calls, lat) = (
            sim.clone(),
            Rc::clone(&inp),
            Rc::clone(&probe),
            Rc::clone(&calls),
            Rc::clone(&append_ns),
        );
        tasks.push(async move {
            let path = inp.path(i);
            let id = i as u64;
            let r = probe.call("AnyFs::create", id, fs.create(&path)).await;
            let w = calls.result(r, || format!("create {path}"))?;
            let (size, io) = (inp.file_bytes, inp.io_bytes);
            let mut off = 0;
            while off < size {
                let len = io.min(size - off);
                let piece = inp.piece(i, off / io, len);
                let t = sim.now().as_nanos();
                let r = probe.call("AnyWriter::append", id, w.append(piece)).await;
                calls.result(r, || format!("append {path} at {off}"))?;
                lat.borrow_mut().push(sim.now().as_nanos() - t);
                off += len;
            }
            let r = probe.call("AnyWriter::close", id, w.close()).await;
            calls.result(r, || format!("close {path}"))
        });
    }
    join_all(&sim, tasks).await;
    let write_end = sim.now().as_nanos();
    probe.end_phase();

    // drain: BB-Async acks writes from the buffer, so a file is durable
    // only once the manager reports it flushed to Lustre
    let mut durable_end = write_end;
    if let Some(bb) = &tb.bb {
        probe.begin_phase("drain");
        let client = bb.client(tb.nodes[0]);
        for i in 0..files {
            let path = inp.path(i);
            let r = probe
                .call(
                    "BbClient::wait_flushed",
                    i as u64,
                    client.wait_flushed(&path),
                )
                .await
                .map_err(FsError::from);
            match calls.result(r, || format!("wait_flushed {path}")) {
                Some(FileState::Flushed) | None => {}
                Some(state) => calls.fail(format!("{path} not durable after drain: {state:?}")),
            }
        }
        durable_end = sim.now().as_nanos();
        let lustre = tb.lustre.client(tb.nodes[0]);
        for i in 0..files {
            let lpath = lustre_path(&inp.path(i));
            let r = probe
                .call("LustreClient::open", i as u64, lustre.open(&lpath))
                .await
                .map_err(FsError::from);
            if let Some(f) = calls.result(r, || format!("lustre open {lpath}")) {
                if f.size() != inp.file_bytes {
                    calls.fail(format!(
                        "{lpath}: {} bytes on Lustre, wrote {}",
                        f.size(),
                        inp.file_bytes
                    ));
                }
            }
        }
        probe.end_phase();
    }

    probe.begin_phase("read");
    let read_start = sim.now().as_nanos();
    let mut tasks = Vec::with_capacity(files);
    for i in 0..files {
        let fs = fs_for(tb.nodes[i % tb.nodes.len()]);
        let (sim, inp, probe, calls, lat) = (
            sim.clone(),
            Rc::clone(&inp),
            Rc::clone(&probe),
            Rc::clone(&calls),
            Rc::clone(&read_ns),
        );
        tasks.push(async move {
            let path = inp.path(i);
            let id = i as u64;
            let r = probe.call("AnyFs::open", id, fs.open(&path)).await;
            let Some(reader) = calls.result(r, || format!("open {path}")) else {
                return;
            };
            let (size, io) = (inp.file_bytes, inp.io_bytes);
            if reader.size() != size {
                calls.fail(format!("{path}: size {} != {size}", reader.size()));
                return;
            }
            let mut off = 0;
            while off < size {
                let len = io.min(size - off);
                let t = sim.now().as_nanos();
                let r = probe
                    .call("AnyReader::read_at", id, reader.read_at(off, len))
                    .await;
                let Some(data) = calls.result(r, || format!("read {path} at {off}")) else {
                    return;
                };
                lat.borrow_mut().push(sim.now().as_nanos() - t);
                if !probe.verify(|| data == inp.piece(i, off / io, len)) {
                    calls.fail(format!("{path}: content differs from the payload at {off}"));
                }
                off += len;
            }
        });
    }
    join_all(&sim, tasks).await;
    let read_end = sim.now().as_nanos();
    probe.end_phase();

    let storesim = tb.lustre.stored_bytes() + tb.local_storage_used();
    let buffered = tb.bb.as_ref().map_or(0, |bb| bb.buffered_bytes());
    let stage_p99_ns = if probe.enabled() {
        layers::rkv_stage_p99_ns(&sim, "multi_get")
    } else {
        (0, 0)
    };
    let snapshot = sim.metrics().snapshot();
    tb.shutdown();
    Body {
        write_ns: write_end - t0,
        durable_ns: durable_end - t0,
        flush_wait_ns: durable_end - write_end,
        read_ns: read_end - read_start,
        stored: storesim + buffered,
        storesim,
        snapshot,
        stage_p99_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        files: 3,
        file_bytes: 1 << 20,
        io_bytes: 256 << 10,
        extra_bytes: 256 << 10,
    };

    #[test]
    fn inputs_follow_the_seed() {
        let a = inputs(1, &Size::FULL);
        assert_eq!(a.files, 16);
        assert!((16 << 20..=(16 << 20) + (512 << 10)).contains(&a.file_bytes));
        assert_eq!(a.file_bytes % 4096, 0);
        let b = inputs(1, &Size::FULL);
        assert_eq!(
            (&a.dir, a.file_bytes, &a.cursors),
            (&b.dir, b.file_bytes, &b.cursors)
        );
        assert_eq!(a.piece(3, 2, 100), b.piece(3, 2, 100));
        let c = inputs(2, &Size::FULL);
        assert_ne!((&a.dir, &a.cursors), (&c.dir, &c.cursors));
        assert_ne!(a.piece(3, 2, 100), c.piece(3, 2, 100));
    }

    #[test]
    fn digest_is_stable_on_a_tiny_size() {
        for kind in [
            SystemKind::Bb(bb_core::Scheme::AsyncLustre),
            SystemKind::Hdfs,
        ] {
            let a = pass(kind, 5, &TINY, false).core;
            let b = pass(kind, 5, &TINY, false).core;
            let t = pass(kind, 5, &TINY, true).core;
            assert!(a.failures.is_empty(), "{kind:?}: {:?}", a.failures);
            assert_eq!(a.digest, b.digest, "{kind:?}: repeat");
            assert_eq!(
                a.digest, t.digest,
                "{kind:?}: tracing changed a simulated output"
            );
            assert!(t.probe.span_count() > 0);
            let c = pass(kind, 6, &TINY, false).core;
            assert_ne!(a.digest, c.digest, "{kind:?}: seed ignored");
        }
    }
}
