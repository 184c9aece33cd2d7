//! The repository benchmark. One command runs one workload for a given
//! seed, checks its outputs, and prints every metric by name and unit; the
//! last line of standard output is one JSON object:
//!
//! ```text
//! rdma-bb-benchmark --workload <dfsio_bb|dfsio_hdfs|kv_openloop> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run repeats *passes* — fresh deployment and inputs (set-up), then the
//! workload (measured), then a gauge of the host's speed — until
//! `--seconds` of wall-clock time have passed, and reports host times
//! (thread CPU seconds, scaled to a reference host speed) as medians over
//! passes. Simulated outputs are deterministic, so every pass must produce
//! the same digest.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and reports the per-layer metrics. See
//! `README.md` beside this crate for what each metric means.

mod calib;
mod cli;
mod clock;
mod dfsio;
mod digest;
mod kv;
mod layers;
mod probe;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::rc::Rc;

use bb_core::Scheme;
use cli::{Args, Workload};
use layers::Delta;
use probe::Probe;
use workloads::SystemKind;

/// End-to-end metrics, every workload, `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("write_mbps", "MB/s"),
    ("read_mbps", "MB/s"),
    ("durable_s", "s"),
    ("space_amp", "ratio"),
    ("max_kops", "kops"),
];

/// Per-layer metrics, every workload, `--trace 1`: (name, unit).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("simkit.events", "count"),
    ("simkit.host_ns_per_event", "ns"),
    ("simkit.background_host_s", "s"),
    ("simkit.traced_host_s", "s"),
    ("simkit.trace_overhead", "ratio"),
    ("workloads.client_host_s", "s"),
    ("workloads.verify_host_s", "s"),
    ("workloads.gen_lag_p99_us", "us"),
    ("netsim.fabric.bytes", "B"),
    ("netsim.fabric.transfers", "count"),
    ("netsim.rpc.calls", "count"),
    ("rdma.send_posts", "count"),
    ("rdma.read_bytes", "B"),
    ("rdma.write_bytes", "B"),
    ("rkv.gets", "count"),
    ("rkv.sets", "count"),
    ("rkv.hit_ratio", "ratio"),
    ("rkv.evictions", "count"),
    ("rkv.queue_p99_us", "us"),
    ("rkv.service_p99_us", "us"),
    ("rkv.get_host_s", "s"),
    ("rkv.set_host_s", "s"),
    ("rkv.crc32c_ns_per_byte", "ns/B"),
    ("bb.read.tier_buffer", "count"),
    ("bb.read.tier_lustre", "count"),
    ("bb.read.readahead_stalls", "count"),
    ("bb.mgr.chunks_flushed", "count"),
    ("bb.mgr.watermark_stalls", "count"),
    ("bb.flush_wait_s", "s"),
    ("bb.append_host_s", "s"),
    ("bb.read_host_s", "s"),
    ("lustre.oss.write_bytes", "B"),
    ("lustre.oss.queue_peak", "count"),
    ("lustre.mds.ops", "count"),
    ("hdfs.dn.write_bytes", "B"),
    ("hdfs.dn.read_bytes", "B"),
    ("hdfs.nn.ops", "count"),
    ("hdfs.append_host_s", "s"),
    ("hdfs.read_host_s", "s"),
    ("storesim.stored_bytes", "B"),
    ("bytes.from_vec_ns_per_byte", "ns/B"),
    ("bytes.split_to_ns_per_byte", "ns/B"),
];

/// Fewest untraced passes behind a reported median.
const MIN_PASSES: usize = 3;
/// Most passes in one run, whatever `--seconds` asks.
const MAX_PASSES: usize = 1000;

/// What one run reports.
#[derive(Default)]
struct Report {
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What every workload's pass reports besides its own figures.
pub struct Core {
    /// Digest of every simulated output.
    pub digest: u64,
    /// Client calls issued.
    pub attempted: u64,
    /// Client calls that failed.
    pub failed: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Simulator events in the measured phase.
    pub events: u64,
    /// Spans of a traced pass (empty when untraced).
    pub probe: Rc<Probe>,
}

/// One pass: its shared outputs, its workload's figures, and its set-up
/// and measured host seconds.
pub struct Measured<P> {
    /// Shared outputs.
    pub core: Core,
    /// The workload's figures.
    pub out: P,
    /// Host CPU seconds of deployment, input generation and prefill.
    pub setup_s: f64,
    /// Host CPU seconds of the measured phase.
    pub host_s: f64,
    /// Wall-clock seconds of the measured phase, the clock of the spans.
    pub wall_s: f64,
}

/// Passes of one run: untraced, and (with `--trace 1`) traced.
struct Passes<P> {
    plain: Vec<Measured<P>>,
    traced: Vec<Measured<P>>,
    /// The reference kernel's time right after each untraced pass (see
    /// [`calib`]).
    gauges: Vec<f64>,
    /// Peak resident set after the first pass, MiB: later passes only add
    /// allocator slack, and their number depends on host speed.
    peak_rss_mib: f64,
}

impl<P> Passes<P> {
    /// Run passes until `--seconds` of wall-clock time have passed in
    /// measured phases and host gauges.
    fn run(args: &Args, mut run: impl FnMut(bool) -> Measured<P>) -> Passes<P> {
        let mut p = Passes {
            plain: Vec::new(),
            traced: Vec::new(),
            gauges: Vec::new(),
            peak_rss_mib: 0.0,
        };
        let mut measured = 0.0;
        let mut calibrator = None;
        loop {
            let t = run(false);
            measured += t.wall_s;
            if p.plain.is_empty() {
                // before the kernel's buffers exist
                p.peak_rss_mib = peak_rss_mib();
            }
            // gauge the host for about a tenth of the pass's time
            let w = clock::Stopwatch::start();
            let gauge = calibrator
                .get_or_insert_with(calib::Calibrator::new)
                .gauge(t.wall_s / 10.0);
            measured += w.wall_s();
            p.gauges.push(gauge);
            p.plain.push(t);
            if args.trace {
                let t = run(true);
                measured += t.wall_s;
                p.traced.push(t);
            }
            let enough = args.trace || p.plain.len() >= MIN_PASSES;
            if (enough && measured >= args.seconds as f64) || p.plain.len() >= MAX_PASSES {
                return p;
            }
        }
    }

    fn first(&self) -> &Measured<P> {
        &self.plain[0]
    }

    fn last_traced(&self) -> Option<&Measured<P>> {
        self.traced.last()
    }

    fn host_median(&self) -> f64 {
        self.scaled_median(|t| t.host_s)
    }

    /// Median over untraced passes of a host time scaled to the reference
    /// speed: `secs(pass) / gauge * calib::REFERENCE_S`.
    fn scaled_median(&self, secs: impl Fn(&Measured<P>) -> f64) -> f64 {
        let scaled: Vec<f64> = self
            .plain
            .iter()
            .zip(&self.gauges)
            .map(|(t, g)| secs(t) / g * calib::REFERENCE_S)
            .collect();
        stats::median(&scaled)
    }

    fn cpu_median(&self, secs: impl Fn(&Measured<P>) -> f64) -> f64 {
        stats::median(&self.plain.iter().map(secs).collect::<Vec<_>>())
    }

    fn wall_median(passes: &[Measured<P>]) -> f64 {
        stats::median(&passes.iter().map(|t| t.wall_s).collect::<Vec<_>>())
    }

    /// Shared checks and host-clock metrics.
    fn report_common(&self, r: &mut Report) {
        let all = || self.plain.iter().chain(&self.traced);
        for t in all() {
            r.attempted += t.core.attempted;
            r.failed += t.core.failed;
            for f in &t.core.failures {
                if !r.failures.contains(f) {
                    r.failures.push(f.clone());
                }
            }
        }
        let d0 = self.first().core.digest;
        let plain_same = self.plain.iter().all(|t| t.core.digest == d0);
        let traced_same = self.traced.iter().all(|t| t.core.digest == d0);
        r.check(plain_same, || {
            "simulated outputs differ between repeat passes".into()
        });
        r.check(traced_same, || "tracing changed a simulated output".into());
        r.line(format!(
            "digest {d0:016x} over {} untraced and {} traced passes (equal: repeats {plain_same}, traced {traced_same})",
            self.plain.len(),
            self.traced.len()
        ));
        r.line(format!(
            "error_rate {} ({} failed of {} attempted)",
            r.failed as f64 / r.attempted.max(1) as f64,
            r.failed,
            r.attempted
        ));
        r.set("host_s", self.host_median());
        r.set("setup_s", self.scaled_median(|t| t.setup_s));
        r.set("peak_rss_mib", self.peak_rss_mib);
        r.line(format!(
            "unscaled medians: host_s {:.6} CPU s, setup_s {:.6} CPU s, measured phase {:.6} wall-clock s; \
             reference kernel {:.6} CPU s (scaled to {})",
            self.cpu_median(|t| t.host_s),
            self.cpu_median(|t| t.setup_s),
            Self::wall_median(&self.plain),
            stats::median(&self.gauges),
            calib::REFERENCE_S
        ));
        r.line(format!(
            "unscaled host_s per pass: {:?}",
            self.plain
                .iter()
                .map(|t| round3(t.host_s))
                .collect::<Vec<_>>()
        ));
        r.line(format!(
            "reference kernel per pass: {:?}",
            self.gauges
                .iter()
                .map(|g| (g * 1e6).round() / 1e6)
                .collect::<Vec<_>>()
        ));
    }

    /// Per-layer metrics every workload shares: simkit, the host-time
    /// split of the traced pass, and the standalone primitive timings.
    /// The split and the tracing overhead are in wall-clock seconds, the
    /// clock of the spans.
    fn report_layers(&self, r: &mut Report, crc_len: usize, split: (usize, usize)) {
        let t = self.last_traced().expect("a traced pass");
        let events = t.core.events;
        let plain = Self::wall_median(&self.plain);
        let traced = Self::wall_median(&self.traced);
        let probe = &t.core.probe;
        let client: f64 = probe.host_s_by_call().values().sum();
        let verify = probe.verify_host_s();
        let background = t.wall_s - client - verify;
        r.set("simkit.events", events as f64);
        r.set(
            "simkit.host_ns_per_event",
            self.host_median() * 1e9 / events.max(1) as f64,
        );
        r.set("simkit.background_host_s", background);
        r.set("simkit.traced_host_s", t.wall_s);
        r.set("simkit.trace_overhead", traced / plain - 1.0);
        r.set("workloads.client_host_s", client);
        r.set("workloads.verify_host_s", verify);
        r.line(format!(
            "traced pass wall-clock s {:.6} = background {background:.6} + client calls {client:.6} + output checks {verify:.6}",
            t.wall_s
        ));
        r.line(format!(
            "tracing overhead {:+.2}% (median traced {traced:.4} s vs untraced {plain:.4} s)",
            (traced / plain - 1.0) * 100.0
        ));
        for (name, s) in probe.host_s_by_call() {
            r.line(format!("client host_s {name}: {s:.6}"));
        }
        r.set(
            "rkv.crc32c_ns_per_byte",
            layers::crc32c_ns_per_byte(crc_len),
        );
        r.set(
            "bytes.from_vec_ns_per_byte",
            layers::from_vec_ns_per_byte(crc_len),
        );
        r.set(
            "bytes.split_to_ns_per_byte",
            layers::split_to_ns_per_byte(split.0, split.1),
        );
    }
}

/// Registry-derived per-layer metrics.
fn report_registry(r: &mut Report, d: &Delta) {
    for name in [
        "netsim.fabric.bytes",
        "netsim.fabric.transfers",
        "netsim.rpc.calls",
        "rdma.send_posts",
        "rdma.read_bytes",
        "rdma.write_bytes",
        "bb.read.tier_buffer",
        "bb.read.tier_lustre",
        "bb.read.readahead_stalls",
        "bb.mgr.chunks_flushed",
        "bb.mgr.watermark_stalls",
        "lustre.mds.ops",
        "hdfs.nn.ops",
    ] {
        r.set(name, d.counter(name) as f64);
    }
    let gets = d.family("rkv.server", ".gets");
    r.set("rkv.gets", gets as f64);
    r.set("rkv.sets", d.family("rkv.server", ".sets") as f64);
    let hits = d.family("rkv.server", ".hits");
    r.set(
        "rkv.hit_ratio",
        if gets == 0 {
            0.0
        } else {
            hits as f64 / gets as f64
        },
    );
    r.set("rkv.evictions", d.family("rkv.server", ".evictions") as f64);
    r.set(
        "lustre.oss.write_bytes",
        d.family("lustre.oss", ".write_bytes") as f64,
    );
    r.set(
        "lustre.oss.queue_peak",
        d.gauge_max("lustre.oss", ".queue_peak") as f64,
    );
    r.set(
        "hdfs.dn.write_bytes",
        d.family("hdfs.dn", ".write_bytes") as f64,
    );
    r.set(
        "hdfs.dn.read_bytes",
        d.family("hdfs.dn", ".read_bytes") as f64,
    );
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Percentile `q` of `samples` in µs, noting the sample count; a failed
/// check (and 0) when too few samples lie beyond it.
fn tail_us(r: &mut Report, label: &str, samples: &[u64], q: f64) -> f64 {
    match stats::tail(samples, q) {
        Ok(t) => {
            r.line(format!(
                "{label}: {} us (n={}, {} beyond)",
                us(t.value),
                t.samples,
                t.beyond
            ));
            us(t.value)
        }
        Err(e) => {
            r.failures.push(format!("{label}: {e}"));
            0.0
        }
    }
}

/// Keep memory the program frees inside the process, for the next pass to
/// reuse. By default glibc returns freed heap tops and large blocks to
/// the kernel and moves its mmap threshold with the allocation history, so
/// whether a pass page-faults its buffers in afresh (up to a third of a
/// `dfsio_hdfs` pass) depended on what earlier passes freed and flipped
/// between passes. Fixed thresholds make every pass after the first run
/// on warm memory; the first pass still faults, and `peak_rss_mib` is
/// read after it.
fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only changes glibc allocator tunables; it is
        // called before any other thread exists.
        unsafe {
            // never trim the heap top
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            // serve blocks up to glibc's largest allowed threshold
            // (32 MiB on 64-bit) from the heap, and stop adjusting it
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_dfsio(args: &Args, kind: SystemKind) -> Report {
    let size = dfsio::Size::FULL;
    let passes = Passes::run(args, |traced| dfsio::pass(kind, args.seed, &size, traced));
    let mut r = Report::default();
    passes.report_common(&mut r);
    let p = &passes.first().out;
    let read_p50 = tail_us(&mut r, "read_p50 (AnyReader::read_at)", &p.read_ns, 50.0);
    let read_p99 = tail_us(&mut r, "read_p99 (AnyReader::read_at)", &p.read_ns, 99.0);
    tail_us(&mut r, "write_p99 (AnyWriter::append)", &p.append_ns, 99.0);
    r.set("write_mbps", p.write_mbps);
    r.set("read_mbps", p.read_mbps);
    r.set("durable_s", p.durable_s);
    r.set("space_amp", p.space_amp);
    r.set("max_kops", p.read_kops);
    r.line(format!(
        "virtual: write_mbps {:.3}  durable_s {:.6}  read_mbps {:.3}  read_p50_ms {:.3}  read_p99_ms {:.3}  space_amp {:.4}",
        p.write_mbps,
        p.durable_s,
        p.read_mbps,
        read_p50 / 1e3,
        read_p99 / 1e3,
        p.space_amp
    ));
    if kind != SystemKind::Hdfs {
        // the paper's shape, E3/E4: the buffer against plain HDFS on the
        // same inputs
        let h = dfsio::pass(SystemKind::Hdfs, args.seed, &size, false);
        let (w, rd) = (
            p.write_mbps / h.out.write_mbps,
            p.read_mbps / h.out.read_mbps,
        );
        r.line(format!(
            "paper shape: BB/HDFS write {w:.2}x (want > 2.0), read {rd:.2}x (want > 4.0)"
        ));
        r.check(w > 2.0 && rd > 4.0, || {
            format!("paper shape fails: BB/HDFS write {w:.2}x, read {rd:.2}x")
        });
        r.check(h.core.failures.is_empty(), || {
            format!("HDFS reference pass: {:?}", h.core.failures)
        });
    }
    if let Some(t) = passes.last_traced() {
        passes.report_layers(&mut r, 512 << 10, (size.io_bytes as usize, 64 << 10));
        write_spans(args, &t.core.probe, &mut r);
        let calls = t.core.probe.host_s_by_call();
        let t = &t.out;
        report_registry(
            &mut r,
            &Delta {
                before: None,
                after: &t.snapshot,
            },
        );
        let call = |name: &str| calls.get(name).copied().unwrap_or(0.0);
        let (bb, hdfs) = if kind == SystemKind::Hdfs {
            (0.0, 1.0)
        } else {
            (1.0, 0.0)
        };
        r.set("bb.append_host_s", bb * call("AnyWriter::append"));
        r.set("bb.read_host_s", bb * call("AnyReader::read_at"));
        r.set("hdfs.append_host_s", hdfs * call("AnyWriter::append"));
        r.set("hdfs.read_host_s", hdfs * call("AnyReader::read_at"));
        r.set("bb.flush_wait_s", t.flush_wait_s);
        r.set("rkv.get_host_s", 0.0);
        r.set("rkv.set_host_s", 0.0);
        r.set("rkv.queue_p99_us", us(t.stage_p99_ns.0));
        r.set("rkv.service_p99_us", us(t.stage_p99_ns.1));
        r.set("workloads.gen_lag_p99_us", 0.0);
        r.set("storesim.stored_bytes", t.storesim_bytes as f64);
    }
    r
}

fn run_kv(args: &Args) -> Report {
    let size = kv::Size::full();
    let passes = Passes::run(args, |traced| kv::pass(args.seed, &size, traced));
    let mut r = Report::default();
    passes.report_common(&mut r);
    let p = &passes.first().out;
    let get_p50 = tail_us(&mut r, "get_p50 (from due time)", &p.get_ns, 50.0);
    let get_p99 = tail_us(&mut r, "get_p99 (from due time)", &p.get_ns, 99.0);
    let set_p99 = tail_us(&mut r, "set_p99 (from due time)", &p.set_ns, 99.0);
    r.set("write_mbps", p.write_mbps);
    r.set("read_mbps", p.read_mbps);
    r.set("durable_s", p.durable_s);
    r.set("space_amp", p.space_amp);
    r.set("max_kops", p.max_kops);
    let mut ladder = String::new();
    for (rate, all, late) in &p.ladder {
        let _ = write!(ladder, " {}k:{:.1}/{:.1}", rate / 1e3, us(*all), us(*late));
    }
    r.line(format!(
        "ladder get p99 us (all/last quarter), limit {} us:{ladder}",
        us(kv::LIMIT_NS)
    ));
    r.line(format!(
        "virtual: get_p50_us {get_p50}  get_p99_us {get_p99}  set_p99_us {set_p99}  kv_max_kops {}  \
         hit MB/s {:.4}  set MB/s {:.4}",
        p.max_kops, p.read_mbps, p.write_mbps
    ));
    if let Some(t) = passes.last_traced() {
        passes.report_layers(&mut r, size.value_bytes, (size.value_bytes, 64));
        let probe = &t.core.probe;
        let t = &t.out;
        report_registry(
            &mut r,
            &Delta {
                before: Some(&t.snap_before),
                after: &t.snap_after,
            },
        );
        let calls = probe.host_s_by_call();
        let call = |name: &str| calls.get(name).copied().unwrap_or(0.0);
        r.set("rkv.get_host_s", call("KvClient::get"));
        r.set("rkv.set_host_s", call("KvClient::set"));
        r.set("rkv.queue_p99_us", us(t.stage_p99_ns.0));
        r.set("rkv.service_p99_us", us(t.stage_p99_ns.1));
        let mut lag = t.lag_ns.clone();
        lag.sort_unstable();
        r.set(
            "workloads.gen_lag_p99_us",
            us(stats::nearest_rank(&lag, 99.0)),
        );
        for name in [
            "bb.flush_wait_s",
            "bb.append_host_s",
            "bb.read_host_s",
            "hdfs.append_host_s",
            "hdfs.read_host_s",
            "storesim.stored_bytes",
        ] {
            r.set(name, 0.0);
        }
        write_spans(args, probe, &mut r);
    }
    r
}

/// Write the traced pass's spans to `.bench_spans/<workload>.jsonl` in the
/// working directory (one file per workload, replaced by each run).
fn write_spans(args: &Args, probe: &Probe, r: &mut Report) {
    let dir = std::path::Path::new(".bench_spans");
    let path = dir.join(format!("{}.jsonl", args.workload));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, probe.to_jsonl())) {
        Ok(()) => r.line(format!(
            "{} spans written to {}",
            probe.span_count(),
            path.display()
        )),
        Err(e) => r.line(format!(
            "warning: spans not written to {}: {e}",
            path.display()
        )),
    }
}

/// The final JSON line.
fn json(r: &Report, declared: &[(&str, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = r.values.get(name).copied().unwrap_or(f64::NAN);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        r.failures.is_empty(),
        r.attempted.max(1),
        r.failed
    )
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    keep_freed_memory();
    let mut r = match args.workload {
        Workload::DfsioBb => run_dfsio(&args, SystemKind::Bb(Scheme::AsyncLustre)),
        Workload::DfsioHdfs => run_dfsio(&args, SystemKind::Hdfs),
        Workload::KvOpenloop => run_kv(&args),
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in declared {
        r.check(r.values.get(name).is_some_and(|v| v.is_finite()), || {
            format!("metric {name} not measured")
        });
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload, args.seed, args.trace
    );
    for l in &r.lines {
        println!("  {l}");
    }
    for (name, unit) in declared {
        println!(
            "  {name} = {} {unit}",
            r.values.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    for f in &r.failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("{}", json(&r, declared));
    if r.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` at the repository
    /// root must agree, name for name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            compact.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
        for w in Workload::ALL {
            assert!(compact.contains(&format!("\"name\":\"{w}\",\"why\"")));
        }
    }

    #[test]
    fn json_line_has_exactly_the_declared_metrics() {
        let mut r = Report::default();
        r.set("host_s", 1.25);
        r.attempted = 3;
        let line = json(&r, &[("host_s", "s"), ("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"host_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
