//! `kv_openloop`: an open-loop Poisson stream of gets and sets against
//! four rkv servers on the single-context path (`KvServerConfig` defaults:
//! one core, no completion batching), then a short ladder of higher rates
//! to find the highest one whose get p99 meets [`LIMIT_NS`].
//!
//! Every op is timed from when it was *due*, not from when a connection
//! got round to sending it, so a stall inflates the samples queued behind
//! it. The working set is about twice the tier's memory: misses and slab
//! evictions occur, and writes run beside reads on the same keys.

use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use rdmasim::RdmaStack;
use rkv::server::KvServerConfig;
use rkv::slab::SlabConfig;
use rkv::{KvClient, KvClientConfig, KvServer};
use simkit::telemetry::Snapshot;
use simkit::{dur, Sim, SimRng};
use workloads::traffic::{
    ArrivalProcess, OpClass, OpEvent, TenantSpec, TrafficEngine, TrafficSpec,
};

use crate::clock::Stopwatch;
use crate::digest::Digest;
use crate::layers;
use crate::probe::Probe;
use crate::stats;
use crate::{Core, Measured};

/// Get p99 (from due time) a ladder rate must meet to count as sustained.
pub const LIMIT_NS: u64 = 50_000;

/// Workload shape. [`Size::full`] is the benchmark; tests use smaller ones.
#[derive(Debug, Clone)]
pub struct Size {
    /// rkv servers.
    pub servers: usize,
    /// Slab memory per server.
    pub mem_per_server: u64,
    /// Value length of every set.
    pub value_bytes: usize,
    /// Keyspace (Zipf ranks).
    pub keys: usize,
    /// Zipf skew of key popularity.
    pub skew: f64,
    /// Share of ops that are gets.
    pub get_ratio: f64,
    /// Nominal offered rate, ops/s.
    pub rate: f64,
    /// Virtual length of the nominal phase.
    pub horizon_ns: u64,
    /// Ladder rates, ops/s, ascending.
    pub ladder: Vec<f64>,
    /// Virtual length of each ladder rung.
    pub rung_ns: u64,
    /// Client nodes the arrivals are dealt to round-robin; each holds one
    /// connection per server, serving one request at a time.
    pub clients: usize,
}

impl Size {
    /// The benchmark's shape: 4 × 8 MiB of slab memory holds about 92k
    /// 256-byte items, so 180k keys are about twice the tier.
    pub fn full() -> Size {
        Size {
            servers: 4,
            mem_per_server: 8 << 20,
            value_bytes: 256,
            keys: 180_000,
            skew: 0.99,
            get_ratio: 0.9,
            rate: 100_000.0,
            horizon_ns: 1_000_000_000,
            ladder: vec![200e3, 250e3, 300e3, 350e3, 400e3],
            rung_ns: 100_000_000,
            clients: 1,
        }
    }

    /// Tier memory over all servers.
    pub fn tier_bytes(&self) -> u64 {
        self.mem_per_server * self.servers as u64
    }
}

/// Generated inputs: a pure function of the seed and the size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Arrivals of the nominal phase.
    pub nominal: Vec<OpEvent>,
    /// Arrivals of each ladder rung.
    pub rungs: Vec<Vec<OpEvent>>,
}

fn spec(size: &Size, rate: f64, horizon_ns: u64) -> TrafficSpec {
    TrafficSpec {
        tenants: vec![TenantSpec {
            tenant: 1,
            arrivals: ArrivalProcess::Poisson { rate },
            logical_clients: 1_000_000,
            keys: size.keys,
            skew: size.skew,
            get_ratio: size.get_ratio,
            value_size: size.value_bytes,
        }],
        horizon_ns,
    }
}

/// Generate every arrival of a pass from `seed`.
pub fn inputs(seed: u64, size: &Size) -> Inputs {
    let rng = SimRng::seed_from(seed);
    let nominal =
        TrafficEngine::new(&spec(size, size.rate, size.horizon_ns), &rng.fork()).collect_all();
    let rungs = size
        .ladder
        .iter()
        .map(|&r| TrafficEngine::new(&spec(size, r, size.rung_ns), &rng.fork()).collect_all())
        .collect();
    Inputs { nominal, rungs }
}

/// The value stored under `rank`: its rank, then filler, `len` bytes long.
pub fn value_for(rank: usize, len: usize) -> Bytes {
    let mut v = vec![0u8; len];
    let head = (rank as u64).to_le_bytes();
    let n = head.len().min(len);
    v[..n].copy_from_slice(&head[..n]);
    for (i, b) in v.iter_mut().enumerate().skip(n) {
        *b = (rank as u8).wrapping_add(i as u8);
    }
    Bytes::from(v)
}

/// Whether `data` is a value [`value_for`] writes under `rank`.
pub fn value_matches(rank: usize, len: usize, data: &[u8]) -> bool {
    data.len() == len && data[..len.min(8)] == (rank as u64).to_le_bytes()[..len.min(8)]
}

/// Timing of one open-loop op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the op was due.
    pub due_ns: u64,
    /// When its connection issued it.
    pub issued_ns: u64,
    /// When it completed.
    pub done_ns: u64,
}

impl Sample {
    /// Latency counted from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator issued the op.
    pub fn lag_ns(&self) -> u64 {
        self.issued_ns - self.due_ns
    }
}

/// Replay `due` (offsets from `start_ns`) open-loop: each arrival is
/// spawned as its own task the moment it is due, whatever is still in
/// flight, so the generator is never late and any queueing happens inside
/// the system. `op(i, t)` builds arrival `i`'s operation. Returns each
/// op's sample and result, in arrival order.
pub async fn drive<T, R, F, Fut>(
    sim: &Sim,
    start_ns: u64,
    due: Vec<(u64, T)>,
    op: F,
) -> Vec<(Sample, R)>
where
    R: 'static,
    F: Fn(usize, T) -> Fut,
    Fut: Future<Output = R> + 'static,
{
    let mut handles = Vec::with_capacity(due.len());
    for (i, (at, t)) in due.into_iter().enumerate() {
        let due_ns = start_ns + at;
        let now = sim.now().as_nanos();
        if due_ns > now {
            sim.sleep(dur::ns(due_ns - now)).await;
        }
        let issued_ns = sim.now().as_nanos();
        let (s, fut) = (sim.clone(), op(i, t));
        handles.push(sim.spawn(async move {
            let r = fut.await;
            let sample = Sample {
                due_ns,
                issued_ns,
                done_ns: s.now().as_nanos(),
            };
            (sample, r)
        }));
    }
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

/// Result of one op.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Hit(usize),
    Miss,
    Set(usize),
    Failed(String),
}

/// Nominal-phase and ladder figures of one pass.
pub struct Pass {
    /// Nominal-phase get latencies from due time, ns.
    pub get_ns: Vec<u64>,
    /// Nominal-phase set latencies from due time, ns.
    pub set_ns: Vec<u64>,
    /// Nominal-phase generator lag, ns.
    pub lag_ns: Vec<u64>,
    /// Get-hit value MB per virtual second, nominal phase.
    pub read_mbps: f64,
    /// Set value MB per virtual second, nominal phase.
    pub write_mbps: f64,
    /// Virtual seconds from the first due op to the last completion.
    pub durable_s: f64,
    /// Tier memory over the value bytes resident at the end.
    pub space_amp: f64,
    /// Highest sustained ladder rate, kops/s.
    pub max_kops: f64,
    /// Per rung: (rate, get p99 ns, last-quarter get p99 ns).
    pub ladder: Vec<(f64, u64, u64)>,
    /// Registry after set-up.
    pub snap_before: Snapshot,
    /// Registry at the end of the pass.
    pub snap_after: Snapshot,
    /// rkv get stage p99s, traced passes only (see
    /// [`layers::rkv_stage_p99_ns`]).
    pub stage_p99_ns: (u64, u64),
}

/// One pass: deploy, generate arrivals, prefill (set-up), then the nominal
/// phase and the ladder (measured).
pub fn pass(seed: u64, size: &Size, traced: bool) -> Measured<Pass> {
    let t_setup = Stopwatch::start();
    let sim = Sim::new();
    let fabric = Fabric::new(
        sim.clone(),
        size.servers + size.clients,
        NetConfig::default(),
    );
    let stack = RdmaStack::new(fabric);
    let server_config = KvServerConfig {
        slab: SlabConfig {
            mem_limit: size.mem_per_server,
            ..SlabConfig::default()
        },
        ..KvServerConfig::default()
    };
    let servers: Vec<Rc<KvServer>> = (0..size.servers)
        .map(|i| KvServer::new(Rc::clone(&stack), NodeId(i as u32), server_config))
        .collect();
    let clients: Vec<Rc<KvClient>> = (0..size.clients)
        .map(|c| {
            KvClient::new(
                Rc::clone(&stack),
                NodeId((size.servers + c) as u32),
                servers.clone(),
                KvClientConfig::default(),
            )
        })
        .collect();
    let inp = inputs(seed, size);
    // prefill coldest first through the servers' stores, so the hottest
    // keys are the ones resident when the tier fills
    for rank in (0..size.keys).rev() {
        let key = format!("t1-k{rank}");
        let idx = clients[0].route(key.as_bytes()).expect("route");
        servers[idx]
            .store()
            .set(key.as_bytes(), value_for(rank, size.value_bytes), 0, 0, 0)
            .expect("prefill set");
    }
    // open every connection before the clock starts
    let warm = clients.clone();
    sim.block_on(async move {
        for c in warm {
            c.stats_all().await.expect("connect");
        }
    });
    let setup_s = t_setup.cpu_s();

    if traced {
        sim.optrace().enable();
    }
    let probe = Rc::new(Probe::new(sim.clone(), traced));
    let events0 = sim.events_processed();
    let snap_before = sim.metrics().snapshot();
    let t_run = Stopwatch::start();
    let run = {
        let (s, probe, size) = (sim.clone(), Rc::clone(&probe), size.clone());
        sim.block_on(async move { run(s, clients, inp, size, probe).await })
    };
    let (host_s, wall_s) = (t_run.cpu_s(), t_run.wall_s());
    let snap_after = sim.metrics().snapshot();
    let events = sim.events_processed() - events0;
    let stage_p99_ns = if traced {
        layers::rkv_stage_p99_ns(&sim, "get")
    } else {
        (0, 0)
    };
    let resident: u64 = servers.iter().map(|s| s.store().stats().items).sum();
    drop(servers);
    sim.reset();

    let Run {
        nominal,
        nominal_start,
        ladder,
    } = run;
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let (mut get_ns, mut set_ns, mut lag_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hit_bytes, mut set_bytes, mut last_done) = (0u64, 0u64, nominal_start);
    let mut attempted = nominal.len() as u64;
    for (s, r) in &nominal {
        lag_ns.push(s.lag_ns());
        last_done = last_done.max(s.done_ns);
        match r {
            Outcome::Hit(n) => {
                hit_bytes += *n as u64;
                get_ns.push(s.latency_ns());
            }
            Outcome::Miss => get_ns.push(s.latency_ns()),
            Outcome::Set(n) => {
                set_bytes += *n as u64;
                set_ns.push(s.latency_ns());
            }
            Outcome::Failed(e) => {
                failed += 1;
                if failures.len() < 5 {
                    failures.push(e.clone());
                }
            }
        }
    }
    let mut rungs = Vec::new();
    let mut d = Digest::default();
    for (rate, results) in &ladder {
        attempted += results.len() as u64;
        let start = results.iter().map(|(s, _)| s.due_ns).min().unwrap_or(0);
        let quarter = start + size.rung_ns * 3 / 4;
        let mut all = Vec::new();
        let mut late = Vec::new();
        for (s, r) in results {
            d.u64(s.due_ns);
            d.u64(s.done_ns);
            let lat = match r {
                Outcome::Hit(_) | Outcome::Miss => s.latency_ns(),
                Outcome::Set(_) => continue,
                Outcome::Failed(e) => {
                    failed += 1;
                    if failures.len() < 5 {
                        failures.push(e.clone());
                    }
                    // a refused op misses every latency limit
                    u64::MAX
                }
            };
            all.push(lat);
            if s.due_ns >= quarter {
                late.push(lat);
            }
        }
        let mut p = |v: &[u64]| match stats::tail(v, 99.0) {
            Ok(t) => t.value,
            Err(e) => {
                failures.push(format!("ladder {rate}: {e}"));
                u64::MAX
            }
        };
        rungs.push((*rate, p(&all), p(&late)));
    }
    let max_rate = sustained_rate(&rungs, LIMIT_NS);
    if max_rate == 0.0 {
        failures.push(format!(
            "no ladder rate met get p99 <= {} us",
            LIMIT_NS / 1000
        ));
    }
    let window_s = (last_done - nominal_start) as f64 / 1e9;
    d.series("get", &get_ns);
    d.series("set", &set_ns);
    d.series("lag", &lag_ns);
    for v in [
        hit_bytes,
        set_bytes,
        last_done - nominal_start,
        resident,
        events,
    ] {
        d.u64(v);
    }
    d.bytes(snap_after.to_json().as_bytes());
    let out = Pass {
        read_mbps: hit_bytes as f64 / 1e6 / window_s,
        write_mbps: set_bytes as f64 / 1e6 / window_s,
        durable_s: window_s,
        space_amp: size.tier_bytes() as f64 / (resident * size.value_bytes as u64).max(1) as f64,
        max_kops: max_rate / 1e3,
        ladder: rungs,
        stage_p99_ns,
        get_ns,
        set_ns,
        lag_ns,
        snap_before,
        snap_after,
    };
    let core = Core {
        digest: d.finish(),
        attempted,
        failed,
        failures,
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

struct Run {
    nominal: Vec<(Sample, Outcome)>,
    nominal_start: u64,
    ladder: Vec<(f64, Vec<(Sample, Outcome)>)>,
}

async fn run(
    sim: Sim,
    clients: Vec<Rc<KvClient>>,
    inp: Inputs,
    size: Size,
    probe: Rc<Probe>,
) -> Run {
    let value_bytes = size.value_bytes;
    let op = |i: usize, ev: OpEvent| {
        let (client, probe) = (Rc::clone(&clients[i % clients.len()]), Rc::clone(&probe));
        async move {
            let key = ev.key();
            let id = ev.at_ns;
            match ev.class {
                OpClass::Get => match probe
                    .call("KvClient::get", id, client.get(key.as_bytes()))
                    .await
                {
                    Ok(Some(v)) => {
                        if probe.verify(|| value_matches(ev.rank, value_bytes, &v.data)) {
                            Outcome::Hit(v.data.len())
                        } else {
                            Outcome::Failed(format!(
                                "get {key}: wrong value of {} bytes",
                                v.data.len()
                            ))
                        }
                    }
                    Ok(None) => Outcome::Miss,
                    Err(e) => Outcome::Failed(format!("get {key}: {e:?}")),
                },
                OpClass::Set => {
                    let value = value_for(ev.rank, value_bytes);
                    match probe
                        .call("KvClient::set", id, client.set(key.as_bytes(), value, 0, 0))
                        .await
                    {
                        Ok(_) => Outcome::Set(value_bytes),
                        Err(e) => Outcome::Failed(format!("set {key}: {e:?}")),
                    }
                }
            }
        }
    };
    let with_due = |evs: Vec<OpEvent>| evs.into_iter().map(|e| (e.at_ns, e)).collect::<Vec<_>>();
    probe.begin_phase("nominal");
    let nominal_start = sim.now().as_nanos();
    let nominal = drive(&sim, nominal_start, with_due(inp.nominal), op).await;
    probe.end_phase();
    let mut ladder = Vec::new();
    for (rate, evs) in size.ladder.iter().zip(inp.rungs) {
        probe.begin_phase(format!("ladder_{}k", rate / 1e3));
        let start = sim.now().as_nanos();
        ladder.push((*rate, drive(&sim, start, with_due(evs), op).await));
        probe.end_phase();
    }
    Run {
        nominal,
        nominal_start,
        ladder,
    }
}

/// The highest sustained rate of a ladder of `(rate, get p99, last-quarter
/// get p99)` rungs: a rung holds when both p99s meet `limit` (the second
/// rules out a growing backlog). Interpolates linearly in p99 between the
/// last rung that holds and the first that does not; the top rate when
/// every rung holds, 0 when the first does not.
pub fn sustained_rate(rungs: &[(f64, u64, u64)], limit: u64) -> f64 {
    let figure = |&(_, all, late): &(f64, u64, u64)| all.max(late) as f64;
    let Some(j) = rungs.iter().position(|r| figure(r) > limit as f64) else {
        return rungs.last().map_or(0.0, |r| r.0);
    };
    if j == 0 {
        return 0.0;
    }
    let (lo, hi) = (&rungs[j - 1], &rungs[j]);
    let (f_lo, f_hi) = (figure(lo), figure(hi));
    lo.0 + (hi.0 - lo.0) * (limit as f64 - f_lo) / (f_hi - f_lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Size {
        Size {
            servers: 2,
            mem_per_server: 1 << 20,
            keys: 4000,
            rate: 20_000.0,
            horizon_ns: 60_000_000,
            ladder: vec![40e3, 60e3],
            rung_ns: 120_000_000,
            clients: 2,
            ..Size::full()
        }
    }

    #[test]
    fn arrivals_are_a_pure_function_of_the_seed() {
        let s = tiny();
        assert_eq!(inputs(5, &s), inputs(5, &s));
        assert_ne!(inputs(5, &s).nominal, inputs(6, &s).nominal);
        let a = inputs(5, &s);
        assert!(a.nominal.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a
            .nominal
            .iter()
            .all(|e| e.at_ns < s.horizon_ns && e.rank < s.keys));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // one serial resource, ops due every 10 us; the second op holds it
        // for 35 us, so the two behind it wait, and their latency counted
        // from the due time includes the wait
        let sim = Sim::new();
        let s = sim.clone();
        let service = [5u64, 35, 5, 5];
        let due: Vec<(u64, u64)> = (0..4)
            .map(|i| (i * 10_000, service[i as usize] * 1000))
            .collect();
        let samples = sim.block_on(async move {
            let lock = Rc::new(simkit::sync::semaphore::Semaphore::new(1));
            let op = |_i: usize, ns: u64| {
                let (s, lock) = (s.clone(), Rc::clone(&lock));
                async move {
                    let _held = lock.acquire().await;
                    s.sleep(dur::ns(ns)).await;
                }
            };
            drive(&s, 1_000, due, op).await
        });
        let lat: Vec<u64> = samples.iter().map(|(s, _)| s.latency_ns()).collect();
        assert_eq!(lat, vec![5_000, 35_000, 30_000, 25_000]);
        // the generator itself is never late
        assert!(samples.iter().all(|(s, _)| s.lag_ns() == 0));
        assert_eq!(samples[3].0.due_ns, 31_000);
    }

    #[test]
    fn sustained_rate_interpolates_at_the_first_miss() {
        let l = 50;
        assert_eq!(
            sustained_rate(&[(100.0, 10, 10), (200.0, 20, 30)], l),
            200.0
        );
        assert_eq!(sustained_rate(&[(100.0, 60, 10), (200.0, 20, 30)], l), 0.0);
        // 100 holds at 30, 200 misses at 70: the limit is crossed halfway
        assert_eq!(
            sustained_rate(&[(100.0, 30, 20), (200.0, 40, 70), (300.0, 10, 10)], l),
            150.0
        );
        assert!(sustained_rate(&[(100.0, 30, 30), (200.0, u64::MAX, 40)], l) >= 100.0);
    }

    #[test]
    fn values_identify_their_key() {
        let v = value_for(123_456, 256);
        assert!(value_matches(123_456, 256, &v));
        assert!(!value_matches(123_457, 256, &v));
        assert!(!value_matches(123_456, 256, &v[..255]));
    }

    #[test]
    fn digest_is_stable_on_a_tiny_size() {
        let s = tiny();
        let a = pass(3, &s, false).core;
        let b = pass(3, &s, false).core;
        let t = pass(3, &s, true).core;
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, t.digest, "tracing changed a simulated output");
        assert!(t.probe.span_count() > 0);
        let c = pass(4, &s, false).core;
        assert_ne!(a.digest, c.digest);
    }
}
