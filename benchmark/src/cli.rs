//! Command line: `--workload <name> --seed <n> [--seconds <s>] [--trace 0|1]`.
//! Every flag is checked; an unknown or repeated flag is an error, so a
//! typo can never fall back to a default run.

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TestDFSIO write, drain, read on the BB-Async burst buffer.
    DfsioBb,
    /// The same TestDFSIO on plain HDFS (bypasses rkv, rdmasim, bb-core, lustre).
    DfsioHdfs,
    /// Open-loop Poisson gets and sets against four rkv servers.
    KvOpenloop,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::DfsioBb, Workload::DfsioHdfs, Workload::KvOpenloop];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DfsioBb => "dfsio_bb",
            Workload::DfsioHdfs => "dfsio_hdfs",
            Workload::KvOpenloop => "kv_openloop",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed, checked arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: every generated input is a function of it.
    pub seed: u64,
    /// Wall-clock seconds of measured passes to accumulate.
    pub seconds: u64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: rdma-bb-benchmark --workload <dfsio_bb|dfsio_hdfs|kv_openloop> \
                         --seed <u64> [--seconds <1..=600>] [--trace <0|1>]";

fn once<T>(slot: &mut Option<T>, v: T, flag: &str) -> Result<(), String> {
    match slot.replace(v) {
        Some(_) => Err(format!("{flag} given twice")),
        None => Ok(()),
    }
}

/// Parse `argv` (without the program name).
pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value(&mut it)?;
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == v)
                    .ok_or_else(|| format!("unknown workload {v:?}"))?;
                once(&mut workload, w, &flag)?;
            }
            "--seed" => {
                let v = value(&mut it)?;
                let s = v.parse().map_err(|_| format!("--seed: not a u64: {v:?}"))?;
                once(&mut seed, s, &flag)?;
            }
            "--seconds" => {
                let v = value(&mut it)?;
                let s: u64 = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds: want 1..=600, got {v:?}"))?;
                once(&mut seconds, s, &flag)?;
            }
            "--trace" => {
                let v = value(&mut it)?;
                let t = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: want 0 or 1, got {v:?}")),
                };
                once(&mut trace, t, &flag)?;
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn full_command_line() {
        let a = p("--workload kv_openloop --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::KvOpenloop,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let d = p("--seed 3 --workload dfsio_bb").unwrap();
        assert_eq!((d.seconds, d.trace), (10, false));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload dfsio_bb",
            "--seed 1",
            "--workload dfsio --seed 1",
            "--workload dfsio_bb --seed 1 --quick",
            "--workload dfsio_bb --seed 1 --sedd 2",
            "--workload dfsio_bb --seed -1",
            "--workload dfsio_bb --seed 1 --seed 2",
            "--workload dfsio_bb --seed 1 --trace 2",
            "--workload dfsio_bb --seed 1 --seconds 0",
            "--workload dfsio_bb --seed",
            "dfsio_bb",
        ] {
            assert!(p(bad).is_err(), "accepted {bad:?}");
        }
    }
}
