//! Tracing from outside the program: a poll-timing wrapper around each
//! public call the benchmark makes into a layer, recorded as spans kept in
//! memory. Nothing inside the crates is instrumented.
//!
//! The executor is single-threaded and never polls one task from inside
//! another, so the host time spent inside a wrapped future's `poll` is the
//! call's self time on the client side; server and background tasks run
//! in their own polls and land outside every span.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

use simkit::Sim;

/// One recorded call (or phase).
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing phase in [`Probe::phases`].
    pub phase: usize,
    /// The public function called, e.g. `AnyReader::read_at`.
    pub name: &'static str,
    /// The file or op the call belongs to.
    pub id: u64,
    /// Host nanoseconds spent inside the call's polls.
    pub host_ns: u64,
    /// Virtual time of the first poll.
    pub v_start_ns: u64,
    /// Virtual time the call completed.
    pub v_end_ns: u64,
}

/// A workload phase: parent of the spans recorded while it is current.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name.
    pub name: String,
    /// Virtual start.
    pub v_start_ns: u64,
    /// Virtual end (set by [`Probe::end_phase`]).
    pub v_end_ns: u64,
}

/// Span recorder of one pass. Disabled probes record nothing and add no
/// wrapper: untraced passes run the bare calls.
pub struct Probe {
    enabled: bool,
    sim: Sim,
    spans: RefCell<Vec<Span>>,
    phases: RefCell<Vec<Phase>>,
    verify_ns: Cell<u64>,
}

impl Probe {
    /// A probe over `sim`; records only when `enabled`.
    pub fn new(sim: Sim, enabled: bool) -> Probe {
        Probe {
            enabled,
            sim,
            spans: RefCell::default(),
            phases: RefCell::default(),
            verify_ns: Cell::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a phase; later spans are its children.
    pub fn begin_phase(&self, name: impl Into<String>) {
        if self.enabled {
            let now = self.sim.now().as_nanos();
            self.phases.borrow_mut().push(Phase {
                name: name.into(),
                v_start_ns: now,
                v_end_ns: now,
            });
        }
    }

    /// Close the current phase.
    pub fn end_phase(&self) {
        if let Some(p) = self.phases.borrow_mut().last_mut() {
            p.v_end_ns = self.sim.now().as_nanos();
        }
    }

    /// Await `fut`, recording it as a span of the current phase when enabled.
    pub async fn call<F: Future>(&self, name: &'static str, id: u64, fut: F) -> F::Output {
        if !self.enabled {
            return fut.await;
        }
        let timed = Timed {
            fut: Box::pin(fut),
            sim: &self.sim,
            host_ns: 0,
            v_start_ns: None,
        };
        let (out, host_ns, v_start_ns) = timed.await;
        self.spans.borrow_mut().push(Span {
            phase: self.phases.borrow().len().saturating_sub(1),
            name,
            id,
            host_ns,
            v_start_ns,
            v_end_ns: self.sim.now().as_nanos(),
        });
        out
    }

    /// Run an output check, charging its host time to the workload generator
    /// when enabled.
    pub fn verify<T>(&self, check: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return check();
        }
        let t = Instant::now();
        let out = check();
        self.verify_ns
            .set(self.verify_ns.get() + t.elapsed().as_nanos() as u64);
        out
    }

    /// Host seconds spent in output checks.
    pub fn verify_host_s(&self) -> f64 {
        self.verify_ns.get() as f64 / 1e9
    }

    /// Host seconds per called function, summed over every span.
    pub fn host_s_by_call(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            *out.entry(s.name).or_insert(0.0) += s.host_ns as f64 / 1e9;
        }
        out
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every phase and span as JSON lines: phases first, then spans as
    /// `[phase, name, id, host_ns, v_start_ns, v_end_ns]`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.phases.borrow().iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"phase\": {i}, \"name\": \"{}\", \"v_start_ns\": {}, \"v_end_ns\": {}}}",
                p.name, p.v_start_ns, p.v_end_ns
            );
        }
        for s in self.spans.borrow().iter() {
            let _ = writeln!(
                out,
                "[{}, \"{}\", {}, {}, {}, {}]",
                s.phase, s.name, s.id, s.host_ns, s.v_start_ns, s.v_end_ns
            );
        }
        out
    }
}

/// Poll-timing wrapper: sums host time across polls and notes the
/// virtual time of the first poll.
struct Timed<'a, F: Future> {
    fut: Pin<Box<F>>,
    sim: &'a Sim,
    host_ns: u64,
    v_start_ns: Option<u64>,
}

impl<F: Future> Future for Timed<'_, F> {
    type Output = (F::Output, u64, u64);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let v_start = *this
            .v_start_ns
            .get_or_insert_with(|| this.sim.now().as_nanos());
        let t = Instant::now();
        let r = this.fut.as_mut().poll(cx);
        this.host_ns += t.elapsed().as_nanos() as u64;
        r.map(|out| (out, this.host_ns, v_start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use std::time::Duration;

    #[test]
    fn spans_carry_virtual_interval_and_phase() {
        let sim = Sim::new();
        let probe = Rc::new(Probe::new(sim.clone(), true));
        let (p, s) = (Rc::clone(&probe), sim.clone());
        sim.block_on(async move {
            p.begin_phase("one");
            s.sleep(Duration::from_micros(5)).await;
            p.call("sleep", 9, s.sleep(Duration::from_micros(20))).await;
            p.end_phase();
        });
        let spans = probe.spans.borrow();
        assert_eq!(spans.len(), 1);
        let sp = &spans[0];
        assert_eq!((sp.phase, sp.id), (0, 9));
        assert_eq!((sp.v_start_ns, sp.v_end_ns), (5_000, 25_000));
        assert_eq!(probe.phases.borrow()[0].v_end_ns, 25_000);
        assert!(probe.to_jsonl().contains("[0, \"sleep\", 9,"));
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let sim = Sim::new();
        let probe = Rc::new(Probe::new(sim.clone(), false));
        let (p, s) = (Rc::clone(&probe), sim.clone());
        sim.block_on(async move {
            p.begin_phase("x");
            p.call("sleep", 1, s.sleep(Duration::from_micros(1))).await;
        });
        assert_eq!(probe.span_count(), 0);
        assert!(probe.to_jsonl().is_empty());
    }
}
