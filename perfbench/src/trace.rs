//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's code around each call into a
//! layer crate: name, start, end and parent, plus the deltas of the two
//! simulator work counters that several layers share. They stay in
//! memory and are written out when the run ends. A disabled recorder
//! records nothing, so the untraced pass pays no tracing cost.

use std::collections::BTreeMap;
use std::time::Instant;
use wbist_telemetry::{Json, Telemetry};

/// One recorded span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// `sim.fault_cycles` added while the span was open.
    pub fault_cycles: u64,
    /// `sim.gates_evaluated` added while the span was open.
    pub gates_evaluated: u64,
}

impl SpanRec {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    tel: Telemetry,
}

/// Handle for an open span; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// The telemetry handle whose counters later spans attribute.
    pub fn attach(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            fault_cycles: self.tel.counter("sim.fault_cycles"),
            gates_evaluated: self.tel.counter("sim.gates_evaluated"),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must close in order");
        let end = self.now();
        let fault_cycles = self.tel.counter("sim.fault_cycles");
        let gates_evaluated = self.tel.counter("sim.gates_evaluated");
        let span = &mut self.spans[id];
        span.end = end;
        span.fault_cycles = fault_cycles - span.fault_cycles;
        span.gates_evaluated = gates_evaluated - span.gates_evaluated;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Records a span observed elsewhere (e.g. a daemon job interval
    /// read from its event stream), given as instants.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(SpanRec {
            name,
            start: at(start),
            end: at(end),
            parent: self.stack.last().copied(),
            fault_cycles: 0,
            gates_evaluated: 0,
        });
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover (children of one parent never overlap in
    /// the sequential workloads).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_time) {
            *out.entry(s.name).or_insert(0.0) += s.duration() - c;
        }
        out
    }

    /// Total of one field over the spans with `name`.
    pub fn sum(&self, name: &str, field: impl Fn(&SpanRec) -> f64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(field)
            .fold(0.0, |a, b| a + b)
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", id.into()),
                        ("name", s.name.into()),
                        ("start_s", s.start.into()),
                        ("end_s", s.end.into()),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("fault_cycles", s.fault_cycles.into()),
                        ("gates_evaluated", s.gates_evaluated.into()),
                    ])
                })
                .collect(),
        )
    }
}
