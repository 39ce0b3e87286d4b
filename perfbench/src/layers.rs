//! Per-layer metrics derived from a traced pass: self times from the
//! benchmark's spans, work from the layer crates' telemetry counters.
//!
//! Span names are the layer names (`select`, `prune`, …); `unit` is the
//! root span around one unit of a workload, so its self time is the
//! part of the wall time no layer span covers.

use crate::trace::Tracer;
use crate::{ratio, Metrics};
use std::collections::BTreeMap;
use wbist_telemetry::Telemetry;

/// Scheduling-dependent totals worth reporting; the deterministic
/// counters are all taken.
const EFFORT: &[&str] = &[
    "pool.tasks",
    "pool.steals",
    "select.prefix_hits",
    "select.trace_gates_evaluated",
    "select.snapshot_spills",
];

/// Counter totals summed over the traced units.
#[derive(Default)]
pub struct Work(BTreeMap<String, f64>);

impl Work {
    pub fn add(&mut self, tel: &Telemetry) {
        for (name, v) in tel.counters() {
            *self.0.entry(name).or_default() += v as f64;
        }
        for &name in EFFORT {
            *self.0.entry(name.to_string()).or_default() += tel.effort(name) as f64;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Fills the layer metrics common to the library-driven workloads.
/// Set-up spans are averaged over the `setups` run, the rest over `units`.
pub fn derive(tr: &Tracer, work: &Work, units: usize, setups: usize) -> Metrics {
    let st = tr.self_times();
    let t = |name: &str| st.get(name).copied().unwrap_or(0.0);
    let per_unit = |x: f64| x / units as f64;
    let cycles = |name: &str| tr.sum(name, |s| s.fault_cycles as f64);
    let gates = |name: &str| tr.sum(name, |s| s.gates_evaluated as f64);
    let w = |name: &str| work.get(name);
    let tried = w("select.candidates_tried");
    let pruned_total = w("prune.kept") + w("prune.dropped");
    let mut m = Metrics::new();
    for (name, value) in [
        ("circuits.build_s", t("circuits.build") / setups as f64),
        ("sim.lower_s", t("sim.lower") / setups as f64),
        ("atpg.generate_s", per_unit(t("atpg.generate"))),
        ("atpg.compact_s", per_unit(t("atpg.compact"))),
        ("sim.grade_s", per_unit(t("sim.grade"))),
        ("sim.grade_fault_cycles", per_unit(cycles("sim.grade"))),
        ("select.wall_s", per_unit(t("select"))),
        ("select.candidates_tried", per_unit(tried)),
        ("select.screen_calls", per_unit(w("sim.screen_calls"))),
        ("select.skip_ratio", ratio(w("select.sample_skips"), tried)),
        (
            "select.kept_ratio",
            ratio(w("select.assignments_kept"), tried),
        ),
        (
            "select.prefix_hit_ratio",
            ratio(w("select.prefix_hits"), tried),
        ),
        ("select.fault_cycles", per_unit(cycles("select"))),
        ("select.gates_evaluated", per_unit(gates("select"))),
        (
            "select.trace_gates_evaluated",
            per_unit(w("select.trace_gates_evaluated")),
        ),
        (
            "select.snapshot_spills",
            per_unit(w("select.snapshot_spills")),
        ),
        ("select.ns_per_candidate", ratio(t("select") * 1e9, tried)),
        ("prune.wall_s", per_unit(t("prune"))),
        ("prune.fault_cycles", per_unit(cycles("prune"))),
        (
            "prune.ns_per_fault_cycle",
            ratio(t("prune") * 1e9, cycles("prune")),
        ),
        ("prune.kept_ratio", ratio(w("prune.kept"), pruned_total)),
        ("prune.kept", per_unit(w("prune.kept"))),
        ("obs.wall_s", per_unit(t("obs"))),
        ("obs.fault_cycles", per_unit(cycles("obs"))),
        (
            "obs.ns_per_fault_cycle",
            ratio(t("obs") * 1e9, cycles("obs")),
        ),
        ("obs.rows", per_unit(w("obs.rows"))),
        ("hw.generator_s", per_unit(t("hw.generator"))),
        ("hw.generator_gates", per_unit(w("hw.gates"))),
        ("pool.tasks", per_unit(w("pool.tasks"))),
        ("pool.steals", per_unit(w("pool.steals"))),
        ("sim.fault_cycles", per_unit(w("sim.fault_cycles"))),
        ("sim.gates_evaluated", per_unit(w("sim.gates_evaluated"))),
        ("unattributed_s", per_unit(t("unit"))),
        (
            "unattributed_share",
            ratio(t("unit"), tr.sum("unit", |s| s.duration())),
        ),
    ] {
        m.insert(name, value);
    }
    m
}
