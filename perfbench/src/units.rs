//! The run loop shared by the workloads that call the layer crates
//! directly (`pipeline`, `synth-large`).
//!
//! A run takes `SETUP_REPS` set-up samples, then measures a fixed list
//! of units (one per sub-seed of the bench seed). Untraced, it repeats
//! the units round-robin for `--seconds`; traced, it runs each of the
//! first `TRACED_UNITS` units `TRACE_PAIRS` times untraced and as often
//! with telemetry and spans on, interleaved, so the two sets of walls
//! give the tracing overhead.
//! Only the first traced call of a unit feeds the per-layer metrics.
//! Every checked call of a unit must reproduce the identity result of
//! its first call, and every traced call its deterministic counters.

use crate::layers::Work;
use crate::trace::Tracer;
use crate::{mean, median, quantile, Args, Metrics, Outcome, SETUP_REPS, SETUP_SAMPLE_MIN};
use std::fmt::Debug;
use std::time::{Duration, Instant};
use wbist_core::SelectedAssignment;
use wbist_netlist::FaultList;
use wbist_sim::FaultSim;
use wbist_telemetry::{Json, Telemetry};

/// Untraced and traced calls per unit in a traced run.
pub const TRACE_PAIRS: usize = 2;

/// Units a traced run measures (the first ones). With one, a traced
/// `pipeline` run makes four calls of ten to twenty seconds each and
/// stays well inside three minutes.
pub const TRACED_UNITS: usize = 1;

pub struct Driven<R> {
    /// Set-up samples, each the mean of the set-ups it repeated.
    pub setup_s: Vec<f64>,
    /// Set-ups run in all, for per-set-up layer times.
    pub setups: usize,
    /// Untraced wall samples per unit index.
    pub walls: Vec<Vec<f64>>,
    /// Identity result per unit index (from its first call).
    pub results: Vec<R>,
    /// Traced wall samples per unit index (traced runs only).
    pub traced_walls: Vec<Vec<f64>>,
    pub work: Work,
}

/// Runs the fixed units `0..units` once each, then repeats them in
/// order until `seconds` have passed since the first started. Every run
/// at a seed therefore measures the same inputs; a faster program only
/// adds timing samples.
fn round_robin(units: usize, seconds: f64, mut run: impl FnMut(usize)) {
    let start = Instant::now();
    let mut calls = 0;
    while calls < units || start.elapsed().as_secs_f64() < seconds {
        run(calls % units);
        calls += 1;
    }
}

/// `unit` runs one unit and returns its wall time and products; `check`
/// verifies the products outside the timed part and returns the unit's
/// identity result and the checks it failed.
pub fn drive<P, A, R: PartialEq + Debug>(
    args: &Args,
    tr: &mut Tracer,
    out: &mut Outcome,
    units: usize,
    setup: impl Fn(&mut Tracer) -> P,
    unit: impl Fn(&P, usize, &Telemetry, &mut Tracer) -> (f64, A),
    check: impl Fn(&P, A) -> (R, Vec<String>),
) -> Driven<R> {
    let mut setup_s = Vec::new();
    let mut setups = 0;
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (mut spent, mut n) = (Duration::ZERO, 0);
        while n == 0 || spent < SETUP_SAMPLE_MIN {
            let start = Instant::now();
            let p = setup(tr);
            spent += start.elapsed();
            n += 1;
            // The previous set-up is dropped here, outside the timed part.
            prepared = Some(p);
        }
        setup_s.push(spent.as_secs_f64() / n as f64);
        setups += n;
    }
    let p = prepared.expect("SETUP_REPS >= 1");

    let mut d = Driven {
        setup_s,
        setups,
        walls: (0..units).map(|_| Vec::new()).collect(),
        results: Vec::new(),
        traced_walls: (0..units).map(|_| Vec::new()).collect(),
        work: Work::default(),
    };
    let checked = |d: &mut Driven<R>, out: &mut Outcome, k: usize, products: A| {
        out.attempted += 1;
        let (result, problems) = check(&p, products);
        let before = out.failed;
        for problem in problems {
            out.fail(format!("unit {k}: {problem}"));
        }
        match d.results.get(k) {
            None => d.results.push(result),
            Some(first) if *first != result && out.failed == before => {
                out.fail(format!(
                    "unit {k}: result {result:?} differs from this run's earlier call {first:?}"
                ));
            }
            Some(_) => {}
        }
    };

    let mut untraced = Tracer::new(false, Instant::now());
    let off = Telemetry::disabled();
    if !args.trace {
        round_robin(units, args.seconds, |k| {
            let (wall, products) = unit(&p, k, &off, &mut untraced);
            d.walls[k].push(wall);
            checked(&mut d, out, k, products);
        });
        return d;
    }
    for k in 0..TRACED_UNITS.min(units) {
        // Calls go untraced, traced, traced, untraced, …, so a steady
        // drift of the host's speed cancels out of the overhead.
        for call in 0..2 * TRACE_PAIRS {
            if call % 4 == 0 || call % 4 == 3 {
                let (wall, products) = unit(&p, k, &off, &mut untraced);
                d.walls[k].push(wall);
                checked(&mut d, out, k, products);
                continue;
            }
            let first = d.traced_walls[k].is_empty();
            let tel = Telemetry::enabled();
            // Later traced calls record into a spare recorder, so they
            // cost what the first costs but do not count twice.
            let mut spare = Tracer::new(true, Instant::now());
            let t = if first { &mut *tr } else { &mut spare };
            t.attach(&tel);
            let (wall, products) = unit(&p, k, &tel, t);
            d.traced_walls[k].push(wall);
            checked(&mut d, out, k, products);
            if first {
                d.work.add(&tel);
                out.unit_counters.push(tel.counters());
            } else if out.unit_counters.last() != Some(&tel.counters()) {
                out.fail(format!(
                    "unit {k}: deterministic counters differ between two traced calls"
                ));
            }
        }
    }
    d
}

impl<R> Driven<R> {
    /// Median wall per unit, averaged over the units: every unit counts
    /// once however many times it was repeated.
    pub fn unit_wall(&self) -> f64 {
        mean(&self.walls.iter().map(|w| median(w)).collect::<Vec<_>>())
    }

    /// The end-to-end metrics every library workload reports the same
    /// way. Each unit is one request a user waits for, so the request
    /// latency figures are unit latencies: these workloads have a single
    /// request class, reported as both `short` and `long`.
    pub fn common_metrics(&self) -> Metrics {
        let all: Vec<f64> = self.walls.iter().flatten().copied().collect();
        let mut m = Metrics::new();
        m.insert("setup_s", median(&self.setup_s));
        m.insert("wall_s", self.unit_wall());
        m.insert("serve_short_p50_ms", median(&all) * 1e3);
        m.insert("serve_short_p90_ms", quantile(&all, 0.9) * 1e3);
        m.insert("serve_long_p50_ms", median(&all) * 1e3);
        m.insert(
            "serve_jobs_per_s",
            all.len() as f64 / all.iter().sum::<f64>(),
        );
        m
    }

    /// The raw timing samples, for the results file.
    pub fn samples(&self) -> Json {
        let list = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::Float(x)).collect());
        Json::obj(vec![
            ("setup_s", list(&self.setup_s)),
            (
                "unit_wall_s",
                Json::Array(self.walls.iter().map(|w| list(w)).collect()),
            ),
            (
                "traced_unit_wall_s",
                Json::Array(self.traced_walls.iter().map(|w| list(w)).collect()),
            ),
        ])
    }

    /// Traced minus untraced wall per unit (the difference of their
    /// medians, averaged over the units), and whether it is a cost that
    /// exceeds the noise: the larger spread (max − min) of a unit's
    /// untraced and its traced samples, averaged over the units. Tracing
    /// adds work, so a negative difference is noise.
    pub fn trace_overhead(&self) -> (f64, bool) {
        let traced = || {
            self.walls
                .iter()
                .zip(&self.traced_walls)
                .filter(|(_, t)| !t.is_empty())
        };
        let range = |v: &[f64]| {
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            hi - lo
        };
        let diff: Vec<f64> = traced().map(|(u, t)| median(t) - median(u)).collect();
        let noise: Vec<f64> = traced().map(|(u, t)| range(u).max(range(t))).collect();
        let overhead = mean(&diff);
        (overhead, overhead > mean(&noise))
    }

    /// Reports the tracing overhead as `trace.overhead_s`, and in the
    /// results file (and on stderr) whether it is resolved from noise.
    pub fn report_overhead(&self, out: &mut Outcome) {
        let (overhead, resolved) = self.trace_overhead();
        out.metrics.insert("trace.overhead_s", overhead);
        out.detail
            .push(("trace_overhead_resolved", resolved.into()));
        if !resolved {
            eprintln!(
                "note: tracing overhead {overhead:.3} s per unit is within the run-to-run noise"
            );
        }
    }
}

/// Faults the `lg`-long sequences of `omega` detect, on top of `start`;
/// faults already detected are not simulated again.
pub fn detected_by(
    sim: &FaultSim,
    faults: &FaultList,
    omega: &[SelectedAssignment],
    lg: usize,
    start: Vec<bool>,
) -> Vec<bool> {
    let mut det = start;
    for sel in omega {
        let live: Vec<usize> = (0..faults.len()).filter(|&i| !det[i]).collect();
        if live.is_empty() {
            break;
        }
        let sub: FaultList = live.iter().map(|&i| faults.faults()[i]).collect();
        let flags = sim.query(&sub).sequence(&sel.sequence(lg)).detected();
        for (&i, hit) in live.iter().zip(flags) {
            det[i] |= hit;
        }
    }
    det
}

/// The checks every pruned synthesis result must pass: the pruned Ω
/// detects exactly what the unpruned Ω detects, and synthesis flagged
/// exactly the targets Ω detects. Returns the pruned Ω's detections.
pub fn check_prune(
    sim: &FaultSim,
    faults: &FaultList,
    syn: &wbist_core::SynthesisResult,
    pruned: &[SelectedAssignment],
    problems: &mut Vec<String>,
) -> Vec<bool> {
    let lg = syn.sequence_length;
    let by_pruned = detected_by(sim, faults, pruned, lg, vec![false; faults.len()]);
    // The kept entries detect nothing outside `by_pruned`, so only the
    // dropped ones are simulated against the rest.
    let mut kept = pruned.iter().peekable();
    let dropped: Vec<SelectedAssignment> = syn
        .omega
        .iter()
        .filter(|&sel| kept.next_if(|&k| k == sel).is_none())
        .cloned()
        .collect();
    if kept.next().is_some() {
        problems.push("the pruned Ω is not a subsequence of Ω".to_string());
    }
    let by_all = detected_by(sim, faults, &dropped, lg, by_pruned.clone());
    if by_all != by_pruned {
        problems.push("the pruned Ω detects less than the unpruned Ω".to_string());
    }
    let flagged = (0..faults.len()).any(|i| syn.target[i] && syn.detected[i] != by_all[i]);
    if flagged {
        problems.push("synthesis detection flags disagree with simulating Ω".to_string());
    }
    by_pruned
}
