//! `synth-large`: synthesis and then prune on the s5378 stand-in with
//! transition-delay checkpoint faults (every 20th kept, 515 targets),
//! an LFSR `T` of 64 vectors per unit and two simulator threads.
//!
//! Covers the large circuit, the second fault model and the shared
//! pool; bypasses `atpg`, `obs` and `hw`. Select time here goes mostly
//! to good-trace and screening work, prune time to fault-cycles.

use crate::layers;
use crate::trace::Tracer;
use crate::units::{check_prune, drive};
use crate::{lfsr_seed, ratio, sub_seed, Args, Outcome, DEFAULT_SEED};
use std::time::Instant;
use wbist_atpg::Lfsr;
use wbist_circuits::synthetic;
use wbist_core::{
    reverse_order_prune, PruneOptions, SelectedAssignment, Synthesis, SynthesisConfig,
    SynthesisResult,
};
use wbist_netlist::{Circuit, FaultList, FaultModel, FaultUniverse};
use wbist_sim::{CompiledHandle, FaultSim, RunOptions, TestSequence};
use wbist_telemetry::{Json, Telemetry};

const CIRCUIT: &str = "s5378";
const KEEP_EVERY: usize = 20;
const T_LEN: usize = 64;
const L_G: usize = 256;
const THREADS: usize = 2;
/// Units per run, one LFSR `T` each.
const UNITS: usize = 4;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Synth {
    targets: usize,
    t_detected: usize,
    omega: usize,
    omega_pruned: usize,
    targets_detected: usize,
    coverage_guaranteed: bool,
}

/// Unit 0 at the default seed.
const PINNED: Synth = Synth {
    targets: 515,
    t_detected: 190,
    omega: 52,
    omega_pruned: 37,
    targets_detected: 277,
    coverage_guaranteed: true,
};

struct Prepared {
    circuit: Circuit,
    targets: FaultList,
    compiled: CompiledHandle,
    sequences: Vec<TestSequence>,
}

fn setup(seed: u64, tr: &mut Tracer) -> Prepared {
    let (circuit, targets) = tr.span("circuits.build", || {
        let c = synthetic::by_name(CIRCUIT).expect("built-in stand-in");
        let all = FaultUniverse::checkpoints(FaultModel::TransitionDelay, &c);
        let kept: FaultList = all.faults().iter().step_by(KEEP_EVERY).copied().collect();
        (c, kept)
    });
    let compiled = tr.span("sim.lower", || CompiledHandle::lower(&circuit));
    let sequences = (0..UNITS)
        .map(|k| {
            Lfsr::new(24, lfsr_seed(sub_seed(seed, k as u64))).sequence(circuit.num_inputs(), T_LEN)
        })
        .collect();
    Prepared {
        circuit,
        targets,
        compiled,
        sequences,
    }
}

fn unit(
    p: &Prepared,
    k: usize,
    tel: &Telemetry,
    tr: &mut Tracer,
) -> (f64, (SynthesisResult, Vec<SelectedAssignment>)) {
    let run = RunOptions::with_threads(THREADS)
        .telemetry(tel.clone())
        .compiled(p.compiled.clone());
    let t = &p.sequences[k];
    let start = Instant::now();
    let root = tr.begin("unit");
    let cfg = SynthesisConfig {
        sequence_length: L_G,
        run: run.clone(),
        ..SynthesisConfig::default()
    };
    let syn = tr.span("select", || {
        Synthesis::new(&p.circuit, t, &p.targets).config(cfg).run()
    });
    let pruned = tr.span("prune", || {
        reverse_order_prune(
            &p.circuit,
            &p.targets,
            &syn.omega,
            &PruneOptions::new(L_G).run(run.clone()),
        )
    });
    tr.end(root);
    (start.elapsed().as_secs_f64(), (syn, pruned))
}

fn check(
    p: &Prepared,
    (syn, pruned): (SynthesisResult, Vec<SelectedAssignment>),
) -> (Synth, Vec<String>) {
    let sim = FaultSim::with_run_options(
        &p.circuit,
        &RunOptions::with_threads(THREADS).compiled(p.compiled.clone()),
    );
    let mut problems = Vec::new();
    let by_pruned = check_prune(&sim, &p.targets, &syn, &pruned, &mut problems);
    let result = Synth {
        targets: p.targets.len(),
        t_detected: syn.target_count(),
        omega: syn.omega.len(),
        omega_pruned: pruned.len(),
        targets_detected: by_pruned.iter().filter(|&&d| d).count(),
        coverage_guaranteed: syn.coverage_guaranteed(),
    };
    (result, problems)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let d = drive(args, tr, &mut out, UNITS, |tr| setup(seed, tr), unit, check);
    if seed == DEFAULT_SEED && d.results.first().is_some_and(|r| *r != PINNED) {
        out.fail(format!(
            "unit 0 gives {:?}, pinned {PINNED:?}",
            d.results[0]
        ));
    }
    let n = d.results.len() as f64;
    let sum = |f: fn(&Synth) -> usize| d.results.iter().map(|r| f(r) as f64).sum::<f64>();
    if args.trace {
        out.metrics = layers::derive(tr, &d.work, d.results.len(), d.setups);
        d.report_overhead(&mut out);
    } else {
        out.metrics = d.common_metrics();
        out.metrics.insert(
            "coverage",
            ratio(sum(|r| r.targets_detected), sum(|r| r.targets)),
        );
        out.metrics
            .insert("omega_pruned", sum(|r| r.omega_pruned) / n);
    }
    out.detail.push(("samples", d.samples()));
    out.detail.push((
        "units",
        Json::Array(
            d.results
                .iter()
                .map(|r| format!("{r:?}").as_str().into())
                .collect(),
        ),
    ));
    out
}
