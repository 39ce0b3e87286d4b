//! `pipeline`: the paper's whole flow on the s298 and then the s1196
//! stand-in, stuck-at checkpoint faults — ATPG, compaction, grading of
//! `T`, synthesis, reverse-order prune, the observation-point trade-off
//! over the unpruned Ω, and the Figure-1 generator for the pruned Ω.
//!
//! The only workload that runs `atpg`, `obs` and `hw`. Every phase
//! that takes `RunOptions` runs on one simulator thread, so the shared
//! pool is bypassed.

use crate::layers;
use crate::trace::Tracer;
use crate::units::{check_prune, drive};
use crate::{ratio, sub_seed, Args, Outcome, DEFAULT_SEED};
use std::time::Instant;
use wbist_atpg::{compact, AtpgConfig, CompactionConfig, SequenceAtpg};
use wbist_circuits::synthetic;
use wbist_core::{
    observation_point_tradeoff, reverse_order_prune, ObsOptions, ObsTradeoff, PruneOptions,
    SelectedAssignment, Synthesis, SynthesisConfig, SynthesisResult,
};
use wbist_hw::{build_generator, generator_cost};
use wbist_netlist::{Circuit, FaultList};
use wbist_sim::{CompiledHandle, FaultSim, RunOptions, TestSequence};
use wbist_telemetry::{Json, Telemetry};

const CIRCUITS: [&str; 2] = ["s298", "s1196"];
const L_G: usize = 256;
/// Units per run: each is the flow on both circuits for one sub-seed.
/// Two sub-seeds average out part of the seed-to-seed spread in `T`.
const UNITS: usize = 2;

/// The identity of one circuit's flow, pinned at the default seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    t_len: usize,
    t_detected: usize,
    omega: usize,
    omega_pruned: usize,
    targets_detected: usize,
    coverage_guaranteed: bool,
    generator_gates: usize,
    atpg_vectors: usize,
}

/// Unit 0 at the default seed, per circuit.
const PINNED: [Flow; 2] = [
    Flow {
        t_len: 104,
        t_detected: 388,
        omega: 19,
        omega_pruned: 6,
        targets_detected: 388,
        coverage_guaranteed: true,
        generator_gates: 227,
        atpg_vectors: 408,
    },
    Flow {
        t_len: 752,
        t_detected: 1728,
        omega: 72,
        omega_pruned: 41,
        targets_detected: 1656,
        coverage_guaranteed: false,
        generator_gates: 1141,
        atpg_vectors: 1200,
    },
];

struct Prepared {
    circuit: Circuit,
    faults: FaultList,
    compiled: CompiledHandle,
}

fn setup(tr: &mut Tracer) -> Vec<Prepared> {
    let mut v = Vec::new();
    for name in CIRCUITS {
        let (circuit, faults) = tr.span("circuits.build", || {
            let c = synthetic::by_name(name).expect("built-in stand-in");
            let f = FaultList::checkpoints(&c);
            (c, f)
        });
        let compiled = tr.span("sim.lower", || CompiledHandle::lower(&circuit));
        v.push(Prepared {
            circuit,
            faults,
            compiled,
        });
    }
    v
}

/// What one circuit's flow produced, checked outside the timed unit.
struct Products {
    atpg_vectors: usize,
    t: TestSequence,
    graded: Vec<bool>,
    syn: SynthesisResult,
    pruned: Vec<SelectedAssignment>,
    obs: ObsTradeoff,
    gates: Option<usize>,
}

fn unit(
    prep: &[Prepared],
    seed: u64,
    k: usize,
    tel: &Telemetry,
    tr: &mut Tracer,
) -> (f64, Vec<Products>) {
    let u = sub_seed(seed, k as u64);
    let mut products = Vec::new();
    let start = Instant::now();
    let root = tr.begin("unit");
    for (ci, p) in prep.iter().enumerate() {
        let run = RunOptions::with_threads(1)
            .telemetry(tel.clone())
            .seed(sub_seed(u, ci as u64))
            .compiled(p.compiled.clone());
        let atpg_cfg = AtpgConfig {
            seed: run.seed,
            max_len: 1200,
            patience: 12,
            ..AtpgConfig::default()
        };
        let atpg = tr.span("atpg.generate", || {
            SequenceAtpg::new(&p.circuit, atpg_cfg).run(&p.faults)
        });
        let compaction = CompactionConfig {
            block_sizes: vec![64, 16],
            max_trials: 200,
        };
        let t = tr.span("atpg.compact", || {
            compact(&p.circuit, &p.faults, &atpg.sequence, &compaction)
        });
        let graded = tr.span("sim.grade", || {
            FaultSim::with_run_options(&p.circuit, &run)
                .query(&p.faults)
                .sequence(&t)
                .detected()
        });
        let cfg = SynthesisConfig {
            sequence_length: L_G,
            run: run.clone(),
            ..SynthesisConfig::default()
        };
        let syn = tr.span("select", || {
            Synthesis::new(&p.circuit, &t, &p.faults).config(cfg).run()
        });
        let pruned = tr.span("prune", || {
            reverse_order_prune(
                &p.circuit,
                &p.faults,
                &syn.omega,
                &PruneOptions::new(L_G).run(run.clone()),
            )
        });
        let obs = tr.span("obs", || {
            observation_point_tradeoff(
                &p.circuit,
                &p.faults,
                &syn.omega,
                &ObsOptions::new(L_G).run(run.clone()),
            )
        });
        let gates = tr.span("hw.generator", || {
            (!pruned.is_empty()).then(|| {
                let generator = build_generator(&pruned, L_G).expect("generator netlist builds");
                let cost = generator_cost(&generator);
                cost.record(tel);
                cost.total_gates
            })
        });
        products.push(Products {
            atpg_vectors: atpg.sequence.len(),
            t,
            graded,
            syn,
            pruned,
            obs,
            gates,
        });
    }
    tr.end(root);
    (start.elapsed().as_secs_f64(), products)
}

fn check(prep: &[Prepared], products: Vec<Products>) -> (Vec<Flow>, Vec<String>) {
    let mut problems = Vec::new();
    let mut flows = Vec::new();
    for (p, out) in prep.iter().zip(products) {
        let Products {
            atpg_vectors,
            t,
            graded,
            syn,
            pruned,
            obs,
            gates,
        } = out;
        let name = p.circuit.name();
        let sim = FaultSim::with_run_options(
            &p.circuit,
            &RunOptions::default().compiled(p.compiled.clone()),
        );
        let mut found = Vec::new();
        let by_pruned = check_prune(&sim, &p.faults, &syn, &pruned, &mut found);
        problems.extend(found.into_iter().map(|m| format!("{name}: {m}")));
        if by_pruned.iter().filter(|&&d| d).count() != obs.total_covered {
            problems.push(format!("{name}: obs and prune disagree on what Ω detects"));
        }
        if graded != syn.target {
            problems.push(format!(
                "{name}: grading and synthesis disagree on what T detects"
            ));
        }
        if gates.is_none() {
            problems.push(format!("{name}: empty Ω, no generator"));
        }
        flows.push(Flow {
            t_len: t.len(),
            t_detected: syn.target_count(),
            omega: syn.omega.len(),
            omega_pruned: pruned.len(),
            targets_detected: by_pruned
                .iter()
                .zip(&syn.target)
                .filter(|&(&d, &t)| d && t)
                .count(),
            coverage_guaranteed: syn.coverage_guaranteed(),
            generator_gates: gates.unwrap_or(0),
            atpg_vectors,
        });
    }
    (flows, problems)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let d = drive(
        args,
        tr,
        &mut out,
        UNITS,
        setup,
        |p, k, tel, tr| unit(p, seed, k, tel, tr),
        |p, products| check(p, products),
    );

    if seed == DEFAULT_SEED {
        if let Some(flows) = d.results.first() {
            for ((name, want), got) in CIRCUITS.iter().zip(&PINNED).zip(flows) {
                if got != want {
                    out.fail(format!("{name}: unit 0 gives {got:?}, pinned {want:?}"));
                }
            }
        }
    }

    let flows: Vec<&Flow> = d.results.iter().flatten().collect();
    let sum = |f: fn(&Flow) -> usize| flows.iter().map(|x| f(x) as f64).sum::<f64>();
    if args.trace {
        out.metrics = layers::derive(tr, &d.work, d.results.len(), d.setups);
        out.metrics.insert(
            "atpg.vectors",
            sum(|f| f.atpg_vectors) / d.results.len() as f64,
        );
        out.metrics.insert(
            "atpg.compact_ratio",
            ratio(sum(|f| f.t_len), sum(|f| f.atpg_vectors)),
        );
        d.report_overhead(&mut out);
    } else {
        out.metrics = d.common_metrics();
        out.metrics.insert(
            "coverage",
            ratio(sum(|f| f.targets_detected), sum(|f| f.t_detected)),
        );
        out.metrics.insert(
            "omega_pruned",
            sum(|f| f.omega_pruned) / d.results.len() as f64,
        );
    }
    out.detail.push(("samples", d.samples()));
    out.detail.push((
        "units",
        Json::Array(
            d.results
                .iter()
                .map(|flows| {
                    Json::Array(
                        flows
                            .iter()
                            .map(|f| format!("{f:?}").as_str().into())
                            .collect(),
                    )
                })
                .collect(),
        ),
    ));
    out
}
