//! Bit-identity of the selection walk across worker counts.
//!
//! The suite is named for the speculative selection wavefront it was
//! first written against; that wavefront is gone (DESIGN §12) and the
//! §4.2 walk is one serial rank loop. Only fault simulation fans out
//! over workers, so `Ω`, the detection/abandonment flags and every
//! deterministic telemetry counter must equal the one-worker walk at
//! every worker count.

use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::{s27, synthetic};
use wbist::core::{RunOptions, Synthesis, SynthesisConfig, SynthesisResult, Telemetry};
use wbist::netlist::{Circuit, FaultList};
use wbist::sim::TestSequence;

type Counters = Vec<(String, u64)>;

/// One synthesis run at a given worker count, returning the result and
/// the deterministic counter snapshot.
fn run_once(
    c: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    pre: Option<&[bool]>,
    base: &SynthesisConfig,
    threads: usize,
) -> (SynthesisResult, Counters) {
    let tel = Telemetry::enabled();
    let cfg = SynthesisConfig {
        run: RunOptions::with_threads(threads).telemetry(tel.clone()),
        ..base.clone()
    };
    let mut synth = Synthesis::new(c, t, faults).config(cfg);
    if let Some(pre) = pre {
        synth = synth.already_detected(pre);
    }
    (synth.run(), tel.counters())
}

fn assert_identical(
    label: &str,
    reference: &(SynthesisResult, Counters),
    candidate: &(SynthesisResult, Counters),
) {
    assert_eq!(candidate.0.omega, reference.0.omega, "{label}: Ω");
    assert_eq!(
        candidate.0.detected, reference.0.detected,
        "{label}: detection flags"
    );
    assert_eq!(
        candidate.0.abandoned, reference.0.abandoned,
        "{label}: abandonment flags"
    );
    assert_eq!(candidate.1, reference.1, "{label}: deterministic counters");
}

/// s27 with the paper's sequence at 1, 2 and 4 workers.
#[test]
fn s27_grid_matches_sequential_walk() {
    let c = s27::circuit();
    let t = s27::paper_test_sequence();
    let faults = FaultList::checkpoints(&c);
    let base = SynthesisConfig {
        sequence_length: 100,
        ..SynthesisConfig::default()
    };
    let reference = run_once(&c, &t, &faults, None, &base, 1);
    assert!(!reference.0.omega.is_empty());
    for threads in [1usize, 2, 4] {
        let run = run_once(&c, &t, &faults, None, &base, threads);
        assert_identical(&format!("threads={threads}"), &reference, &run);
    }
}

/// A bigger circuit with a subsampled target set: the most workers
/// still reproduce the one-worker walk.
#[test]
fn s1196_wide_wavefront_matches_sequential_walk() {
    let c = synthetic::by_name("s1196").expect("known benchmark");
    let faults = FaultList::checkpoints(&c);
    let t = Lfsr::new(24, 0xACE1).sequence(c.num_inputs(), 48);
    let pre: Vec<bool> = (0..faults.len()).map(|i| i % 25 != 0).collect();
    let base = SynthesisConfig {
        sequence_length: 64,
        ..SynthesisConfig::default()
    };
    let reference = run_once(&c, &t, &faults, Some(&pre), &base, 1);
    assert!(reference.0.omega.len() >= 2, "need a non-trivial walk");
    for threads in [2usize, 4] {
        let run = run_once(&c, &t, &faults, Some(&pre), &base, threads);
        assert_identical(&format!("threads={threads}"), &reference, &run);
    }
}

proptest! {
    /// Randomized configurations (sequence, L_G, screening knobs) with a
    /// randomly drawn worker count: every draw must match its own
    /// one-worker reference.
    #[test]
    fn random_configs_are_width_invariant(
        seed in 1u32..0xFFFF,
        t_len in 8usize..32,
        lg in 24usize..80,
        sample_size in 1usize..8,
        sample_sel in 0u8..2,
        threads_sel in 0usize..3,
    ) {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = Lfsr::new(16, seed).sequence(c.num_inputs(), t_len);
        let base = SynthesisConfig {
            sequence_length: lg,
            sample_first: sample_sel == 1,
            sample_size,
            ..SynthesisConfig::default()
        };
        let threads = [1usize, 2, 4][threads_sel];
        let reference = run_once(&c, &t, &faults, None, &base, 1);
        let run = run_once(&c, &t, &faults, None, &base, threads);
        prop_assert_eq!(&run.0.omega, &reference.0.omega);
        prop_assert_eq!(&run.0.detected, &reference.0.detected);
        prop_assert_eq!(&run.0.abandoned, &reference.0.abandoned);
        prop_assert_eq!(&run.1, &reference.1);
    }
}
