//! Bit-identity of the speculative selection wavefront.
//!
//! Speculation (`SynthesisConfig::speculation`) is a wall-clock
//! optimization only: evaluating the next K candidate ranks concurrently
//! against a frozen detection snapshot and committing in strict rank
//! order must leave `Ω`, the detection/abandonment flags, and every
//! deterministic telemetry counter bit-identical to the sequential walk
//! — at every worker count, every wavefront width, and in every
//! combination of the two.

use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::structured::sequence_lock;
use wbist::circuits::{s27, synthetic};
use wbist::core::{RunOptions, Synthesis, SynthesisConfig, SynthesisResult, Telemetry};
use wbist::netlist::{Circuit, FaultList};
use wbist::sim::TestSequence;

type Counters = Vec<(String, u64)>;

/// One synthesis run at a given worker count and speculation width,
/// returning the result and the deterministic counter snapshot.
fn run_once(
    c: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    pre: Option<&[bool]>,
    base: &SynthesisConfig,
    threads: usize,
    width: usize,
) -> (SynthesisResult, Counters) {
    let tel = Telemetry::enabled();
    let cfg = SynthesisConfig {
        speculation: width,
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

/// The full worker-count × width grid on s27 with the paper's sequence.
#[test]
fn s27_grid_matches_sequential_walk() {
    let c = s27::circuit();
    let t = s27::paper_test_sequence();
    let faults = FaultList::checkpoints(&c);
    let base = SynthesisConfig {
        sequence_length: 100,
        ..SynthesisConfig::default()
    };
    let reference = run_once(&c, &t, &faults, None, &base, 1, 1);
    assert!(!reference.0.omega.is_empty());
    for threads in [1usize, 2, 4] {
        for width in [1usize, 4, 16] {
            let speculative = run_once(&c, &t, &faults, None, &base, threads, width);
            assert_identical(
                &format!("threads={threads} width={width}"),
                &reference,
                &speculative,
            );
        }
    }
}

/// A bigger circuit with a subsampled target set: the widest wavefront
/// on the most workers still reproduces the sequential walk.
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
    let reference = run_once(&c, &t, &faults, Some(&pre), &base, 1, 1);
    assert!(reference.0.omega.len() >= 2, "need a non-trivial walk");
    for (threads, width) in [(4usize, 4usize), (4, 16), (2, 8)] {
        let speculative = run_once(&c, &t, &faults, Some(&pre), &base, threads, width);
        assert_identical(
            &format!("threads={threads} width={width}"),
            &reference,
            &speculative,
        );
    }
}

/// A walk whose candidate sets contain stream-equivalent subsequences
/// must resolve the duplicate `T_G` through the prefix-trace cache —
/// and stay bit-identical while doing so. A single-input sequence lock
/// driven by an arming prefix plus a periodic tail provides exactly
/// that: the `01` window at `L_S = 2` and the `0101` window at
/// `L_S = 4` repeat to the same generated stream (with one input, a
/// candidate *is* the whole assignment), while the gated fault resists
/// every periodic candidate, so both ranks land in the same keep-free
/// segment and the second resolves as a full-length prefix share.
///
/// The reuse counters live in the width-dependent effort space (the
/// cache a wave sees depends on the wavefront boundaries), so the test
/// also pins their determinism at a *fixed* width: they must be
/// thread-invariant and reproducible run to run — the cache is only
/// written at the strictly-ordered commit point.
#[test]
fn duplicate_heavy_walk_reuses_the_prefix_cache() {
    let c = sequence_lock(1, 3);
    let faults = FaultList::checkpoints(&c);
    let t = TestSequence::parse_rows(&["1", "1", "1", "1", "0", "1", "0", "1", "0", "1"])
        .expect("valid rows");
    // Leave only the hardest fault (largest detection time) as a target:
    // one long keep-free walk instead of several short segments.
    let times = wbist::sim::FaultSim::new(&c)
        .query(&faults)
        .sequence(&t)
        .detection_times();
    let hardest = times
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|u| (i, u)))
        .max_by_key(|&(_, u)| u)
        .map(|(i, _)| i)
        .expect("T detects something");
    let pre: Vec<bool> = (0..faults.len()).map(|i| i != hardest).collect();
    let base = SynthesisConfig {
        sequence_length: 60,
        sample_first: false,
        ..SynthesisConfig::default()
    };
    // The reference run keeps its own handle so the effort space is
    // readable alongside the deterministic counters.
    let run_with_effort = |threads: usize, width: usize| -> (SynthesisResult, Counters, u64, u64) {
        let tel = Telemetry::enabled();
        let cfg = SynthesisConfig {
            speculation: width,
            run: RunOptions::with_threads(threads).telemetry(tel.clone()),
            ..base.clone()
        };
        let result = Synthesis::new(&c, &t, &faults)
            .config(cfg)
            .already_detected(&pre)
            .run();
        let counters = tel.counters();
        (
            result,
            counters,
            tel.effort("select.prefix_hits"),
            tel.effort("select.cycles_skipped"),
        )
    };
    let (result, counters, hits, skipped) = run_with_effort(1, 1);
    assert!(
        hits > 0 && skipped > 0,
        "duplicate-heavy walk must reuse prefixes; hits={hits} skipped={skipped}"
    );
    let reference = (result, counters);
    for (threads, width) in [(2usize, 4usize), (4, 16)] {
        let speculative = run_once(&c, &t, &faults, Some(&pre), &base, threads, width);
        assert_identical(
            &format!("threads={threads} width={width}"),
            &reference,
            &speculative,
        );
    }
    // Fixed width ⇒ fixed wavefront boundaries ⇒ the reuse counters are
    // a pure function of the walk: thread count must not move them.
    let (_, _, base_hits, base_skipped) = run_with_effort(1, 4);
    for threads in [2usize, 4] {
        let (_, _, h, s) = run_with_effort(threads, 4);
        assert_eq!(
            (h, s),
            (base_hits, base_skipped),
            "prefix counters must be thread-invariant at fixed width (threads={threads})"
        );
    }
}

proptest! {
    /// Randomized configurations (sequence, L_G, screening knobs) with a
    /// randomly drawn worker-count/width combination from the tested
    /// grid: every draw must match its own sequential reference.
    #[test]
    fn random_configs_are_width_invariant(
        seed in 1u32..0xFFFF,
        t_len in 8usize..32,
        lg in 24usize..80,
        sample_size in 1usize..8,
        sample_sel in 0u8..2,
        grid in 0usize..9,
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
        let threads = [1usize, 2, 4][grid / 3];
        let width = [1usize, 4, 16][grid % 3];
        let reference = run_once(&c, &t, &faults, None, &base, 1, 1);
        let speculative = run_once(&c, &t, &faults, None, &base, threads, width);
        prop_assert_eq!(&speculative.0.omega, &reference.0.omega);
        prop_assert_eq!(&speculative.0.detected, &reference.0.detected);
        prop_assert_eq!(&speculative.0.abandoned, &reference.0.abandoned);
        prop_assert_eq!(&speculative.1, &reference.1);
    }
}
