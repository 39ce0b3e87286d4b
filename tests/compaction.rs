//! Static compaction against a from-scratch oracle, and the ATPG and
//! compaction outputs pinned.
//!
//! `compact` resumes every trial from the snapshots of the current
//! sequence. The oracle below is the plain trial loop: every trial
//! re-simulates the whole shortened sequence from cycle 0. The two must
//! return identical sequences for every input.

mod common;

use wbist::atpg::{compact, AtpgConfig, CompactionConfig, SequenceAtpg};
use wbist::circuits::SyntheticSpec;
use wbist::netlist::{Circuit, FaultList, FaultModel, FaultUniverse};
use wbist::sim::{FaultSim, TestSequence};

/// The compaction loop with every trial simulated from scratch.
fn compact_from_scratch(
    c: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    config: &CompactionConfig,
) -> TestSequence {
    let sim = FaultSim::new(c);
    let target = sim.query(faults).sequence(sequence).count();
    let mut current = sequence.clone();
    let mut trials = 0usize;
    for &bs in config.block_sizes.iter().filter(|&&bs| bs > 0) {
        let mut start = current.len().saturating_sub(bs);
        loop {
            if trials >= config.max_trials {
                return current;
            }
            if current.len() <= bs {
                break;
            }
            let omit: Vec<usize> = (start..(start + bs).min(current.len())).collect();
            let shorter = current.without_rows(&omit);
            trials += 1;
            if sim.query(faults).sequence(&shorter).count() >= target {
                current = shorter;
                if start >= current.len() {
                    if start == 0 {
                        break;
                    }
                    start = start.saturating_sub(bs);
                }
            } else if start == 0 {
                break;
            } else {
                start = start.saturating_sub(bs);
            }
        }
    }
    current
}

fn circuit(seed: u64) -> Circuit {
    SyntheticSpec::new(format!("cmp{seed}"), 5, 3, 6, 90, seed).build()
}

/// An ATPG sequence padded with a repeat of itself, so every block size
/// finds rows to remove.
fn padded_sequence(c: &Circuit, faults: &FaultList, seed: u64) -> TestSequence {
    let cfg = AtpgConfig {
        seed,
        max_len: 160,
        patience: 6,
        ..AtpgConfig::default()
    };
    let mut t = SequenceAtpg::new(c, cfg).run(faults).sequence;
    let copy = t.clone();
    t.append(&copy);
    t.append(&common::lfsr_sequence(c, 24));
    t
}

fn configs(len: usize) -> Vec<CompactionConfig> {
    let cfg = |block_sizes: Vec<usize>, max_trials: usize| CompactionConfig {
        block_sizes,
        max_trials,
    };
    vec![
        cfg(vec![64, 16], 2000),
        cfg(vec![8, 4, 1], 2000),
        cfg(vec![len + 5], 2000),
        cfg(vec![8, 4, 1], 1),
        cfg(vec![64, 16, 4], 3),
    ]
}

fn assert_matches_oracle(c: &Circuit, faults: &FaultList, t: &TestSequence, what: &str) {
    for cfg in configs(t.len()) {
        let fast = compact(c, faults, t, &cfg);
        let oracle = compact_from_scratch(c, faults, t, &cfg);
        assert_eq!(fast, oracle, "{what}, {cfg:?}");
    }
}

#[test]
fn compaction_matches_the_from_scratch_oracle_under_both_fault_models() {
    for seed in 0..3 {
        let c = circuit(seed);
        for model in [FaultModel::StuckAt, FaultModel::TransitionDelay] {
            let faults = FaultUniverse::checkpoints(model, &c);
            let t = padded_sequence(&c, &faults, seed);
            assert_matches_oracle(&c, &faults, &t, &format!("seed {seed}, {model:?}"));
        }
    }
}

#[test]
fn compaction_matches_the_oracle_when_t_detects_nothing() {
    let c = circuit(7);
    let all = FaultList::checkpoints(&c);
    let t = padded_sequence(&c, &all, 7);
    // Keep only the faults `T` misses: the target count is zero, so
    // every trial is accepted and the sequence shrinks to one block.
    let detected = FaultSim::new(&c).query(&all).sequence(&t).detected();
    let missed = FaultList::from_faults(
        all.iter()
            .zip(&detected)
            .filter(|&(_, &d)| !d)
            .map(|(&f, _)| f)
            .collect(),
    );
    assert!(!missed.is_empty(), "the fixture needs undetected faults");
    assert_eq!(FaultSim::new(&c).query(&missed).sequence(&t).count(), 0);
    assert_matches_oracle(&c, &missed, &t, "T detects nothing");
    let shrunk = compact(&c, &missed, &t, &CompactionConfig::default());
    assert_eq!(shrunk.len(), 1);
}

#[test]
fn atpg_detected_flags_equal_a_one_shot_query_under_transition_faults() {
    for seed in 0..3 {
        let c = circuit(seed);
        let faults = FaultUniverse::checkpoints(FaultModel::TransitionDelay, &c);
        let cfg = AtpgConfig {
            seed,
            max_len: 240,
            ..AtpgConfig::default()
        };
        let result = SequenceAtpg::new(&c, cfg).run(&faults);
        assert!(result.detected_count() > 0, "seed {seed}");
        let oneshot = FaultSim::new(&c)
            .query(&faults)
            .sequence(&result.sequence)
            .detected();
        assert_eq!(result.detected, oneshot, "seed {seed}");
    }
}

/// ATPG and compaction at their default configurations, as `wbist atpg`
/// and `wbist synth` run them: `(vectors before compaction, vectors
/// after, faults detected)`.
fn default_flow(name: &str) -> (usize, usize, usize) {
    let c = common::benchmark(name);
    let faults = FaultList::checkpoints(&c);
    let result = SequenceAtpg::new(&c, AtpgConfig::default()).run(&faults);
    let t = compact(&c, &faults, &result.sequence, &CompactionConfig::default());
    let detected = FaultSim::new(&c).query(&faults).sequence(&t).count();
    assert_eq!(detected, result.detected_count(), "{name}: coverage kept");
    (result.sequence.len(), t.len(), detected)
}

#[test]
fn s298_atpg_and_compaction_are_pinned() {
    assert_eq!(default_flow("s298"), (632, 49, 388));
}

/// Release-mode only (minutes in a debug build): CI runs it with
/// `--ignored`.
#[test]
#[ignore]
fn s1196_atpg_and_compaction_are_pinned() {
    assert_eq!(default_flow("s1196"), (1024, 224, 1693));
}
