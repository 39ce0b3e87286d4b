//! Omission-based static compaction of test sequences.
//!
//! The paper applies static compaction to the deterministic sequences it
//! consumes. This module implements omission-based compaction: candidate
//! blocks of vectors are removed and the shortened sequence is
//! re-fault-simulated; the removal is kept when coverage does not drop.
//! Passes run with shrinking block sizes, scanning from the end of the
//! sequence toward the front (late vectors are most often redundant,
//! and removing them does not disturb the initialization prefix).
//!
//! A trial that omits rows `start..start + bs` leaves rows `0..start`
//! untouched, so it does not replay them: the current sequence sits in
//! a one-entry [`PrefixTraceCache`], and each trial resumes every fault
//! batch from the cached snapshot at or before `start`. Its good trace
//! is simulated from `start` only until the machine's state rejoins the
//! cached trace, `bs` rows later there, and copied from then on.
//! Resumed runs are bit-identical to from-scratch ones, so the
//! compacted sequence is too.

use wbist_netlist::{Circuit, FaultList};
use wbist_sim::{FaultSim, PrefixTraceCache, TestSequence};

/// Configuration for [`compact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionConfig {
    /// Block sizes tried, in order. Defaults to `[64, 16, 4, 1]`.
    pub block_sizes: Vec<usize>,
    /// Upper bound on trial re-simulations (compaction is quadratic in
    /// the worst case; this caps the effort). Each trial re-simulates
    /// the suffix from the omitted block on, not the whole sequence.
    pub max_trials: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            block_sizes: vec![64, 16, 4, 1],
            max_trials: 2000,
        }
    }
}

/// Statically compacts `sequence` while preserving the number of faults
/// of `faults` it detects. Returns the compacted sequence (possibly the
/// input, if nothing could be removed).
///
/// # Panics
///
/// Panics if the circuit has not been levelized or the sequence width
/// does not match the circuit.
pub fn compact(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    config: &CompactionConfig,
) -> TestSequence {
    let sim = FaultSim::new(circuit);
    // The cache holds exactly the current sequence: trials resume from
    // its snapshots, and an accepted trial replaces it.
    let mut cache = PrefixTraceCache::new();
    let first = sim
        .query(faults)
        .prepared(&sim.prepare_sequence(None, sequence))
        .outcome();
    let target = first.detected.len();
    cache.install(first.install);
    let mut current = sequence.clone();
    let mut trials = 0usize;

    for &bs in &config.block_sizes {
        if bs == 0 {
            continue;
        }
        // Scan block starts from the tail toward the head.
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
            let prep = sim.prepare_sequence(Some(&cache), &shorter);
            let trial = sim.query(faults).prepared(&prep).cache(&cache).outcome();
            if trial.detected.len() >= target {
                cache.clear();
                cache.install(trial.install);
                current = shorter;
                // The window now covers fresh rows; stay at the same start
                // unless it ran off the end.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{AtpgConfig, SequenceAtpg};
    use wbist_circuits::s27;
    use wbist_netlist::FaultList;

    #[test]
    fn compaction_preserves_coverage() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let result = SequenceAtpg::new(&c, AtpgConfig::default()).run(&faults);
        let sim = FaultSim::new(&c);
        let before = sim.query(&faults).sequence(&result.sequence).count();
        let compacted = compact(&c, &faults, &result.sequence, &CompactionConfig::default());
        let after = sim.query(&faults).sequence(&compacted).count();
        assert!(after >= before);
        assert!(compacted.len() <= result.sequence.len());
    }

    #[test]
    fn compaction_actually_shrinks_padded_sequences() {
        // Duplicate the paper's s27 sequence three times: at least the
        // copies must go.
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = s27::paper_test_sequence();
        let mut padded = t.clone();
        padded.append(&t);
        padded.append(&t);
        let compacted = compact(&c, &faults, &padded, &CompactionConfig::default());
        assert!(
            compacted.len() <= t.len() + 4,
            "compacted to {} rows",
            compacted.len()
        );
        let sim = FaultSim::new(&c);
        assert_eq!(
            sim.query(&faults).sequence(&compacted).count(),
            sim.query(&faults).sequence(&padded).count()
        );
    }

    #[test]
    fn trial_budget_respected() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = s27::paper_test_sequence();
        let cfg = CompactionConfig {
            block_sizes: vec![1],
            max_trials: 1,
        };
        // Must terminate fast and return something valid.
        let out = compact(&c, &faults, &t, &cfg);
        assert!(out.len() <= t.len());
    }

    #[test]
    fn short_sequences_survive() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = s27::paper_test_sequence().slice(0..1);
        let out = compact(&c, &faults, &t, &CompactionConfig::default());
        assert_eq!(out.len(), 1);
    }
}
