//! Prefix-shared incremental candidate evaluation.
//!
//! The selection walk of `wbist-core` evaluates dozens of generated
//! sequences `T_G` per segment, and consecutive candidate ranks share
//! long sequence prefixes by construction (periodic per-input streams
//! change one input's period at a time, and clamped ranks literally
//! repeat sequences). A [`PrefixTraceCache`] exploits that: it keeps the
//! last few evaluated sequences together with
//!
//! * their good-machine trace (`compiled::GoodTrace`) — a new
//!   candidate copies the shared prefix rows verbatim and resumes
//!   the scalar good simulation at the first row that differs, and
//! * per-batch faulty-plane state snapshotted at checkpointed cycles
//!   (`compiled::BatchCkpt`) — a dense detection query resumes each
//!   fault batch from the latest snapshot at or before the divergence
//!   cycle instead of from cycle 0, with the dirty-set worklists
//!   reseeded from the restored state.
//!
//! # Exactness
//!
//! Resumed runs are **bit-identical** to from-scratch runs, including
//! the deterministic telemetry counters: every snapshot stores the
//! complete kernel state at a cycle boundary — live mask, flip-flop
//! planes, the explicit dirty-flip-flop set, cumulative batch stats,
//! and how many entries of the batch's cycle-ordered detection list
//! were found so far (the list itself is kept once per batch) — so a
//! resumed batch replays exactly the suffix the from-scratch run would
//! have executed and credits exactly the stats it would have
//! accumulated. The dirty set is restored explicitly rather
//! than recomputed: a flip-flop whose faulty planes happen to agree with
//! the good machine can still be flagged dirty mid-run (it goes clean
//! only at its next examination), and recomputing the flags would skip
//! that examination and undercount `gates_evaluated`.
//!
//! Faulty-plane artifacts are keyed by a fingerprint of the fault list
//! they were simulated against; a query over a different list (the
//! screening sample, say) reuses only the good trace. The cache itself
//! is a plain value owned by its caller — it is never persisted to
//! checkpoints and never hashed into a run configuration. Two callers
//! own one:
//!
//! * the selection loop of `wbist-core`, which clears it whenever the
//!   segment snapshot it was built under changes, and
//! * static compaction in `wbist-atpg`, which keeps the current
//!   sequence as its only entry. A trial omits one block of rows, so it
//!   resumes from the shared prefix, and its good trace rejoins the
//!   cached one once the machine resynchronizes (see
//!   `deleted_rows`).

use std::sync::Arc;

use crate::compiled::{BatchCkpt, GoodTrace};
use crate::sequence::TestSequence;
use wbist_netlist::{FaultList, FaultModel, FaultSite};

/// Entries kept per cache (the last few committed candidates). Small by
/// design: consecutive ranks diverge from a recent sequence or not at
/// all, and each entry can pin per-batch plane snapshots.
const CACHE_CAP: usize = 4;

/// Per-batch faulty-plane snapshots, valid for one (sequence, fault
/// list) pair.
#[derive(Debug)]
pub(crate) struct FaultyArtifacts {
    /// Fingerprint of the fault list the snapshots were taken against.
    pub(crate) fingerprint: u64,
    /// Snapshots per batch, ascending by cycle within each batch.
    pub(crate) snaps: Vec<Vec<Arc<BatchCkpt>>>,
    /// Per batch, the capturing run's detections `(fault index, cycle)`
    /// in cycle order. Every snapshot of the batch records only the
    /// length of the prefix found before its cycle, so the list is
    /// stored once instead of once per snapshot.
    pub(crate) found: Vec<Vec<(usize, usize)>>,
}

/// One cached sequence with its good trace and optional faulty state.
#[derive(Debug)]
pub(crate) struct CacheEntry {
    pub(crate) seq: TestSequence,
    pub(crate) trace: Arc<GoodTrace>,
    pub(crate) faulty: Option<FaultyArtifacts>,
}

/// An entry ready to be installed into a [`PrefixTraceCache`], produced
/// by the prepared queries of [`FaultSim`](crate::FaultSim). Opaque to
/// callers: the caller decides *when* an evaluation enters the cache
/// (the selection loop installs each candidate it does not keep, in rank
/// order), the simulator decides *what* is worth keeping.
#[derive(Debug)]
pub struct CacheInstall {
    pub(crate) seq: TestSequence,
    pub(crate) trace: Arc<GoodTrace>,
    pub(crate) faulty: Option<FaultyArtifacts>,
}

/// Cache of recently evaluated sequences, looked up by longest common
/// row prefix. See the [module documentation](self).
#[derive(Debug, Default)]
pub struct PrefixTraceCache {
    entries: Vec<CacheEntry>,
}

impl PrefixTraceCache {
    /// An empty cache.
    pub fn new() -> PrefixTraceCache {
        PrefixTraceCache::default()
    }

    /// Forgets every entry. Called whenever the state the entries were
    /// evaluated under changes (a kept assignment, a new target fault,
    /// a resumed run).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of cached sequences.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs an evaluation. An identical sequence refreshes
    /// its entry in place (keeping previously captured faulty artifacts
    /// when the new install carries none); otherwise the entry is
    /// appended and the oldest entry beyond the cap is evicted.
    pub fn install(&mut self, inst: CacheInstall) {
        if let Some(pos) = self.entries.iter().position(|e| e.seq == inst.seq) {
            let old = self.entries.remove(pos);
            self.entries.push(CacheEntry {
                seq: inst.seq,
                trace: inst.trace,
                faulty: inst.faulty.or(old.faulty),
            });
        } else {
            self.entries.push(CacheEntry {
                seq: inst.seq,
                trace: inst.trace,
                faulty: inst.faulty,
            });
            if self.entries.len() > CACHE_CAP {
                self.entries.remove(0);
            }
        }
    }

    /// The entry sharing the longest row prefix with `seq`, as
    /// `(entry index, shared rows)`; ties prefer the most recently
    /// installed entry. `None` when nothing shares even the first row.
    pub(crate) fn best_prefix(&self, seq: &TestSequence) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for (i, entry) in self.entries.iter().enumerate() {
            let d = common_prefix_rows(&entry.seq, seq);
            if d >= 1 && best.is_none_or(|(_, bd)| d >= bd) {
                best = Some((i, d));
            }
        }
        best
    }

    pub(crate) fn entry(&self, i: usize) -> &CacheEntry {
        &self.entries[i]
    }
}

/// Which input streams differ between the cached prefix `owner` and the
/// `probe` beyond the shared prefix `from`: one flag per primary input,
/// set when the two sequences disagree on that input at *any* of the
/// overlapping rows `from..min(len)`. Rows past the owner's length have
/// no cached values to diff against (they are simulated in full), so
/// they do not contribute.
///
/// This is what makes the prefix cache *spatially* incremental: the
/// cone-seeded good-trace rebuild re-evaluates only the forward cones
/// of the flagged inputs, and a probe that differs from its cached
/// owner in one weight stream re-simulates one cone, not the netlist.
pub(crate) fn changed_streams(
    owner: &TestSequence,
    probe: &TestSequence,
    from: usize,
) -> Vec<bool> {
    debug_assert_eq!(owner.num_inputs(), probe.num_inputs());
    let mut changed = vec![false; probe.num_inputs()];
    for u in from..owner.len().min(probe.len()) {
        let (a, b) = (owner.row(u), probe.row(u));
        for (flag, (x, y)) in changed.iter_mut().zip(a.iter().zip(b)) {
            *flag |= x != y;
        }
    }
    changed
}

/// How many rows `probe` lacks when it is `owner` with one block of
/// rows deleted after their shared prefix `from` — the shape of a
/// static-compaction trial: `Some(gap)` when `owner` is `gap ≥ 1` rows
/// longer and `probe`'s rows `from..` equal `owner`'s rows
/// `from + gap..`, else `None`.
pub(crate) fn deleted_rows(
    owner: &TestSequence,
    probe: &TestSequence,
    from: usize,
) -> Option<usize> {
    let gap = owner.len().checked_sub(probe.len()).filter(|&g| g > 0)?;
    (from..probe.len())
        .all(|u| owner.row(u + gap) == probe.row(u))
        .then_some(gap)
}

/// Number of leading time units on which `a` and `b` apply identical
/// input vectors (0 when the input widths differ).
pub(crate) fn common_prefix_rows(a: &TestSequence, b: &TestSequence) -> usize {
    if a.num_inputs() != b.num_inputs() {
        return 0;
    }
    let n = a.len().min(b.len());
    (0..n).take_while(|&u| a.row(u) == b.row(u)).count()
}

/// FNV-1a fingerprint of a fault list: faulty-plane snapshots are only
/// resumable against the exact list (same faults, same order — batching
/// and bit assignment follow list order).
pub(crate) fn fault_fingerprint(faults: &FaultList) -> u64 {
    let mut h = Fnv::new();
    h.int(faults.len() as u64);
    for f in faults.iter() {
        h.int(match f.model() {
            FaultModel::StuckAt => 0,
            FaultModel::TransitionDelay => 1,
        });
        match f.site() {
            FaultSite::Stem(net) => {
                h.int(0);
                h.int(net.index() as u64);
            }
            FaultSite::GatePin { gate, pin } => {
                h.int(1);
                h.int(gate.index() as u64);
                h.int(pin as u64);
            }
            FaultSite::DffData(k) => {
                h.int(2);
                h.int(k as u64);
            }
        }
        h.int(f.polarity() as u64);
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn int(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledCircuit;
    use crate::logic::Logic3;
    use wbist_netlist::{bench_format, Fault, NetId};

    fn seq(rows: &[&str]) -> TestSequence {
        TestSequence::parse_rows(rows).expect("valid rows")
    }

    fn trace_for(rows: &[&str]) -> (TestSequence, Arc<GoodTrace>) {
        let c = bench_format::parse(
            "toy",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(g)\ng = NAND(a, q)\ny = XOR(g, b)\n",
        )
        .unwrap();
        let cc = CompiledCircuit::build(&c);
        let s = seq(rows);
        let (t, _) = cc.good_trace(&s, &[Logic3::X]);
        (s, Arc::new(t))
    }

    fn install_of(rows: &[&str]) -> CacheInstall {
        let (s, t) = trace_for(rows);
        CacheInstall {
            seq: s,
            trace: t,
            faulty: None,
        }
    }

    #[test]
    fn common_prefix_counts_rows() {
        let a = seq(&["00", "01", "10"]);
        let b = seq(&["00", "01", "11"]);
        assert_eq!(common_prefix_rows(&a, &b), 2);
        assert_eq!(common_prefix_rows(&a, &a), 3);
        let short = seq(&["00"]);
        assert_eq!(common_prefix_rows(&a, &short), 1);
        let wide = seq(&["000"]);
        assert_eq!(common_prefix_rows(&a, &wide), 0);
        let cold = seq(&["11", "01"]);
        assert_eq!(common_prefix_rows(&a, &cold), 0);
    }

    #[test]
    fn lookup_prefers_longest_then_most_recent() {
        let mut cache = PrefixTraceCache::new();
        cache.install(install_of(&["00", "11", "00", "11"]));
        cache.install(install_of(&["00", "11", "01", "11"]));
        let probe = seq(&["00", "11", "01", "10"]);
        let (idx, d) = cache.best_prefix(&probe).expect("shares a prefix");
        assert_eq!((idx, d), (1, 3), "longest prefix wins");
        // An exact duplicate of entry 0 ties entry 0's length against
        // nothing — full-length match reaches its own entry.
        let dup = seq(&["00", "11", "00", "11"]);
        assert_eq!(cache.best_prefix(&dup), Some((0, 4)));
        assert_eq!(cache.best_prefix(&seq(&["10", "00"])), None);
    }

    #[test]
    fn install_caps_and_refreshes() {
        let mut cache = PrefixTraceCache::new();
        let variants: Vec<Vec<String>> = (0..6)
            .map(|i| vec![format!("{:02b}", i % 4), format!("{:02b}", i / 2)])
            .collect();
        for v in &variants {
            let rows: Vec<&str> = v.iter().map(String::as_str).collect();
            cache.install(install_of(&rows));
        }
        assert!(cache.len() <= CACHE_CAP);
        // Reinstalling an existing sequence must not grow the cache.
        let rows: Vec<&str> = variants[5].iter().map(String::as_str).collect();
        let before = cache.len();
        cache.install(install_of(&rows));
        assert_eq!(cache.len(), before);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn deleted_rows_recognizes_one_omitted_block() {
        let owner = seq(&["00", "01", "10", "11", "01"]);
        // Rows 1..3 omitted: the suffix realigns two rows later.
        assert_eq!(deleted_rows(&owner, &seq(&["00", "11", "01"]), 1), Some(2));
        // A tail omission leaves nothing to realign.
        assert_eq!(deleted_rows(&owner, &seq(&["00", "01", "10"]), 3), Some(2));
        // Same length, longer, or a changed row: not a deletion.
        assert_eq!(deleted_rows(&owner, &owner, 5), None);
        assert_eq!(deleted_rows(&seq(&["00"]), &owner, 1), None);
        assert_eq!(deleted_rows(&owner, &seq(&["00", "11", "00"]), 1), None);
    }

    #[test]
    fn changed_streams_flags_only_diverging_inputs() {
        let a = seq(&["00", "01", "10"]);
        let b = seq(&["00", "11", "10"]);
        assert_eq!(changed_streams(&a, &b, 1), vec![true, false]);
        assert_eq!(changed_streams(&a, &b, 2), vec![false, false]);
        // Rows past the owner's length have nothing to diff against.
        let longer = seq(&["00", "01", "10", "11"]);
        assert_eq!(changed_streams(&a, &longer, 3), vec![false, false]);
    }

    #[test]
    fn fingerprint_separates_fault_lists() {
        let a = FaultList::from_faults(vec![Fault::sa0(FaultSite::Stem(NetId::from_index(3)))]);
        let b = FaultList::from_faults(vec![Fault::sa1(FaultSite::Stem(NetId::from_index(3)))]);
        let c = FaultList::from_faults(vec![Fault::sa0(FaultSite::DffData(3))]);
        // Same site and polarity under a different model must not alias:
        // snapshots taken against stuck-at faults are meaningless for a
        // transition query over the same lines.
        let d = FaultList::from_faults(vec![Fault::slow_to_rise(FaultSite::Stem(
            NetId::from_index(3),
        ))]);
        assert_ne!(fault_fingerprint(&a), fault_fingerprint(&b));
        assert_ne!(fault_fingerprint(&a), fault_fingerprint(&c));
        assert_ne!(fault_fingerprint(&a), fault_fingerprint(&d));
        assert_ne!(fault_fingerprint(&b), fault_fingerprint(&d));
        assert_eq!(fault_fingerprint(&a), fault_fingerprint(&a.clone()));
    }
}
