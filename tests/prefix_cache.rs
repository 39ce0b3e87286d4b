//! Exactness of the prefix-trace cache.
//!
//! The cache (`SynthesisConfig::prefix_cache`) resumes candidate
//! evaluations from the longest shared sequence prefix of an earlier
//! evaluation — good-machine trace and checkpointed faulty-plane state
//! both. It is a wall-clock optimization only: `Ω`, the
//! detection/abandonment flags, and every deterministic telemetry
//! counter must be bit-identical with the cache on or off, at every
//! worker count, and across an interrupt/resume boundary (the cache is
//! rebuilt from nothing on resume and is deliberately excluded from the
//! checkpoint configuration hash). The selection walk is sequential, so
//! even the prefix-reuse figures in the effort space are a pure function
//! of the walk and must not move with the worker count.

use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::structured::sequence_lock;
use wbist::circuits::{s27, synthetic, SyntheticSpec};
use wbist::core::{
    Budget, Checkpoint, RunControl, RunOptions, Synthesis, SynthesisConfig, SynthesisResult,
    Telemetry, TruncationReason,
};
use wbist::netlist::{Circuit, FaultList};
use wbist::sim::{FaultSim, PrefixTraceCache, SimOptions, TestSequence};

type Counters = Vec<(String, u64)>;

/// The prefix-reuse figures of a synthesis run (effort space).
const REUSE_FIGURES: [&str; 4] = [
    "select.prefix_hits",
    "select.cycles_skipped",
    "select.cone_seeded",
    "select.trace_gates_evaluated",
];

/// One synthesis run; returns the result, the deterministic counter
/// snapshot, and the [`REUSE_FIGURES`].
fn run_once(
    c: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    pre: Option<&[bool]>,
    base: &SynthesisConfig,
    threads: usize,
    cache: bool,
) -> (SynthesisResult, Counters, [u64; 4]) {
    let tel = Telemetry::enabled();
    let cfg = SynthesisConfig {
        prefix_cache: cache,
        run: RunOptions::with_threads(threads).telemetry(tel.clone()),
        ..base.clone()
    };
    let mut synth = Synthesis::new(c, t, faults).config(cfg);
    if let Some(pre) = pre {
        synth = synth.already_detected(pre);
    }
    let result = synth.run();
    (
        result,
        tel.counters(),
        REUSE_FIGURES.map(|name| tel.effort(name)),
    )
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

/// Cache on at 1, 2 and 4 worker threads against the cache-free
/// single-thread walk: bit-identical results and deterministic counters,
/// nonzero reuse, and the same [`REUSE_FIGURES`] at every thread count.
/// Returns the cache-free reference result.
fn assert_cache_invisible_and_nonzero(
    c: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    pre: &[bool],
    base: &SynthesisConfig,
) -> SynthesisResult {
    let (r0, c0, off) = run_once(c, t, faults, Some(pre), base, 1, false);
    assert_eq!(off, [0; 4], "cache off cannot reuse");
    let reference = (r0, c0);
    let mut reuse_at_one_thread: Option<[u64; 4]> = None;
    for threads in [1usize, 2, 4] {
        let (r, counters, reuse) = run_once(c, t, faults, Some(pre), base, threads, true);
        assert_identical(
            &format!("cache on, threads={threads}"),
            &reference,
            &(r, counters),
        );
        let [hits, skipped, _, _] = reuse;
        assert!(
            hits > 0 && skipped > 0,
            "threads={threads}: the cache must fire; hits={hits} skipped={skipped}"
        );
        let want = *reuse_at_one_thread.get_or_insert(reuse);
        assert_eq!(
            reuse, want,
            "threads={threads}: {REUSE_FIGURES:?} must not depend on the thread count"
        );
    }
    reference.0
}

fn s1196_setup() -> (Circuit, TestSequence, FaultList, Vec<bool>, SynthesisConfig) {
    let c = synthetic::by_name("s1196").expect("known benchmark");
    let faults = FaultList::checkpoints(&c);
    let t = Lfsr::new(24, 0xACE1).sequence(c.num_inputs(), 48);
    let pre: Vec<bool> = (0..faults.len()).map(|i| i % 25 != 0).collect();
    let base = SynthesisConfig {
        sequence_length: 64,
        ..SynthesisConfig::default()
    };
    (c, t, faults, pre, base)
}

/// Cache on vs cache off on a real benchmark with pre-detected faults.
#[test]
fn s1196_cache_is_invisible_and_nonzero() {
    let (c, t, faults, pre, base) = s1196_setup();
    let reference = assert_cache_invisible_and_nonzero(&c, &t, &faults, &pre, &base);
    assert!(reference.omega.len() >= 2, "need a non-trivial walk");
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
#[test]
fn duplicate_heavy_walk_reuses_the_prefix_cache() {
    let c = sequence_lock(1, 3);
    let faults = FaultList::checkpoints(&c);
    let t = TestSequence::parse_rows(&["1", "1", "1", "1", "0", "1", "0", "1", "0", "1"])
        .expect("valid rows");
    // Leave only the hardest fault (largest detection time) as a target:
    // one long keep-free walk instead of several short segments.
    let times = FaultSim::new(&c)
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
    assert_cache_invisible_and_nonzero(&c, &t, &faults, &pre, &base);
}

/// An interrupted run resumed from its checkpoint rebuilds the cache
/// from nothing and still converges to the uninterrupted (and
/// cache-free) reference — and the checkpoint is portable across
/// `prefix_cache` settings in both directions, because the knob is
/// excluded from the configuration hash.
#[test]
fn s1196_interrupted_cache_resumes_bit_identical() {
    let (c, t, faults, pre, base) = s1196_setup();
    let dir = std::env::temp_dir().join("wbist-prefix-cache-resume");
    std::fs::create_dir_all(&dir).unwrap();

    // The cache-free reference writes checkpoints like the interrupted
    // runs do, so the checkpoint counters are comparable.
    let full_ckpt = dir.join("full.ckpt");
    let reference = {
        let tel = Telemetry::enabled();
        let full = Synthesis::new(&c, &t, &faults)
            .config(SynthesisConfig {
                prefix_cache: false,
                run: RunOptions::default().telemetry(tel.clone()),
                ..base.clone()
            })
            .already_detected(&pre)
            .run_controlled(&RunControl::default().checkpoint(&full_ckpt));
        assert!(!full.is_truncated());
        (full.into_result(), tel.counters())
    };
    // Fault-cycle budgets that interrupt this walk at different points
    // (resumed evaluations pre-charge the cycles they skip, so each
    // budget bites at the same point with the cache on or off).
    let ladder = [4_000u64, 8_000, 16_000];
    for ((cut_cache, resume_cache), budget_fc) in [(true, true), (true, false), (false, true)]
        .into_iter()
        .flat_map(|combo| ladder.iter().map(move |&b| (combo, b)))
    {
        let ckpt = dir.join(format!("cut-{cut_cache}-{resume_cache}-{budget_fc}.ckpt"));
        let cut = Synthesis::new(&c, &t, &faults)
            .config(SynthesisConfig {
                prefix_cache: cut_cache,
                run: RunOptions::default().telemetry(Telemetry::enabled()),
                ..base.clone()
            })
            .already_detected(&pre)
            .run_controlled(
                &RunControl::default()
                    .budget(Budget::default().fault_cycles(budget_fc))
                    .checkpoint(&ckpt),
            );
        assert_eq!(cut.truncation(), Some(TruncationReason::FaultCycles));
        let cut = cut.into_result();
        assert_eq!(cut.omega[..], reference.0.omega[..cut.omega.len()]);

        let resumed_tel = Telemetry::enabled();
        let resumed = Synthesis::new(&c, &t, &faults)
            .config(SynthesisConfig {
                prefix_cache: resume_cache,
                run: RunOptions::default().telemetry(resumed_tel.clone()),
                ..base.clone()
            })
            .already_detected(&pre)
            .resume_from(Checkpoint::load(&ckpt).expect("checkpoint loads"))
            .expect("prefix_cache is excluded from the checkpoint config hash")
            .run_controlled(&RunControl::default().checkpoint(&ckpt));
        assert!(!resumed.is_truncated(), "resume must complete");
        let resumed = resumed.into_result();
        let label = format!("cut cache={cut_cache}, resume cache={resume_cache}");
        assert_eq!(resumed.omega, reference.0.omega, "{label}: Ω");
        assert_eq!(resumed.detected, reference.0.detected, "{label}: detected");
        assert_eq!(
            resumed.abandoned, reference.0.abandoned,
            "{label}: abandoned"
        );
        assert_eq!(
            resumed_tel.counters(),
            reference.1,
            "{label}: deterministic counters"
        );
        std::fs::remove_file(&ckpt).ok();
    }
    std::fs::remove_file(&full_ckpt).ok();
}

/// The owner sequence with input `pi`'s stream inverted from cycle `d`
/// onward: rows `0..d` are shared verbatim, so a prepared evaluation
/// resumes at exactly `d`.
fn diverge_at(owner: &TestSequence, d: usize, pi: usize) -> TestSequence {
    let rows: Vec<Vec<bool>> = (0..owner.len())
        .map(|u| {
            let mut row = owner.row(u).to_vec();
            if u >= d {
                row[pi] = !row[pi];
            }
            row
        })
        .collect();
    TestSequence::from_rows(rows).expect("rows share the owner's arity")
}

/// The from-scratch query of `probe` and its cone-seeded resume from
/// `cache` must agree: detection times, observable lines and the
/// outcome's detections (the from-scratch query builds its own good
/// trace, so any divergence of the rebuilt trace would show). The
/// rebuild's accounting must balance exactly —
/// `evaluated + saved == num_gates × rebuilt rows`. Returns the prepared
/// sequence's `(evaluated, saved)` gate figures.
fn assert_cone_resume_matches_scratch(
    sim: &FaultSim<'_>,
    faults: &FaultList,
    cache: &PrefixTraceCache,
    probe: &TestSequence,
    cut: usize,
) -> (u64, u64) {
    let prep = sim.prepare_sequence(Some(cache), probe);
    assert_eq!(prep.reused_cycles(), cut, "divergence must land at {cut}");
    assert!(prep.cone_seeded(), "resumed rebuild must be cone-seeded");
    let rebuilt = (sim.circuit().num_gates() * (probe.len() - cut)) as u64;
    assert_eq!(
        prep.trace_gates_evaluated() + prep.trace_gates_saved(),
        rebuilt,
        "evaluated + saved must cover every gate of every rebuilt row at cut {cut}"
    );
    let scratch = sim.query(faults).sequence(probe);
    let resumed = sim.query(faults).prepared(&prep);
    assert_eq!(
        resumed.detection_times(),
        scratch.detection_times(),
        "detection times at cut {cut}"
    );
    assert_eq!(
        resumed.observable_lines(),
        scratch.observable_lines(),
        "observable lines at cut {cut}"
    );
    let out = resumed.cache(cache).outcome();
    assert_eq!(
        out.detected,
        scratch.detected_indices(),
        "cone-seeded resume at cut {cut}"
    );
    (prep.trace_gates_evaluated(), prep.trace_gates_saved())
}

/// A cache holding `owner`'s evaluation, faulty-plane snapshots
/// included.
fn primed_cache(sim: &FaultSim<'_>, faults: &FaultList, owner: &TestSequence) -> PrefixTraceCache {
    let mut cache = PrefixTraceCache::new();
    let prep = sim.prepare_sequence(Some(&cache), owner);
    let out = sim.query(faults).prepared(&prep).cache(&cache).outcome();
    cache.install(out.install);
    cache
}

/// Cone-seeded good-trace resume is bit-identical to a from-scratch
/// evaluation at *every* divergence cycle on s1196, the accounting
/// balances exactly at every cut, and seeding saves good-machine work
/// overall.
#[test]
fn s1196_cone_seeding_identity_at_every_divergence() {
    let c = synthetic::by_name("s1196").expect("known benchmark");
    let faults = FaultList::checkpoints(&c);
    let owner = Lfsr::new(24, 0xACE1).sequence(c.num_inputs(), 40);
    let sim = FaultSim::with_options(&c, SimOptions::with_threads(2));
    let cache = primed_cache(&sim, &faults, &owner);
    let (mut evaluated, mut saved) = (0u64, 0u64);
    for d in 1..owner.len() {
        let probe = diverge_at(&owner, d, d % c.num_inputs());
        let (e, s) = assert_cone_resume_matches_scratch(&sim, &faults, &cache, &probe, d);
        evaluated += e;
        saved += s;
    }
    assert!(
        saved > 0,
        "cone seeding must save good-machine work on s1196"
    );
    assert!(evaluated > 0, "some cut must re-evaluate a gate");
}

/// Past the snapshot-capture cap (`batches × flip-flops > 2^16`, the
/// s35932 class) the dense query declines faulty-plane capture and
/// reports it, and a later evaluation still resumes its good trace from
/// the cached prefix and stays bit-identical to from-scratch.
#[test]
fn snapshot_capture_is_declined_past_the_cap() {
    let c = SyntheticSpec::new("capture-cap", 8, 4, 1100, 2400, 7).build();
    let faults = FaultList::all_lines(&c);
    let n_batches = faults.len().div_ceil(63);
    assert!(
        n_batches * c.num_dffs() > 1 << 16,
        "shape must exceed the capture cap: {n_batches} batches x {} flip-flops",
        c.num_dffs(),
    );

    let owner = Lfsr::new(20, 0xBEEF).sequence(c.num_inputs(), 16);
    let sim = FaultSim::with_options(&c, SimOptions::with_threads(4));
    let mut cache = PrefixTraceCache::new();
    let prep = sim.prepare_sequence(Some(&cache), &owner);
    let out = sim.query(&faults).prepared(&prep).cache(&cache).outcome();
    assert!(out.snapshot_capture_denied, "capture must be declined");
    cache.install(out.install);

    let probe = diverge_at(&owner, 13, 3);
    let scratch = sim.query(&faults).sequence(&probe).detected_indices();
    let prep = sim.prepare_sequence(Some(&cache), &probe);
    assert_eq!(prep.reused_cycles(), 13, "the trace-side prefix is reused");
    assert!(prep.cone_seeded());
    let out = sim.query(&faults).prepared(&prep).cache(&cache).outcome();
    assert!(
        out.snapshot_capture_denied,
        "the denial is a function of shape"
    );
    assert_eq!(
        out.resumed_cycles, 0,
        "no snapshots, no faulty-plane resume"
    );
    assert_eq!(
        out.detected, scratch,
        "a prepared query without snapshots must equal from-scratch"
    );
}

proptest! {
    /// Randomized divergences on s27: the cone-seeded resume equals the
    /// from-scratch evaluation at any cut cycle, whichever input stream
    /// diverges, and its accounting balances.
    #[test]
    fn s27_cone_seeding_is_invisible(
        seed in 1u32..0xFFFF,
        t_len in 4usize..24,
        cut_sel in 0usize..64,
        pi_sel in 0usize..8,
    ) {
        let cut = 1 + cut_sel % (t_len - 1);
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let owner = Lfsr::new(16, seed).sequence(c.num_inputs(), t_len);
        let probe = diverge_at(&owner, cut, pi_sel % c.num_inputs());
        let sim = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let cache = primed_cache(&sim, &faults, &owner);
        assert_cone_resume_matches_scratch(&sim, &faults, &cache, &probe, cut);
    }

    /// Randomized configurations on s27 (an LFSR `T` or the paper's
    /// sequence): a cache-on run at 1, 2 or 4 worker threads is
    /// bit-identical to the cache-free single-thread walk — detections,
    /// abandonments, and the deterministic counter trace.
    #[test]
    fn random_configs_are_cache_invariant(
        seed in 1u32..0xFFFF,
        t_len in 8usize..32,
        paper_t in any::<bool>(),
        lg in 24usize..80,
        sample_size in 1usize..8,
        sample_sel in 0u8..2,
        threads_sel in 0usize..3,
    ) {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = if paper_t {
            s27::paper_test_sequence()
        } else {
            Lfsr::new(16, seed).sequence(c.num_inputs(), t_len)
        };
        let base = SynthesisConfig {
            sequence_length: lg,
            sample_first: sample_sel == 1,
            sample_size,
            ..SynthesisConfig::default()
        };
        let threads = [1usize, 2, 4][threads_sel];
        let (r0, c0, _) = run_once(&c, &t, &faults, None, &base, 1, false);
        let (r1, c1, _) = run_once(&c, &t, &faults, None, &base, threads, true);
        prop_assert_eq!(&r1.omega, &r0.omega);
        prop_assert_eq!(&r1.detected, &r0.detected);
        prop_assert_eq!(&r1.abandoned, &r0.abandoned);
        prop_assert_eq!(&c1, &c0);
    }
}
