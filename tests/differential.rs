//! Differential proptests over the fault-model-generic query surface:
//! for every fault model, the compiled dirty-set kernel, the reference
//! full-walk kernel and the serial scalar oracle must agree on
//! arbitrary circuits and sequences, one-shot and incrementally.

use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::SyntheticSpec;
use wbist::netlist::{FaultModel, FaultUniverse};
use wbist::sim::{FaultSim, SerialFaultSim, SimOptions};

proptest! {
    /// `compiled == reference` for both fault models on circuits whose
    /// fault lists span several 63-fault batches, at one worker thread
    /// and at four.
    #[test]
    fn compiled_kernel_equals_reference_kernel_all_models(seed in any::<u64>()) {
        let c = SyntheticSpec::new("difm", 6, 4, 5, 60, seed % 16).build();
        let seq = Lfsr::new(22, (seed % 6000) as u32 + 13).sequence(6, 48);
        for model in FaultModel::ALL {
            let faults = FaultUniverse::enumerate(model, &c);
            prop_assert!(faults.len() > 63, "fault list must span batches");
            let oracle = FaultSim::with_options(
                &c,
                SimOptions::with_threads(1).reference_kernel(true),
            );
            let expect = oracle.query(&faults).sequence(&seq).detection_times();
            for threads in [1usize, 4] {
                let fast = FaultSim::with_options(&c, SimOptions::with_threads(threads));
                prop_assert_eq!(
                    fast.query(&faults).sequence(&seq).detection_times(),
                    expect.clone(),
                    "{:?} kernel disagreement at {} threads",
                    model,
                    threads
                );
            }
        }
    }

    /// Both kernels agree with the scalar serial oracle per fault, for
    /// both models — three independent implementations of the same
    /// activation/injection semantics.
    #[test]
    fn kernels_equal_serial_oracle_all_models(seed in any::<u64>()) {
        let c = SyntheticSpec::new("difo", 5, 3, 4, 24, seed % 16).build();
        let seq = Lfsr::new(19, (seed % 5000) as u32 + 7).sequence(5, 32);
        let oracle = SerialFaultSim::new(&c);
        for model in FaultModel::ALL {
            let faults = FaultUniverse::checkpoints(model, &c);
            let expect: Vec<Option<usize>> = faults
                .faults()
                .iter()
                .map(|&f| oracle.detection_time(f, &seq))
                .collect();
            for reference in [false, true] {
                let sim = FaultSim::with_options(
                    &c,
                    SimOptions::with_threads(1).reference_kernel(reference),
                );
                prop_assert_eq!(
                    sim.query(&faults).sequence(&seq).detection_times(),
                    expect.clone(),
                    "{:?} vs serial oracle, reference={}",
                    model,
                    reference
                );
            }
        }
    }

    /// Chunked `advance` equals one-shot detection for transition
    /// faults at arbitrary split points: the carried previous-cycle
    /// good values must reproduce launches that straddle the segment
    /// boundary.
    #[test]
    fn transition_advance_carries_launch_state(seed in any::<u64>(), cut in 1usize..31) {
        let c = SyntheticSpec::new("difc", 5, 3, 4, 24, seed % 16).build();
        let faults = FaultUniverse::enumerate(FaultModel::TransitionDelay, &c);
        let seq = Lfsr::new(21, (seed % 3000) as u32 + 11).sequence(5, 32);
        let sim = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let oneshot = sim.query(&faults).sequence(&seq).detected();
        let mut st = sim.begin(&faults);
        sim.advance(&mut st, &seq.slice(0..cut));
        sim.advance(&mut st, &seq.slice(cut..seq.len()));
        prop_assert_eq!(st.detected(), &oneshot[..], "split at {}", cut);
    }
}
