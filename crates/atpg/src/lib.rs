//! Deterministic test sequence generation for synchronous sequential
//! circuits, plus the pseudo-random substrate (LFSRs).
//!
//! The reproduced paper consumes a deterministic test sequence `T`
//! produced by STRATEGATE/SEQCOM and compacted by static compaction. Those
//! tools are not available, so this crate provides a simulation-based
//! sequence generator in the same spirit (STRATEGATE is itself a
//! simulation-based search): candidate input blocks are generated with
//! varying per-input biases, fault-simulated incrementally from the
//! current circuit state, and the block detecting the most new faults is
//! committed. An omission-based static compactor then shortens the
//! sequence while preserving its coverage.
//!
//! The proposed method of the paper treats `T` as an opaque input and its
//! coverage guarantee is *relative to `T`*, so any deterministic sequence
//! exercises the identical code path (see `DESIGN.md` §5).
//!
//! # Example
//!
//! ```
//! use wbist_atpg::{AtpgConfig, SequenceAtpg};
//! use wbist_circuits::s27;
//! use wbist_netlist::FaultList;
//!
//! let circuit = s27::circuit();
//! let faults = FaultList::checkpoints(&circuit);
//! let result = SequenceAtpg::new(&circuit, AtpgConfig::default()).run(&faults);
//! assert!(result.coverage() > 0.9);
//! ```

pub mod compact;
pub mod generate;
pub mod lfsr;
pub mod podem;

pub use compact::{compact, CompactionConfig};
pub use generate::{AtpgConfig, AtpgResult, SequenceAtpg};
pub use lfsr::{tap_mask, Lfsr};
pub use podem::{Podem, PodemConfig, PodemResult};
