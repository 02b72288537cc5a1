//! Cycle- and resource-modelled FPGA dataflow simulator.
//!
//! The paper's headline artifact is an FPGA design — hosted on a Cray XD1
//! application-acceleration blade (Xilinx Virtex-II Pro, RapidArray fabric)
//! — that performs *data capture and accumulation* plus the *PNNL-enhanced
//! Hadamard deconvolution*, with the explicit goal that "the computational
//! and memory addressing logic … be portable to an instrument-attached FPGA
//! board". This crate models exactly that contract:
//!
//! * **bit-exact arithmetic** — the datapath is integer/fixed-point
//!   ([`fixed`]); the deconvolution core produces deterministic integer
//!   results that the tests compare against the floating-point software
//!   path;
//! * **memory addressing logic** — the scatter/gather address ROMs come
//!   verbatim from `ims-prs::FastMTransform`;
//! * **resource accounting** — BRAM/DSP budgets against real device
//!   inventories ([`bram`], [`report`]);
//! * **cycle accounting** — initiation intervals and cycles/frame for the
//!   capture ([`accumulator`]) and deconvolution ([`deconv`]) engines;
//! * **host link** — a RapidArray-like bandwidth/latency model ([`dma`]).
//!
//! Nothing here executes on real hardware; the model answers the same
//! questions the paper's simulation answered — does the design fit, does it
//! keep up with the instrument in real time, and does it compute the right
//! numbers.
//!
//! # Example: capture, deconvolve, and check the budget
//!
//! ```
//! use ims_fpga::deconv::DeconvConfig;
//! use ims_fpga::{AccumulatorCore, DeconvCore, DmaLink, FpgaDevice, ResourceReport};
//! use ims_prs::MSequence;
//!
//! let seq = MSequence::new(9); // N = 511
//! let mut acc = AccumulatorCore::new(511, 100, 32);
//! acc.capture_frame(&vec![1u32; 511 * 100]).unwrap();
//! let block = acc.drain();
//!
//! let core = DeconvCore::new(&seq, DeconvConfig::default());
//! let deconvolved = core.deconvolve_block(&block, 100);
//! assert_eq!(deconvolved.len(), 511 * 100);
//!
//! let report = ResourceReport::evaluate(
//!     &FpgaDevice::xc2vp50(),
//!     &acc,
//!     &core,
//!     &DmaLink::rapidarray(),
//!     50,    // frames accumulated per block
//!     0.02,  // seconds per frame
//! );
//! assert!(report.viable());
//! ```

#![warn(missing_docs)]

pub mod accumulator;
pub mod binner;
pub mod bram;
pub mod deconv;
pub mod deconv_naive;
pub mod dma;
pub mod fixed;
pub mod report;
pub mod sharded;
pub mod sparse;

pub use accumulator::AccumulatorCore;
pub use binner::MzBinner;
pub use deconv::{DeconvConfig, DeconvCore};
pub use deconv_naive::{NaiveConfig, NaiveMacCore};
pub use dma::DmaLink;
pub use fixed::Fx;
pub use report::{FpgaDevice, ResourceReport};
pub use sharded::ShardedAccumulator;
pub use sparse::{SparseBlock, SPARSE_OCCUPANCY_THRESHOLD};
