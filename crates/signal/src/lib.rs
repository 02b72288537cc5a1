//! Digital signal processing substrate for the HT-IMS simulation.
//!
//! Everything here is implemented from first principles (no external DSP
//! crates): fast Walsh–Hadamard and Fourier transforms, circular
//! correlation/convolution, dense linear algebra, counting-statistics noise
//! models, and the peak-shape analysis used to score reconstructed ion
//! mobility spectra.
//!
//! The modules are deliberately generic — none of them know anything about
//! ion mobility — so they double as the numerical kernels for both the
//! "software component" (floating point) and, via [`crate::fft`]-validated
//! reference results, the fixed-point FPGA model in `ims-fpga`.
//!
//! # Example: find a peak in a noisy trace
//!
//! ```
//! use ims_signal::peaks::{gaussian_profile, PeakFinder};
//!
//! let trace = gaussian_profile(200, 120.0, 4.0, 1000.0);
//! let peaks = PeakFinder::default().find(&trace);
//! assert_eq!(peaks.len(), 1);
//! assert!((peaks[0].centroid - 120.0).abs() < 0.5);
//! assert!((peaks[0].fwhm - 2.3548 * 4.0).abs() < 0.5);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod correlate;
pub mod fft;
pub mod fwht;
pub mod matrix;
pub mod noise;
pub mod panel;
pub mod peaks;
pub mod resample;
pub mod simd;
pub mod smooth;
pub mod snr;
pub mod stats;

pub use fft::Complex;
pub use matrix::Matrix;
pub use panel::{DEFAULT_PANEL_WIDTH, FIXED_POINT_PANEL_WIDTH};
pub use peaks::Peak;
