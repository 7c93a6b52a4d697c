//! # aicomp — A Portable, Fast, DCT-based Compressor for AI Accelerators
//!
//! Rust reproduction of the HPDC '24 paper. This aggregate crate re-exports
//! the full public API:
//!
//! * [`tensor`] — dense f32 tensor substrate (matmul, conv, block ops).
//! * [`dct`] — the paper's contribution: the DCT+Chop compressor
//!   ([`DctChop`]), partial serialization, and the scatter/gather triangle
//!   optimization.
//! * [`accel`] — simulated accelerators (CS-2, SN30, GroqChip, IPU, A100):
//!   operator-support matrix, static-shape compiler with the paper's OOM
//!   failure modes, and a calibrated timing model.
//! * [`nn`] — tape-based autograd + layers/optimizers for the training
//!   benchmarks.
//! * [`sciml`] — the four Table 3 benchmarks on synthetic datasets.
//! * [`baselines`] — ZFP-style fixed-rate codec and JPEG quantization.
//! * [`store`] — the `.dcz` on-disk container for compressed sample
//!   streams (chunked, checksummed, frequency-band-progressive) and the
//!   prefetching training loader over it.
//! * [`serve`] — a concurrent TCP service over `.dcz` containers:
//!   per-request fidelity, dynamic request batching into single codec
//!   passes, a sharded decoded-chunk cache, and typed load shedding.
//!
//! ## Quickstart
//!
//! ```
//! use aicomp::{DctChop, Tensor};
//!
//! // Compress a batch of 4 RGB 32×32 images at chop factor 4 (CR = 4).
//! let mut rng = Tensor::seeded_rng(7);
//! let batch = Tensor::rand_uniform([4usize, 3, 32, 32], 0.0, 1.0, &mut rng);
//! let compressor = DctChop::new(32, 4).unwrap();
//! let compressed = compressor.compress(&batch).unwrap();
//! assert_eq!(compressed.dims(), &[4, 3, 16, 16]); // 4x fewer values
//! let restored = compressor.decompress(&compressed).unwrap();
//! assert_eq!(restored.dims(), batch.dims());
//! ```
//!
//! ## Running on a simulated accelerator
//!
//! ```
//! use aicomp::accel::{CompressorDeployment, Platform};
//! use aicomp::Tensor;
//!
//! let deployment = CompressorDeployment::plain(Platform::Ipu, 32, 4, 12).unwrap();
//! let mut rng = Tensor::seeded_rng(7);
//! let batch = Tensor::rand_uniform([12usize, 32, 32], 0.0, 1.0, &mut rng);
//! let result = deployment.compress(&batch).unwrap();
//! println!("simulated IPU compression: {:.3} ms", result.timing.seconds * 1e3);
//! ```

#![forbid(unsafe_code)]

pub use aicomp_accel as accel;
pub use aicomp_baselines as baselines;
pub use aicomp_core as dct;
pub use aicomp_nn as nn;
pub use aicomp_sciml as sciml;
pub use aicomp_serve as serve;
pub use aicomp_store as store;
pub use aicomp_tensor as tensor;

pub use aicomp_core::{
    build_codec, Chop1d, ChopCompressor, Codec, CodecSpec, DctChop, PartialSerialized,
    ScatterGatherChop,
};
pub use aicomp_store::{DczReader, PrefetchLoader, StoreBatchSource};
pub use aicomp_tensor::{Shape, Tensor};
