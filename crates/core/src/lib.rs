//! # aicomp-core — the DCT+Chop compressor
//!
//! Faithful implementation of the compressor from *"A Portable, Fast,
//! DCT-based Compressor for AI Accelerators"* (HPDC '24):
//!
//! * [`transform`] — DCT-II in both its summation form (Eq. 1) and matrix
//!   form (Eq. 2), used to cross-check each other.
//! * [`matrices`] — the mask matrix `M` and the block-diagonal transform
//!   matrix `T_L` of Fig. 4, and the precomputed `LHS = M·T_L`,
//!   `RHS = T_Lᵀ·Mᵀ` products.
//! * [`compressor`] — [`DctChop`]: compression `Y = LHS·A·RHS` (Eq. 4) and
//!   decompression `A' = RHS·Y·LHS` (Eq. 6), each exactly two matrix
//!   multiplications; the compression-ratio (Eq. 3) and FLOP-count
//!   (Eq. 5/7) formulas.
//! * [`codec`] — the unified [`Codec`] trait and [`CodecSpec`] registry:
//!   every variant below is constructible from a canonical string name, and
//!   downstream crates (sciml, store, accel, bench) select codecs by spec.
//! * [`partial`] — the partial-serialization optimization (§3.5.1, Fig. 5)
//!   that subdivides high-resolution inputs so per-compute-unit memory is
//!   not exhausted.
//! * [`scatter_gather`] — the IPU-only triangle-packing optimization
//!   (§3.5.2, Fig. 6) built on `gather`/`scatter`.
//! * [`zfp_transform`] — the paper's *future-work* idea: swapping DCT-II
//!   for the ZFP block transform inside the same Chop pipeline.
//! * [`precision`] — FP16/BF16 simulation for the §3.1 precision study
//!   the paper defers (CS-2/Groq/IPU are FP16 platforms, SN30 is BF16).
//! * [`metrics`] — reconstruction-quality metrics (MSE, PSNR, max error).
//! * [`tuning`] — block-spectrum measurement and quality-targeted chop
//!   factor selection (exact error prediction via Parseval).
//!
//! The compressor operates on `[BD, C, n, n]` training batches; every
//! channel of every sample is compressed independently and in parallel,
//! exactly as the paper's `torch.matmul` broadcast does.

#![forbid(unsafe_code)]

pub mod bitio;
pub mod chop1d;
pub mod codec;
pub mod compressor;
pub mod ebpc;
pub mod fmap;
pub mod matrices;
pub mod metrics;
pub mod partial;
pub mod precision;
pub mod scatter_gather;
pub mod streaming;
pub mod transform;
pub mod tuning;
pub mod zfp_transform;

pub use chop1d::Chop1d;
pub use codec::{build_codec, Codec, CodecSpec};
pub use compressor::{ChopCompressor, DctChop};
pub use ebpc::EbpcCodec;
pub use fmap::FmapCodec;
pub use partial::PartialSerialized;
pub use scatter_gather::ScatterGatherChop;
pub use transform::BlockTransform;

use aicomp_tensor::TensorError;

/// Errors produced by compressor construction or use.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The input resolution is not divisible by the block size.
    BadResolution { n: usize, block: usize },
    /// Chop factor outside `1..=block`.
    BadChopFactor { cf: usize, block: usize },
    /// Subdivision factor does not evenly divide the resolution.
    BadSubdivision { n: usize, s: usize },
    /// A codec spec string failed to parse.
    BadSpec { spec: String, why: String },
    /// A host-side byte stream (entropy stage) is malformed or truncated.
    Corrupt(String),
    /// Underlying tensor error (shape mismatch etc.).
    Tensor(TensorError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::BadResolution { n, block } => {
                write!(f, "resolution {n} is not divisible by block size {block}")
            }
            CoreError::BadChopFactor { cf, block } => {
                write!(f, "chop factor {cf} must be in 1..={block}")
            }
            CoreError::BadSubdivision { n, s } => {
                write!(f, "subdivision factor {s} must divide resolution {n} with n/s divisible by the block size")
            }
            CoreError::BadSpec { spec, why } => {
                write!(f, "bad codec spec {spec:?}: {why}")
            }
            CoreError::Corrupt(why) => write!(f, "corrupt stream: {why}"),
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

/// Crate result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// The JPEG-standard block size used throughout the paper (§3.2).
pub const BLOCK: usize = 8;
