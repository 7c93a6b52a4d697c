//! # aicomp-baselines — comparator codecs
//!
//! The paper compares DCT+Chop against two reference points that cannot run
//! on the accelerators:
//!
//! * **ZFP** (Fig. 9): a fixed-rate scientific floating-point compressor.
//!   [`zfp`] implements the actual ZFP pipeline stages from scratch —
//!   4×4 blocks, block-floating-point, the ZFP decorrelating transform,
//!   negabinary coding, and MSB-first bit-plane truncation at a fixed
//!   per-value rate.
//! * **JPEG quantization** (Fig. 3 motivation): [`jpeg`] implements the
//!   quality-factor-scaled quantization table, zig-zag scan, and run-length
//!   encoding that motivate the Chop design (the compressible structure of
//!   quantized DCT matrices).
//!
//! [`colorquant`] adds the other lossy-image family §2.2 mentions: median-
//! cut color quantization (Heckbert 1982).
//!
//! The ZFP/JPEG codecs rely on bitwise operations ([`bitio`]) — exactly the
//! operators the accelerators *don't* support (§3.1), which is why the
//! paper's compressor is two matmuls instead.

#![forbid(unsafe_code)]

pub use aicomp_core::bitio;

pub mod colorquant;
pub mod huffman;
pub mod jpeg;
pub mod zfp;
pub mod zigzag;

pub use colorquant::ColorQuantizer;
pub use jpeg::JpegQuantizer;
pub use zfp::ZfpFixedRate;

/// Errors from the baseline codecs.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// Requested rate is outside the representable range.
    BadRate { rate_bits: u32 },
    /// JPEG quality factor outside 1..=100.
    BadQuality { quality: u32 },
    /// Compressed stream is malformed or truncated.
    Corrupt(String),
    /// Underlying tensor error.
    Tensor(aicomp_tensor::TensorError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::BadRate { rate_bits } => {
                write!(f, "rate {rate_bits} bits/value outside supported range 1..=32")
            }
            BaselineError::BadQuality { quality } => {
                write!(f, "JPEG quality factor {quality} outside 1..=100")
            }
            BaselineError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            BaselineError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<aicomp_tensor::TensorError> for BaselineError {
    fn from(e: aicomp_tensor::TensorError) -> Self {
        BaselineError::Tensor(e)
    }
}

/// Crate result alias.
pub type Result<T> = std::result::Result<T, BaselineError>;
