//! # aicomp-tensor
//!
//! Dense `f32` tensor substrate for the AI-accelerator compression stack.
//!
//! The compressor in the paper is written against PyTorch; every platform
//! executes it through `torch.matmul`. This crate is our stand-in for that
//! numeric substrate: an owned, row-major, dense `f32` tensor with
//!
//! * shape/stride bookkeeping ([`Shape`]),
//! * a cache-blocked, Rayon-parallel matrix multiply ([`Tensor::matmul`] and
//!   the batched variants),
//! * the structural ops the compressor and the training benchmarks need
//!   (transpose, reshape, concat, pad, 8×8 block extraction, reductions),
//! * im2col/col2im so convolution layers in `aicomp-nn` reduce to matmul,
//!   exactly as they do on the real accelerators.
//!
//! All numerics in the reproduction run through this crate on the host;
//! *timing* of the accelerators is simulated separately in `aicomp-accel`.

#![forbid(unsafe_code)]

pub mod conv;
pub mod matmul;
pub mod ops;
pub mod random;
pub mod reduce;
pub mod shape;
pub mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Shapes are incompatible for the requested operation.
    ShapeMismatch { op: &'static str, lhs: Vec<usize>, rhs: Vec<usize> },
    /// The requested reshape does not preserve the element count.
    BadReshape { from: Vec<usize>, to: Vec<usize> },
    /// An index or axis is out of range.
    OutOfRange { what: &'static str, index: usize, bound: usize },
    /// A dimension constraint was violated (e.g. not divisible by block size).
    Constraint(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::BadReshape { from, to } => {
                write!(f, "cannot reshape {from:?} into {to:?}: element counts differ")
            }
            TensorError::OutOfRange { what, index, bound } => {
                write!(f, "{what} {index} out of range (bound {bound})")
            }
            TensorError::Constraint(msg) => write!(f, "constraint violated: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
