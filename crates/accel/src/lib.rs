//! # aicomp-accel — AI accelerator simulator
//!
//! The substrate the paper's hardware provided: four AI accelerators
//! (Cerebras CS-2, SambaNova SN30, Groq GroqChip, Graphcore IPU) plus an
//! NVIDIA A100 comparison point, simulated faithfully enough to reproduce
//! the paper's compile-time and performance *behaviours*:
//!
//! * [`spec`] — Table 1 architecture facts and per-device timing
//!   calibration (one table, shared by every experiment).
//! * [`ops`] — the operator-support matrix of §3.1: matmul everywhere,
//!   scatter/gather only on IPU, bit shifts nowhere (the reason DCT+Chop is
//!   two matmuls).
//! * [`graph`] — static-shape computation graphs (§3.1 "Tensor Sizes").
//! * [`compiler`] — validation + memory allocation; fails to compile
//!   exactly where the paper reports failures (512×512 on SN30/GroqChip,
//!   batch > 1000 on GroqChip).
//! * [`exec`] — numeric execution on host tensors (bit-identical to
//!   running the compressor directly), plus seeded transient step-fault
//!   injection ([`StepFaults`], off by default) for recovery testing.
//! * [`perf`] — the analytic roofline/overhead timing model.
//! * [`device`] — the compile-once/run-many facade.
//! * [`pipeline`] — DCT+Chop deployments (plain, scatter/gather, and
//!   partially-serialized) used by the figure harness.
//! * [`cluster`] — data-parallel multi-device scaling (Bow-Pod64,
//!   GroqNode), quantifying §4.2.2's GPU-comparison discussion.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod compiler;
pub mod device;
pub mod distributed;
pub mod exec;
pub mod graph;
pub mod ops;
pub mod perf;
pub mod pipeline;
pub mod spec;
pub mod trace;

pub use cluster::Cluster;
pub use compiler::{CompileError, CompiledProgram};
pub use device::{CompiledModel, Device, DeviceError, RunResult};
pub use exec::StepFaults;
pub use graph::Graph;
pub use ops::OpKind;
pub use perf::TimingReport;
pub use pipeline::{lower, CompressorDeployment, FailoverAttempt, SerializedDeployment};
pub use spec::{AcceleratorSpec, Architecture, Platform};
pub use trace::{trace, Trace};
