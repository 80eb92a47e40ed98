//! # vrex-tensor
//!
//! Minimal dense linear-algebra substrate for the V-Rex reproduction.
//!
//! The streaming video LLM (`vrex-model`), the ReSV retrieval algorithm
//! (`vrex-core`) and all baseline retrieval methods operate on plain
//! row-major `f32` matrices provided by this crate. The crate deliberately
//! implements only what the paper's pipeline needs — matrix products,
//! row-wise softmax, rotary position embeddings, RMS norm, activation
//! functions, top-k selection and the KV-cache quantization used by the
//! Oaken baseline — with no external BLAS dependency so the whole
//! reproduction is self-contained and deterministic.
//!
//! ```
//! use vrex_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]); // the identity
//! assert_eq!(a.matmul(&b), a);
//! ```

#![warn(missing_docs)]

pub mod matrix;
pub mod ops;
pub mod quant;
pub mod rng;
pub mod topk;

pub use matrix::Matrix;
pub use quant::{QuantScheme, QuantizedMatrix};
pub use topk::{top_k_indices, top_k_threshold};
