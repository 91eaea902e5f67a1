//! # dcn-tensor
//!
//! Dense, row-major `f32` tensors backing the DCN reproduction.
//!
//! This crate is the lowest substrate of the workspace: it provides the
//! n-dimensional array type ([`Tensor`]), shape bookkeeping ([`Shape`]),
//! linear algebra ([`matmul`] and friends), and the `im2col`/`col2im`
//! transforms used by convolution layers in `dcn-nn`.
//!
//! Everything is CPU-only `f32`, which matches the scale of the paper's
//! experiments (small convolutional networks on 28×28 and 32×32 images).
//!
//! # Examples
//!
//! ```
//! use dcn_tensor::Tensor;
//!
//! # fn main() -> Result<(), dcn_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::ones(&[3, 2]);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data(), &[6.0, 6.0, 15.0, 15.0]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod conv;
mod error;
pub mod kernel;
mod linalg;
pub mod par;
pub mod scratch;
mod shape;
mod tensor;

pub use conv::{col2im, im2col, im2col_into, Conv2dGeometry};
pub use error::TensorError;
pub use linalg::{matmul, matmul_into, matmul_nt, matmul_tn};
pub use par::ParConfig;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
