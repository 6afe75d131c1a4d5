//! # sod2-tensor — dense tensor runtime
//!
//! A minimal row-major dense tensor used by the kernel library and the
//! executor. Supports `f32`, `i64`, `bool`, and `u8` payloads, NumPy-style
//! broadcasting index arithmetic (per element, or as contiguous runs with
//! [`RunWalk`]), and cheap metadata-only reshapes.
//!
//! # Examples
//!
//! ```
//! use sod2_tensor::Tensor;
//!
//! let t = Tensor::from_f32(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! assert_eq!(t.shape(), &[2, 3]);
//! assert_eq!(t.numel(), 6);
//! let r = t.reshape(&[3, 2]);
//! assert_eq!(r.shape(), &[3, 2]);
//! ```

mod index;
mod tensor;

pub use index::{broadcast_output_shape, BroadcastIndexer, Indexer, RunWalk};
pub use tensor::{Data, Tensor, TensorError};
