//! The dense tensor type.

use std::fmt;
use std::sync::Arc;

/// Typed payload of a [`Tensor`].
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Bytes.
    U8(Vec<u8>),
}

impl Data {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Data::F32(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::Bool(v) => v.len(),
            Data::U8(v) => v.len(),
        }
    }

    /// `true` when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per element.
    pub fn elem_bytes(&self) -> usize {
        match self {
            Data::F32(_) => 4,
            Data::I64(_) => 8,
            Data::Bool(_) | Data::U8(_) => 1,
        }
    }
}

/// Errors raised by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Shape does not match payload length.
    ShapeMismatch {
        /// Expected element count from the shape.
        expected: usize,
        /// Actual payload length.
        actual: usize,
    },
    /// Operation requires a different dtype.
    DTypeMismatch {
        /// What the operation needed.
        expected: &'static str,
        /// What the tensor holds.
        actual: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape expects {expected} elements, payload has {actual}")
            }
            TensorError::DTypeMismatch { expected, actual } => {
                write!(f, "expected {expected} tensor, got {actual}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense row-major tensor.
///
/// The payload is reference-counted: `Clone` is O(1) and shares the
/// underlying buffer, so pass-through operators (Identity, Switch,
/// Combine) and metadata-only views never deep-copy element data.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Arc<Data>,
}

impl Tensor {
    /// Creates a tensor from a shape and payload.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the payload length does
    /// not equal the shape's element count.
    pub fn new(shape: &[usize], data: Data) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: Arc::new(data),
        })
    }

    /// Creates an `f32` tensor.
    ///
    /// # Panics
    ///
    /// Panics when the payload length does not match the shape.
    pub fn from_f32(shape: &[usize], data: Vec<f32>) -> Self {
        Tensor::new(shape, Data::F32(data)).expect("shape/payload mismatch")
    }

    /// Creates an `i64` tensor.
    ///
    /// # Panics
    ///
    /// Panics when the payload length does not match the shape.
    pub fn from_i64(shape: &[usize], data: Vec<i64>) -> Self {
        Tensor::new(shape, Data::I64(data)).expect("shape/payload mismatch")
    }

    /// Creates a `bool` tensor.
    ///
    /// # Panics
    ///
    /// Panics when the payload length does not match the shape.
    pub fn from_bool(shape: &[usize], data: Vec<bool>) -> Self {
        Tensor::new(shape, Data::Bool(data)).expect("shape/payload mismatch")
    }

    /// Creates a scalar (rank-0) `i64` tensor.
    pub fn scalar_i64(v: i64) -> Self {
        Tensor::from_i64(&[], vec![v])
    }

    /// Creates a scalar (rank-0) `f32` tensor.
    pub fn scalar_f32(v: f32) -> Self {
        Tensor::from_f32(&[], vec![v])
    }

    /// All-zeros `f32` tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor::from_f32(shape, vec![0.0; n])
    }

    /// `f32` tensor filled with `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor::from_f32(shape, vec![v; n])
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Total payload size in bytes.
    pub fn byte_size(&self) -> usize {
        self.numel() * self.data.elem_bytes()
    }

    /// The payload.
    pub fn data(&self) -> &Data {
        &self.data
    }

    /// `true` when both tensors share the same payload allocation
    /// (i.e. one is a zero-copy clone/view of the other).
    pub fn shares_payload(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Serializes the payload as little-endian bytes (row-major element
    /// order; `bool` as one `0`/`1` byte each). The length always equals
    /// [`Tensor::byte_size`].
    pub fn payload_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size());
        match &*self.data {
            Data::F32(v) => out.extend(v.iter().flat_map(|x| x.to_le_bytes())),
            Data::I64(v) => out.extend(v.iter().flat_map(|x| x.to_le_bytes())),
            Data::Bool(v) => out.extend(v.iter().map(|&b| u8::from(b))),
            Data::U8(v) => out.extend_from_slice(v),
        }
        out
    }

    /// Short dtype label.
    pub fn dtype_name(&self) -> &'static str {
        match *self.data {
            Data::F32(_) => "f32",
            Data::I64(_) => "i64",
            Data::Bool(_) => "bool",
            Data::U8(_) => "u8",
        }
    }

    /// Borrows the payload as `f32`.
    ///
    /// # Errors
    ///
    /// [`TensorError::DTypeMismatch`] when the tensor is not `f32`.
    pub fn as_f32(&self) -> Result<&[f32], TensorError> {
        match &*self.data {
            Data::F32(v) => Ok(v),
            _ => Err(TensorError::DTypeMismatch {
                expected: "f32",
                actual: self.dtype_name(),
            }),
        }
    }

    /// Borrows the payload as `i64`.
    ///
    /// # Errors
    ///
    /// [`TensorError::DTypeMismatch`] when the tensor is not `i64`.
    pub fn as_i64(&self) -> Result<&[i64], TensorError> {
        match &*self.data {
            Data::I64(v) => Ok(v),
            _ => Err(TensorError::DTypeMismatch {
                expected: "i64",
                actual: self.dtype_name(),
            }),
        }
    }

    /// Borrows the payload as `bool`.
    ///
    /// # Errors
    ///
    /// [`TensorError::DTypeMismatch`] when the tensor is not `bool`.
    pub fn as_bool(&self) -> Result<&[bool], TensorError> {
        match &*self.data {
            Data::Bool(v) => Ok(v),
            _ => Err(TensorError::DTypeMismatch {
                expected: "bool",
                actual: self.dtype_name(),
            }),
        }
    }

    /// Metadata-only reshape (same element count).
    ///
    /// # Panics
    ///
    /// Panics when the new shape's element count differs.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let expected: usize = shape.iter().product();
        assert_eq!(expected, self.numel(), "reshape changes element count");
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Approximate equality for `f32` tensors (shape + element-wise within
    /// `tol`); exact equality otherwise.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        if self.shape != other.shape {
            return false;
        }
        match (&*self.data, &*other.data) {
            (Data::F32(a), Data::F32(b)) => a
                .iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= tol || (x.is_nan() && y.is_nan())),
            (a, b) => a == b,
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor<{}>{:?} ({} elems)",
            self.dtype_name(),
            self.shape,
            self.numel()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_f32(&[2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(t.numel(), 4);
        assert_eq!(t.byte_size(), 16);
        assert_eq!(t.as_f32().expect("f32"), &[1., 2., 3., 4.]);
        assert!(t.as_i64().is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let e = Tensor::new(&[3], Data::F32(vec![1.0])).expect_err("mismatch");
        assert_eq!(
            e,
            TensorError::ShapeMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn scalar_rank_zero() {
        let s = Tensor::scalar_i64(7);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_f32(&[2, 3], vec![0.; 6]);
        let r = t.reshape(&[6]);
        assert_eq!(r.shape(), &[6]);
        assert_eq!(r.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "reshape changes element count")]
    fn reshape_count_checked() {
        let t = Tensor::zeros(&[2, 3]);
        let _ = t.reshape(&[5]);
    }

    #[test]
    fn payload_le_bytes_encodes_every_dtype() {
        let cases = [
            (
                Tensor::from_f32(&[2], vec![1.5, -0.0]),
                vec![0, 0, 0xC0, 0x3F, 0, 0, 0, 0x80],
            ),
            (
                Tensor::new(&[1], Data::I64(vec![-2])).expect("i64"),
                vec![0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
            ),
            (
                Tensor::new(&[3], Data::Bool(vec![true, false, true])).expect("bool"),
                vec![1, 0, 1],
            ),
            (
                Tensor::new(&[2], Data::U8(vec![9, 255])).expect("u8"),
                vec![9, 255],
            ),
        ];
        for (t, want) in &cases {
            assert_eq!(&t.payload_le_bytes(), want, "{}", t.dtype_name());
            assert_eq!(want.len(), t.byte_size());
        }
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::from_f32(&[2], vec![1.0, 2.0]);
        let b = Tensor::from_f32(&[2], vec![1.0 + 1e-7, 2.0 - 1e-7]);
        assert!(a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&b, 1e-9));
    }
}
