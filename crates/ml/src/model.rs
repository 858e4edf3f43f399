//! The logistic-regression model.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use simdc_types::{Result, SimdcError};

use simdc_data::FeatureVec;

/// A sparse-input logistic-regression model: one weight per hashed feature
/// index plus a bias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LrModel {
    weights: Vec<f32>,
    bias: f32,
}

impl LrModel {
    /// Creates a zero-initialized model of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn zeros(dim: u32) -> Self {
        assert!(dim > 0, "model dimension must be positive");
        LrModel {
            weights: vec![0.0; dim as usize],
            bias: 0.0,
        }
    }

    /// Creates a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    #[must_use]
    pub fn from_parts(weights: Vec<f32>, bias: f32) -> Self {
        assert!(!weights.is_empty(), "model dimension must be positive");
        LrModel { weights, bias }
    }

    /// Feature dimension.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.weights.len() as u32
    }

    /// The weight vector.
    #[must_use]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable weight vector (used by training kernels).
    #[must_use]
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// The bias term.
    #[must_use]
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// Sets the bias term.
    pub fn set_bias(&mut self, bias: f32) {
        self.bias = bias;
    }

    /// Raw margin `w·x + b` for a sparse binary feature vector.
    #[must_use]
    pub fn margin(&self, features: &FeatureVec) -> f32 {
        let mut sum = self.bias;
        for &idx in features.indices() {
            sum += self.weights[idx as usize];
        }
        sum
    }

    /// Predicted click probability.
    #[must_use]
    pub fn predict(&self, features: &FeatureVec) -> f32 {
        sigmoid(self.margin(features))
    }

    /// L2 norm of the parameter vector (weights + bias), for diagnostics.
    #[must_use]
    pub fn l2_norm(&self) -> f64 {
        let sum: f64 = self
            .weights
            .iter()
            .map(|&w| f64::from(w) * f64::from(w))
            .sum::<f64>()
            + f64::from(self.bias) * f64::from(self.bias);
        sum.sqrt()
    }

    /// Serializes the model to a compact binary payload (little-endian
    /// `dim`, bias, then weights). This is what devices upload to shared
    /// storage.
    #[must_use]
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.serialized_size() as usize);
        self.write_bytes(&mut out);
        Bytes::from(out)
    }

    /// Appends the [`LrModel::to_bytes`] payload to `out`, so a caller that
    /// wraps the model in a larger payload writes it in place instead of
    /// copying it.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dim().to_le_bytes());
        out.extend_from_slice(&self.bias.to_le_bytes());
        let start = out.len();
        out.resize(start + self.weights.len() * 4, 0);
        for (chunk, w) in out[start..].chunks_exact_mut(4).zip(&self.weights) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Deserializes a model produced by [`LrModel::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::Serialization`] if the payload is truncated or
    /// the declared dimension does not match the payload length.
    pub fn from_bytes(payload: Bytes) -> Result<Self> {
        let Some((&[d0, d1, d2, d3, b0, b1, b2, b3], body)) = payload.split_first_chunk::<8>()
        else {
            return Err(SimdcError::Serialization(format!(
                "model payload too short: {} bytes",
                payload.len()
            )));
        };
        let dim = u32::from_le_bytes([d0, d1, d2, d3]) as usize;
        let bias = f32::from_le_bytes([b0, b1, b2, b3]);
        if dim == 0 {
            return Err(SimdcError::Serialization("model dimension is zero".into()));
        }
        if body.len() != dim * 4 {
            return Err(SimdcError::Serialization(format!(
                "model payload length mismatch: expected {} weight bytes, got {}",
                dim * 4,
                body.len()
            )));
        }
        let (chunks, _) = body.as_chunks::<4>();
        let weights = chunks.iter().copied().map(f32::from_le_bytes).collect();
        Ok(LrModel { weights, bias })
    }

    /// Size in bytes of the serialized model (for bandwidth accounting).
    #[must_use]
    pub fn serialized_size(&self) -> u64 {
        8 + self.weights.len() as u64 * 4
    }
}

/// Numerically stable logistic function in `f32`.
#[must_use]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    #[test]
    fn zeros_predicts_half() {
        let m = LrModel::zeros(16);
        let x = FeatureVec::from_indices(vec![1, 5]);
        assert_eq!(m.predict(&x), 0.5);
        assert_eq!(m.dim(), 16);
    }

    #[test]
    fn margin_sums_active_weights() {
        let mut m = LrModel::zeros(8);
        m.weights_mut()[2] = 0.5;
        m.weights_mut()[3] = -0.25;
        m.set_bias(0.1);
        let x = FeatureVec::from_indices(vec![2, 3]);
        assert!((m.margin(&x) - 0.35).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(100.0), 1.0);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-30);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-9);
        // Symmetry.
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bytes_round_trip() {
        let mut m = LrModel::zeros(5);
        m.weights_mut().copy_from_slice(&[0.1, -0.2, 0.3, 0.0, 9.5]);
        m.set_bias(-1.25);
        let bytes = m.to_bytes();
        assert_eq!(bytes.len() as u64, m.serialized_size());
        let back = LrModel::from_bytes(bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        let err = |payload: Bytes| match LrModel::from_bytes(payload) {
            Err(SimdcError::Serialization(msg)) => msg,
            other => panic!("expected a serialization error, got {other:?}"),
        };
        assert_eq!(
            err(Bytes::from_static(&[1, 2, 3])),
            "model payload too short: 3 bytes"
        );
        assert_eq!(err(Bytes::new()), "model payload too short: 0 bytes");
        // Declared dim 10 but no weights.
        let mut buf = BytesMut::new();
        buf.put_u32_le(10);
        buf.put_f32_le(0.0);
        assert_eq!(
            err(buf.freeze()),
            "model payload length mismatch: expected 40 weight bytes, got 0"
        );
        // Zero dim.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_f32_le(0.0);
        assert_eq!(err(buf.freeze()), "model dimension is zero");
        // A valid payload cut short or padded by a partial or whole weight.
        let valid = LrModel::from_parts(vec![0.5, -1.0, 2.0], 0.25).to_bytes();
        for k in 1..=7 {
            let cut = Bytes::copy_from_slice(&valid[..valid.len() - k]);
            assert_eq!(
                err(cut),
                format!(
                    "model payload length mismatch: expected 12 weight bytes, got {}",
                    12 - k
                ),
                "truncated by {k}"
            );
            let mut long = valid.to_vec();
            long.extend(std::iter::repeat_n(0xAB, k));
            assert_eq!(
                err(Bytes::from(long)),
                format!(
                    "model payload length mismatch: expected 12 weight bytes, got {}",
                    12 + k
                ),
                "extended by {k}"
            );
        }
    }

    #[test]
    fn l2_norm_matches_hand_computation() {
        let m = LrModel::from_parts(vec![3.0, 4.0], 0.0);
        assert!((m.l2_norm() - 5.0).abs() < 1e-9);
    }
}
