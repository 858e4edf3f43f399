//! Cloud-side services: shared storage, message intake and aggregation
//! triggers.
//!
//! Devices upload update payloads to [`Storage`] and announce them with
//! messages; DeviceFlow forwards the messages according to the task's
//! strategy; the cloud service decides *when to aggregate*. In real
//! deployments the cloud does not know how many devices will report
//! (§VI-C.1), so aggregation fires on a trigger: a sample threshold or a
//! schedule.

use std::collections::BTreeMap;

use bytes::{Buf, Bytes};
use serde::{Deserialize, Serialize};
use simdc_types::{DeviceId, Message, Result, SimDuration, SimInstant, SimdcError, StorageKey};

use simdc_ml::{LocalUpdate, LrModel};

/// In-memory shared storage (the paper's object store between devices and
/// cloud services).
#[derive(Debug, Default)]
pub struct Storage {
    map: BTreeMap<StorageKey, Bytes>,
    bytes_written: u64,
}

impl Storage {
    /// Creates empty storage.
    #[must_use]
    pub fn new() -> Self {
        Storage::default()
    }

    /// Stores a payload under `key` (overwrites).
    pub fn put(&mut self, key: StorageKey, payload: Bytes) {
        self.bytes_written += payload.len() as u64;
        self.map.insert(key, payload);
    }

    /// Fetches a payload.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::StorageMiss`] when the key is absent.
    pub fn get(&self, key: &StorageKey) -> Result<Bytes> {
        self.map
            .get(key)
            .cloned()
            .ok_or_else(|| SimdcError::StorageMiss(key.to_string()))
    }

    /// Removes a payload, returning whether it existed.
    pub fn remove(&mut self, key: &StorageKey) -> bool {
        self.map.remove(key).is_some()
    }

    /// Number of stored objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes ever written (bandwidth accounting).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// Serializes a [`LocalUpdate`] into the payload devices upload.
#[must_use]
pub fn encode_update(update: &LocalUpdate) -> Bytes {
    let mut out = Vec::with_capacity(16 + update.model.serialized_size() as usize);
    out.extend_from_slice(&update.n_samples.to_le_bytes());
    out.extend_from_slice(&update.final_loss.to_le_bytes());
    update.model.write_bytes(&mut out);
    Bytes::from(out)
}

/// Decodes a payload produced by [`encode_update`].
///
/// # Errors
///
/// Returns [`SimdcError::Serialization`] on truncated or malformed
/// payloads.
pub fn decode_update(mut payload: Bytes) -> Result<LocalUpdate> {
    if payload.len() < 16 {
        return Err(SimdcError::Serialization(format!(
            "update payload too short: {} bytes",
            payload.len()
        )));
    }
    let n_samples = payload.get_u64_le();
    let final_loss = payload.get_f64_le();
    let model = LrModel::from_bytes(payload)?;
    Ok(LocalUpdate {
        model,
        n_samples,
        final_loss,
    })
}

/// When the cloud aggregates a round (§VI-C.1: "Common triggers include
/// reaching a threshold of total edge training samples or reaching
/// scheduled times").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationTrigger {
    /// Aggregate as soon as the accumulated `sample_count` across received
    /// messages reaches the threshold.
    SampleThreshold {
        /// Minimum total training samples.
        min_samples: u64,
    },
    /// Aggregate as soon as this many device updates arrived.
    DeviceThreshold {
        /// Minimum number of device updates.
        min_devices: u64,
    },
    /// Aggregate at a fixed offset after the round started, with whatever
    /// arrived by then.
    Scheduled {
        /// Aggregation period.
        period: SimDuration,
    },
}

impl AggregationTrigger {
    /// Validates trigger parameters.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for zero thresholds/periods.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        match *self {
            AggregationTrigger::SampleThreshold { min_samples: 0 } => {
                Err(InvalidConfig("sample threshold must be > 0".into()))
            }
            AggregationTrigger::DeviceThreshold { min_devices: 0 } => {
                Err(InvalidConfig("device threshold must be > 0".into()))
            }
            AggregationTrigger::Scheduled { period } if period.is_zero() => {
                Err(InvalidConfig("aggregation period must be > 0".into()))
            }
            _ => Ok(()),
        }
    }
}

/// The outcome of one aggregation round on the cloud side.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// When aggregation fired.
    pub aggregated_at: SimInstant,
    /// Messages included in the aggregate, in arrival order.
    pub included: Vec<Message>,
    /// Messages that arrived after aggregation (stragglers, discarded).
    pub stragglers: u64,
    /// Whether the trigger actually fired (vs. the round timing out with a
    /// best-effort aggregate).
    pub trigger_fired: bool,
}

/// Decides the aggregation instant for a round given the messages
/// DeviceFlow delivered (each with its delivery time).
///
/// `deliveries` must be sorted by delivery time (DeviceFlow emits them in
/// order). If the trigger never fires, the round times out at
/// `round_start + timeout` and everything delivered by then is included.
#[must_use]
pub fn resolve_round(
    trigger: AggregationTrigger,
    round_start: SimInstant,
    deliveries: &[(SimInstant, Message)],
    timeout: SimDuration,
) -> RoundOutcome {
    let deadline = round_start + timeout;
    match trigger {
        AggregationTrigger::Scheduled { period } => {
            let at = round_start + period;
            split_at(deliveries, at, true)
        }
        AggregationTrigger::SampleThreshold { min_samples } => {
            let mut acc = 0u64;
            for (i, (t, m)) in deliveries.iter().enumerate() {
                if *t > deadline {
                    break;
                }
                acc += m.sample_count;
                if acc >= min_samples {
                    return take_first(deliveries, i + 1, *t, true);
                }
            }
            split_at(deliveries, deadline, false)
        }
        AggregationTrigger::DeviceThreshold { min_devices } => {
            let mut seen: Vec<DeviceId> = Vec::new();
            for (i, (t, m)) in deliveries.iter().enumerate() {
                if *t > deadline {
                    break;
                }
                if !seen.contains(&m.device) {
                    seen.push(m.device);
                }
                if seen.len() as u64 >= min_devices {
                    return take_first(deliveries, i + 1, *t, true);
                }
            }
            split_at(deliveries, deadline, false)
        }
    }
}

fn split_at(
    deliveries: &[(SimInstant, Message)],
    at: SimInstant,
    trigger_fired: bool,
) -> RoundOutcome {
    let included: Vec<Message> = deliveries
        .iter()
        .take_while(|(t, _)| *t <= at)
        .map(|(_, m)| m.clone())
        .collect();
    RoundOutcome {
        aggregated_at: at,
        stragglers: (deliveries.len() - included.len()) as u64,
        included,
        trigger_fired,
    }
}

fn take_first(
    deliveries: &[(SimInstant, Message)],
    n: usize,
    at: SimInstant,
    trigger_fired: bool,
) -> RoundOutcome {
    RoundOutcome {
        aggregated_at: at,
        included: deliveries[..n].iter().map(|(_, m)| m.clone()).collect(),
        stragglers: (deliveries.len() - n) as u64,
        trigger_fired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};
    use simdc_types::{MessageId, RoundId, TaskId};

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    fn msg(i: u64, samples: u64) -> Message {
        Message::model_update(
            MessageId(i),
            TaskId(1),
            DeviceId(i),
            RoundId(0),
            samples,
            StorageKey::for_update(TaskId(1), RoundId(0), DeviceId(i)),
            SimInstant::EPOCH,
        )
    }

    fn deliveries() -> Vec<(SimInstant, Message)> {
        (0..10).map(|i| (t(i * 10), msg(i, 100))).collect()
    }

    #[test]
    fn storage_round_trip_and_miss() {
        let mut s = Storage::new();
        let key = StorageKey::from("a/b");
        s.put(key.clone(), Bytes::from_static(b"hello"));
        assert_eq!(s.get(&key).unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes_written(), 5);
        assert!(s.remove(&key));
        assert!(!s.remove(&key));
        assert!(matches!(s.get(&key), Err(SimdcError::StorageMiss(_))));
    }

    #[test]
    fn update_codec_round_trips() {
        let update = LocalUpdate {
            model: LrModel::from_parts(vec![0.5, -1.5, 2.0], 0.25),
            n_samples: 321,
            final_loss: 0.625,
        };
        let bytes = encode_update(&update);
        let back = decode_update(bytes).unwrap();
        assert_eq!(back, update);
    }

    /// The update payload layout, byte for byte: `u64 n_samples`,
    /// `f64 final_loss`, then the model (`u32 dim`, `f32 bias`,
    /// `f32 × dim` weights), all little-endian.
    #[test]
    fn update_codec_matches_committed_wire_bytes() {
        let update = LocalUpdate {
            model: LrModel::from_parts(vec![0.5, -2.0, -0.0], 1.25),
            n_samples: 7,
            final_loss: 0.375,
        };
        #[rustfmt::skip]
        let model: [u8; 20] = [
            0x03, 0x00, 0x00, 0x00, // dim 3
            0x00, 0x00, 0xA0, 0x3F, // bias 1.25
            0x00, 0x00, 0x00, 0x3F, // 0.5
            0x00, 0x00, 0x00, 0xC0, // -2.0
            0x00, 0x00, 0x00, 0x80, // -0.0
        ];
        #[rustfmt::skip]
        let header: [u8; 16] = [
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // n_samples 7
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD8, 0x3F, // final_loss 0.375
        ];
        assert_eq!(update.model.to_bytes(), model[..]);
        assert_eq!(encode_update(&update), [&header[..], &model[..]].concat());
    }

    /// Every value survives the round trip bit for bit, including NaN
    /// payloads, infinities, signed zeros and subnormals.
    #[test]
    fn update_codec_is_bit_exact() {
        use proptest::collection::vec;
        use proptest::prelude::*;

        const SPECIAL: [u32; 8] = [
            0x7FC0_0000, // quiet NaN
            0xFFC0_0001, // negative NaN with a payload
            0x7F80_0001, // signalling NaN
            0x7F80_0000, // +inf
            0xFF80_0000, // -inf
            0x8000_0000, // -0.0
            0x0000_0001, // smallest subnormal
            0x807F_FFFF, // largest negative subnormal
        ];
        fn bits() -> impl Strategy<Value = u32> {
            prop_oneof![
                (0u64..1 << 32).prop_map(|b| b as u32),
                (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
            ]
        }

        proptest! {
            fn check(
                weights in vec(bits(), 1..4097),
                bias in bits(),
                n_samples in 0..u64::MAX,
                loss in (0..u64::MAX, 0..SPECIAL.len() + 1).prop_map(|(b, i)| {
                    // Widen a special f32 pattern, or take arbitrary f64 bits.
                    SPECIAL.get(i).map_or(b, |&s| f64::from(f32::from_bits(s)).to_bits())
                }),
            ) {
                let update = LocalUpdate {
                    model: LrModel::from_parts(
                        weights.iter().copied().map(f32::from_bits).collect(),
                        f32::from_bits(bias),
                    ),
                    n_samples,
                    final_loss: f64::from_bits(loss),
                };
                let bytes = encode_update(&update);
                prop_assert_eq!(bytes.len(), 16 + 8 + 4 * weights.len());
                let back = decode_update(bytes).unwrap();
                let back_weights: Vec<u32> =
                    back.model.weights().iter().map(|w| w.to_bits()).collect();
                prop_assert_eq!(back_weights, weights);
                prop_assert_eq!(back.model.bias().to_bits(), bias);
                prop_assert_eq!(back.n_samples, n_samples);
                prop_assert_eq!(back.final_loss.to_bits(), loss);
            }
        }
        check();
    }

    #[test]
    fn update_codec_rejects_garbage() {
        let err = |payload: Bytes| match decode_update(payload) {
            Err(SimdcError::Serialization(msg)) => msg,
            other => panic!("expected a serialization error, got {other:?}"),
        };
        assert_eq!(
            err(Bytes::from_static(b"short")),
            "update payload too short: 5 bytes"
        );
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_f64_le(0.0);
        buf.put_u8(9); // truncated model
        assert_eq!(err(buf.freeze()), "model payload too short: 1 bytes");
        // A valid payload cut short or padded by a partial or whole weight.
        let valid = encode_update(&LocalUpdate {
            model: LrModel::from_parts(vec![0.5, -1.5, 2.0], 0.25),
            n_samples: 321,
            final_loss: 0.625,
        });
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
    fn sample_threshold_fires_at_accumulation() {
        let out = resolve_round(
            AggregationTrigger::SampleThreshold { min_samples: 250 },
            t(0),
            &deliveries(),
            SimDuration::from_secs(1_000),
        );
        // 3 × 100 samples ≥ 250 → fires at the third delivery (t = 20).
        assert!(out.trigger_fired);
        assert_eq!(out.aggregated_at, t(20));
        assert_eq!(out.included.len(), 3);
        assert_eq!(out.stragglers, 7);
    }

    #[test]
    fn sample_threshold_times_out_gracefully() {
        let out = resolve_round(
            AggregationTrigger::SampleThreshold {
                min_samples: 100_000,
            },
            t(0),
            &deliveries(),
            SimDuration::from_secs(45),
        );
        assert!(!out.trigger_fired);
        assert_eq!(out.aggregated_at, t(45));
        assert_eq!(out.included.len(), 5); // t = 0, 10, 20, 30, 40
        assert_eq!(out.stragglers, 5);
    }

    #[test]
    fn device_threshold_counts_unique_devices() {
        let mut d = deliveries();
        // Duplicate device 0 at t=5 — must not double-count.
        d.insert(1, (t(5), msg(0, 100)));
        let out = resolve_round(
            AggregationTrigger::DeviceThreshold { min_devices: 3 },
            t(0),
            &d,
            SimDuration::from_secs(1_000),
        );
        assert!(out.trigger_fired);
        assert_eq!(out.aggregated_at, t(20));
        assert_eq!(out.included.len(), 4); // includes the duplicate message
    }

    #[test]
    fn scheduled_takes_what_arrived() {
        let out = resolve_round(
            AggregationTrigger::Scheduled {
                period: SimDuration::from_secs(35),
            },
            t(0),
            &deliveries(),
            SimDuration::from_secs(1_000),
        );
        assert!(out.trigger_fired);
        assert_eq!(out.aggregated_at, t(35));
        assert_eq!(out.included.len(), 4);
        assert_eq!(out.stragglers, 6);
    }

    #[test]
    fn empty_deliveries_time_out() {
        let out = resolve_round(
            AggregationTrigger::SampleThreshold { min_samples: 1 },
            t(0),
            &[],
            SimDuration::from_secs(60),
        );
        assert!(!out.trigger_fired);
        assert!(out.included.is_empty());
        assert_eq!(out.aggregated_at, t(60));
    }

    #[test]
    fn trigger_validation() {
        assert!(AggregationTrigger::SampleThreshold { min_samples: 0 }
            .validate()
            .is_err());
        assert!(AggregationTrigger::DeviceThreshold { min_devices: 0 }
            .validate()
            .is_err());
        assert!(AggregationTrigger::Scheduled {
            period: SimDuration::ZERO
        }
        .validate()
        .is_err());
        assert!(AggregationTrigger::Scheduled {
            period: SimDuration::from_secs(1)
        }
        .validate()
        .is_ok());
    }
}
