//! Seeded fault-plan generation for the fault-injection harness.
//!
//! The robustness suite (`tests/integration_faults.rs`, the trace
//! crate's `prop_faults` property tests) damages serialized inputs, and
//! the damage must be **deterministic** — a failing case has to replay
//! from its seed, and CI has to exercise the same fault matrix on every
//! run. A [`DataFault`] flips bits in, truncates, or splices garbage
//! into a byte buffer; [`DataFault::apply`] is a pure function of the
//! fault and the input bytes.
//!
//! A [`FaultPlan`] is a seeded stream of such faults: same seed, same
//! plan, forever. The plan generator never emits a no-op fault — a
//! corruption always changes at least one byte, a truncation always
//! removes at least one.
//!
//! Execution faults (worker panics and stalls, network faults) are not
//! drawn here: they are `VLPP_FAULT` plans, whose one grammar, parser
//! and renderer live in `vlpp_trace::fault`.

use crate::rng::XorShift64;

/// One deterministic mutation of a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataFault {
    /// XOR the byte at `offset` with `xor` (always non-zero, so the
    /// byte always changes). When aimed inside a format's header this
    /// guarantees a parse error; aimed anywhere it exercises the
    /// never-panic property.
    CorruptByte {
        /// Position of the byte to damage.
        offset: usize,
        /// Non-zero mask to XOR into it.
        xor: u8,
    },
    /// Keep only the first `keep` bytes (always fewer than the input
    /// has), simulating a write cut short by a crash or full disk.
    Truncate {
        /// Number of leading bytes to keep.
        keep: usize,
    },
    /// Overwrite a run of bytes starting at `offset` with pseudo-random
    /// garbage, simulating a torn or misdirected write.
    Splice {
        /// Start of the overwritten run.
        offset: usize,
        /// Replacement bytes.
        bytes: Vec<u8>,
    },
}

impl DataFault {
    /// Applies the fault to a copy of `input`. Offsets out of range are
    /// clamped, so applying a fault can never itself panic.
    pub fn apply(&self, input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        match self {
            DataFault::CorruptByte { offset, xor } => {
                if let Some(byte) = out.get_mut(*offset) {
                    *byte ^= xor;
                }
            }
            DataFault::Truncate { keep } => {
                let keep = (*keep).min(out.len());
                out.truncate(keep);
            }
            DataFault::Splice { offset, bytes } => {
                let start = (*offset).min(out.len());
                let end = (start + bytes.len()).min(out.len());
                out[start..end].copy_from_slice(&bytes[..end - start]);
            }
        }
        out
    }
}

/// A seeded, replayable stream of faults.
///
/// # Example
///
/// ```
/// use vlpp_check::fault::{DataFault, FaultPlan};
///
/// let input = b"a perfectly good file".to_vec();
/// let mut plan = FaultPlan::new(0xFA11);
/// for fault in plan.data_faults(input.len(), 8) {
///     let damaged = fault.apply(&input);
///     assert_ne!(damaged, input, "{fault:?} must actually damage the bytes");
/// }
/// // Same seed, same plan.
/// assert_eq!(
///     FaultPlan::new(0xFA11).data_faults(input.len(), 8),
///     FaultPlan::new(0xFA11).data_faults(input.len(), 8),
/// );
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    rng: XorShift64,
}

impl FaultPlan {
    /// Creates a plan from a seed. Equal seeds yield equal fault
    /// streams.
    pub fn new(seed: u64) -> Self {
        FaultPlan { rng: XorShift64::new(seed) }
    }

    fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (self.rng.next_u64() % bound as u64) as usize
    }

    /// Draws `count` data faults for a buffer of `len` bytes, cycling
    /// through the three fault shapes so every draw of three covers
    /// corrupt, truncate, and splice. Each fault is guaranteed to change
    /// the buffer (`len` must be at least 1).
    pub fn data_faults(&mut self, len: usize, count: usize) -> Vec<DataFault> {
        assert!(len >= 1, "cannot damage an empty buffer");
        (0..count)
            .map(|i| match i % 3 {
                0 => DataFault::CorruptByte {
                    offset: self.below(len),
                    xor: (self.rng.next_u64() % 255 + 1) as u8,
                },
                1 => DataFault::Truncate { keep: self.below(len) },
                _ => {
                    let offset = self.below(len);
                    let run = 1 + self.below(8.min(len - offset).max(1));
                    DataFault::Splice {
                        offset,
                        bytes: (0..run).map(|_| self.rng.next_u64() as u8).collect(),
                    }
                }
            })
            .collect()
    }

    /// Draws `count` corrupt-byte faults confined to the first
    /// `header_len` bytes — aimed at a format's magic/version fields,
    /// where any change is guaranteed to produce a parse error rather
    /// than a silently different payload.
    pub fn header_faults(&mut self, header_len: usize, count: usize) -> Vec<DataFault> {
        assert!(header_len >= 1);
        (0..count)
            .map(|_| DataFault::CorruptByte {
                offset: self.below(header_len),
                xor: (self.rng.next_u64() % 255 + 1) as u8,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = FaultPlan::new(9).data_faults(100, 12);
        let b = FaultPlan::new(9).data_faults(100, 12);
        let c = FaultPlan::new(10).data_faults(100, 12);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should draw different plans");
    }

    #[test]
    fn every_data_fault_changes_the_buffer() {
        let input: Vec<u8> = (0..=255).collect();
        for seed in 0..16 {
            for fault in FaultPlan::new(seed).data_faults(input.len(), 30) {
                assert_ne!(fault.apply(&input), input, "no-op fault from seed {seed}: {fault:?}");
            }
        }
    }

    #[test]
    fn faults_on_tiny_buffers_never_panic() {
        for len in 1..4usize {
            let input = vec![0xAAu8; len];
            for fault in FaultPlan::new(1).data_faults(len, 30) {
                let _ = fault.apply(&input);
            }
        }
    }

    #[test]
    fn header_faults_stay_inside_the_header() {
        for fault in FaultPlan::new(3).header_faults(6, 50) {
            match fault {
                DataFault::CorruptByte { offset, xor } => {
                    assert!(offset < 6);
                    assert_ne!(xor, 0);
                }
                other => panic!("header faults are corrupt-byte only, got {other:?}"),
            }
        }
    }

    #[test]
    fn apply_clamps_out_of_range_faults() {
        let input = vec![1u8, 2, 3];
        assert_eq!(DataFault::Truncate { keep: 99 }.apply(&input), input);
        assert_eq!(DataFault::CorruptByte { offset: 99, xor: 0xFF }.apply(&input), input);
        let spliced = DataFault::Splice { offset: 2, bytes: vec![9, 9, 9] }.apply(&input);
        assert_eq!(spliced, vec![1, 2, 9]);
    }
}
