//! The path hash functions `HF_1 … HF_N` (paper §3.3), evaluated
//! directly from the THB and through the paper's §4.1 partial-sum
//! registers.
//!
//! `HF_X` combines the `X` most recent compressed targets into a `k`-bit
//! index: target `T_i` is rotated left by `i − 1` bits (so the *order* of
//! targets is encoded, not just their set) and all rotated targets are
//! XORed together. §4.1 observes that
//! `I_X(t+1) = rot1(I_{X−1}(t)) XOR newtarget`, so one register per hash
//! function evaluates every hash with a single rotate-XOR per inserted
//! target.

use vlpp_trace::Addr;

use super::thb::Thb;

/// Rotates a `k`-bit value left by `amount` within `k` bits.
fn rotl(value: u64, amount: u32, k: u32) -> u64 {
    let amount = amount % k;
    if amount == 0 {
        return value;
    }
    if k == 64 {
        return value.rotate_left(amount);
    }
    let mask = (1u64 << k) - 1;
    ((value << amount) | (value >> (k - amount))) & mask
}

/// Directly evaluates `HF_len(PATH_len)` from the THB contents:
/// `XOR_{i=1..len} rotl(T_i, i−1)` — the specification every faster
/// form is checked against.
///
/// # Panics
///
/// Panics if `len` is 0 or exceeds the THB capacity.
pub fn hash_path(thb: &Thb, len: usize) -> u64 {
    let k = thb.k();
    thb.path(len).enumerate().fold(0u64, |acc, (i, target)| acc ^ rotl(target, i as u32, k))
}

/// The §4.1 partial-sum registers: register `X` holds `I_X`, the index
/// `HF_X` would produce for the current THB contents. When a new target
/// arrives, `I_X ← rotl(I_{X−1}, 1) XOR target` for `X = n..1` (high to
/// low, so each update reads the *previous* value of its neighbor).
#[derive(Debug, Clone)]
pub struct IncrementalHashers {
    /// `indices[x-1]` = current `I_x`.
    indices: Vec<u64>,
    k: u32,
}

impl IncrementalHashers {
    /// Creates registers for `HF_1 … HF_count` producing `k`-bit
    /// indices.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or `k` is not in `1..=64`.
    pub fn new(count: usize, k: u32) -> Self {
        assert!(count >= 1, "need at least one hash function");
        assert!((1..=64).contains(&k), "index width must be in 1..=64, got {k}");
        IncrementalHashers { indices: vec![0; count], k }
    }

    /// Updates every register for a newly inserted target address
    /// (compressed to `k` bits, like the THB entry it mirrors).
    pub fn push(&mut self, target: Addr) {
        let t = target.low_bits(self.k);
        // I_X(t+1) = rotl(I_{X-1}(t), 1) ^ t ; I_0 is the empty hash, 0.
        for x in (1..self.indices.len()).rev() {
            self.indices[x] = rotl(self.indices[x - 1], 1, self.k) ^ t;
        }
        self.indices[0] = t;
    }

    /// The current index `I_x` produced by `HF_x` (`x` is 1-based).
    ///
    /// # Panics
    ///
    /// Panics if `x` is 0 or exceeds the number of hash functions.
    pub fn index(&self, x: usize) -> u64 {
        assert!(x >= 1 && x <= self.indices.len(), "hash number must be in 1..=count, got {x}");
        self.indices[x - 1]
    }

    /// All current indices, `I_1` first.
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// Captures the register state (used by the §6 history stack).
    pub fn snapshot(&self) -> Vec<u64> {
        self.indices.clone()
    }

    /// Restores registers from a [`snapshot`](Self::snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a differently-configured
    /// hasher.
    pub fn restore(&mut self, snapshot: &[u64]) {
        assert_eq!(snapshot.len(), self.indices.len(), "snapshot size mismatch");
        self.indices.copy_from_slice(snapshot);
    }
}
