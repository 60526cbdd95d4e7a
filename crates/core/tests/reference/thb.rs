//! The Target History Buffer (THB): first-level history of a path
//! predictor (paper §3.1–3.2).

use std::collections::VecDeque;

use vlpp_trace::Addr;

/// The `k`-bit-compressed target addresses of the most recently
/// encountered branches, newest first. What enters it is the caller's
/// §3.2 recording policy; the THB itself only slides the window.
#[derive(Debug, Clone)]
pub struct Thb {
    targets: VecDeque<u64>,
    capacity: usize,
    k: u32,
    store_returns: bool,
}

impl Thb {
    /// Creates an empty THB holding up to `capacity` targets compressed
    /// to `k` bits, with return targets excluded (the paper's default).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or `k` is not in `1..=64`.
    pub fn new(capacity: usize, k: u32) -> Self {
        assert!(capacity >= 1, "THB capacity must be at least 1");
        assert!((1..=64).contains(&k), "compression width must be in 1..=64, got {k}");
        Thb { targets: VecDeque::with_capacity(capacity), capacity, k, store_returns: false }
    }

    /// Creates a THB that also records return targets (§3.2 ablation).
    pub fn with_returns(capacity: usize, k: u32) -> Self {
        let mut thb = Thb::new(capacity, k);
        thb.store_returns = true;
        thb
    }

    /// Records a target address (compressed to `k` bits), evicting the
    /// oldest if full.
    pub fn push(&mut self, target: Addr) {
        if self.targets.len() == self.capacity {
            self.targets.pop_back();
        }
        self.targets.push_front(target.low_bits(self.k));
    }

    /// `PATH_len`: the compressed targets `T_1 … T_len`, padded with
    /// zeros if fewer targets have been recorded.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or exceeds the capacity.
    pub fn path(&self, len: usize) -> impl Iterator<Item = u64> + '_ {
        assert!(len >= 1 && len <= self.capacity, "path length must be in 1..=capacity, got {len}");
        (1..=len).map(|x| self.targets.get(x - 1).copied().unwrap_or(0))
    }

    /// The maximum number of targets the THB holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The compression width `k` in bits.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Whether return targets are recorded.
    pub fn stores_returns(&self) -> bool {
        self.store_returns
    }

    /// Forgets all recorded targets.
    pub fn clear(&mut self) {
        self.targets.clear();
    }
}
