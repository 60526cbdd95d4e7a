//! Second-level predictor tables (paper §3.1): 2-bit counters for
//! conditional branches, target registers for indirect branches, one
//! boxed entry per index.

use vlpp_predict::Counter2;
use vlpp_trace::Addr;

/// A `2^index_bits`-entry table of 2-bit saturating counters.
#[derive(Debug, Clone)]
pub struct CounterTable {
    counters: Vec<Counter2>,
    mask: u64,
}

impl CounterTable {
    /// Creates a `2^index_bits`-entry counter table.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=28).contains(&index_bits), "index width must be in 1..=28, got {index_bits}");
        CounterTable {
            counters: vec![Counter2::default(); 1 << index_bits],
            mask: (1u64 << index_bits) - 1,
        }
    }

    /// Predicts the direction stored at `index` (out-of-range index bits
    /// are masked off).
    pub fn predict(&self, index: u64) -> bool {
        self.counters[(index & self.mask) as usize].predict_taken()
    }

    /// Updates the counter at `index` with a resolved direction.
    pub fn train(&mut self, index: u64, taken: bool) {
        self.counters[(index & self.mask) as usize].update(taken);
    }

    /// The table size in bytes under the 2-bits-per-entry accounting.
    pub fn bytes(&self) -> u64 {
        self.counters.len() as u64 / 4
    }

    /// Every counter value in index order.
    pub fn values(&self) -> Vec<u8> {
        self.counters.iter().map(|c| c.value()).collect()
    }
}

/// A `2^index_bits`-entry table of full 64-bit target registers, with
/// the paper's 4-bytes-per-entry budget accounting.
#[derive(Debug, Clone)]
pub struct TargetTable {
    targets: Vec<u64>,
    valid: Vec<bool>,
    mask: u64,
}

impl TargetTable {
    /// Creates a `2^index_bits`-entry target table.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 26.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=26).contains(&index_bits), "index width must be in 1..=26, got {index_bits}");
        TargetTable {
            targets: vec![0; 1 << index_bits],
            valid: vec![false; 1 << index_bits],
            mask: (1u64 << index_bits) - 1,
        }
    }

    /// Predicts the target stored at `index`; [`Addr::NULL`] for a
    /// never-written entry.
    pub fn predict(&self, index: u64, _pc: Addr) -> Addr {
        let i = (index & self.mask) as usize;
        if self.valid[i] {
            Addr::new(self.targets[i])
        } else {
            Addr::NULL
        }
    }

    /// Writes the resolved `target` into the entry at `index`.
    pub fn train(&mut self, index: u64, target: Addr) {
        let i = (index & self.mask) as usize;
        self.targets[i] = target.raw();
        self.valid[i] = true;
    }

    /// The table size in bytes under the 4-bytes-per-entry accounting.
    pub fn bytes(&self) -> u64 {
        self.targets.len() as u64 * 4
    }

    /// Every entry's stored target in index order (`None` for
    /// never-written entries).
    pub fn stored(&self) -> Vec<Option<u64>> {
        self.targets.iter().zip(&self.valid).map(|(&v, &ok)| ok.then_some(v)).collect()
    }
}
