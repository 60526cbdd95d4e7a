//! An LDBP-style load-correlated predictor ("A Load-Based Branch
//! Predictor", arXiv:2009.09064): some branches compute their direction
//! from a recently loaded value, so a predictor that snoops retired load
//! values and indexes a table by *(branch PC, load value)* learns them
//! exactly — where every history-based scheme sees noise.
//!
//! The simulator side of the contract is the synthetic load channel:
//! `vlpp-synth`'s executor emits one load value per retired record, and
//! the harness hands the predictor a window of that stream — the whole
//! channel at once through [`Ldbp::with_channel`], or one chunk's loads
//! before each chunk through
//! [`feed_loads`](crate::ConditionalPredictor::feed_loads), which
//! replaces the window. The predictor advances a cursor through the
//! window on every [`observe`](crate::BranchObserver::observe) call, so
//! the value it reads when predicting record *i* is exactly the value
//! the program saw — mimicking hardware that has the load's result in
//! flight by the time the branch fetches. Without a channel the
//! predictor degenerates to a PC-indexed bimodal (load 0 for every
//! branch).

use std::sync::Arc;

use vlpp_trace::{Addr, BranchRecord};

use crate::counter::Counter2;
use crate::hashmix::mix;
use crate::traits::{BranchObserver, ConditionalPredictor};

/// An LDBP-style load-value-correlated conditional predictor.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use vlpp_predict::{Budget, ConditionalPredictor, Ldbp};
/// use vlpp_trace::Addr;
///
/// let loads = Arc::new(vec![3u64, 7, 3]);
/// let mut p = Ldbp::new(Budget::from_kib(4).cond_index_bits()).with_channel(loads);
/// let pc = Addr::new(0x1000);
/// let _guess = p.predict(pc);
/// p.train(pc, true);
/// ```
#[derive(Debug, Clone)]
pub struct Ldbp {
    table: Vec<Counter2>,
    mask: u64,
    index_bits: u32,
    /// The current window of the retired-load value stream: `window[i]`
    /// belongs to the `i`-th record since the window was set.
    window: Arc<Vec<u64>>,
    /// Index into `window` of the record currently being predicted
    /// (advanced by `observe`, which the runner calls once per record).
    cursor: usize,
}

impl Ldbp {
    /// Creates a predictor with a `2^index_bits`-entry counter table and
    /// an empty load channel.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=28).contains(&index_bits), "index bits must be in 1..=28, got {index_bits}");
        Ldbp {
            table: vec![Counter2::default(); 1 << index_bits],
            mask: (1u64 << index_bits) - 1,
            index_bits,
            window: Arc::new(Vec::new()),
            cursor: 0,
        }
    }

    /// Attaches the load-value channel for the trace this predictor will
    /// run over (`loads[i]` = value visible at record `i`), resetting
    /// the cursor.
    pub fn with_channel(mut self, loads: Arc<Vec<u64>>) -> Self {
        self.window = loads;
        self.cursor = 0;
        self
    }

    /// Bytes charged: the 2-bit counter table (the load channel models
    /// values the core already has in flight, like LDBP's use of the
    /// load queue, and is not second-level table storage).
    pub fn storage_bytes(&self) -> u64 {
        self.table.len() as u64 / 4
    }

    fn current_load(&self) -> u64 {
        self.window.get(self.cursor).copied().unwrap_or(0)
    }

    fn index(&self, pc: Addr) -> usize {
        let load = self.current_load();
        (mix(pc.word() ^ load.wrapping_mul(0x9e37_79b9_7f4a_7c15)) & self.mask) as usize
    }
}

impl BranchObserver for Ldbp {
    fn observe(&mut self, _record: &BranchRecord) {
        self.cursor += 1;
    }
}

impl ConditionalPredictor for Ldbp {
    fn predict(&mut self, pc: Addr) -> bool {
        self.table[self.index(pc)].predict_taken()
    }

    fn train(&mut self, pc: Addr, taken: bool) {
        let idx = self.index(pc);
        self.table[idx].update(taken);
    }

    fn name(&self) -> String {
        format!("ldbp-{}b", self.index_bits)
    }

    /// Replaces the window with `loads` and resets the cursor; the
    /// window's buffer is reused once this predictor owns it alone.
    fn feed_loads(&mut self, loads: &[u64]) {
        let window = Arc::make_mut(&mut self.window);
        window.clear();
        window.extend_from_slice(loads);
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunStats;

    #[test]
    fn learns_a_load_keyed_branch_exactly() {
        // outcome = f(load) for a handful of load values: with the
        // channel attached the table converges to perfect prediction.
        let loads: Vec<u64> = (0..20_000u64).map(|i| mix(i) % 8).collect();
        let pc = Addr::new(0x5000);
        let mut p = Ldbp::new(12).with_channel(Arc::new(loads.clone()));
        let mut late_misses = 0;
        for (i, &load) in loads.iter().enumerate() {
            let taken = mix(load) & 1 == 1;
            let predicted = p.predict(pc);
            if i > 1000 && predicted != taken {
                late_misses += 1;
            }
            p.train(pc, taken);
            p.observe(&BranchRecord::conditional(pc, Addr::new(0x8000), taken));
        }
        assert_eq!(late_misses, 0, "load-keyed branch must become perfectly predictable");
    }

    #[test]
    fn without_channel_degenerates_to_bimodal() {
        let mut p = Ldbp::new(10);
        let pc = Addr::new(0x100);
        for _ in 0..100 {
            let _ = p.predict(pc);
            p.train(pc, true);
            p.observe(&BranchRecord::conditional(pc, Addr::new(0x8000), true));
        }
        assert!(p.predict(pc), "biased-taken branch must predict taken");
    }

    #[test]
    fn cursor_tracks_every_record_kind() {
        let mut p = Ldbp::new(4).with_channel(Arc::new(vec![1, 2, 3]));
        assert_eq!(p.current_load(), 1);
        p.observe(&BranchRecord::unconditional(Addr::new(0), Addr::new(4)));
        assert_eq!(p.current_load(), 2);
        p.observe(&BranchRecord::indirect(Addr::new(8), Addr::new(12)));
        assert_eq!(p.current_load(), 3);
        p.observe(&BranchRecord::conditional(Addr::new(16), Addr::new(20), true));
        assert_eq!(p.current_load(), 0, "past the channel end reads 0");
    }

    #[test]
    fn loads_fed_per_chunk_match_the_whole_channel() {
        let loads: Vec<u64> = (0..3_000u64).map(|i| mix(i) % 8).collect();
        let records: Vec<BranchRecord> = (0..3_000u64)
            .map(|i| {
                let taken = mix(loads[i as usize] ^ (i % 3)) & 1 == 1;
                match i % 5 {
                    4 => BranchRecord::indirect(Addr::new(0x900), Addr::new(0x40 * (i % 7))),
                    _ => BranchRecord::conditional(
                        Addr::new(0x100 + 4 * (i % 3)),
                        Addr::new(0),
                        taken,
                    ),
                }
            })
            .collect();
        let mut whole = Ldbp::new(10).with_channel(Arc::new(loads.clone()));
        let want = whole.run(&records);
        let mut chunked = Ldbp::new(10).with_channel(Arc::new(vec![5; 40]));
        let mut got = RunStats::default();
        let mut start = 0;
        for len in [0, 1, 999, 0, 1, 1_500, 499].into_iter().cycle() {
            if start == records.len() {
                break;
            }
            let end = (start + len).min(records.len());
            chunked.feed_loads(&loads[start..end]);
            got += chunked.run(&records[start..end]);
            start = end;
        }
        assert_eq!(got, want);
        assert!(want.mispredictions * 4 < want.predictions, "the channel must be read: {want:?}");
    }

    #[test]
    fn storage_charges_the_table_only() {
        assert_eq!(Ldbp::new(12).storage_bytes(), 1024);
    }

    #[test]
    #[should_panic(expected = "index bits")]
    fn rejects_zero_bits() {
        Ldbp::new(0);
    }
}
