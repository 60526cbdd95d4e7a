//! The path hash functions `HF_1 … HF_N` (paper §3.3) and their O(1)
//! evaluation (paper §4.1).
//!
//! `HF_X` combines the `X` most recent compressed targets into a `k`-bit
//! index: target `T_i` is rotated left by `i − 1` bits (so the *order* of
//! targets is encoded, not just their set) and all rotated targets are
//! XORed together. Evaluating each hash from scratch costs O(X) XORs;
//! [`RollingHashers`] keeps every hash current for one rotate-XOR per
//! retired branch.

use vlpp_trace::Addr;

/// The §4.1 register file folded into a single running register: every
/// hash function `HF_1 … HF_count` for O(1) per retired branch.
///
/// §4.1 keeps one register per hash function, `I_X`, updated as
/// `I_X(t+1) = rot1(I_{X−1}(t)) XOR target` — `count` rotate-XORs per
/// retired branch. Unrolling that recurrence shows every partial-sum register is a
/// window of one *infinite-history* sum. Let
/// `S(t) = rot1(S(t−1)) XOR target_t` (one register, never truncated).
/// Then, because rotation distributes over XOR and the targets older
/// than `X` cancel,
///
/// ```text
/// I_X(t) = S(t) XOR rotl(S(t−X), X)
/// ```
///
/// So instead of updating `n` registers per retired branch (one
/// rotate-XOR each — O(n) with `n` up to 32), this structure updates
/// `S` once and remembers its last `n` values in a ring; *any* hash
/// function's index is then one ring read and one rotate-XOR, on
/// demand. Warmup falls out for free: ring slots not yet written are
/// zero, which is exactly `S` of the empty history.
///
/// The values produced are bit-identical to the §4.1 registers and to a
/// from-scratch evaluation of the §3.3 hashes over the THB — the
/// property suite checks both against the test-only reference after
/// every push.
///
/// # Example
///
/// ```
/// use vlpp_core::RollingHashers;
/// use vlpp_trace::Addr;
///
/// let mut hashers = RollingHashers::new(4, 8);
/// hashers.push(Addr::new(0x3 << 2)); // T2 after the next push
/// hashers.push(Addr::new(0x5 << 2)); // T1
/// assert_eq!(hashers.index(1), 0x5); // HF_1 = T1
/// // HF_2 = rotl(T1, 0) ^ rotl(T2, 1) = 0x5 ^ 0x6
/// assert_eq!(hashers.index(2), 0x3);
/// // Longer paths read zeros past the two recorded targets.
/// assert_eq!(hashers.index(4), 0x3);
/// ```
#[derive(Debug, Clone)]
pub struct RollingHashers {
    /// `S(t)` — the infinite-history partial sum.
    s: u64,
    /// The last values of `S`, `ring[j & ring_mask] = S(j)`; sized to
    /// the next power of two above `count` so the ring offset is a
    /// mask, not a modulo.
    ring: Vec<u64>,
    /// Targets pushed so far.
    t: u64,
    /// `rots[x] = x mod k`, precomputed so a lookup does no division.
    rots: Vec<u8>,
    count: usize,
    k: u32,
    mask: u64,
    ring_mask: u64,
}

impl RollingHashers {
    /// Creates the rolling form of `count` hash functions producing
    /// `k`-bit indices.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or `k` is not in `1..=64`.
    pub fn new(count: usize, k: u32) -> Self {
        assert!(count >= 1, "need at least one hash function");
        assert!((1..=64).contains(&k), "index width must be in 1..=64, got {k}");
        let ring_len = count.next_power_of_two();
        RollingHashers {
            s: 0,
            ring: vec![0; ring_len],
            t: 0,
            rots: (0..=count).map(|x| (x as u32 % k) as u8).collect(),
            count,
            k,
            mask: if k == 64 { u64::MAX } else { (1u64 << k) - 1 },
            ring_mask: ring_len as u64 - 1,
        }
    }

    /// Advances `S` for a newly inserted target: one rotate-XOR and one
    /// ring store, independent of `count`.
    #[inline]
    pub fn push(&mut self, target: Addr) {
        let t = target.low_bits(self.k);
        self.ring[(self.t & self.ring_mask) as usize] = self.s;
        // rot1 within k bits; for k = 64 the mask is all-ones and the
        // shift pair is the native rotate.
        self.s = (((self.s << 1) | (self.s >> (self.k - 1))) & self.mask) ^ t;
        self.t += 1;
    }

    /// The current index `I_x` produced by `HF_x` (`x` is 1-based):
    /// `S(t) XOR rotl(S(t−x), x)`. Ring slots before the first push are
    /// zero, which is the empty-history `S` — warmup needs no branch.
    ///
    /// # Panics
    ///
    /// Panics if `x` is 0 or exceeds the number of hash functions.
    #[inline]
    pub fn index(&self, x: usize) -> u64 {
        assert!(x >= 1 && x <= self.count, "hash number must be in 1..=count, got {x}");
        self.lookup(x)
    }

    /// [`index`](Self::index) of every `x` in `xs`, in order — one
    /// hash group's lookups for the step-1 sweep, without `index`'s
    /// per-lookup range assertion. The caller guarantees `xs` lies in
    /// `1..=count` (a profile's hash set is validated when its builder
    /// is made).
    #[inline]
    pub(crate) fn indices<'a>(&'a self, xs: &'a [u8]) -> impl Iterator<Item = u64> + 'a {
        xs.iter().map(move |&x| self.lookup(x as usize))
    }

    #[inline]
    fn lookup(&self, x: usize) -> u64 {
        let past = self.ring[(self.t.wrapping_sub(x as u64) & self.ring_mask) as usize];
        let amount = self.rots[x] as u32;
        // Branchless k-bit rotate: `past` is already masked to k bits,
        // so at amount == 0 the right shift contributes nothing (shift
        // by k, forced in-range by `& 63` for k == 64) and the left
        // shift is the identity — no data-dependent branch on the
        // rotation amount.
        let rotated = ((past << amount) | (past >> ((self.k - amount) & 63))) & self.mask;
        self.s ^ rotated
    }

    /// The number of hash functions maintained.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The index width in bits.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Resets to the empty-history state.
    pub fn clear(&mut self) {
        self.s = 0;
        self.t = 0;
        self.ring.fill(0);
    }

    /// The exact length of [`snapshot`](Self::snapshot)'s vector for
    /// this configuration — snapshot loaders validate against it
    /// before calling [`restore`](Self::restore), which panics on a
    /// mismatch.
    pub fn snapshot_len(&self) -> usize {
        2 + self.ring.len()
    }

    /// Captures the full rolling state (used by the §6 history stack):
    /// `[S, t, ring…]`, opaque to the caller.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut snapshot = Vec::with_capacity(2 + self.ring.len());
        snapshot.push(self.s);
        snapshot.push(self.t);
        snapshot.extend_from_slice(&self.ring);
        snapshot
    }

    /// Restores state from a snapshot taken with
    /// [`snapshot`](Self::snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a differently-configured
    /// hasher.
    pub fn restore(&mut self, snapshot: &[u64]) {
        assert_eq!(snapshot.len(), 2 + self.ring.len(), "snapshot size mismatch");
        self.s = snapshot[0];
        self.t = snapshot[1];
        self.ring.copy_from_slice(&snapshot[2..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple deterministic pseudo-random sequence for tests.
    fn pseudo_targets(n: usize) -> Vec<Addr> {
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Addr::new((x >> 11) << 2)
            })
            .collect()
    }

    /// `HF_len` evaluated from scratch per §3.3 over the pushed targets
    /// (newest last): `XOR_{i=1..len} rotl_k(T_i, i−1)`, with `T_i = 0`
    /// before the first `i` pushes.
    fn direct(targets: &[Addr], len: usize, k: u32) -> u64 {
        let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
        let rotl = |v: u64, r: u32| if r == 0 { v } else { ((v << r) | (v >> (k - r))) & mask };
        targets
            .iter()
            .rev()
            .take(len)
            .enumerate()
            .fold(0, |acc, (i, t)| acc ^ rotl(t.low_bits(k), i as u32 % k))
    }

    /// Pushes `targets` one at a time, checking every hash `1..=count`
    /// against [`direct`] after each push.
    fn assert_matches_direct(count: usize, k: u32, targets: &[Addr]) {
        let mut hashers = RollingHashers::new(count, k);
        for (step, &target) in targets.iter().enumerate() {
            hashers.push(target);
            for len in 1..=count {
                let want = direct(&targets[..=step], len, k);
                assert_eq!(hashers.index(len), want, "HF_{len} after push {step}");
            }
        }
    }

    #[test]
    fn incremental_matches_direct_for_all_lengths() {
        // Non-power-of-two counts and awkward widths included.
        for (count, k) in [(1, 1), (5, 9), (16, 14), (31, 10), (32, 14), (32, 28)] {
            assert_matches_direct(count, k, &pseudo_targets(3 * count + 40));
        }
    }

    #[test]
    fn incremental_matches_direct_during_warmup() {
        // Fewer targets than the deepest hash: unwritten ring slots must
        // act as the empty history.
        assert_matches_direct(12, 10, &pseudo_targets(5));
    }

    #[test]
    fn incremental_matches_direct_at_k_64() {
        assert_matches_direct(8, 64, &pseudo_targets(50));
    }

    /// The §4.1 register file evaluated as the paper writes it: one
    /// register per hash function, `I_X ← rotl_k(I_{X−1}, 1) XOR target`
    /// on every push. Returns `I_1 … I_count` after each push.
    fn registers(targets: &[Addr], count: usize, k: u32) -> Vec<Vec<u64>> {
        let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
        let rot1 = |v: u64| if k == 1 { v } else { ((v << 1) | (v >> (k - 1))) & mask };
        let mut indices = vec![0u64; count];
        targets
            .iter()
            .map(|target| {
                let t = target.low_bits(k);
                for x in (1..count).rev() {
                    indices[x] = rot1(indices[x - 1]) ^ t;
                }
                indices[0] = t;
                indices.clone()
            })
            .collect()
    }

    #[test]
    fn rolling_matches_incremental_for_all_lengths() {
        // Non-power-of-two counts and awkward widths included.
        for (count, k) in [(1, 1), (5, 9), (16, 14), (31, 10), (32, 28), (8, 64)] {
            let targets = pseudo_targets(3 * count + 40);
            let mut rolling = RollingHashers::new(count, k);
            for (step, (&target, want)) in
                targets.iter().zip(registers(&targets, count, k)).enumerate()
            {
                rolling.push(target);
                let got: Vec<u64> = (1..=count).map(|x| rolling.index(x)).collect();
                assert_eq!(got, want, "count {count} k {k} after push {step}");
            }
        }
    }

    #[test]
    fn rolling_warmup_matches_incremental() {
        // Fewer targets than the deepest hash: unwritten ring slots must
        // act as the empty-history S.
        let targets = pseudo_targets(5);
        let mut rolling = RollingHashers::new(12, 10);
        for &target in &targets {
            rolling.push(target);
        }
        let got: Vec<u64> = (1..=12).map(|x| rolling.index(x)).collect();
        assert_eq!(Some(&got), registers(&targets, 12, 10).last());
    }

    #[test]
    fn clear_resets_to_empty_state() {
        // After `clear`, the hashers evolve exactly like fresh ones.
        let mut reused = RollingHashers::new(8, 10);
        for target in pseudo_targets(30) {
            reused.push(target);
        }
        reused.clear();
        let mut fresh = RollingHashers::new(8, 10);
        for target in pseudo_targets(5) {
            reused.push(target);
            fresh.push(target);
        }
        assert_eq!(reused.snapshot(), fresh.snapshot());
    }

    #[test]
    fn snapshot_restore_round_trips() {
        // A snapshot restored into *another* instance of the same shape
        // reproduces every hash (the model-snapshot path).
        let mut original = RollingHashers::new(8, 10);
        for target in pseudo_targets(20) {
            original.push(target);
        }
        let mut copy = RollingHashers::new(8, 10);
        copy.restore(&original.snapshot());
        assert_eq!(copy.snapshot_len(), original.snapshot().len());
        for x in 1..=8 {
            assert_eq!(copy.index(x), original.index(x));
        }
    }

    #[test]
    fn direct_hash_of_single_target_is_target() {
        let mut hashers = RollingHashers::new(4, 12);
        hashers.push(Addr::new(0xabc << 2));
        assert_eq!(hashers.index(1), 0xabc);
    }

    #[test]
    fn direct_hash_encodes_order() {
        let (a, b) = (Addr::new(0x11 << 2), Addr::new(0x22 << 2));
        let mut ab = RollingHashers::new(4, 8);
        ab.push(a);
        ab.push(b);
        let mut ba = RollingHashers::new(4, 8);
        ba.push(b);
        ba.push(a);
        assert_ne!(ab.index(2), ba.index(2));
    }

    #[test]
    fn indices_stay_within_k_bits() {
        let mut hashers = RollingHashers::new(16, 9);
        for target in pseudo_targets(100) {
            hashers.push(target);
            assert!((1..=16).all(|x| hashers.index(x) < (1 << 9)));
        }
    }

    #[test]
    #[should_panic(expected = "hash number")]
    fn index_rejects_zero() {
        RollingHashers::new(4, 8).index(0);
    }

    #[test]
    fn rolling_snapshot_restore_round_trips() {
        let mut rolling = RollingHashers::new(8, 10);
        for target in pseudo_targets(20) {
            rolling.push(target);
        }
        let saved = rolling.snapshot();
        let at_save: Vec<u64> = (1..=8).map(|x| rolling.index(x)).collect();
        for target in pseudo_targets(40) {
            rolling.push(target);
        }
        rolling.restore(&saved);
        let restored: Vec<u64> = (1..=8).map(|x| rolling.index(x)).collect();
        assert_eq!(restored, at_save);
    }

    #[test]
    fn rolling_clear_resets_to_empty_state() {
        let mut rolling = RollingHashers::new(4, 10);
        rolling.push(Addr::new(0x40));
        rolling.clear();
        for x in 1..=4 {
            assert_eq!(rolling.index(x), 0);
        }
    }

    #[test]
    #[should_panic(expected = "hash number")]
    fn rolling_index_rejects_out_of_range() {
        RollingHashers::new(4, 8).index(5);
    }
}
