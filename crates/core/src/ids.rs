//! Dense branch ids: an exact open-addressing map from a branch pc to
//! the order in which it was first seen.
//!
//! The kernels resolve every predicted record's pc to its statistics row
//! through this table, and the §3.5 profiler's step 1 resolves every
//! profiled record's pc to its tally row. Both need the same thing: one
//! probe per record in steady state, a slow path only on a pc's first
//! sight, and ids in first-seen order so that rows come out in a
//! deterministic order.
//!
//! The home slot is a multiplicative hash of the whole pc, because low
//! word bits alone alias on real layouts: the synthetic generator ends
//! every branch's 64-byte block with it (`Function::block_branch_pc`),
//! so every word address is ≡ 15 mod 16 (the kernel docs give the miss
//! rates of the `word & 4095` cache this replaced).

/// The marker id of an empty slot: real ids stay below `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// Fibonacci hashing's multiplier, 2^64 / φ rounded to odd.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slots a fresh table starts with; it doubles past half full.
const INITIAL_SLOTS: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Slot {
    pc: u64,
    id: u32,
}

/// An exact map from pc to a dense id, ids handed out `0, 1, 2, …` in
/// first-insertion order. Linear probing, at most half full.
#[derive(Debug, Clone)]
pub(crate) struct BranchIds {
    slots: Box<[Slot]>,
    /// `64 − log2(slots.len())`: the home slot is the mixed pc's top
    /// bits.
    shift: u32,
    len: u32,
}

impl BranchIds {
    /// An empty table.
    pub(crate) fn new() -> Self {
        BranchIds {
            slots: vec![Slot { pc: 0, id: EMPTY }; INITIAL_SLOTS].into_boxed_slice(),
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            len: 0,
        }
    }

    #[inline]
    fn home(&self, pc: u64) -> usize {
        (pc.wrapping_mul(MIX) >> self.shift) as usize
    }

    /// The id of `pc`, or `None` if it was never inserted.
    #[inline]
    pub(crate) fn get(&self, pc: u64) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(pc);
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return None;
            }
            if slot.pc == pc {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `pc`, which must not be present yet, and returns its new
    /// id: the number of pcs inserted before it.
    pub(crate) fn insert(&mut self, pc: u64) -> u32 {
        debug_assert!(self.get(pc).is_none(), "pc {pc:#x} inserted twice");
        if (self.len as usize + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let id = self.len;
        self.place(pc, id);
        self.len += 1;
        id
    }

    fn place(&mut self, pc: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(pc);
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot { pc, id };
    }

    #[cold]
    fn grow(&mut self) {
        let bigger = vec![Slot { pc: 0, id: EMPTY }; self.slots.len() * 2].into_boxed_slice();
        let old = std::mem::replace(&mut self.slots, bigger);
        self.shift -= 1;
        for slot in old.iter().filter(|slot| slot.id != EMPTY) {
            self.place(slot.pc, slot.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut ids = BranchIds::new();
        let pcs: Vec<u64> = (0..1000u64).map(|i| 0x40_0000 + (i * 16 + 15) * 4).collect();
        for (n, &pc) in pcs.iter().enumerate() {
            assert_eq!(ids.get(pc), None);
            assert_eq!(ids.insert(pc), n as u32);
            assert_eq!(ids.get(pcs[n / 2]), Some((n / 2) as u32));
        }
        for (n, &pc) in pcs.iter().enumerate() {
            assert_eq!(ids.get(pc), Some(n as u32));
        }
        assert_eq!(ids.get(0x40_0000), None);
    }

    #[test]
    fn pc_zero_and_high_halves_are_ordinary_keys() {
        let mut ids = BranchIds::new();
        assert_eq!(ids.get(0), None);
        assert_eq!(ids.insert(0), 0);
        assert_eq!(ids.insert(1 << 32), 1);
        assert_eq!(ids.insert(u64::MAX), 2);
        assert_eq!((ids.get(0), ids.get(1 << 32), ids.get(u64::MAX)), (Some(0), Some(1), Some(2)));
    }
}
