//! The predictor zoo: a single-source registry of every conditional and
//! indirect predictor the tournament races.
//!
//! The member lists live in the [`for_each_zoo_conditional!`](crate::for_each_zoo_conditional) and
//! [`for_each_zoo_indirect!`](crate::for_each_zoo_indirect) macros, and *everything else derives from
//! them* — the runtime registries here, the CLI name validation in
//! `vlpp-sim`, and the trait-conformance test suite in
//! `crates/predict/tests/conformance.rs` (which expands the same macros
//! into one test module per member). Adding a predictor means adding one
//! macro line; forgetting to, or miswiring the conformance suite, is a
//! compile error, not a silent gap.
//!
//! Budgets follow [`Budget`]'s accounting: each builder receives the
//! whole-predictor byte budget and splits it internally (composite
//! schemes like [`Bullseye`](crate::Bullseye) divide it across their
//! components), and each entry reports the bytes actually charged so the
//! league table can print storage next to accuracy.

use std::sync::Arc;

use crate::budget::Budget;
use crate::traits::{ConditionalPredictor, IndirectPredictor};

/// Shared per-run context a zoo builder may need beyond its budget.
///
/// Today that is only the synthetic load-value channel (consumed by the
/// LDBP-style predictor); predictors that don't use it ignore it.
#[derive(Debug, Clone, Default)]
pub struct ZooContext {
    loads: Arc<Vec<u64>>,
}

impl ZooContext {
    /// A context carrying the load-value channel for the trace about to
    /// be run (`loads[i]` = load value visible at record `i`).
    pub fn with_loads(loads: Arc<Vec<u64>>) -> Self {
        ZooContext { loads }
    }

    /// The load-value channel (empty if none was provided).
    pub fn loads(&self) -> Arc<Vec<u64>> {
        Arc::clone(&self.loads)
    }
}

/// One registered conditional predictor.
pub struct CondZooEntry {
    /// Short CLI/report token ("tage", "gshare", …).
    pub name: &'static str,
    /// Where the design comes from.
    pub citation: &'static str,
    /// Builds a fresh instance sized for the budget.
    pub build: fn(Budget, &ZooContext) -> Box<dyn ConditionalPredictor>,
    /// Bytes of second-level state charged at the given budget.
    pub storage_bytes: fn(Budget, &ZooContext) -> u64,
}

impl std::fmt::Debug for CondZooEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CondZooEntry").field("name", &self.name).finish()
    }
}

/// One registered indirect predictor.
pub struct IndZooEntry {
    /// Short CLI/report token ("btb", "clustered", …).
    pub name: &'static str,
    /// Where the design comes from.
    pub citation: &'static str,
    /// Builds a fresh instance sized for the budget.
    pub build: fn(Budget, &ZooContext) -> Box<dyn IndirectPredictor>,
    /// Bytes of second-level state charged at the given budget.
    pub storage_bytes: fn(Budget, &ZooContext) -> u64,
}

impl std::fmt::Debug for IndZooEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndZooEntry").field("name", &self.name).finish()
    }
}

/// Invokes `$cb!` once per conditional zoo member with
/// `(mod_ident, "name", "citation", build_closure, storage_closure)`.
///
/// The build closure has type `fn(Budget, &ZooContext) -> Box<dyn
/// ConditionalPredictor>` and the storage closure `fn(Budget,
/// &ZooContext) -> u64`; both are non-capturing, so they coerce to fn
/// pointers. This macro is the single source of truth for zoo
/// membership.
#[macro_export]
macro_rules! for_each_zoo_conditional {
    ($cb:ident) => {
        $cb!(
            bimodal,
            "bimodal",
            "Smith 1981, per-address 2-bit counters",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                Box::new($crate::Bimodal::new(budget.cond_index_bits()))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
        $cb!(
            gshare,
            "gshare",
            "McFarling 1993 (DEC WRL TN-36)",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                Box::new($crate::Gshare::new(budget.cond_index_bits()))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
        $cb!(
            hybrid,
            "hybrid",
            "McFarling 1993, gshare/bimodal with a chooser",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                let half = $crate::Budget::from_bytes(budget.bytes() / 2);
                let quarter = $crate::Budget::from_bytes(budget.bytes() / 4);
                Box::new($crate::Hybrid::new(
                    $crate::Gshare::new(half.cond_index_bits()),
                    $crate::Bimodal::new(quarter.cond_index_bits()),
                    quarter.cond_index_bits(),
                ))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
        $cb!(
            dhlf,
            "dhlf",
            "Juan, Sanjeevan, and Navarro 1998 (DHLF)",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                Box::new($crate::Dhlf::new(budget.cond_index_bits(), 4096))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
        $cb!(
            tage,
            "tage",
            "Seznec and Michaud 2006 (TAGE)",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                Box::new($crate::Tage::new(budget))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                $crate::Tage::new(budget).storage_bytes()
            }
        );
        $cb!(
            bullseye,
            "bullseye",
            "\"Taming Wild Branches\" 2025, arXiv:2506.06773",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                Box::new($crate::Bullseye::new(budget))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                $crate::Bullseye::new(budget).storage_bytes()
            }
        );
        $cb!(
            ldbp,
            "ldbp",
            "\"A Load-Based Branch Predictor\" 2020, arXiv:2009.09064",
            |budget: $crate::Budget, ctx: &$crate::ZooContext| {
                Box::new($crate::Ldbp::new(budget.cond_index_bits()).with_channel(ctx.loads()))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
    };
}

/// Invokes `$cb!` once per indirect zoo member with
/// `(mod_ident, "name", "citation", build_closure, storage_closure)` —
/// the indirect counterpart of [`for_each_zoo_conditional!`](crate::for_each_zoo_conditional).
#[macro_export]
macro_rules! for_each_zoo_indirect {
    ($cb:ident) => {
        $cb!(
            btb,
            "btb",
            "last-target BTB baseline (Lee and Smith 1984)",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                Box::new($crate::LastTargetBtb::new(budget.ind_index_bits()))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
        $cb!(
            pattern,
            "pattern",
            "Chang, Hao, and Patt 1997, pattern-based target cache",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                Box::new($crate::PatternTargetCache::new(budget.ind_index_bits()))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
        $cb!(
            path,
            "path",
            "Chang, Hao, and Patt 1997, path-based target cache",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                // 3 bits per target: the register covers `index_bits / 3`
                // recent targets, the shallow fixed depth the paper's
                // deep-path predictors beat in Figures 7-10.
                Box::new($crate::PathTargetCache::new(budget.ind_index_bits(), 3))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
        $cb!(
            peraddr,
            "peraddr",
            "Driesen and Hoelzle 1998, per-address path history",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                Box::new($crate::PerAddressPathCache::new(budget.ind_index_bits(), 3, 10))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
        $cb!(
            clustered,
            "clustered",
            "\"Clustering case statements\" 2019, arXiv:1910.02351",
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| {
                // One-byte case ids: half the budget in slots holds 2×
                // the entries of a 4-byte target table on the whole
                // budget; the other half funds the case tables.
                let slot_bits = (budget.bytes() / 2).trailing_zeros();
                Box::new($crate::ClusteredTargetCache::new(slot_bits, 3, 16))
            },
            |budget: $crate::Budget, _ctx: &$crate::ZooContext| budget.bytes()
        );
    };
}

/// The conditional zoo, in registry order.
pub fn conditional_zoo() -> Vec<CondZooEntry> {
    let mut entries = Vec::new();
    macro_rules! push_entry {
        ($id:ident, $name:expr, $cite:expr, $build:expr, $storage:expr) => {
            entries.push(CondZooEntry {
                name: $name,
                citation: $cite,
                build: $build,
                storage_bytes: $storage,
            });
        };
    }
    for_each_zoo_conditional!(push_entry);
    entries
}

/// The indirect zoo, in registry order.
pub fn indirect_zoo() -> Vec<IndZooEntry> {
    let mut entries = Vec::new();
    macro_rules! push_entry {
        ($id:ident, $name:expr, $cite:expr, $build:expr, $storage:expr) => {
            entries.push(IndZooEntry {
                name: $name,
                citation: $cite,
                build: $build,
                storage_bytes: $storage,
            });
        };
    }
    for_each_zoo_indirect!(push_entry);
    entries
}

/// The conditional zoo member named `name`, if there is one.
pub fn conditional_entry(name: &str) -> Option<CondZooEntry> {
    conditional_zoo().into_iter().find(|entry| entry.name == name)
}

/// The indirect zoo member named `name`, if there is one.
pub fn indirect_entry(name: &str) -> Option<IndZooEntry> {
    indirect_zoo().into_iter().find(|entry| entry.name == name)
}

/// The conditional zoo's names, in registry order.
pub fn conditional_names() -> Vec<&'static str> {
    conditional_zoo().iter().map(|e| e.name).collect()
}

/// The indirect zoo's names, in registry order.
pub fn indirect_names() -> Vec<&'static str> {
    indirect_zoo().iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlpp_trace::Addr;

    #[test]
    fn registries_are_nonempty_and_unique() {
        let cond = conditional_names();
        let ind = indirect_names();
        assert!(cond.len() >= 7, "conditional zoo has {}", cond.len());
        assert!(ind.len() >= 5, "indirect zoo has {}", ind.len());
        for names in [&cond, &ind] {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "duplicate zoo names");
        }
    }

    #[test]
    fn every_member_builds_and_predicts() {
        let ctx = ZooContext::default();
        let budget = Budget::from_kib(16);
        for entry in conditional_zoo() {
            let mut p = (entry.build)(budget, &ctx);
            let _ = p.predict(Addr::new(0x1000));
            p.train(Addr::new(0x1000), true);
            assert!(!p.name().is_empty(), "{}", entry.name);
            assert!((entry.storage_bytes)(budget, &ctx) > 0, "{}", entry.name);
        }
        let budget = Budget::from_kib(2);
        for entry in indirect_zoo() {
            let mut p = (entry.build)(budget, &ctx);
            let _ = p.predict(Addr::new(0x1000));
            p.train(Addr::new(0x1000), Addr::new(0x2000));
            assert!(!p.name().is_empty(), "{}", entry.name);
            assert!((entry.storage_bytes)(budget, &ctx) > 0, "{}", entry.name);
        }
    }

    #[test]
    fn storage_never_exceeds_budget() {
        let ctx = ZooContext::default();
        for kib in [4, 16, 64] {
            let budget = Budget::from_kib(kib);
            for entry in conditional_zoo() {
                let bytes = (entry.storage_bytes)(budget, &ctx);
                assert!(bytes <= budget.bytes(), "{} at {kib}KiB: {bytes}", entry.name);
            }
        }
        for kib in [2, 8] {
            let budget = Budget::from_kib(kib);
            for entry in indirect_zoo() {
                let bytes = (entry.storage_bytes)(budget, &ctx);
                assert!(bytes <= budget.bytes(), "{} at {kib}KiB: {bytes}", entry.name);
            }
        }
    }
}
