//! The boxed path predictors (paper §3.1, Figures 1 and 2):
//! [`PathConditional`] and [`PathIndirect`].
//!
//! Both compose a [`Thb`], the §4.1 [`IncrementalHashers`], a selection
//! source, an optional §6 history stack and a boxed second-level table.
//! A fixed [`HashAssignment`] gives the *fixed length path* predictor, a
//! profiled one the *variable length path* predictor, and a
//! [`DynamicSelector`] the §3.4 hardware-selected conditional variant.

use vlpp_core::{DynamicSelector, HashAssignment, HistoryStack, PathConfig};
use vlpp_predict::{BranchObserver, ConditionalPredictor, IndirectPredictor};
use vlpp_trace::{Addr, BranchKind, BranchRecord};

use super::hash::IncrementalHashers;
use super::table::{CounterTable, TargetTable};
use super::thb::Thb;

/// The hash-selection source.
#[derive(Debug, Clone)]
enum Selection {
    Static(HashAssignment),
    Dynamic(DynamicSelector),
}

/// First-level history plus hash evaluation: the part shared between
/// the conditional and indirect variants.
#[derive(Debug, Clone)]
struct PathCore {
    thb: Thb,
    hashers: IncrementalHashers,
    selection: Selection,
    stack: Option<HistoryStack>,
}

impl PathCore {
    fn new(config: &PathConfig, selection: Selection) -> Self {
        let thb = if config.store_returns {
            Thb::with_returns(config.thb_capacity, config.index_bits)
        } else {
            Thb::new(config.thb_capacity, config.index_bits)
        };
        PathCore {
            thb,
            hashers: IncrementalHashers::new(config.thb_capacity, config.index_bits),
            selection,
            stack: config.history_stack_depth.map(HistoryStack::new),
        }
    }

    /// The hash number selected for `pc`, clamped to the THB capacity.
    fn hash_number(&self, pc: Addr) -> usize {
        let n = match &self.selection {
            Selection::Static(assignment) => assignment.get(pc),
            Selection::Dynamic(selector) => selector.select(pc),
        } as usize;
        n.min(self.thb.capacity())
    }

    /// The table index for `pc` under the current history.
    fn index(&self, pc: Addr) -> u64 {
        self.hashers.index(self.hash_number(pc))
    }

    /// The index produced by a specific hash number (dynamic selection
    /// training).
    fn index_for(&self, n: u8) -> u64 {
        self.hashers.index((n as usize).min(self.thb.capacity()))
    }

    fn observe(&mut self, record: &BranchRecord) {
        // §6 history stack: snapshot at calls, restore at returns.
        if let Some(stack) = &mut self.stack {
            match record.kind() {
                BranchKind::Call => stack.push(self.hashers.snapshot()),
                BranchKind::Return => {
                    if let Some(snapshot) = stack.pop() {
                        self.hashers.restore(&snapshot);
                        // The THB mirror is only diagnostic; clearing it
                        // keeps it consistent with "history replaced".
                        self.thb.clear();
                    }
                }
                _ => {}
            }
        }
        // Keep the hash registers in lockstep with the THB's §3.2 policy.
        let store = record.enters_thb()
            || (self.thb.stores_returns() && record.kind() == BranchKind::Return);
        if store {
            self.thb.push(record.target());
            self.hashers.push(record.target());
        }
    }

    fn name(&self) -> String {
        match &self.selection {
            Selection::Static(a) if a.is_fixed() => "fixed length path".into(),
            Selection::Static(_) => "variable length path".into(),
            Selection::Dynamic(_) => "dynamic path".into(),
        }
    }
}

/// A path-based conditional-branch predictor (Figure 1 with a counter
/// table).
#[derive(Debug, Clone)]
pub struct PathConditional {
    core: PathCore,
    table: CounterTable,
}

impl PathConditional {
    /// A predictor with a static (compiler/profile) hash assignment.
    pub fn new(config: PathConfig, assignment: HashAssignment) -> Self {
        PathConditional {
            table: CounterTable::new(config.index_bits),
            core: PathCore::new(&config, Selection::Static(assignment)),
        }
    }

    /// A predictor with §3.4 hardware-dynamic hash selection over the
    /// given candidate hash numbers, with `2^selector_set_bits` selector
    /// sets.
    pub fn new_dynamic(config: PathConfig, candidates: &[u8], selector_set_bits: u32) -> Self {
        PathConditional {
            table: CounterTable::new(config.index_bits),
            core: PathCore::new(
                &config,
                Selection::Dynamic(DynamicSelector::new(candidates, selector_set_bits)),
            ),
        }
    }

    /// The hash number the predictor would use for `pc` right now.
    pub fn selected_hash(&self, pc: Addr) -> usize {
        self.core.hash_number(pc)
    }

    /// The second-level table size in bytes.
    pub fn table_bytes(&self) -> u64 {
        self.table.bytes()
    }

    /// Every counter value in index order.
    pub fn counter_values(&self) -> Vec<u8> {
        self.table.values()
    }
}

impl BranchObserver for PathConditional {
    fn observe(&mut self, record: &BranchRecord) {
        self.core.observe(record);
    }
}

impl ConditionalPredictor for PathConditional {
    fn predict(&mut self, pc: Addr) -> bool {
        self.table.predict(self.core.index(pc))
    }

    fn train(&mut self, pc: Addr, taken: bool) {
        // Dynamic selection scores every candidate against the shared
        // table, rewards, and only then trains the (possibly newly)
        // selected candidate's entry.
        if let Selection::Dynamic(selector) = &self.core.selection {
            let verdicts: Vec<(usize, bool)> = selector
                .candidates()
                .iter()
                .enumerate()
                .map(|(i, &c)| (i, self.table.predict(self.core.index_for(c)) == taken))
                .collect();
            if let Selection::Dynamic(selector) = &mut self.core.selection {
                for (i, correct) in verdicts {
                    selector.reward(pc, i, correct);
                }
            }
        }
        self.table.train(self.core.index(pc), taken);
    }

    fn name(&self) -> String {
        self.core.name()
    }
}

/// A path-based indirect-branch predictor (Figure 1 with a table of
/// target registers).
#[derive(Debug, Clone)]
pub struct PathIndirect {
    core: PathCore,
    table: TargetTable,
}

impl PathIndirect {
    /// A predictor with a static (compiler/profile) hash assignment.
    pub fn new(config: PathConfig, assignment: HashAssignment) -> Self {
        PathIndirect {
            table: TargetTable::new(config.index_bits),
            core: PathCore::new(&config, Selection::Static(assignment)),
        }
    }

    /// The second-level table size in bytes.
    pub fn table_bytes(&self) -> u64 {
        self.table.bytes()
    }

    /// Every entry's stored target in index order (`None` for
    /// never-written entries).
    pub fn target_entries(&self) -> Vec<Option<u64>> {
        self.table.stored()
    }
}

impl BranchObserver for PathIndirect {
    fn observe(&mut self, record: &BranchRecord) {
        self.core.observe(record);
    }
}

impl IndirectPredictor for PathIndirect {
    fn predict(&mut self, pc: Addr) -> Addr {
        self.table.predict(self.core.index(pc), pc)
    }

    fn train(&mut self, pc: Addr, target: Addr) {
        self.table.train(self.core.index(pc), target);
    }

    fn name(&self) -> String {
        self.core.name()
    }
}
