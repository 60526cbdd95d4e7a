//! Mechanism analysis (the quantitative version of the paper's §5.3
//! "Why Variable Length Path Prediction Works So Well"): break each
//! predictor's mispredictions down by the *ground-truth behavior class*
//! of the branch — something only possible because the workload
//! substrate knows what drives every site.
//!
//! The §5.3 claims to verify:
//!
//! * path predictors match gshare on loops and biased branches;
//! * the fixed length path predictor wins on path-correlated branches
//!   whose correlation length fits under its (one) length — and loses
//!   training time/interference on everything else;
//! * the variable length predictor wins *across* correlation lengths,
//!   because it can discard "unimportant path prefixes" per branch.
//!
//! Also includes the return-address-stack experiment (returns are
//! excluded from the paper's indirect predictors because a RAS handles
//! them; this measures how well).

use std::collections::HashMap;

use vlpp_predict::ReturnAddressStack;
use vlpp_synth::{suite, CondBehavior};

use crate::experiment::{Entrant, Kind, Workloads};
use crate::frontend::RAS_DEPTH;
use crate::report::{percent, TextTable};

/// Ground-truth behavior classes for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BehaviorClass {
    /// Loop back-edges.
    Loop,
    /// Biased or data-dependent branches (no path correlation).
    Biased,
    /// Path-correlated, needing 1–3 targets of history.
    ShortPath,
    /// Path-correlated, needing 4–8 targets.
    MediumPath,
    /// Path-correlated, needing 9 or more targets.
    LongPath,
}

impl BehaviorClass {
    /// Classifies a site behavior.
    pub fn of(behavior: &CondBehavior) -> BehaviorClass {
        match behavior {
            CondBehavior::Loop { .. } => BehaviorClass::Loop,
            // Load-dependent sites look data-dependent to every
            // history-based predictor, which is this taxonomy's axis.
            CondBehavior::Biased { .. } | CondBehavior::LoadDependent { .. } => {
                BehaviorClass::Biased
            }
            CondBehavior::PathCorrelated { length, .. }
            | CondBehavior::PhaseSwitching { length, .. } => match length {
                0..=3 => BehaviorClass::ShortPath,
                4..=8 => BehaviorClass::MediumPath,
                _ => BehaviorClass::LongPath,
            },
        }
    }

    /// All classes, in display order.
    pub const ALL: [BehaviorClass; 5] = [
        BehaviorClass::Loop,
        BehaviorClass::Biased,
        BehaviorClass::ShortPath,
        BehaviorClass::MediumPath,
        BehaviorClass::LongPath,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BehaviorClass::Loop => "loops",
            BehaviorClass::Biased => "biased/random",
            BehaviorClass::ShortPath => "path length 1-3",
            BehaviorClass::MediumPath => "path length 4-8",
            BehaviorClass::LongPath => "path length 9+",
        }
    }
}

/// Per-class misprediction rates for the three §5.3 predictors.
#[derive(Debug, Clone)]
pub struct AnalysisRow {
    /// Behavior class label.
    pub class: String,
    /// Dynamic branches of this class.
    pub dynamic: u64,
    /// gshare misprediction rate on this class.
    pub gshare: f64,
    /// Fixed length path rate.
    pub fixed: f64,
    /// Variable length path rate.
    pub variable: f64,
}

vlpp_trace::impl_to_json!(AnalysisRow { class, dynamic, gshare, fixed, variable });

impl AnalysisRow {
    /// Renders the analysis table.
    pub fn render(rows: &[AnalysisRow]) -> TextTable {
        let mut table = TextTable::new(vec![
            "behavior class".into(),
            "dynamic".into(),
            "gshare".into(),
            "fixed path".into(),
            "variable path".into(),
        ]);
        for row in rows {
            table.row(vec![
                row.class.clone(),
                row.dynamic.to_string(),
                percent(row.gshare),
                percent(row.fixed),
                percent(row.variable),
            ]);
        }
        table
    }
}

/// Runs the §5.3 analysis on gcc at 16 KB: per-behavior-class rates for
/// gshare, the fixed length path predictor, and the variable length path
/// predictor.
///
/// This is one of the few per-record drivers left outside the
/// predictors' `run`: it charges each verdict to its branch's class, so
/// it needs every verdict, not a run's totals.
pub fn analyze_gcc(workloads: &Workloads) -> Vec<AnalysisRow> {
    let spec = suite::benchmark("gcc").expect("gcc");
    let program = spec.build_program();
    let classes: HashMap<u64, BehaviorClass> = program
        .conditional_sites()
        .map(|(pc, behavior)| (pc.raw(), BehaviorClass::of(behavior)))
        .collect();
    let test = workloads.test_trace(&spec);
    let mut predictors: Vec<_> = [Entrant::Zoo("gshare"), Entrant::Fixed, Entrant::Variable]
        .into_iter()
        .map(|entrant| workloads.conditional(&spec, entrant, super::FIG5_COND_BYTES))
        .collect();

    // misses[predictor][class], executions[class]
    let mut misses: Vec<HashMap<BehaviorClass, u64>> = vec![HashMap::new(); predictors.len()];
    let mut executions: HashMap<BehaviorClass, u64> = HashMap::new();
    for record in test.iter() {
        if record.is_conditional() {
            let class = classes
                .get(&record.pc().raw())
                .copied()
                .expect("every conditional pc is a known site");
            *executions.entry(class).or_insert(0) += 1;
            for (i, predictor) in predictors.iter_mut().enumerate() {
                let prediction = predictor.predict(record.pc());
                if prediction != record.taken() {
                    *misses[i].entry(class).or_insert(0) += 1;
                }
                predictor.train(record.pc(), record.taken());
            }
        }
        for predictor in predictors.iter_mut() {
            predictor.observe(record);
        }
    }

    BehaviorClass::ALL
        .iter()
        .filter_map(|&class| {
            let dynamic = executions.get(&class).copied().unwrap_or(0);
            if dynamic == 0 {
                return None;
            }
            let rate =
                |i: usize| misses[i].get(&class).copied().unwrap_or(0) as f64 / dynamic as f64;
            Some(AnalysisRow {
                class: class.label().to_string(),
                dynamic,
                gshare: rate(0),
                fixed: rate(1),
                variable: rate(2),
            })
        })
        .collect()
}

/// Per-benchmark return-address-stack accuracy.
#[derive(Debug, Clone)]
pub struct RasRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Returns executed.
    pub returns: u64,
    /// RAS hit rate in [0, 1].
    pub hit_rate: f64,
}

vlpp_trace::impl_to_json!(RasRow { benchmark, returns, hit_rate });

impl RasRow {
    /// Renders the RAS experiment.
    pub fn render(rows: &[RasRow]) -> TextTable {
        let mut table =
            TextTable::new(vec!["benchmark".into(), "returns".into(), "RAS hit rate".into()]);
        for row in rows {
            table.row(vec![row.benchmark.clone(), row.returns.to_string(), percent(row.hit_rate)]);
        }
        table
    }
}

/// Measures a [`RAS_DEPTH`]-entry return address stack over every benchmark —
/// quantifying why the paper can afford to exclude returns from its
/// indirect predictors.
pub fn ras_experiment(workloads: &Workloads) -> Vec<RasRow> {
    let names = suite::all_names();
    super::comparisons::run_parallel(&names, |name| {
        let spec = suite::benchmark(name).expect("suite name");
        let mut ras = ReturnAddressStack::new(RAS_DEPTH);
        ras.run(workloads.test_trace(&spec).records());
        RasRow {
            benchmark: spec.name.clone(),
            returns: ras.predictions(),
            hit_rate: ras.hit_rate(),
        }
    })
}

/// The per-branch assignment's length distribution for a benchmark — the
/// evidence behind §5.3's "discard unimportant path prefixes" claim.
#[derive(Debug, Clone)]
pub struct LengthHistogram {
    /// Benchmark name.
    pub benchmark: String,
    /// `histogram[n-1]` = branches assigned hash number `n`.
    pub histogram: Vec<usize>,
    /// The default hash number.
    pub default_hash: u8,
}

vlpp_trace::impl_to_json!(LengthHistogram { benchmark, histogram, default_hash });

/// Computes the profiled length histogram for one benchmark at 16 KB.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark.
pub fn length_histogram(workloads: &Workloads, name: &str) -> LengthHistogram {
    let spec = suite::benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let bits = Kind::Conditional.index_bits(super::FIG5_COND_BYTES);
    let report = workloads.profile(&spec, Kind::Conditional, bits);
    LengthHistogram {
        benchmark: name.to_string(),
        histogram: report.assignment.length_histogram().to_vec(),
        default_hash: report.default_hash,
    }
}

impl LengthHistogram {
    /// Renders the histogram as an ASCII bar chart.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec!["path length".into(), "branches".into(), "".into()]);
        let max = self.histogram.iter().copied().max().unwrap_or(1).max(1);
        for (i, &count) in self.histogram.iter().enumerate() {
            if count == 0 {
                continue;
            }
            table.row(vec![
                format!("{}", i + 1),
                count.to_string(),
                "#".repeat(1 + count * 40 / max),
            ]);
        }
        table
    }
}
