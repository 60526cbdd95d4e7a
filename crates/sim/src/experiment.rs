//! Experiment context: workload scaling, trace construction, and cached
//! cross-benchmark artifacts (traces, profile reports, best fixed
//! lengths).
//!
//! All caches are [`Memo`]s — compute-once-per-key and safe under the
//! worker pool: two experiments that race on the same benchmark share
//! one computation instead of both paying for it.

use std::sync::Arc;

use vlpp_core::{
    CondKernel, FanOut, HashAssignment, IndKernel, PathConfig, ProfileBuilder, ProfileConfig,
    ProfileReport,
};
use vlpp_pool::{Memo, Pool};
use vlpp_predict::{zoo, Budget, ConditionalPredictor, IndirectPredictor, ZooContext};
use vlpp_synth::{suite, BenchmarkSpec, InputSet};
use vlpp_trace::Trace;

use crate::runner::{run_conditional, run_indirect};

/// The divisor `--scale ci` pins: every workload lands on the 50 000
/// conditional-branch floor, so CI runs are fast and scale-stable.
pub const CI_SCALE_DIVISOR: u64 = 1_000_000;

/// Workload scale: the paper's dynamic branch counts divided by
/// `divisor`. 1 reproduces full paper-size runs; the default 16 keeps a
/// full experiment under a minute while leaving hundreds of thousands to
/// millions of branches per benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    divisor: u64,
}

impl Scale {
    /// The default scale (divisor 16).
    pub const DEFAULT: Scale = Scale { divisor: 16 };

    /// A scale dividing the paper's dynamic counts by `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn new(divisor: u64) -> Self {
        assert!(divisor >= 1, "scale divisor must be at least 1");
        Scale { divisor }
    }

    /// What [`Scale::parse`] accepts, for error messages.
    pub const EXPECTED: &'static str = "`ci` or an integer >= 1";

    /// Parses a scale, for every `--scale` and `VLPP_SCALE`: `ci`
    /// ([`CI_SCALE_DIVISOR`]) or an integer divisor >= 1.
    pub fn parse(raw: &str) -> Option<Scale> {
        match raw {
            "ci" => Some(Scale::new(CI_SCALE_DIVISOR)),
            _ => raw.parse().ok().filter(|&divisor| divisor >= 1).map(Scale::new),
        }
    }

    /// Reads `VLPP_SCALE`: unset is the default, and an invalid value
    /// warns and falls back to it. A bad `--scale` is an error instead:
    /// the flag is typed for one run, while the variable is ambient,
    /// inherited by every verb, so `VLPP_SCALE=0 vlpp headline` runs.
    pub fn from_env() -> Self {
        let fallback = format!("using the default 1/{}", Scale::DEFAULT.divisor());
        crate::cli::env_knob("VLPP_SCALE", Scale::parse, Scale::EXPECTED, &fallback)
            .unwrap_or(Scale::DEFAULT)
    }

    /// The divisor.
    pub fn divisor(&self) -> u64 {
        self.divisor
    }

    /// The scaled dynamic conditional-branch count for a benchmark,
    /// floored at 50 000 so tiny scales still produce meaningful rates.
    pub fn dynamic_conditionals(&self, spec: &BenchmarkSpec) -> u64 {
        (spec.default_dynamic_conditional / self.divisor).max(50_000)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::DEFAULT
    }
}

impl vlpp_trace::json::ToJson for Scale {
    /// `{"divisor": n}` — recorded alongside experiment output so a
    /// saved JSON report carries the scale it was produced at.
    fn to_json(&self) -> vlpp_trace::json::JsonValue {
        vlpp_trace::json::JsonValue::Object(vec![(
            "divisor".to_string(),
            vlpp_trace::json::JsonValue::UInt(self.divisor),
        )])
    }
}

/// Which branch population a predictor, profile or served model
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Conditional branches (taken / not-taken).
    Conditional,
    /// Indirect jumps and calls (target addresses; returns excluded).
    Indirect,
}

impl Kind {
    /// Short name, matching `BranchKind`'s: `cond` or `ind`. The wire,
    /// the CLI's `--kind` and the league's cell keys all use it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Conditional => "cond",
            Kind::Indirect => "ind",
        }
    }

    /// Parses a short name back into a kind.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "cond" => Some(Kind::Conditional),
            "ind" => Some(Kind::Indirect),
            _ => None,
        }
    }

    /// The table index width of a `bytes`-byte predictor of this
    /// population.
    pub fn index_bits(self, bytes: u64) -> u32 {
        let budget = Budget::from_bytes(bytes);
        match self {
            Kind::Conditional => budget.cond_index_bits(),
            Kind::Indirect => budget.ind_index_bits(),
        }
    }
}

/// One predictor an experiment scores: a zoo member by its registry
/// name, or the paper's path predictor with one of three hash
/// assignments. The paper's figures, the related-work tables and the
/// league all build their predictors from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entrant {
    /// The `vlpp_predict::zoo` member of this name.
    Zoo(&'static str),
    /// The path predictor at Table 2's suite-averaged best fixed length.
    Fixed,
    /// The path predictor at the workload's own best fixed length, its
    /// profile's `best_fixed_hash` (the league's `vlp-fixed`).
    Tuned,
    /// The path predictor with the workload's §3.5 per-branch assignment
    /// (the league's `vlp-var`).
    Variable,
}

impl Entrant {
    /// The league's name: the zoo name, `vlp-fixed`, `vlp-var`, or
    /// `vlp-table2` for `Fixed`, which the league does not race.
    pub fn name(self) -> &'static str {
        match self {
            Entrant::Zoo(name) => name,
            Entrant::Fixed => "vlp-table2",
            Entrant::Tuned => "vlp-fixed",
            Entrant::Variable => "vlp-var",
        }
    }

    /// A profiled path entrant's assignment, from the workload's
    /// `report`. Panics unless the entrant is `Tuned` or `Variable`.
    pub fn profiled(self, report: &ProfileReport) -> HashAssignment {
        match self {
            Entrant::Tuned => HashAssignment::fixed(report.best_fixed_hash()),
            Entrant::Variable => report.assignment.clone(),
            other => panic!("{other:?} is not a profiled path entrant"),
        }
    }

    /// The entrant as a conditional predictor of `bytes`: a zoo member
    /// from the registry, or the path predictor with the hash assignment
    /// `assignment` gives for the entrant (called only for a path
    /// entrant). Panics if a zoo name is not a conditional zoo member.
    pub fn conditional(
        self,
        bytes: u64,
        assignment: impl FnOnce(Entrant) -> HashAssignment,
    ) -> Box<dyn ConditionalPredictor> {
        let budget = Budget::from_bytes(bytes);
        match self {
            Entrant::Zoo(name) => {
                let entry = zoo::conditional_entry(name)
                    .unwrap_or_else(|| panic!("`{name}` is not a conditional zoo member"));
                (entry.build)(budget, &ZooContext::default())
            }
            path => {
                let config = PathConfig::new(budget.cond_index_bits());
                Box::new(CondKernel::new(&config, &assignment(path)))
            }
        }
    }

    /// [`conditional`](Self::conditional)'s indirect twin.
    pub fn indirect(
        self,
        bytes: u64,
        assignment: impl FnOnce(Entrant) -> HashAssignment,
    ) -> Box<dyn IndirectPredictor> {
        let budget = Budget::from_bytes(bytes);
        match self {
            Entrant::Zoo(name) => {
                let entry = zoo::indirect_entry(name)
                    .unwrap_or_else(|| panic!("`{name}` is not an indirect zoo member"));
                (entry.build)(budget, &ZooContext::default())
            }
            path => {
                let config = PathConfig::new(budget.ind_index_bits());
                Box::new(IndKernel::new(&config, &assignment(path)))
            }
        }
    }
}

/// Step 1 of the §3.5 profile on the shared worker pool: one hash group
/// per pool thread, capped at the cores the process may use, so
/// `VLPP_THREADS=1` runs it in one group on the calling thread and a
/// pool wider than the host does not split the hash set into groups
/// that only take turns on the same cores.
#[derive(Debug, Clone, Copy)]
struct OnPool;

impl FanOut for OnPool {
    fn width(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Pool::global().threads().min(cores)
    }

    fn map<T: Send, R: Send>(&self, items: Vec<T>, work: &(dyn Fn(T) -> R + Sync)) -> Vec<R> {
        Pool::global().map(items, work)
    }
}

/// The §3.5 profile of `trace`'s `kind` branches under `config`, with
/// step 1's hash groups on the shared worker pool. The report is the
/// one `ProfileBuilder::profile_conditional` / `profile_indirect` give.
pub(crate) fn profile_on_pool(kind: Kind, config: ProfileConfig, trace: &Trace) -> ProfileReport {
    let builder = ProfileBuilder::new(config);
    match kind {
        Kind::Conditional => builder.profile_conditional_on(trace, &OnPool),
        Kind::Indirect => builder.profile_indirect_on(trace, &OnPool),
    }
}

/// The experiment context: memoizes every expensive artifact — the
/// multi-million-branch traces themselves (Arc-shared, built once per
/// `(benchmark, input set)` instead of once per experiment), the
/// per-benchmark profile reports, and the cross-benchmark best fixed
/// path lengths of Table 2.
///
/// Every cache is compute-once-per-key: concurrent experiments that
/// miss on the same key block on one computation and share its result.
#[derive(Debug)]
pub struct Workloads {
    scale: Scale,
    traces: Memo<(String, InputSet), Trace>,
    profiles: Memo<(String, Kind, u32), ProfileReport>,
    fixed_lengths: Memo<(Kind, u32), u8>,
}

impl Workloads {
    /// Creates a context at the given scale. The caches report their
    /// hit/miss counts as `pool.memo.{traces,profiles,fixed_lengths}.*`
    /// (see `OBSERVABILITY.md`).
    pub fn new(scale: Scale) -> Self {
        Workloads {
            scale,
            traces: Memo::named("traces"),
            profiles: Memo::named("profiles"),
            fixed_lengths: Memo::named("fixed_lengths"),
        }
    }

    /// The context's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The measurement (test-input) trace for a benchmark. Memoized.
    pub fn test_trace(&self, spec: &BenchmarkSpec) -> Arc<Trace> {
        self.trace(spec, InputSet::Test)
    }

    /// The profiling-input trace for a benchmark. Memoized.
    pub fn profile_trace(&self, spec: &BenchmarkSpec) -> Arc<Trace> {
        self.trace(spec, InputSet::Profile)
    }

    fn trace(&self, spec: &BenchmarkSpec, input: InputSet) -> Arc<Trace> {
        self.traces.get_or_compute((spec.name.clone(), input), || {
            let _span = vlpp_metrics::span("sim.trace_build_ns");
            let program = spec.build_program();
            program.execute_conditionals(input, self.scale.dynamic_conditionals(spec))
        })
    }

    /// The §3.5 profile report for a benchmark's `kind` branches at a
    /// given predictor-table index width. Memoized.
    pub fn profile(&self, spec: &BenchmarkSpec, kind: Kind, index_bits: u32) -> Arc<ProfileReport> {
        self.profiles.get_or_compute((spec.name.clone(), kind, index_bits), || {
            let _span = vlpp_metrics::span("sim.profile_ns");
            let trace = self.profile_trace(spec);
            profile_on_pool(kind, ProfileConfig::new(PathConfig::new(index_bits)), &trace)
        })
    }

    /// The benchmark-averaged best fixed path length for `kind`
    /// predictors of the given index width — the paper's Table 2
    /// methodology: "the length for which the average misprediction rate
    /// for all the benchmarks was the lowest", measured on the *profile*
    /// inputs. Memoized.
    pub fn best_fixed_length(&self, kind: Kind, index_bits: u32) -> u8 {
        *self.fixed_lengths.get_or_compute((kind, index_bits), || {
            let _span = vlpp_metrics::span("sim.fixed_length_sweep_ns");
            // Average the per-length miss rates over all 16 benchmarks.
            // Step 1 of the profiling heuristic *is* a sweep of every
            // fixed length, so one iteration-free profile per benchmark
            // suffices — and the benchmarks are independent, so they run
            // on the shared worker pool.
            let reports = Pool::global().map(suite::all_benchmarks(), |spec| {
                let trace = self.profile_trace(&spec);
                let config = ProfileConfig::new(PathConfig::new(index_bits)).with_iterations(0);
                let builder = ProfileBuilder::new(config);
                match kind {
                    Kind::Conditional => builder.profile_conditional(&trace),
                    Kind::Indirect => builder.profile_indirect(&trace),
                }
            });
            let mut sums = [0.0f64; vlpp_core::MAX_PATH_LENGTH];
            let mut lengths: Vec<u8> = Vec::new();
            for report in &reports {
                if lengths.is_empty() {
                    lengths = report.step1.iter().map(|s| s.hash).collect();
                }
                for (i, stat) in report.step1.iter().enumerate() {
                    sums[i] += stat.miss_rate();
                }
            }
            let best_index = (0..lengths.len())
                .min_by(|&a, &b| sums[a].partial_cmp(&sums[b]).expect("finite rates"))
                .expect("at least one length");
            lengths[best_index]
        })
    }

    /// The hash assignment of a path entrant of `bytes` on `spec`'s
    /// `kind` branches: Table 2's length for [`Entrant::Fixed`], the
    /// memoized profile for the others.
    fn assignment(
        &self,
        spec: &BenchmarkSpec,
        kind: Kind,
        bytes: u64,
        entrant: Entrant,
    ) -> HashAssignment {
        let index_bits = kind.index_bits(bytes);
        match entrant {
            Entrant::Fixed => HashAssignment::fixed(self.best_fixed_length(kind, index_bits)),
            profiled => profiled.profiled(&self.profile(spec, kind, index_bits)),
        }
    }

    /// `entrant` as a conditional predictor of `bytes`, profiled on
    /// `spec` if it is a path entrant.
    pub fn conditional(
        &self,
        spec: &BenchmarkSpec,
        entrant: Entrant,
        bytes: u64,
    ) -> Box<dyn ConditionalPredictor> {
        entrant.conditional(bytes, |path| self.assignment(spec, Kind::Conditional, bytes, path))
    }

    /// `entrant` as an indirect predictor of `bytes`, profiled on `spec`
    /// if it is a path entrant.
    pub fn indirect(
        &self,
        spec: &BenchmarkSpec,
        entrant: Entrant,
        bytes: u64,
    ) -> Box<dyn IndirectPredictor> {
        entrant.indirect(bytes, |path| self.assignment(spec, Kind::Indirect, bytes, path))
    }

    /// Each entrant's misprediction rate on `spec`'s test trace, as a
    /// `kind` predictor of `bytes`, in entrant order.
    pub fn rates(
        &self,
        spec: &BenchmarkSpec,
        kind: Kind,
        bytes: u64,
        entrants: &[Entrant],
    ) -> Vec<f64> {
        let test = self.test_trace(spec);
        let score = |&entrant: &Entrant| match kind {
            Kind::Conditional => {
                run_conditional(&mut self.conditional(spec, entrant, bytes), &test)
            }
            Kind::Indirect => run_indirect(&mut self.indirect(spec, entrant, bytes), &test),
        };
        entrants.iter().map(|entrant| score(entrant).miss_rate()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_divides_and_floors() {
        let spec = suite::benchmark("gcc").unwrap();
        assert_eq!(Scale::new(16).dynamic_conditionals(&spec), 27_600_000 / 16);
        assert_eq!(Scale::new(1_000_000).dynamic_conditionals(&spec), 50_000);
    }

    #[test]
    #[should_panic(expected = "divisor")]
    fn scale_rejects_zero() {
        Scale::new(0);
    }

    #[test]
    fn traces_differ_between_inputs() {
        let w = Workloads::new(Scale::new(1_000_000));
        let spec = suite::benchmark("compress").unwrap();
        let test = w.test_trace(&spec);
        let profile = w.profile_trace(&spec);
        assert_ne!(test, profile);
        assert_eq!(test.conditionals().count(), 50_000);
    }

    #[test]
    fn rates_score_the_entrants_like_hand_built_predictors() {
        let w = Workloads::new(Scale::new(1_000_000));
        let spec = suite::benchmark("li").unwrap();
        let (kind, bytes) = (Kind::Conditional, 4 << 10);
        let bits = kind.index_bits(bytes);
        let (test, report) = (w.test_trace(&spec), w.profile(&spec, kind, bits));
        let fixed = |length| HashAssignment::fixed(length);
        let kernel = |assignment: &HashAssignment| {
            run_conditional(&mut CondKernel::new(&PathConfig::new(bits), assignment), &test)
        };
        let by_hand = [
            run_conditional(&mut vlpp_predict::Gshare::new(bits), &test),
            kernel(&fixed(w.best_fixed_length(kind, bits))),
            kernel(&fixed(report.best_fixed_hash())),
            kernel(&report.assignment),
        ]
        .map(|stats| stats.miss_rate());
        let entrants = [Entrant::Zoo("gshare"), Entrant::Fixed, Entrant::Tuned, Entrant::Variable];
        assert_eq!(w.rates(&spec, kind, bytes, &entrants), by_hand);
    }

    #[test]
    #[should_panic(expected = "not an indirect zoo member")]
    fn a_zoo_entrant_must_be_of_its_population() {
        Entrant::Zoo("gshare").indirect(2 << 10, |_| unreachable!("a zoo entrant"));
    }

    #[test]
    fn profile_reports_are_memoized() {
        let w = Workloads::new(Scale::new(1_000_000));
        let spec = suite::benchmark("compress").unwrap();
        let a = w.profile(&spec, Kind::Conditional, 10);
        let b = w.profile(&spec, Kind::Conditional, 10);
        assert!(Arc::ptr_eq(&a, &b));
        let c = w.profile(&spec, Kind::Conditional, 12);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
