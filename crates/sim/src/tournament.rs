//! `vlpp tournament` — the predictor-zoo league harness.
//!
//! Races every registered predictor (the zoo in `vlpp-predict` plus the
//! paper's own fixed- and variable-length path predictors) across every
//! synthetic benchmark *and* the hard-branch workload family
//! (`vlpp_synth::hard`), at the paper's headline budgets: 16 KB for
//! conditional predictors (Figure 5) and 2 KB for indirect predictors
//! (Figure 7). The output is a markdown league table plus one
//! machine-readable `TOURNEY {json}` line that CI gates against a
//! committed baseline (`TOURNEY_baseline.json`, checked by
//! `vlpp-metrics-check --tourney`).
//!
//! ## Determinism
//!
//! Cells run on the shared worker pool ([`vlpp_pool::Pool::map`] is
//! order-preserving) and every expensive artifact — traces with their
//! load channels, profile reports — is memoized compute-once-per-key,
//! so stdout is byte-identical at any `VLPP_THREADS`. The league is
//! part of `scripts/verify.sh`'s thread-determinism diff.
//!
//! The artifacts are built first, one pool task per workload, so the
//! builds run in parallel and no cell blocks on another thread's build:
//! every cell's memo lookups are hits.
//!
//! ## Fairness notes
//!
//! * Every conditional entrant sees the same trace; the LDBP entrant
//!   additionally receives the trace's synthetic load-value channel
//!   (`Program::execute_conditionals_with_loads`), modeling values the
//!   core already has in flight — its table storage is still charged.
//! * `vlp-var` uses the §3.5 two-step profile (profiling input, as in
//!   the paper); `vlp-fixed` uses the *per-workload best* fixed length
//!   from the same profile, a stronger baseline than Table 2's
//!   suite-averaged length.
//! * MPKI is mispredictions per 1000 retired control transfers of the
//!   workload's trace, so conditional and indirect entrants are
//!   penalized on a common denominator.

use std::sync::Arc;

use vlpp_core::{HashAssignment, PathConfig, ProfileBuilder, ProfileConfig, ProfileReport};
use vlpp_metrics::Counter;
use vlpp_pool::{Memo, Pool};
use vlpp_predict::{zoo, Budget, ZooContext};
use vlpp_synth::{hard, suite, InputSet};
use vlpp_trace::json::JsonValue;
use vlpp_trace::{Trace, VlppError};

use crate::cli::{cli_error, print_metrics, Flags};
use crate::experiment::{Kind, Scale};
use crate::paper::{FIG5_COND_BYTES, FIG7_IND_BYTES};
use crate::runner::{
    run_conditional, run_indirect, run_path_conditional, run_path_indirect, RunStats,
};

/// `vlpp tournament --help`.
pub const USAGE: &str = "\
usage: vlpp tournament [--scale ci|N] [--json] [--metrics]
                       [--only NAME,NAME,...] [--emit-baseline]

Races every registered predictor over every synthetic benchmark plus
the hard-branch workload family, at the paper's headline budgets
(conditional 16KB, indirect 2KB). Prints a markdown league table and a
single `TOURNEY {json}` line; see EXPERIMENTS.md for how to read it.

options:
  --scale ci|N     divide paper dynamic counts by N; `ci` is the pinned
                   CI scale (1000000, i.e. the 50k-branch floor)
  --json           suppress the markdown tables; print only the TOURNEY
                   line (what scripts/verify.sh diffs across threads)
  --only LIST      comma-separated predictor names to race; unknown
                   names are an error listing the valid ones
  --emit-baseline  print a TOURNEY_baseline.json document derived from
                   this run (the floors vlpp-metrics-check gates) instead
                   of the league table
  --metrics        print a metrics table on stderr and a METRICS line
                   on stdout after the run
";

pub use crate::experiment::CI_SCALE_DIVISOR;

fn cond_budget() -> Budget {
    Budget::from_bytes(FIG5_COND_BYTES)
}

fn ind_budget() -> Budget {
    Budget::from_bytes(FIG7_IND_BYTES)
}

/// One workload in the tournament matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TourneyWorkload {
    /// Workload name (a suite benchmark or a `hard-*` member).
    pub name: &'static str,
    /// `"suite"` or `"hard"`.
    pub family: &'static str,
}

/// The full workload universe, in report order: the paper's 16
/// benchmarks, then the hard-branch family.
pub fn workloads() -> Vec<TourneyWorkload> {
    let mut list: Vec<TourneyWorkload> = suite::all_names()
        .into_iter()
        .map(|name| TourneyWorkload { name, family: "suite" })
        .collect();
    list.extend(hard::NAMES.iter().map(|&name| TourneyWorkload { name, family: "hard" }));
    list
}

/// How an entrant is instantiated for a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    /// Index into the zoo registry of the entrant's kind.
    Zoo(usize),
    /// The paper's predictor with the per-workload best fixed length.
    VlpFixed,
    /// The paper's predictor with the §3.5 variable-length assignment.
    VlpVar,
}

fn cond_entrants() -> Vec<(&'static str, Scheme)> {
    let mut list: Vec<(&'static str, Scheme)> = zoo::conditional_names()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, Scheme::Zoo(i)))
        .collect();
    list.push(("vlp-fixed", Scheme::VlpFixed));
    list.push(("vlp-var", Scheme::VlpVar));
    list
}

fn ind_entrants() -> Vec<(&'static str, Scheme)> {
    let mut list: Vec<(&'static str, Scheme)> = zoo::indirect_names()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, Scheme::Zoo(i)))
        .collect();
    list.push(("vlp-fixed", Scheme::VlpFixed));
    list.push(("vlp-var", Scheme::VlpVar));
    list
}

/// Every valid `--only` token, deduplicated in registry order (the
/// paper's predictors appear once even though they race in both kinds).
pub fn predictor_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for (name, _) in cond_entrants().into_iter().chain(ind_entrants()) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// Memoized per-tournament artifacts: traces (with their load-value
/// channels) and profile reports, built once per workload and shared by
/// every cell that needs them. Deliberately separate from
/// [`Workloads`](crate::Workloads) — the tournament profiles at its own
/// index widths and must not disturb the experiment caches.
#[derive(Debug)]
pub struct TournamentData {
    scale: Scale,
    traces: Memo<(String, InputSet), TraceWithLoads>,
    profiles: Memo<(String, Kind), ProfileReport>,
}

/// A built trace plus its aligned load-value channel (`loads[i]` is the
/// value visible at record `i`).
type TraceWithLoads = (Trace, Arc<Vec<u64>>);

impl TournamentData {
    /// Creates a context at the given scale.
    pub fn new(scale: Scale) -> Self {
        TournamentData {
            scale,
            traces: Memo::named("tourney_traces"),
            profiles: Memo::named("tourney_profiles"),
        }
    }

    /// The context's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The scaled dynamic conditional count for a workload.
    fn dynamic_conditionals(&self, name: &str) -> u64 {
        match suite::benchmark(name) {
            Some(spec) => self.scale.dynamic_conditionals(&spec),
            None => {
                let workload = hard::workload(name).expect("workload exists");
                (workload.default_dynamic_conditional / self.scale.divisor()).max(50_000)
            }
        }
    }

    /// The trace and aligned load channel for a workload and input set.
    /// Memoized.
    fn trace(&self, name: &str, input: InputSet) -> Arc<(Trace, Arc<Vec<u64>>)> {
        self.traces.get_or_compute((name.to_string(), input), || {
            let _span = vlpp_metrics::span("sim.trace_build_ns");
            let program = match suite::benchmark(name) {
                Some(spec) => spec.build_program(),
                None => hard::workload(name).expect("workload exists").build_program(),
            };
            let (trace, loads) =
                program.execute_conditionals_with_loads(input, self.dynamic_conditionals(name));
            (trace, Arc::new(loads))
        })
    }

    /// Builds every artifact a cell of `workload` reads: its test trace
    /// and the profile reports of the `profiled` kinds.
    fn prepare(&self, workload: &str, profiled: &[Kind]) {
        self.trace(workload, InputSet::Test);
        for &kind in profiled {
            self.profile(workload, kind);
        }
    }

    /// The §3.5 profile report for a workload at the tournament budget
    /// of the given kind. Memoized.
    fn profile(&self, name: &str, kind: Kind) -> Arc<ProfileReport> {
        self.profiles.get_or_compute((name.to_string(), kind), || {
            let _span = vlpp_metrics::span("sim.profile_ns");
            let trace = self.trace(name, InputSet::Profile);
            let bits = match kind {
                Kind::Conditional => cond_budget().cond_index_bits(),
                Kind::Indirect => ind_budget().ind_index_bits(),
            };
            let builder = ProfileBuilder::new(ProfileConfig::new(PathConfig::new(bits)));
            match kind {
                Kind::Conditional => builder.profile_conditional(&trace.0),
                Kind::Indirect => builder.profile_indirect(&trace.0),
            }
        })
    }
}

/// One finished cell of the league matrix.
#[derive(Debug, Clone)]
pub struct TourneyCell {
    /// Which branch population the cell raced.
    pub kind: Kind,
    /// Entrant name.
    pub predictor: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// The cell's run statistics.
    pub stats: RunStats,
    /// Retired control transfers in the workload's test trace (the MPKI
    /// denominator).
    pub trace_len: u64,
}

impl TourneyCell {
    /// The canonical cell key, `"cond:tage:gcc"` / `"ind:btb:perl"`.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", kind_tag(self.kind), self.predictor, self.workload)
    }

    /// Mispredictions per 1000 retired control transfers.
    pub fn mpki(&self) -> f64 {
        if self.trace_len == 0 {
            0.0
        } else {
            self.stats.mispredictions as f64 * 1000.0 / self.trace_len as f64
        }
    }
}

fn kind_tag(kind: Kind) -> &'static str {
    match kind {
        Kind::Conditional => "cond",
        Kind::Indirect => "ind",
    }
}

fn run_cell(data: &TournamentData, kind: Kind, scheme: Scheme, workload: &str) -> (RunStats, u64) {
    let test = data.trace(workload, InputSet::Test);
    let (trace, loads) = (&test.0, &test.1);
    let stats = match (kind, scheme) {
        (Kind::Conditional, Scheme::Zoo(i)) => {
            let entry = &zoo::conditional_zoo()[i];
            let ctx = ZooContext::with_loads(Arc::clone(loads));
            let mut predictor = (entry.build)(cond_budget(), &ctx);
            run_conditional(&mut predictor, trace)
        }
        (Kind::Indirect, Scheme::Zoo(i)) => {
            let entry = &zoo::indirect_zoo()[i];
            let ctx = ZooContext::with_loads(Arc::clone(loads));
            let mut predictor = (entry.build)(ind_budget(), &ctx);
            run_indirect(&mut predictor, trace)
        }
        (Kind::Conditional, vlp) => {
            let report = data.profile(workload, Kind::Conditional);
            let config = PathConfig::new(cond_budget().cond_index_bits());
            let assignment = match vlp {
                Scheme::VlpVar => report.assignment.clone(),
                _ => HashAssignment::fixed(report.best_fixed_hash()),
            };
            run_path_conditional(&config, &assignment, trace)
        }
        (Kind::Indirect, vlp) => {
            let report = data.profile(workload, Kind::Indirect);
            let config = PathConfig::new(ind_budget().ind_index_bits());
            let assignment = match vlp {
                Scheme::VlpVar => report.assignment.clone(),
                _ => HashAssignment::fixed(report.best_fixed_hash()),
            };
            run_path_indirect(&config, &assignment, trace)
        }
    };
    (stats, trace.len() as u64)
}

fn storage_bytes(kind: Kind, scheme: Scheme) -> u64 {
    let ctx = ZooContext::default();
    match (kind, scheme) {
        (Kind::Conditional, Scheme::Zoo(i)) => {
            (zoo::conditional_zoo()[i].storage_bytes)(cond_budget(), &ctx)
        }
        (Kind::Indirect, Scheme::Zoo(i)) => {
            (zoo::indirect_zoo()[i].storage_bytes)(ind_budget(), &ctx)
        }
        (Kind::Conditional, _) => cond_budget().bytes(),
        (Kind::Indirect, _) => ind_budget().bytes(),
    }
}

/// A finished tournament: every cell, plus the matrix axes that
/// produced them.
#[derive(Debug)]
pub struct TournamentResult {
    /// The scale the tournament ran at.
    pub scale: Scale,
    /// Workloads raced (matrix rows).
    pub workloads: Vec<TourneyWorkload>,
    /// Conditional entrants raced (columns of the conditional section).
    pub cond_predictors: Vec<&'static str>,
    /// Indirect entrants raced (columns of the indirect section).
    pub ind_predictors: Vec<&'static str>,
    /// Every cell, conditional section first, workload-major.
    pub cells: Vec<TourneyCell>,
}

/// Validates `--only` tokens against the registered predictor names,
/// returning the normalized list or a CLI error naming the valid set.
pub fn validate_only(raw: &str) -> Result<Vec<String>, VlppError> {
    let valid = predictor_names();
    let tokens: Vec<String> =
        raw.split(',').map(str::trim).filter(|t| !t.is_empty()).map(str::to_string).collect();
    if tokens.is_empty() {
        return Err(cli_error(format!(
            "--only needs at least one predictor name; valid names: {}",
            valid.join(", ")
        )));
    }
    for token in &tokens {
        if !valid.contains(&token.as_str()) {
            return Err(cli_error(format!(
                "unknown predictor `{token}` in --only; valid names: {}",
                valid.join(", ")
            )));
        }
    }
    Ok(tokens)
}

/// One entrant's `sim.tourney.<kind>.<predictor>.*` counters, resolved
/// once per tournament so a cell formats no name and takes no registry
/// lock.
#[derive(Clone)]
struct EntrantCounters {
    predictions: Arc<Counter>,
    mispredictions: Arc<Counter>,
}

impl EntrantCounters {
    fn resolve(kind: Kind, predictor: &str) -> Self {
        let tag = kind_tag(kind);
        let counter =
            |stat: &str| vlpp_metrics::counter(&format!("sim.tourney.{tag}.{predictor}.{stat}"));
        EntrantCounters {
            predictions: counter("predictions"),
            mispredictions: counter("mispredictions"),
        }
    }
}

/// Runs the full matrix (optionally restricted to the `only` predictor
/// names, which must already be validated) on the shared worker pool.
pub fn run_tournament(scale: Scale, only: Option<&[String]>) -> TournamentResult {
    let keep = |name: &str| only.map(|list| list.iter().any(|o| o == name)).unwrap_or(true);
    let cond: Vec<(&'static str, Scheme)> =
        cond_entrants().into_iter().filter(|(name, _)| keep(name)).collect();
    let ind: Vec<(&'static str, Scheme)> =
        ind_entrants().into_iter().filter(|(name, _)| keep(name)).collect();
    let workloads = workloads();

    let mut specs = Vec::new();
    let mut profiled = Vec::new();
    for (kind, entrants) in [(Kind::Conditional, &cond), (Kind::Indirect, &ind)] {
        let counters: Vec<EntrantCounters> =
            entrants.iter().map(|&(name, _)| EntrantCounters::resolve(kind, name)).collect();
        for workload in &workloads {
            for (&(name, scheme), counters) in entrants.iter().zip(&counters) {
                specs.push((kind, name, scheme, workload.name, counters.clone()));
            }
        }
        if entrants.iter().any(|&(_, scheme)| !matches!(scheme, Scheme::Zoo(_))) {
            profiled.push(kind);
        }
    }

    let data = TournamentData::new(scale);
    let cells_raced = vlpp_metrics::counter("sim.tourney.cells");
    let cells = {
        let _span = vlpp_metrics::span("sim.tourney.run_ns");
        let names: Vec<&'static str> = workloads.iter().map(|w| w.name).collect();
        Pool::global().map(names, |name| data.prepare(name, &profiled));
        Pool::global().map(specs, |(kind, predictor, scheme, workload, counters)| {
            let (stats, trace_len) = run_cell(&data, kind, scheme, workload);
            cells_raced.incr();
            counters.predictions.add(stats.predictions);
            counters.mispredictions.add(stats.mispredictions);
            TourneyCell { kind, predictor, workload, stats, trace_len }
        })
    };

    TournamentResult {
        scale,
        workloads,
        cond_predictors: cond.into_iter().map(|(name, _)| name).collect(),
        ind_predictors: ind.into_iter().map(|(name, _)| name).collect(),
        cells,
    }
}

impl TournamentResult {
    fn cell(&self, kind: Kind, predictor: &str, workload: &str) -> Option<&TourneyCell> {
        self.cells
            .iter()
            .find(|c| c.kind == kind && c.predictor == predictor && c.workload == workload)
    }

    fn scheme_for(&self, kind: Kind, predictor: &str) -> Scheme {
        let entrants = match kind {
            Kind::Conditional => cond_entrants(),
            Kind::Indirect => ind_entrants(),
        };
        entrants
            .into_iter()
            .find(|(name, _)| *name == predictor)
            .map(|(_, scheme)| scheme)
            .expect("predictor is registered")
    }

    fn section(&self, kind: Kind, out: &mut String) {
        let (title, budget, predictors) = match kind {
            Kind::Conditional => ("Conditional", cond_budget(), &self.cond_predictors),
            Kind::Indirect => ("Indirect", ind_budget(), &self.ind_predictors),
        };
        if predictors.is_empty() {
            return;
        }
        out.push_str(&format!("\n## {title} @ {budget} (miss %)\n\n"));
        out.push_str(&format!("| workload |{}\n", {
            let mut header = String::new();
            for p in predictors.iter() {
                header.push_str(&format!(" {p} |"));
            }
            header
        }));
        out.push_str(&format!("|---|{}\n", "---:|".repeat(predictors.len())));
        for workload in &self.workloads {
            out.push_str(&format!("| {} |", workload.name));
            for predictor in predictors.iter() {
                match self.cell(kind, predictor, workload.name) {
                    Some(cell) => {
                        out.push_str(&format!(" {:.2} |", 100.0 * cell.stats.miss_rate()))
                    }
                    None => out.push_str(" - |"),
                }
            }
            out.push('\n');
        }

        // Ranking: mean miss rate over all workloads, ascending; ties
        // break on name so the table is total-ordered.
        let mut rows: Vec<(&'static str, f64, f64, u64)> = predictors
            .iter()
            .map(|&predictor| {
                let cells: Vec<&TourneyCell> = self
                    .cells
                    .iter()
                    .filter(|c| c.kind == kind && c.predictor == predictor)
                    .collect();
                let n = cells.len().max(1) as f64;
                let mean_miss: f64 = cells.iter().map(|c| c.stats.miss_rate()).sum::<f64>() / n;
                let mean_mpki: f64 = cells.iter().map(|c| c.mpki()).sum::<f64>() / n;
                let storage = storage_bytes(kind, self.scheme_for(kind, predictor));
                (predictor, mean_miss, mean_mpki, storage)
            })
            .collect();
        rows.sort_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite rates").then_with(|| a.0.cmp(b.0))
        });
        out.push_str(&format!("\n### {title} ranking\n\n"));
        out.push_str("| # | predictor | mean miss % | mean MPKI | storage bytes |\n");
        out.push_str("|---:|---|---:|---:|---:|\n");
        for (place, (predictor, miss, mpki, storage)) in rows.iter().enumerate() {
            out.push_str(&format!(
                "| {} | {} | {:.2} | {:.2} | {} |\n",
                place + 1,
                predictor,
                100.0 * miss,
                mpki,
                storage
            ));
        }
    }

    /// The markdown league report: one matrix and one ranking per kind.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Predictor tournament\n\n");
        out.push_str(&format!(
            "scale 1/{}; budgets: conditional {}, indirect {}; {} workloads, {} cells\n",
            self.scale.divisor(),
            cond_budget(),
            ind_budget(),
            self.workloads.len(),
            self.cells.len()
        ));
        self.section(Kind::Conditional, &mut out);
        self.section(Kind::Indirect, &mut out);
        out
    }

    /// The machine-readable league, printed as the `TOURNEY {json}`
    /// line. Cell keys are `"{cond|ind}:{predictor}:{workload}"`.
    pub fn to_json(&self) -> JsonValue {
        let names = |list: &[&'static str]| {
            JsonValue::Array(list.iter().map(|n| JsonValue::Str(n.to_string())).collect())
        };
        let mut cells = Vec::new();
        let mut storage = Vec::new();
        for cell in &self.cells {
            cells.push((
                cell.key(),
                JsonValue::Object(vec![
                    ("predictions".to_string(), JsonValue::UInt(cell.stats.predictions)),
                    ("mispredictions".to_string(), JsonValue::UInt(cell.stats.mispredictions)),
                    ("miss_rate".to_string(), JsonValue::Float(cell.stats.miss_rate())),
                    ("mpki".to_string(), JsonValue::Float(cell.mpki())),
                ]),
            ));
        }
        for (kind, predictors) in
            [(Kind::Conditional, &self.cond_predictors), (Kind::Indirect, &self.ind_predictors)]
        {
            for &predictor in predictors.iter() {
                storage.push((
                    format!("{}:{}", kind_tag(kind), predictor),
                    JsonValue::UInt(storage_bytes(kind, self.scheme_for(kind, predictor))),
                ));
            }
        }
        JsonValue::Object(vec![
            (
                "budgets".to_string(),
                JsonValue::Object(vec![
                    ("conditional".to_string(), JsonValue::UInt(cond_budget().bytes())),
                    ("indirect".to_string(), JsonValue::UInt(ind_budget().bytes())),
                ]),
            ),
            ("scale".to_string(), JsonValue::UInt(self.scale.divisor())),
            (
                "workloads".to_string(),
                JsonValue::Array(
                    self.workloads.iter().map(|w| JsonValue::Str(w.name.to_string())).collect(),
                ),
            ),
            (
                "predictors".to_string(),
                JsonValue::Object(vec![
                    ("conditional".to_string(), names(&self.cond_predictors)),
                    ("indirect".to_string(), names(&self.ind_predictors)),
                ]),
            ),
            ("cells".to_string(), JsonValue::Object(cells)),
            ("storage".to_string(), JsonValue::Object(storage)),
        ])
    }

    /// A `TOURNEY_baseline.json` document derived from this run: each
    /// cell's accuracy floor is its measured miss rate plus slack (25%
    /// relative + 2 points absolute, capped at 1.0), and `min_cells`
    /// pins the matrix size so a silently shrunken matrix fails CI.
    pub fn baseline(&self) -> JsonValue {
        let cells = self
            .cells
            .iter()
            .map(|cell| {
                let ceiling = (cell.stats.miss_rate() * 1.25 + 0.02).min(1.0);
                (
                    cell.key(),
                    JsonValue::Object(vec![(
                        "max_miss_rate".to_string(),
                        JsonValue::Float(ceiling),
                    )]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("min_cells".to_string(), JsonValue::UInt(self.cells.len() as u64)),
            ("cells".to_string(), JsonValue::Object(cells)),
        ])
    }
}

/// Parsed `vlpp tournament` options.
pub(crate) struct TournamentOptions {
    scale: Scale,
    json_only: bool,
    metrics: bool,
    emit_baseline: bool,
    only: Option<Vec<String>>,
}

/// Parses `vlpp tournament` arguments.
pub(crate) fn parse_tournament_args(args: &[String]) -> Result<TournamentOptions, VlppError> {
    let mut flags = Flags::with_scale(args);
    let (mut json_only, mut metrics, mut emit_baseline, mut only) = (false, false, false, None);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--only" => only = Some(validate_only(flags.value()?)?),
            "--json" => json_only = true,
            "--metrics" => metrics = true,
            "--emit-baseline" => emit_baseline = true,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(TournamentOptions { scale: flags.scale(), json_only, metrics, emit_baseline, only })
}

/// Entry point for `vlpp tournament`.
pub fn tournament_main(args: &[String]) -> Result<(), VlppError> {
    let TournamentOptions { scale, json_only, metrics, emit_baseline, only } =
        parse_tournament_args(args)?;
    eprintln!("# tournament: scale 1/{} of paper dynamic counts", scale.divisor());
    let result = run_tournament(scale, only.as_deref());
    if emit_baseline {
        println!("{}", result.baseline().pretty());
    } else {
        if !json_only {
            print!("{}", result.render_markdown());
        }
        println!("TOURNEY {}", result.to_json());
    }
    print_metrics(metrics);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_axes_meet_the_floor() {
        assert!(workloads().len() >= 8, "{} workloads", workloads().len());
        assert!(cond_entrants().len() >= 6, "{} conditional entrants", cond_entrants().len());
        assert!(ind_entrants().len() >= 6, "{} indirect entrants", ind_entrants().len());
    }

    #[test]
    fn predictor_names_are_unique_and_cover_both_kinds() {
        let names = predictor_names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.contains(&"tage"));
        assert!(names.contains(&"clustered"));
        assert!(names.contains(&"vlp-var"));
    }

    #[test]
    fn validate_only_accepts_known_and_rejects_unknown() {
        assert_eq!(validate_only("tage, btb").unwrap(), vec!["tage", "btb"]);
        let error = validate_only("tage,warp-drive").unwrap_err();
        assert_eq!(error.phase(), "cli");
        let message = error.to_string();
        assert!(message.contains("warp-drive"), "{message}");
        assert!(message.contains("valid names"), "{message}");
        assert!(validate_only(" ,, ").is_err(), "empty list must not race an empty matrix");
    }

    #[test]
    fn single_cell_is_deterministic() {
        let scale = Scale::new(CI_SCALE_DIVISOR);
        let run = || {
            let data = TournamentData::new(scale);
            run_cell(&data, Kind::Conditional, Scheme::Zoo(1), "hard-noise")
        };
        let (a, a_len) = run();
        let (b, b_len) = run();
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.mispredictions, b.mispredictions);
        assert_eq!(a_len, b_len);
        assert!(a.predictions >= 50_000);
    }

    #[test]
    fn baseline_caps_at_one() {
        let cell = TourneyCell {
            kind: Kind::Conditional,
            predictor: "bimodal",
            workload: "gcc",
            stats: RunStats { predictions: 10, mispredictions: 10 },
            trace_len: 10,
        };
        let result = TournamentResult {
            scale: Scale::new(1),
            workloads: vec![TourneyWorkload { name: "gcc", family: "suite" }],
            cond_predictors: vec!["bimodal"],
            ind_predictors: vec![],
            cells: vec![cell],
        };
        let baseline = result.baseline();
        let ceiling = baseline
            .get("cells")
            .and_then(|c| c.get("cond:bimodal:gcc"))
            .and_then(|c| c.get("max_miss_rate"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert_eq!(ceiling, 1.0);
        assert_eq!(baseline.get("min_cells").and_then(|v| v.as_u64()), Some(1));
    }
}
