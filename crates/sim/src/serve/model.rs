//! Served predictor instances: per-shard variable length path predictor
//! state plus the trace-order determinism contract.
//!
//! # Sharding and determinism
//!
//! A served model is split into `shards` independent predictor
//! instances; the branch at `pc` always belongs to shard
//! `pc.word() % shards`. Because every *static* branch maps to exactly
//! one shard, a shard sees a deterministic sub-stream of the trace, and
//! its predictions depend only on that sub-stream's order — not on
//! worker-thread count, batch boundaries, or which connection carried
//! the records. [`Model::apply_batch`] exploits this: it splits a batch
//! into one index slice per busy shard, and each slice runs in batch
//! order under one take of its shard's lock, with distinct shards in
//! parallel on the worker pool (`Pool::map`). The result is
//! byte-identical to [`Model::apply_sequential`] at any `VLPP_THREADS`.
//!
//! The contract callers must keep: each shard's records must arrive in
//! trace order. One connection per shard group (what `vlpp loadgen`
//! does) satisfies this; two connections racing records of the *same*
//! shard would interleave nondeterministically at the server, exactly
//! as two cores racing uncoordinated updates to one predictor would.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use vlpp_core::{CondKernel, HashAssignment, IndKernel, KernelState, PathConfig, ProfileReport};
use vlpp_metrics::Span;
use vlpp_pool::Pool;
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{Addr, BranchRecord, TraceSource, VlppError};

use super::{routing, ServeMetrics};
use crate::experiment::{profile_on_pool, Kind, Workloads};

/// Which branch population a served model predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Conditional branches (taken / not-taken).
    Conditional,
    /// Indirect jumps and calls (target addresses; returns excluded).
    Indirect,
}

impl ModelKind {
    /// Wire name, matching `BranchKind`'s short names.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Conditional => "cond",
            ModelKind::Indirect => "ind",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "cond" => Some(ModelKind::Conditional),
            "ind" => Some(ModelKind::Indirect),
            _ => None,
        }
    }
}

/// Everything the `train` verb needs to build a model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// The model's name (the key later `predict`/`update` verbs use).
    pub name: String,
    /// Synthetic benchmark whose profile trace trains the assignment.
    /// Empty when the model trains from an ingested trace file instead.
    pub benchmark: String,
    /// Path to an ingested trace file to train from (any format
    /// `vlpp ingest` reads; see TRACES.md). Mutually exclusive with
    /// `benchmark` — the protocol layer enforces exactly one.
    pub trace: Option<String>,
    /// Branch population to predict.
    pub kind: ModelKind,
    /// Prediction-table index width in bits.
    pub index_bits: u32,
    /// Number of independent predictor shards.
    pub shards: usize,
}

/// One served prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// A conditional direction prediction.
    Taken {
        /// The predicted direction.
        taken: bool,
        /// Whether it matched the record's actual outcome.
        correct: bool,
    },
    /// An indirect target prediction.
    Target {
        /// The predicted target (`Addr::NULL` when the predictor had no
        /// candidate — always scored as a miss).
        target: Addr,
        /// Whether it matched the record's actual target.
        correct: bool,
    },
}

impl ToJson for Prediction {
    fn to_json(&self) -> JsonValue {
        match *self {
            Prediction::Taken { taken, correct } => JsonValue::Object(vec![
                ("taken".to_string(), JsonValue::Bool(taken)),
                ("correct".to_string(), JsonValue::Bool(correct)),
            ]),
            Prediction::Target { target, correct } => JsonValue::Object(vec![
                ("target".to_string(), JsonValue::UInt(target.raw())),
                ("correct".to_string(), JsonValue::Bool(correct)),
            ]),
        }
    }
}

/// The kernel variant one shard owns. Shards run the structure-of-
/// arrays kernels from `vlpp-core` — the fused per-record step whose
/// bit-identity to the test-only boxed reference the differential suite
/// pins (and the loadgen oracle re-proves end-to-end).
enum ShardPredictor {
    Conditional(CondKernel),
    Indirect(IndKernel),
}

/// One shard: its predictor kernel (which carries its own accuracy
/// counters).
pub struct ShardState {
    predictor: ShardPredictor,
}

impl std::fmt::Debug for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (predictions, mispredictions) = self.totals();
        f.debug_struct("ShardState")
            .field("predictions", &predictions)
            .field("mispredictions", &mispredictions)
            .finish_non_exhaustive()
    }
}

impl ShardState {
    /// Runs one record through the standard simulation protocol
    /// (predict → score → train on population members, observe on every
    /// record), returning the prediction for population members and
    /// `None` otherwise. This is the same state evolution as
    /// `runner::run_conditional` / `run_indirect` over the kernel's
    /// trait interface, record at a time.
    pub fn apply(&mut self, record: &BranchRecord) -> Option<Prediction> {
        match &mut self.predictor {
            ShardPredictor::Conditional(kernel) => {
                kernel.apply(record).map(|(taken, correct)| Prediction::Taken { taken, correct })
            }
            ShardPredictor::Indirect(kernel) => {
                kernel.apply(record).map(|(target, correct)| Prediction::Target { target, correct })
            }
        }
    }

    /// This shard's `(predictions, mispredictions)` totals.
    fn totals(&self) -> (u64, u64) {
        match &self.predictor {
            ShardPredictor::Conditional(kernel) => (kernel.predictions(), kernel.mispredictions()),
            ShardPredictor::Indirect(kernel) => (kernel.predictions(), kernel.mispredictions()),
        }
    }

    /// Number of distinct static branches this shard predicted.
    fn static_branches(&self) -> usize {
        match &self.predictor {
            ShardPredictor::Conditional(kernel) => kernel.static_branches(),
            ShardPredictor::Indirect(kernel) => kernel.static_branches(),
        }
    }
}

/// One shard's complete serializable dynamic state, as the snapshot
/// codec carries it: the shared kernel core plus the kind-specific
/// prediction plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSnapshot {
    /// A conditional shard: core state + the 2-bit counter plane words.
    Conditional {
        /// Kernel core state (hashers, history stack, statistics rows).
        state: KernelState,
        /// The counter plane's packed words.
        words: Vec<u64>,
    },
    /// An indirect shard: core state + the target plane's two arrays.
    Indirect {
        /// Kernel core state (hashers, history stack, statistics rows).
        state: KernelState,
        /// The target plane's full-width target slots.
        targets: Vec<u64>,
        /// The target plane's valid bitmap words.
        valid: Vec<u64>,
    },
}

/// A trained, shard-partitioned predictor instance.
pub struct Model {
    /// The spec the model was trained from.
    pub spec: ModelSpec,
    /// Profiled static branches (from the training report, for the
    /// `train` response).
    pub profiled_branches: usize,
    /// The assignment's default hash number.
    pub default_hash: u8,
    /// The profiled hash assignment the shards were built from — kept
    /// so a snapshot can rebuild the model without re-profiling.
    assignment: HashAssignment,
    shards: Vec<Mutex<ShardState>>,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("spec", &self.spec)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// A poisoned shard mutex means a previous `apply` panicked mid-update;
/// the predictor state is still structurally valid (only partially
/// trained), so serving continues with whatever state is there rather
/// than wedging every later request on the poison.
fn lock_shard(shard: &Mutex<ShardState>) -> MutexGuard<'_, ShardState> {
    shard.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Reads a training trace from disk, streaming through the ingestion
/// adapters (format chosen by extension, as `vlpp ingest` does).
/// Profiling needs the whole trace, so this materializes it.
fn load_training_trace(path: &std::path::Path) -> Result<vlpp_trace::Trace, VlppError> {
    let format = vlpp_trace::ingest::TraceFormat::from_path(path).ok_or_else(|| {
        VlppError::protocol(
            Some("train".to_string()),
            format!(
                "cannot guess the trace format of `{}` from its extension \
                 (want .vlpc, .champsim/.bin, .csv, or .jsonl)",
                path.display()
            ),
        )
    })?;
    let file = std::fs::File::open(path).map_err(|e| VlppError::io(path, "open", e))?;
    let mut source = vlpp_trace::ingest::open_source(format, std::io::BufReader::new(file))
        .map_err(|e| VlppError::trace_file(path, e))?;
    source.read_to_trace().map_err(|e| VlppError::trace_file(path, e))
}

impl Model {
    /// Profiles the training workload — `spec.benchmark` (memoized in
    /// `workloads`) or, when `spec.trace` is set, an ingested trace
    /// file — and builds `spec.shards` independent predictor instances
    /// from the resulting hash assignment.
    ///
    /// # Errors
    ///
    /// [`VlppError::Protocol`] for an unknown benchmark name, an
    /// unrecognizable trace extension, or a zero shard count;
    /// [`VlppError::Io`] / [`VlppError::Trace`] when the trace file
    /// cannot be opened or parsed.
    pub fn train(spec: ModelSpec, workloads: &Workloads) -> Result<Model, VlppError> {
        if spec.shards == 0 {
            return Err(VlppError::protocol(
                Some("train".to_string()),
                "shard count must be at least 1",
            ));
        }
        let report: Arc<ProfileReport> = if let Some(path) = &spec.trace {
            let trace = load_training_trace(std::path::Path::new(path))?;
            let kind = match spec.kind {
                ModelKind::Conditional => Kind::Conditional,
                ModelKind::Indirect => Kind::Indirect,
            };
            let config = vlpp_core::ProfileConfig::new(PathConfig::new(spec.index_bits));
            Arc::new(profile_on_pool(kind, config, &trace))
        } else {
            let benchmark = vlpp_synth::suite::benchmark(&spec.benchmark).ok_or_else(|| {
                VlppError::protocol(
                    Some("train".to_string()),
                    format!("unknown benchmark `{}`", spec.benchmark),
                )
            })?;
            match spec.kind {
                ModelKind::Conditional => {
                    workloads.profile_conditional(&benchmark, spec.index_bits)
                }
                ModelKind::Indirect => workloads.profile_indirect(&benchmark, spec.index_bits),
            }
        };
        let shards = (0..spec.shards)
            .map(|_| {
                let config = PathConfig::new(spec.index_bits);
                let predictor = match spec.kind {
                    ModelKind::Conditional => {
                        ShardPredictor::Conditional(CondKernel::new(&config, &report.assignment))
                    }
                    ModelKind::Indirect => {
                        ShardPredictor::Indirect(IndKernel::new(&config, &report.assignment))
                    }
                };
                Mutex::new(ShardState { predictor })
            })
            .collect();
        Ok(Model {
            profiled_branches: report.profiled_branches,
            default_hash: report.default_hash,
            assignment: report.assignment.clone(),
            spec,
            shards,
        })
    }

    /// The shard that owns the branch at `pc` (see
    /// [`routing::shard_of`] — the same map the cluster routing table
    /// uses).
    pub fn owner(&self, pc: Addr) -> usize {
        routing::shard_of(pc, self.shards.len())
    }

    /// The profiled hash assignment the shards were built from.
    pub fn assignment(&self) -> &HashAssignment {
        &self.assignment
    }

    /// Exports every shard's dynamic state, in shard order. Each shard
    /// is locked only while it is copied, so an export during live
    /// traffic is per-shard consistent (callers who need a fully
    /// quiescent image stop sending first, as `vlpp loadgen --save`
    /// does).
    pub fn export_shards(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|shard| match &lock_shard(shard).predictor {
                ShardPredictor::Conditional(kernel) => {
                    let (state, words) = kernel.export_state();
                    ShardSnapshot::Conditional { state, words }
                }
                ShardPredictor::Indirect(kernel) => {
                    let (state, targets, valid) = kernel.export_state();
                    ShardSnapshot::Indirect { state, targets, valid }
                }
            })
            .collect()
    }

    /// Rebuilds a model from snapshot parts: fresh kernels from the
    /// spec + assignment, then each shard's dynamic state restored into
    /// them. The inverse of [`Model::export_shards`].
    ///
    /// # Errors
    ///
    /// A message naming the first inconsistency: shard-count or
    /// kind/state mismatches, or any damage the kernel-level
    /// `restore_state` validation rejects. Nothing panics; the caller
    /// (the snapshot loader) wraps the message in a typed
    /// [`VlppError::Checkpoint`].
    pub fn from_snapshot(
        spec: ModelSpec,
        profiled_branches: usize,
        assignment: HashAssignment,
        shard_states: Vec<ShardSnapshot>,
    ) -> Result<Model, String> {
        if spec.shards == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if shard_states.len() != spec.shards {
            return Err(format!(
                "snapshot has {} shard sections, spec says {}",
                shard_states.len(),
                spec.shards
            ));
        }
        let default_hash = assignment.default_hash();
        let shards = shard_states
            .into_iter()
            .enumerate()
            .map(|(i, snapshot)| {
                let config = PathConfig::new(spec.index_bits);
                let predictor = match (spec.kind, snapshot) {
                    (ModelKind::Conditional, ShardSnapshot::Conditional { state, words }) => {
                        let mut kernel = CondKernel::new(&config, &assignment);
                        kernel
                            .restore_state(&state, words)
                            .map_err(|why| format!("shard {i}: {why}"))?;
                        ShardPredictor::Conditional(kernel)
                    }
                    (ModelKind::Indirect, ShardSnapshot::Indirect { state, targets, valid }) => {
                        let mut kernel = IndKernel::new(&config, &assignment);
                        kernel
                            .restore_state(&state, targets, valid)
                            .map_err(|why| format!("shard {i}: {why}"))?;
                        ShardPredictor::Indirect(kernel)
                    }
                    (kind, _) => {
                        return Err(format!(
                            "shard {i}: state kind does not match the spec's `{}`",
                            kind.name()
                        ));
                    }
                };
                Ok(Mutex::new(ShardState { predictor }))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Model { spec, profiled_branches, default_hash, assignment, shards })
    }

    /// Runs a batch through the shards: a batch that one shard owns
    /// whole runs inline under one take of that shard's lock; otherwise
    /// it splits into one index slice per busy shard, each slice runs in
    /// batch order under one take of its shard's lock, and distinct
    /// shards run in parallel on the global worker pool. One prediction
    /// slot per input record, in input order.
    pub fn apply_batch(&self, records: &[BranchRecord]) -> Vec<Option<Prediction>> {
        let metrics = ServeMetrics::get();
        let _span = Span::enter(Arc::clone(&metrics.predict_ns));
        let started = Instant::now();
        let predictions = match self.sole_owner(records) {
            Some(shard) => {
                let mut state = lock_shard(&self.shards[shard]);
                records.iter().map(|record| state.apply(record)).collect()
            }
            None => self.fan_out(records),
        };
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            metrics.records_per_sec.record((records.len() as f64 / elapsed) as u64);
        }
        predictions
    }

    /// The shard that owns every record of a non-empty batch, if one
    /// does.
    fn sole_owner(&self, records: &[BranchRecord]) -> Option<usize> {
        let shard = self.owner(records.first()?.pc());
        records[1..].iter().all(|record| self.owner(record.pc()) == shard).then_some(shard)
    }

    /// [`Model::apply_batch`] for a batch that spans shards (or none).
    fn fan_out(&self, records: &[BranchRecord]) -> Vec<Option<Prediction>> {
        let mut slices = vec![Vec::new(); self.shards.len()];
        for (index, record) in records.iter().enumerate() {
            slices[self.owner(record.pc())].push(index);
        }
        let busy: Vec<(usize, &[usize])> = slices
            .iter()
            .enumerate()
            .filter(|(_, slice)| !slice.is_empty())
            .map(|(shard, slice)| (shard, slice.as_slice()))
            .collect();
        let per_shard = Pool::global().map(busy.clone(), |(shard, slice)| {
            let mut state = lock_shard(&self.shards[shard]);
            slice.iter().map(|&index| state.apply(&records[index])).collect::<Vec<_>>()
        });
        let mut predictions = vec![None; records.len()];
        for ((_, slice), shard_predictions) in busy.iter().zip(per_shard) {
            for (&index, prediction) in slice.iter().zip(shard_predictions) {
                predictions[index] = prediction;
            }
        }
        predictions
    }

    /// The single-threaded reference for [`Model::apply_batch`]: applies
    /// records one at a time in input order. `vlpp loadgen` uses this to
    /// compute the offline predictions the served ones must match
    /// byte-for-byte.
    pub fn apply_sequential(&self, records: &[BranchRecord]) -> Vec<Option<Prediction>> {
        records
            .iter()
            .map(|record| lock_shard(&self.shards[self.owner(record.pc())]).apply(record))
            .collect()
    }

    /// Accuracy totals across all shards, as the `stats` verb reports
    /// them — aggregate counters plus a `per_shard` breakdown in shard
    /// order. The per-shard entries carry every traffic-dependent
    /// counter, so `vlpp loadgen`'s oracle compares them shard by shard
    /// (a cluster node only carries traffic for the shards routed to
    /// it).
    pub fn stats_json(&self) -> JsonValue {
        let mut predictions = 0u64;
        let mut mispredictions = 0u64;
        let mut static_branches = 0usize;
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let state = lock_shard(shard);
            let (p, m) = state.totals();
            let branches = state.static_branches();
            predictions += p;
            mispredictions += m;
            static_branches += branches;
            per_shard.push(JsonValue::Object(vec![
                ("predictions".to_string(), JsonValue::UInt(p)),
                ("mispredictions".to_string(), JsonValue::UInt(m)),
                ("static_branches".to_string(), JsonValue::UInt(branches as u64)),
            ]));
        }
        let miss_rate =
            if predictions == 0 { 0.0 } else { mispredictions as f64 / predictions as f64 };
        let mut fields =
            vec![("benchmark".to_string(), JsonValue::Str(self.spec.benchmark.clone()))];
        if let Some(trace) = &self.spec.trace {
            fields.push(("trace".to_string(), JsonValue::Str(trace.clone())));
        }
        fields.extend(vec![
            ("kind".to_string(), JsonValue::Str(self.spec.kind.name().to_string())),
            ("index_bits".to_string(), JsonValue::UInt(self.spec.index_bits as u64)),
            ("shards".to_string(), JsonValue::UInt(self.spec.shards as u64)),
            ("predictions".to_string(), JsonValue::UInt(predictions)),
            ("mispredictions".to_string(), JsonValue::UInt(mispredictions)),
            ("miss_rate".to_string(), JsonValue::Float(miss_rate)),
            ("static_branches".to_string(), JsonValue::UInt(static_branches as u64)),
            ("per_shard".to_string(), JsonValue::Array(per_shard)),
        ]);
        JsonValue::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scale;
    use crate::runner::RunStats;
    use vlpp_core::CondKernel;
    use vlpp_predict::{BranchObserver, ConditionalPredictor};

    fn spec(shards: usize) -> ModelSpec {
        ModelSpec {
            name: "m".to_string(),
            benchmark: "compress".to_string(),
            trace: None,
            kind: ModelKind::Conditional,
            index_bits: 10,
            shards,
        }
    }

    fn test_records(workloads: &Workloads, n: usize) -> Vec<BranchRecord> {
        let benchmark = vlpp_synth::suite::benchmark("compress").unwrap();
        workloads.test_trace(&benchmark).iter().take(n).copied().collect()
    }

    #[test]
    fn unknown_benchmark_is_a_protocol_error() {
        let workloads = Workloads::new(Scale::new(1_000_000));
        let mut bad = spec(1);
        bad.benchmark = "nonesuch".to_string();
        let error = Model::train(bad, &workloads).unwrap_err();
        assert_eq!(error.phase(), "protocol");
    }

    #[test]
    fn batched_parallel_apply_matches_sequential() {
        let workloads = Workloads::new(Scale::new(1_000_000));
        let records = test_records(&workloads, 4000);
        let (mut one_owner, mut fanned_out) = (0, 0);
        for shards in [1, 2, 3, 4] {
            let reference = Model::train(spec(shards), &workloads).unwrap();
            let expected = reference.apply_sequential(&records);

            let served = Model::train(spec(shards), &workloads).unwrap();
            let mut got = Vec::new();
            for batch in records.chunks(97) {
                match served.sole_owner(batch) {
                    Some(_) => one_owner += 1,
                    None => fanned_out += 1,
                }
                got.extend(served.apply_batch(batch));
            }
            assert_eq!(got, expected, "{shards} shards");
            assert_eq!(
                served.stats_json().to_json_string(),
                reference.stats_json().to_json_string(),
                "{shards} shards"
            );
        }
        assert!(one_owner > 0 && fanned_out > 0, "both batch paths ran: {one_owner}/{fanned_out}");
    }

    #[test]
    fn one_shard_matches_the_offline_runner() {
        let workloads = Workloads::new(Scale::new(1_000_000));
        let benchmark = vlpp_synth::suite::benchmark("compress").unwrap();
        let records = test_records(&workloads, 4000);

        let model = Model::train(spec(1), &workloads).unwrap();
        let predictions = model.apply_sequential(&records);

        let report = workloads.profile_conditional(&benchmark, 10);
        let mut offline = CondKernel::new(&PathConfig::new(10), &report.assignment);
        let mut stats = RunStats::default();
        for (record, slot) in records.iter().zip(&predictions) {
            if record.is_conditional() {
                let taken = offline.predict(record.pc());
                let correct = taken == record.taken();
                stats.record(correct);
                offline.train(record.pc(), record.taken());
                assert_eq!(*slot, Some(Prediction::Taken { taken, correct }));
            } else {
                assert_eq!(*slot, None);
            }
            offline.observe(record);
        }
        let served_stats = model.stats_json();
        assert_eq!(
            served_stats.get("predictions").and_then(|v| v.as_u64()),
            Some(stats.predictions)
        );
        assert_eq!(
            served_stats.get("mispredictions").and_then(|v| v.as_u64()),
            Some(stats.mispredictions)
        );
    }

    #[test]
    fn trains_from_an_ingested_compact_trace_file() {
        use vlpp_trace::compact;
        use vlpp_trace::source::MemorySource;
        let workloads = Workloads::new(Scale::new(1_000_000));
        let benchmark = vlpp_synth::suite::benchmark("compress").unwrap();
        let training = workloads.profile_trace(&benchmark);

        let dir = std::env::temp_dir().join(format!("vlpp-train-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compress.vlpc");
        let mut bytes = Vec::new();
        compact::copy_to_chunked(&mut MemorySource::new((*training).clone()), &mut bytes, 512)
            .unwrap();
        std::fs::write(&path, bytes).unwrap();

        let mut trace_spec = spec(2);
        trace_spec.benchmark = String::new();
        trace_spec.trace = Some(path.display().to_string());
        let from_file = Model::train(trace_spec, &workloads).unwrap();
        // Same records profiled from a file must yield the same
        // assignment the benchmark path produces.
        let from_benchmark = Model::train(spec(2), &workloads).unwrap();
        assert_eq!(from_file.assignment(), from_benchmark.assignment());
        assert_eq!(from_file.profiled_branches, from_benchmark.profiled_branches);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn training_from_a_missing_or_unknown_trace_is_a_typed_error() {
        let workloads = Workloads::new(Scale::new(1_000_000));
        let mut missing = spec(1);
        missing.benchmark = String::new();
        missing.trace = Some("/nonexistent/trace.vlpc".to_string());
        assert_eq!(Model::train(missing, &workloads).unwrap_err().phase(), "io");
        let mut unknown = spec(1);
        unknown.benchmark = String::new();
        unknown.trace = Some("/tmp/trace.xyz".to_string());
        assert_eq!(Model::train(unknown, &workloads).unwrap_err().phase(), "protocol");
    }

    #[test]
    fn indirect_models_score_null_targets_as_misses() {
        let workloads = Workloads::new(Scale::new(1_000_000));
        let mut indirect_spec = spec(2);
        indirect_spec.kind = ModelKind::Indirect;
        let model = Model::train(indirect_spec, &workloads).unwrap();
        let records = vec![
            BranchRecord::indirect(Addr::new(0x4000), Addr::new(0x5000)),
            BranchRecord::ret(Addr::new(0x5004), Addr::new(0x4004)),
            BranchRecord::indirect(Addr::new(0x4000), Addr::new(0x5000)),
        ];
        let predictions = model.apply_sequential(&records);
        // Cold first sight: no candidate target, a scored miss.
        assert!(matches!(predictions[0], Some(Prediction::Target { correct: false, .. })));
        // Returns are excluded from the indirect population.
        assert_eq!(predictions[1], None);
        // Second sight: the last-target path predicts correctly.
        assert!(matches!(predictions[2], Some(Prediction::Target { correct: true, .. })));
    }
}
