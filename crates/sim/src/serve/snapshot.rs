//! Versioned model snapshots: served predictor state ⇄ the `VLPS`
//! envelope ([`write_snapshot`] / [`read_snapshot`]).
//!
//! # Layout
//!
//! One snapshot file holds a `manifest` section plus, per model `M`,
//! three kinds of section (`SERVING.md` gives the byte-level grammar):
//!
//! | Section | Encoding | Contents |
//! |---|---|---|
//! | `manifest` | JSON | format version, workload scale, model names |
//! | `m:M:spec` | JSON | the [`ModelSpec`] + profile summary |
//! | `m:M:assign` | binary LE | the profiled hash assignment |
//! | `m:M:shard:I` | binary LE | shard `I`'s dynamic kernel state |
//!
//! The envelope layer already chunks large payloads under the 1 MiB
//! frame cap and checksums each section (FNV-1a over name then
//! payload), so this module only decides *what* the bytes mean. Every
//! decode failure is a typed [`VlppError::Checkpoint`] naming the
//! section and the byte offset inside it — never a panic, never a
//! silently wrong model (the property suite over the envelope plus
//! [`Model::from_snapshot`]'s validate-before-mutate restore enforce
//! that end to end).
//!
//! Writes are atomic: the envelope is written to `<path>.tmp` and
//! renamed over `<path>`, so a crash mid-save leaves the previous
//! snapshot intact (same discipline as `vlpp_sim::checkpoint`).

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vlpp_core::{HashAssignment, KernelState};
use vlpp_trace::compact::{fnv1a64, fnv1a64_continue};
use vlpp_trace::frame::MAX_FRAME_BYTES;
use vlpp_trace::json::JsonValue;
use vlpp_trace::{Addr, TraceIoError, VlppError};

use super::model::{Model, ModelSpec, ShardSnapshot};
use crate::experiment::{Kind, Scale};

/// Format version of the *section layout* (the envelope has its own
/// wire version; this one governs what the sections mean).
pub const SNAPSHOT_FORMAT: u64 = 1;

/// Magic bytes identifying a vlpp model snapshot envelope.
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"VLPS";

/// Snapshot envelope version.
pub(crate) const SNAPSHOT_VERSION: u16 = 1;

/// Longest section name the envelope accepts, in bytes.
const MAX_SECTION_NAME_BYTES: usize = 4096;

/// One named, checksummed section of a model snapshot. The envelope
/// is payload-agnostic: [`encode_models`] puts model specs, hash
/// assignments and per-shard plane state into sections; the envelope
/// only guarantees integrity and exact-offset error reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSection {
    /// The section name (`manifest`, `m:<model>:shard:<i>`, …);
    /// non-empty UTF-8, at most 4096 bytes.
    pub name: String,
    /// The raw payload.
    pub payload: Vec<u8>,
}

/// The snapshot envelope's per-section checksum: FNV-1a chained over
/// the section name and then its payload.
fn section_checksum(section: &SnapshotSection) -> u64 {
    fnv1a64_continue(fnv1a64(section.name.as_bytes()), &section.payload)
}

/// Writes a model snapshot envelope:
///
/// ```text
/// magic   : 4 bytes = b"VLPS"
/// version : u16 le = 1
/// reserved: u16 le = 0
/// sections: u32 le
/// per section:
///     name_len : u16 le (1..=4096)
///     name     : UTF-8 bytes
///     len      : u64 le — total payload bytes
///     checksum : u64 le — FNV-1a chained over name, then payload
///     chunks   : repeated [u32 le chunk_len][bytes], each chunk in
///                1..=MAX_FRAME_BYTES, lengths summing to `len`
/// ```
///
/// Payloads are chunked at [`MAX_FRAME_BYTES`] so a reader can stream
/// a snapshot of any size without ever trusting a single length field
/// larger than the wire-frame cap.
///
/// # Panics
///
/// Panics if a section name is empty or longer than 4096 bytes (a
/// caller bug, not a data fault).
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the underlying writer fails.
pub fn write_snapshot<W: Write>(
    sections: &[SnapshotSection],
    mut writer: W,
) -> Result<(), TraceIoError> {
    writer.write_all(&SNAPSHOT_MAGIC)?;
    writer.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    writer.write_all(&0u16.to_le_bytes())?;
    writer.write_all(&(sections.len() as u32).to_le_bytes())?;
    for section in sections {
        let name = section.name.as_bytes();
        assert!(
            !name.is_empty() && name.len() <= MAX_SECTION_NAME_BYTES,
            "section name must be 1..={MAX_SECTION_NAME_BYTES} bytes"
        );
        writer.write_all(&(name.len() as u16).to_le_bytes())?;
        writer.write_all(name)?;
        writer.write_all(&(section.payload.len() as u64).to_le_bytes())?;
        writer.write_all(&section_checksum(section).to_le_bytes())?;
        for chunk in section.payload.chunks(MAX_FRAME_BYTES) {
            writer.write_all(&(chunk.len() as u32).to_le_bytes())?;
            writer.write_all(chunk)?;
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads a model snapshot envelope written by [`write_snapshot`].
///
/// Every structural fault is a typed error carrying the byte offset at
/// which it was detected: [`TraceIoError::Truncated`] for short reads,
/// [`TraceIoError::Malformed`] for impossible lengths / non-UTF-8
/// names / trailing bytes, [`TraceIoError::ChecksumMismatch`] for a
/// payload that does not hash to its declared checksum. Hostile
/// length fields never drive a large allocation: payloads grow chunk
/// by chunk, each chunk capped at the 1 MiB frame limit.
///
/// # Errors
///
/// See above; plus [`TraceIoError::BadMagic`] /
/// [`TraceIoError::UnsupportedVersion`] for foreign or future files.
pub fn read_snapshot<R: Read>(reader: R) -> Result<Vec<SnapshotSection>, TraceIoError> {
    let mut reader = Counting { inner: reader, position: 0 };
    let mut header = [0u8; 12];
    reader.read_exact_or(&mut header, 0)?;
    if header[0..4] != SNAPSHOT_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&header[0..4]);
        return Err(TraceIoError::BadMagic { found });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != SNAPSHOT_VERSION {
        return Err(TraceIoError::UnsupportedVersion { found: version });
    }
    let count = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    let mut sections = Vec::with_capacity((count as usize).min(4096));
    for index in 0..count as u64 {
        let at = reader.position;
        let mut len_buf = [0u8; 2];
        reader.read_exact_or(&mut len_buf, index)?;
        let name_len = u16::from_le_bytes(len_buf) as usize;
        if name_len == 0 || name_len > MAX_SECTION_NAME_BYTES {
            return Err(TraceIoError::Malformed {
                what: format!("section {index} name length {name_len}"),
                byte_offset: at,
            });
        }
        let mut name = vec![0u8; name_len];
        reader.read_exact_or(&mut name, index)?;
        let name = String::from_utf8(name).map_err(|_| TraceIoError::Malformed {
            what: format!("section {index} name is not UTF-8"),
            byte_offset: at,
        })?;
        let mut fixed = [0u8; 16];
        reader.read_exact_or(&mut fixed, index)?;
        let payload_len = u64::from_le_bytes(fixed[0..8].try_into().expect("8-byte slice"));
        let checksum = u64::from_le_bytes(fixed[8..16].try_into().expect("8-byte slice"));
        let mut payload = Vec::with_capacity(payload_len.min(MAX_FRAME_BYTES as u64) as usize);
        let mut remaining = payload_len;
        while remaining > 0 {
            let at = reader.position;
            let mut chunk_buf = [0u8; 4];
            reader.read_exact_or(&mut chunk_buf, index)?;
            let chunk_len = u32::from_le_bytes(chunk_buf) as u64;
            if chunk_len == 0 || chunk_len > MAX_FRAME_BYTES as u64 {
                return Err(TraceIoError::Malformed {
                    what: format!("section `{name}` chunk length {chunk_len}"),
                    byte_offset: at,
                });
            }
            if chunk_len > remaining {
                return Err(TraceIoError::Malformed {
                    what: format!(
                        "section `{name}` chunk length {chunk_len} exceeds the \
                         {remaining} payload bytes remaining"
                    ),
                    byte_offset: at,
                });
            }
            let start = payload.len();
            payload.resize(start + chunk_len as usize, 0);
            reader.read_exact_or(&mut payload[start..], index)?;
            remaining -= chunk_len;
        }
        let section = SnapshotSection { name, payload };
        let found = section_checksum(&section);
        if found != checksum {
            return Err(TraceIoError::ChecksumMismatch {
                section: section.name,
                expected: checksum,
                found,
                byte_offset: reader.position,
            });
        }
        sections.push(section);
    }
    let mut probe = [0u8; 1];
    match reader.inner.read(&mut probe) {
        Ok(0) => Ok(sections),
        Ok(_) => Err(TraceIoError::Malformed {
            what: "trailing bytes after the last section".to_string(),
            byte_offset: reader.position,
        }),
        Err(e) => Err(TraceIoError::Io(e)),
    }
}

/// A reader that counts the bytes it has consumed, so every envelope
/// fault can name its exact offset.
struct Counting<R> {
    inner: R,
    position: u64,
}

impl<R: Read> Counting<R> {
    /// Fills `buf`; a short read is `Truncated` at the offset it began,
    /// with `sections_read` complete sections before it.
    fn read_exact_or(&mut self, buf: &mut [u8], sections_read: u64) -> Result<(), TraceIoError> {
        let at = self.position;
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceIoError::Truncated { records_read: sections_read, byte_offset: at }
            } else {
                TraceIoError::Io(e)
            }
        })?;
        self.position += buf.len() as u64;
        Ok(())
    }
}

fn checkpoint_error(path: &Path, message: impl Into<String>) -> VlppError {
    VlppError::Checkpoint { path: path.to_path_buf(), message: message.into() }
}

/// What [`save_models`] wrote, for the `save` verb's response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// The snapshot file.
    pub path: PathBuf,
    /// Total bytes written.
    pub bytes: u64,
    /// Number of envelope sections.
    pub sections: usize,
    /// The saved model names, sorted.
    pub models: Vec<String>,
}

// ---------------------------------------------------------------------
// Binary section primitives
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u64s(out: &mut Vec<u8>, values: &[u64]) {
    push_u32(out, values.len() as u32);
    for &value in values {
        push_u64(out, value);
    }
}

/// A bounds-checked little-endian reader over one section's payload.
/// Every failure reports the section name and the offset *inside the
/// section* where decoding stopped.
struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> SectionReader<'a> {
    fn new(section: &'a str, bytes: &'a [u8]) -> Self {
        SectionReader { bytes, pos: 0, section }
    }

    fn fail(&self, what: &str) -> String {
        format!("section `{}` byte {}: {what}", self.section, self.pos)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(self
                .fail(&format!("{what} needs {n} bytes, {} remain", self.bytes.len() - self.pos)));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// A `count`-prefixed `u64` array. The count is validated against
    /// the bytes actually present before anything is allocated, so a
    /// hostile count cannot drive a huge allocation.
    fn u64s(&mut self, what: &str) -> Result<Vec<u64>, String> {
        let count = self.u32(what)? as usize;
        if (self.bytes.len() - self.pos) / 8 < count {
            return Err(self.fail(&format!("{what} count {count} overruns the section")));
        }
        (0..count).map(|_| self.u64(what)).collect()
    }

    fn finish(self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(self.fail(&format!(
                "{} trailing bytes after the section's last field",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Section encoders
// ---------------------------------------------------------------------

fn manifest_section(models: &[Arc<Model>], scale: Scale) -> SnapshotSection {
    let names = models.iter().map(|m| JsonValue::Str(m.spec.name.clone())).collect();
    let manifest = JsonValue::Object(vec![
        ("format".to_string(), JsonValue::UInt(SNAPSHOT_FORMAT)),
        ("scale".to_string(), JsonValue::UInt(scale.divisor())),
        ("models".to_string(), JsonValue::Array(names)),
    ]);
    SnapshotSection { name: "manifest".to_string(), payload: manifest.to_string().into_bytes() }
}

fn spec_section(model: &Model) -> SnapshotSection {
    let spec = &model.spec;
    let mut fields = vec![("benchmark".to_string(), JsonValue::Str(spec.benchmark.clone()))];
    if let Some(trace) = &spec.trace {
        fields.push(("trace".to_string(), JsonValue::Str(trace.clone())));
    }
    fields.extend(vec![
        ("kind".to_string(), JsonValue::Str(spec.kind.name().to_string())),
        ("index_bits".to_string(), JsonValue::UInt(spec.index_bits as u64)),
        ("shards".to_string(), JsonValue::UInt(spec.shards as u64)),
        ("profiled_branches".to_string(), JsonValue::UInt(model.profiled_branches as u64)),
        ("default_hash".to_string(), JsonValue::UInt(model.default_hash as u64)),
    ]);
    let body = JsonValue::Object(fields);
    SnapshotSection {
        name: format!("m:{}:spec", spec.name),
        payload: body.to_string().into_bytes(),
    }
}

/// `assign`: `default u8, count u32, (pc u64, hash u8)*` sorted by pc.
fn assign_section(model: &Model) -> SnapshotSection {
    let assignment = model.assignment();
    let mut pairs: Vec<(u64, u8)> = assignment.iter().map(|(pc, n)| (pc.raw(), n)).collect();
    pairs.sort_unstable();
    let mut payload = Vec::with_capacity(5 + pairs.len() * 9);
    payload.push(assignment.default_hash());
    push_u32(&mut payload, pairs.len() as u32);
    for (pc, n) in pairs {
        push_u64(&mut payload, pc);
        payload.push(n);
    }
    SnapshotSection { name: format!("m:{}:assign", model.spec.name), payload }
}

/// `shard`: `kind u8` (0 = cond, 1 = ind), then the kernel core state
/// (`hashers`, `stack`, `rows`), then the kind's prediction plane.
fn shard_section(name: &str, index: usize, shard: &ShardSnapshot) -> SnapshotSection {
    fn push_core(out: &mut Vec<u8>, state: &KernelState) {
        push_u64s(out, &state.hashers);
        push_u32(out, state.stack.len() as u32);
        for snapshot in &state.stack {
            push_u64s(out, snapshot);
        }
        push_u32(out, state.rows.len() as u32);
        for &(pc, predictions, mispredictions) in &state.rows {
            push_u64(out, pc);
            push_u64(out, predictions);
            push_u64(out, mispredictions);
        }
    }
    let mut payload = Vec::new();
    match shard {
        ShardSnapshot::Conditional { state, words } => {
            payload.push(0);
            push_core(&mut payload, state);
            push_u64s(&mut payload, words);
        }
        ShardSnapshot::Indirect { state, targets, valid } => {
            payload.push(1);
            push_core(&mut payload, state);
            push_u64s(&mut payload, targets);
            push_u64s(&mut payload, valid);
        }
    }
    SnapshotSection { name: format!("m:{name}:shard:{index}"), payload }
}

// ---------------------------------------------------------------------
// Section decoders
// ---------------------------------------------------------------------

fn decode_assign(section: &SnapshotSection) -> Result<HashAssignment, String> {
    let mut reader = SectionReader::new(&section.name, &section.payload);
    let default = reader.u8("default hash")?;
    if !(1..=32).contains(&default) {
        return Err(reader.fail(&format!("default hash {default} outside 1..=32")));
    }
    let mut assignment = HashAssignment::fixed(default);
    let count = reader.u32("assignment count")?;
    let mut last_pc = None;
    for _ in 0..count {
        let pc = reader.u64("assignment pc")?;
        if last_pc.is_some_and(|last| pc <= last) {
            return Err(reader.fail(&format!("assignment pcs not strictly increasing at {pc:#x}")));
        }
        last_pc = Some(pc);
        let n = reader.u8("assignment hash")?;
        if !(1..=32).contains(&n) {
            return Err(reader.fail(&format!("hash number {n} outside 1..=32")));
        }
        assignment.assign(Addr::new(pc), n);
    }
    reader.finish()?;
    Ok(assignment)
}

fn decode_shard(section: &SnapshotSection, kind: Kind) -> Result<ShardSnapshot, String> {
    let mut reader = SectionReader::new(&section.name, &section.payload);
    let tag = reader.u8("shard kind tag")?;
    let tagged = match tag {
        0 => Kind::Conditional,
        1 => Kind::Indirect,
        other => return Err(reader.fail(&format!("unknown shard kind tag {other}"))),
    };
    if tagged != kind {
        return Err(reader.fail(&format!(
            "shard is `{}`, the spec says `{}`",
            tagged.name(),
            kind.name()
        )));
    }
    let hashers = reader.u64s("hasher state")?;
    let stack_len = reader.u32("stack depth")? as usize;
    if (section.payload.len() - reader.pos) / 4 < stack_len {
        return Err(reader.fail(&format!("stack depth {stack_len} overruns the section")));
    }
    let stack = (0..stack_len)
        .map(|_| reader.u64s("stack snapshot"))
        .collect::<Result<Vec<_>, String>>()?;
    let row_count = reader.u32("row count")? as usize;
    if (section.payload.len() - reader.pos) / 24 < row_count {
        return Err(reader.fail(&format!("row count {row_count} overruns the section")));
    }
    let rows = (0..row_count)
        .map(|_| {
            Ok((reader.u64("row pc")?, reader.u64("row predictions")?, reader.u64("row misses")?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let state = KernelState { hashers, stack, rows };
    let shard = match kind {
        Kind::Conditional => {
            ShardSnapshot::Conditional { state, words: reader.u64s("counter plane")? }
        }
        Kind::Indirect => ShardSnapshot::Indirect {
            state,
            targets: reader.u64s("target plane")?,
            valid: reader.u64s("valid bitmap")?,
        },
    };
    reader.finish()?;
    Ok(shard)
}

// ---------------------------------------------------------------------
// Whole-file save / load
// ---------------------------------------------------------------------

/// Encodes `models` into the section list [`save_models`] writes.
/// Public for tests; production callers use [`save_models`].
pub fn encode_models(models: &[Arc<Model>], scale: Scale) -> Vec<SnapshotSection> {
    let mut sections = vec![manifest_section(models, scale)];
    for model in models {
        sections.push(spec_section(model));
        sections.push(assign_section(model));
        for (i, shard) in model.export_shards().iter().enumerate() {
            sections.push(shard_section(&model.spec.name, i, shard));
        }
    }
    sections
}

/// Saves `models` (already sorted by name by the caller) to `path`,
/// atomically via `<path>.tmp` + rename.
///
/// # Errors
///
/// [`VlppError::Io`] for filesystem failures; the temp file is removed
/// on a failed write.
pub fn save_models(
    path: &Path,
    models: &[Arc<Model>],
    scale: Scale,
) -> Result<SaveReport, VlppError> {
    let _span = vlpp_metrics::span("snapshot.save_ns");
    let sections = encode_models(models, scale);
    let tmp = path.with_extension("tmp");
    let file = File::create(&tmp).map_err(|source| VlppError::io(tmp.clone(), "create", source))?;
    let mut writer = BufWriter::new(file);
    if let Err(error) = write_snapshot(&sections, &mut writer) {
        let _ = std::fs::remove_file(&tmp);
        return Err(VlppError::trace_file(tmp, error));
    }
    drop(writer);
    let bytes =
        std::fs::metadata(&tmp).map_err(|source| VlppError::io(tmp.clone(), "stat", source))?.len();
    std::fs::rename(&tmp, path).map_err(|source| VlppError::io(path, "rename", source))?;
    vlpp_metrics::counter("snapshot.bytes").add(bytes);
    vlpp_metrics::counter("snapshot.sections").add(sections.len() as u64);
    vlpp_metrics::counter("snapshot.saves").incr();
    Ok(SaveReport {
        path: path.to_path_buf(),
        bytes,
        sections: sections.len(),
        models: models.iter().map(|m| m.spec.name.clone()).collect(),
    })
}

/// Loads every model in the snapshot at `path`, in manifest order.
///
/// `expected_scale` is the serving process's workload scale: a model
/// trained at another scale would silently disagree with this server's
/// reference traces, so a mismatch is rejected up front.
///
/// # Errors
///
/// [`VlppError::Io`] if the file cannot be opened, [`VlppError::Trace`]
/// for envelope-level damage (bad magic, truncation, checksum), and
/// [`VlppError::Checkpoint`] naming section + offset for section-level
/// inconsistencies.
pub fn load_models(path: &Path, expected_scale: Scale) -> Result<Vec<Arc<Model>>, VlppError> {
    let _span = vlpp_metrics::span("snapshot.load_ns");
    let file = File::open(path).map_err(|source| VlppError::io(path, "open", source))?;
    let sections = read_snapshot(BufReader::new(file))
        .map_err(|source| VlppError::trace_file(path, source))?;
    let models = decode_sections(&sections, expected_scale)
        .map_err(|message| checkpoint_error(path, message))?;
    vlpp_metrics::counter("snapshot.loads").incr();
    Ok(models)
}

/// Decodes a section list into models. Public for tests; production
/// callers use [`load_models`].
///
/// # Errors
///
/// The message [`load_models`] wraps into its `Checkpoint` error.
pub fn decode_sections(
    sections: &[SnapshotSection],
    expected_scale: Scale,
) -> Result<Vec<Arc<Model>>, String> {
    let by_name: HashMap<&str, &SnapshotSection> =
        sections.iter().map(|s| (s.name.as_str(), s)).collect();
    if by_name.len() != sections.len() {
        return Err("duplicate section names".to_string());
    }
    let manifest = by_name.get("manifest").ok_or("missing `manifest` section")?;
    let manifest = parse_json_section(manifest)?;
    let format = manifest.get("format").and_then(|v| v.as_u64());
    if format != Some(SNAPSHOT_FORMAT) {
        return Err(format!("snapshot format {format:?}, this build reads {SNAPSHOT_FORMAT}"));
    }
    let scale =
        manifest.get("scale").and_then(|v| v.as_u64()).ok_or("manifest is missing its `scale`")?;
    if scale != expected_scale.divisor() {
        return Err(format!(
            "snapshot was taken at scale {scale}, this server runs scale {} \
             (start it with --scale {scale} to load it)",
            expected_scale.divisor()
        ));
    }
    let names = manifest
        .get("models")
        .and_then(|v| v.as_array())
        .ok_or("manifest is missing its `models` array")?;
    let mut used = 1usize;
    let mut models = Vec::with_capacity(names.len());
    for name in names {
        let name = name.as_str().ok_or("manifest model names must be strings")?;
        let (model, sections_used) = decode_model(name, &by_name)?;
        used += sections_used;
        models.push(Arc::new(model));
    }
    if used != sections.len() {
        return Err(format!("{} sections not referenced by the manifest", sections.len() - used));
    }
    Ok(models)
}

fn parse_json_section(section: &SnapshotSection) -> Result<JsonValue, String> {
    let text = std::str::from_utf8(&section.payload)
        .map_err(|_| format!("section `{}` is not UTF-8 JSON", section.name))?;
    JsonValue::parse(text).map_err(|error| format!("section `{}`: {error}", section.name))
}

fn decode_model(
    name: &str,
    by_name: &HashMap<&str, &SnapshotSection>,
) -> Result<(Model, usize), String> {
    let lookup = |section: String| -> Result<&SnapshotSection, String> {
        by_name.get(section.as_str()).copied().ok_or_else(|| format!("missing section `{section}`"))
    };
    let spec_json = parse_json_section(lookup(format!("m:{name}:spec"))?)?;
    let field = |key: &str| -> Result<u64, String> {
        spec_json
            .get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("spec for `{name}` is missing `{key}`"))
    };
    let kind_name = spec_json
        .get("kind")
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("spec for `{name}` is missing `kind`"))?;
    let kind = Kind::from_name(kind_name)
        .ok_or_else(|| format!("spec for `{name}`: unknown kind `{kind_name}`"))?;
    let index_bits = field("index_bits")?;
    if !(4..=24).contains(&index_bits) {
        return Err(format!("spec for `{name}`: index_bits {index_bits} outside 4..=24"));
    }
    let shards = field("shards")?;
    if !(1..=1024).contains(&shards) {
        return Err(format!("spec for `{name}`: shards {shards} outside 1..=1024"));
    }
    let spec = ModelSpec {
        name: name.to_string(),
        benchmark: spec_json
            .get("benchmark")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("spec for `{name}` is missing `benchmark`"))?
            .to_string(),
        trace: spec_json.get("trace").and_then(|v| v.as_str()).map(str::to_string),
        kind,
        index_bits: index_bits as u32,
        shards: shards as usize,
    };
    let profiled_branches = field("profiled_branches")? as usize;
    let default_hash = field("default_hash")?;
    let assignment = decode_assign(lookup(format!("m:{name}:assign"))?)?;
    if assignment.default_hash() as u64 != default_hash {
        return Err(format!(
            "spec for `{name}` says default hash {default_hash}, \
             the assignment section says {}",
            assignment.default_hash()
        ));
    }
    let shard_states = (0..spec.shards)
        .map(|i| decode_shard(lookup(format!("m:{name}:shard:{i}"))?, kind))
        .collect::<Result<Vec<_>, String>>()?;
    let sections_used = 2 + spec.shards;
    let model = Model::from_snapshot(spec, profiled_branches, assignment, shard_states)?;
    Ok((model, sections_used))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Workloads;
    use vlpp_trace::BranchRecord;

    fn snapshot_sample() -> Vec<SnapshotSection> {
        vec![
            SnapshotSection { name: "manifest".into(), payload: b"{\"version\":1}".to_vec() },
            SnapshotSection { name: "m:loadgen:shard:0".into(), payload: vec![0xab; 100_000] },
            SnapshotSection { name: "empty".into(), payload: Vec::new() },
        ]
    }

    #[test]
    fn snapshot_round_trips() {
        let sections = snapshot_sample();
        let mut buf = Vec::new();
        write_snapshot(&sections, &mut buf).unwrap();
        assert_eq!(read_snapshot(&buf[..]).unwrap(), sections);
    }

    #[test]
    fn snapshot_round_trips_multi_chunk_payloads() {
        // A payload over the 1 MiB frame cap must stream as several
        // chunks and reassemble losslessly.
        let big = SnapshotSection {
            name: "m:x:shard:1".into(),
            payload: (0..3 * MAX_FRAME_BYTES + 17).map(|i| i as u8).collect(),
        };
        let mut buf = Vec::new();
        write_snapshot(std::slice::from_ref(&big), &mut buf).unwrap();
        // Header, name record, then 3 full chunks + 1 tail, each behind
        // a 4-byte length.
        assert_eq!(buf.len(), 12 + 2 + big.name.len() + 16 + 4 * 4 + big.payload.len());
        assert_eq!(read_snapshot(&buf[..]).unwrap(), vec![big]);
    }

    #[test]
    fn snapshot_rejects_trace_magic() {
        let record = BranchRecord::conditional(Addr::new(0x40), Addr::new(0x80), true);
        let mut trace_bytes = Vec::new();
        let mut writer = vlpp_trace::compact::ChunkedWriter::new(&mut trace_bytes, 16).unwrap();
        writer.push(&record).unwrap();
        writer.finish().unwrap();
        assert!(matches!(
            read_snapshot(&trace_bytes[..]).unwrap_err(),
            TraceIoError::BadMagic { found } if &found == b"VLPC"
        ));
    }

    #[test]
    fn snapshot_rejects_future_version() {
        let mut buf = Vec::new();
        write_snapshot(&snapshot_sample(), &mut buf).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_snapshot(&buf[..]).unwrap_err(),
            TraceIoError::UnsupportedVersion { found: 99 }
        ));
    }

    #[test]
    fn snapshot_detects_payload_corruption_with_offset() {
        let mut buf = Vec::new();
        write_snapshot(&snapshot_sample(), &mut buf).unwrap();
        // Flip one payload byte deep inside the big section.
        let victim = buf.len() - 50_000;
        buf[victim] ^= 0x40;
        match read_snapshot(&buf[..]).unwrap_err() {
            TraceIoError::ChecksumMismatch { section, byte_offset, .. } => {
                assert_eq!(section, "m:loadgen:shard:0");
                assert!(byte_offset > 0);
            }
            other => panic!("expected checksum mismatch, got {other}"),
        }
    }

    #[test]
    fn snapshot_detects_truncation_with_offset() {
        let mut buf = Vec::new();
        write_snapshot(&snapshot_sample(), &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        match read_snapshot(&buf[..]).unwrap_err() {
            TraceIoError::Truncated { byte_offset, .. } => {
                assert!(byte_offset > 0 && byte_offset <= buf.len() as u64);
            }
            other => panic!("expected truncation, got {other}"),
        }
    }

    #[test]
    fn snapshot_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        write_snapshot(&snapshot_sample(), &mut buf).unwrap();
        buf.push(0);
        assert!(matches!(
            read_snapshot(&buf[..]).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("trailing")
        ));
    }

    /// An envelope header announcing one section.
    fn one_section_header() -> Vec<u8> {
        [&SNAPSHOT_MAGIC[..], &SNAPSHOT_VERSION.to_le_bytes(), &[0, 0], &1u32.to_le_bytes()]
            .concat()
    }

    #[test]
    fn snapshot_rejects_oversized_chunk_before_allocating() {
        // Hand-build an envelope declaring a chunk above the frame cap:
        // the reader must fail on the length field itself.
        let mut buf = one_section_header();
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(b'x');
        buf.extend_from_slice(&(u64::MAX).to_le_bytes()); // payload len
        buf.extend_from_slice(&0u64.to_le_bytes()); // checksum
        buf.extend_from_slice(&(u32::MAX).to_le_bytes()); // chunk len
        assert!(matches!(
            read_snapshot(&buf[..]).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("chunk length")
        ));
    }

    #[test]
    fn snapshot_rejects_zero_length_section_name() {
        let mut buf = one_section_header();
        buf.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            read_snapshot(&buf[..]).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("name length")
        ));
    }

    fn trained(kind: Kind, shards: usize, workloads: &Workloads) -> Arc<Model> {
        let spec = ModelSpec {
            name: format!("{}-{shards}", kind.name()),
            benchmark: "compress".to_string(),
            trace: None,
            kind,
            index_bits: 10,
            shards,
        };
        Arc::new(Model::train(spec, workloads).unwrap())
    }

    fn records(workloads: &Workloads, n: usize) -> Vec<BranchRecord> {
        let benchmark = vlpp_synth::suite::benchmark("compress").unwrap();
        workloads.test_trace(&benchmark).iter().take(n).copied().collect()
    }

    /// The acceptance property: save → load yields a model whose future
    /// predictions AND stats are byte-identical to the original's.
    #[test]
    fn snapshot_round_trip_is_lossless_mid_stream() {
        let scale = Scale::new(1_000_000);
        let workloads = Workloads::new(scale);
        let stream = records(&workloads, 4000);
        for kind in [Kind::Conditional, Kind::Indirect] {
            let original = trained(kind, 3, &workloads);
            // Warm the model over the first half of the stream so the
            // snapshot carries real mid-stream state.
            original.apply_sequential(&stream[..2000]);

            let sections = encode_models(&[Arc::clone(&original)], scale);
            let restored = decode_sections(&sections, scale).unwrap();
            assert_eq!(restored.len(), 1);
            let restored = &restored[0];

            assert_eq!(restored.stats_json().to_string(), original.stats_json().to_string());
            // The tail must evolve identically from the restored state.
            assert_eq!(
                restored.apply_sequential(&stream[2000..]),
                original.apply_sequential(&stream[2000..])
            );
            assert_eq!(restored.stats_json().to_string(), original.stats_json().to_string());
        }
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let scale = Scale::new(1_000_000);
        let workloads = Workloads::new(scale);
        let cond = trained(Kind::Conditional, 2, &workloads);
        let ind = trained(Kind::Indirect, 1, &workloads);
        cond.apply_sequential(&records(&workloads, 1000));

        let dir = std::env::temp_dir().join(format!("vlpp-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.vlps");
        let report = save_models(&path, &[Arc::clone(&cond), Arc::clone(&ind)], scale).unwrap();
        assert_eq!(report.sections, 1 + (2 + 2) + (2 + 1));
        assert_eq!(report.models, vec!["cond-2".to_string(), "ind-1".to_string()]);
        assert!(report.bytes > 0);
        assert!(!path.with_extension("tmp").exists(), "temp file must be renamed away");

        let loaded = load_models(&path, scale).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].stats_json().to_string(), cond.stats_json().to_string());
        assert_eq!(loaded[1].stats_json().to_string(), ind.stats_json().to_string());

        // A scale mismatch is rejected up front with a useful message.
        let error = load_models(&path, Scale::new(16)).unwrap_err();
        assert_eq!(error.phase(), "checkpoint");
        assert!(error.to_string().contains("scale"), "{error}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_sections_are_typed_checkpoint_errors() {
        let scale = Scale::new(1_000_000);
        let workloads = Workloads::new(scale);
        let model = trained(Kind::Conditional, 2, &workloads);
        let pristine = encode_models(&[Arc::clone(&model)], scale);
        assert!(decode_sections(&pristine, scale).is_ok());

        // Each mutilation must produce an Err naming the problem —
        // never a panic, never a silently wrong model.
        type Mutation = (&'static str, Box<dyn Fn(&mut Vec<SnapshotSection>)>);
        let mutations: Vec<Mutation> = vec![
            (
                "drop manifest",
                Box::new(|s: &mut Vec<SnapshotSection>| s.retain(|x| x.name != "manifest")),
            ),
            ("drop a shard", Box::new(|s| s.retain(|x| !x.name.ends_with(":shard:1")))),
            ("drop the assignment", Box::new(|s| s.retain(|x| !x.name.ends_with(":assign")))),
            (
                "orphan section",
                Box::new(|s| {
                    s.push(SnapshotSection { name: "m:ghost:spec".into(), payload: b"{}".to_vec() })
                }),
            ),
            (
                "truncate a shard",
                Box::new(|s| {
                    let shard = s.iter_mut().find(|x| x.name.ends_with(":shard:0")).unwrap();
                    shard.payload.truncate(shard.payload.len() / 2);
                }),
            ),
            (
                "pad a shard",
                Box::new(|s| {
                    s.iter_mut().find(|x| x.name.ends_with(":shard:0")).unwrap().payload.push(0);
                }),
            ),
            (
                "bad kind tag",
                Box::new(|s| {
                    s.iter_mut().find(|x| x.name.ends_with(":shard:0")).unwrap().payload[0] = 1;
                }),
            ),
            (
                "bad default hash",
                Box::new(|s| {
                    s.iter_mut().find(|x| x.name.ends_with(":assign")).unwrap().payload[0] = 0;
                }),
            ),
            (
                "non-json spec",
                Box::new(|s| {
                    s.iter_mut().find(|x| x.name.ends_with(":spec")).unwrap().payload = vec![0xff];
                }),
            ),
        ];
        for (what, mutate) in mutations {
            let mut sections = pristine.clone();
            mutate(&mut sections);
            let error =
                decode_sections(&sections, scale).expect_err(&format!("`{what}` must be rejected"));
            assert!(!error.is_empty(), "{what}");
        }

        // Offsets: a truncated shard names the section and an offset.
        let mut sections = pristine.clone();
        let shard = sections.iter_mut().find(|x| x.name.ends_with(":shard:0")).unwrap();
        shard.payload.truncate(3);
        let error = decode_sections(&sections, scale).unwrap_err();
        assert!(error.contains("shard:0") && error.contains("byte"), "{error}");
    }

    /// A hostile count field must fail fast, not allocate terabytes.
    #[test]
    fn hostile_counts_never_drive_big_allocations() {
        let mut payload = vec![0u8]; // cond tag
        push_u32(&mut payload, u32::MAX); // hashers count: absurd
        let section = SnapshotSection { name: "m:x:shard:0".into(), payload };
        let error = decode_shard(&section, Kind::Conditional).unwrap_err();
        assert!(error.contains("overruns"), "{error}");
    }
}
