//! VLPC v3, the native trace file format: branch records are highly
//! local — consecutive pcs and targets differ by small deltas — so
//! delta + LEB128 varint encoding takes 4–6 bytes per record where a
//! ChampSim capture spends 18 (4.3 for the `trace_tools` example's `li`
//! trace, 6.0 for `trace_capture`'s interpreter). Workload caches,
//! `vlpp ingest` output and long trace archives all use it.
//!
//! Records are grouped into independently decodable chunks of at most
//! `chunk_cap` records, each prefixed by its record count and payload
//! length, so a reader can stream (or skip) a multi-GB trace while
//! holding at most one chunk; a trailer carrying the total record count
//! marks a cleanly finished file. [`ChunkedWriter`] (or
//! [`copy_to_chunked`]) writes the format and [`ChunkedReader`] streams
//! it through the [`TraceSource`] interface. `TRACES.md` at the
//! repository root has the full wire grammar.
//!
//! ## Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use vlpp_trace::compact::{ChunkedReader, ChunkedWriter};
//! use vlpp_trace::{Addr, BranchRecord, TraceSource};
//!
//! let record = BranchRecord::conditional(Addr::new(0x1000), Addr::new(0x1040), true);
//! let mut buf = Vec::new();
//! let mut writer = ChunkedWriter::new(&mut buf, 64)?;
//! writer.push(&record)?;
//! assert_eq!(writer.finish()?.records, 1);
//! let trace = ChunkedReader::new(&buf[..])?.read_to_trace()?;
//! assert_eq!(trace.records(), &[record]);
//! # Ok(())
//! # }
//! ```

use std::io::{Read, Write};

use crate::json::{JsonValue, ToJson};
use crate::source::TraceSource;
use crate::{Addr, BranchKind, BranchRecord, TraceIoError};

/// Magic bytes identifying a VLPC trace.
pub const MAGIC: [u8; 4] = *b"VLPC";

/// The VLPC format version this library reads and writes.
pub const VERSION: u16 = 3;

/// Hard cap on a chunk's record capacity. Bounds the memory a reader
/// must hold for one chunk no matter what the header claims.
pub const MAX_CHUNK_RECORDS: u32 = 1 << 20;

/// Records per chunk used by `vlpp ingest` when no cap is given.
pub const DEFAULT_CHUNK_RECORDS: u32 = 1 << 16;

/// Worst-case encoded size of one record: a tag byte plus two 10-byte
/// LEB128 varints. Used to bound declared chunk payload lengths.
const MAX_RECORD_BYTES: u64 = 21;

/// Appends one delta-coded record to `buf` and advances `previous_pc`.
fn encode_record(buf: &mut Vec<u8>, record: &BranchRecord, previous_pc: &mut u64) {
    let tag = record.kind().code() | (record.taken() as u8) << 3;
    buf.push(tag);
    write_signed(buf, record.pc().raw().wrapping_sub(*previous_pc) as i64);
    write_signed(buf, record.target().raw().wrapping_sub(record.pc().raw()) as i64);
    *previous_pc = record.pc().raw();
}

/// Decodes one delta-coded record; `index` labels errors.
fn decode_record<R: Read>(
    reader: &mut Counting<R>,
    index: u64,
    previous_pc: &mut u64,
) -> Result<BranchRecord, TraceIoError> {
    let tag = reader.read_byte(index)?;
    let kind =
        BranchKind::from_code(tag & 0x7).ok_or(TraceIoError::BadKind { code: tag & 0x7, index })?;
    let taken = tag & 0x8 != 0;
    let pc = previous_pc.wrapping_add(read_signed(reader, index)? as u64);
    let target = pc.wrapping_add(read_signed(reader, index)? as u64);
    *previous_pc = pc;
    Ok(BranchRecord::new(Addr::new(pc), Addr::new(target), kind, taken))
}

/// Summary of a VLPC conversion, returned by
/// [`ChunkedWriter::finish`] and [`copy_to_chunked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkedSummary {
    /// Records written.
    pub records: u64,
    /// Chunks written (not counting the trailer).
    pub chunks: u64,
    /// Total output bytes, header and trailer included.
    pub bytes: u64,
}

impl ToJson for ChunkedSummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("records".to_string(), JsonValue::UInt(self.records)),
            ("chunks".to_string(), JsonValue::UInt(self.chunks)),
            ("bytes".to_string(), JsonValue::UInt(self.bytes)),
        ])
    }
}

/// Incremental writer for the VLPC v3 layout:
///
/// ```text
/// magic     : 4 bytes = b"VLPC"
/// version   : u16 le = 3
/// reserved  : u16 le = 0
/// chunk_cap : u32 le (1..=MAX_CHUNK_RECORDS)
/// reserved  : u32 le = 0
/// chunks    : per chunk:
///     records     : u32 le (1..=chunk_cap)
///     payload_len : u32 le
///     payload     : delta-coded records; the pc delta chain restarts
///                   at 0 each chunk, so chunks decode independently
/// trailer   : records = 0 u32, payload_len = 8 u32, total records u64
/// ```
///
/// The per-chunk delta reset plus the explicit `payload_len` make every
/// chunk skippable without decoding — the seekable handle the converter
/// promises. A missing trailer distinguishes a cleanly finished file
/// from one cut off at a chunk boundary.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    writer: W,
    chunk_cap: u32,
    payload: Vec<u8>,
    pending: u32,
    previous_pc: u64,
    records: u64,
    chunks: u64,
    bytes: u64,
}

impl<W: Write> ChunkedWriter<W> {
    /// Starts a chunked stream, writing the header immediately.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_cap` is outside `1..=`[`MAX_CHUNK_RECORDS`] (a
    /// caller bug, not a data fault — the CLI validates user input
    /// before getting here).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the underlying writer fails.
    pub fn new(mut writer: W, chunk_cap: u32) -> Result<Self, TraceIoError> {
        assert!(
            (1..=MAX_CHUNK_RECORDS).contains(&chunk_cap),
            "chunk_cap must be 1..={MAX_CHUNK_RECORDS}"
        );
        writer.write_all(&MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        writer.write_all(&0u16.to_le_bytes())?;
        writer.write_all(&chunk_cap.to_le_bytes())?;
        writer.write_all(&0u32.to_le_bytes())?;
        Ok(ChunkedWriter {
            writer,
            chunk_cap,
            payload: Vec::new(),
            pending: 0,
            previous_pc: 0,
            records: 0,
            chunks: 0,
            bytes: 16,
        })
    }

    /// Appends one record, flushing a chunk whenever `chunk_cap` records
    /// have accumulated.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the underlying writer fails.
    pub fn push(&mut self, record: &BranchRecord) -> Result<(), TraceIoError> {
        encode_record(&mut self.payload, record, &mut self.previous_pc);
        self.pending += 1;
        self.records += 1;
        if self.pending == self.chunk_cap {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceIoError> {
        self.writer.write_all(&self.pending.to_le_bytes())?;
        self.writer.write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&self.payload)?;
        self.bytes += 8 + self.payload.len() as u64;
        self.chunks += 1;
        self.pending = 0;
        self.payload.clear();
        self.previous_pc = 0;
        Ok(())
    }

    /// Flushes the final partial chunk, writes the trailer, and returns
    /// the conversion summary. Dropping a writer without calling this
    /// leaves a trailer-less stream that readers report as truncated.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the underlying writer fails.
    pub fn finish(mut self) -> Result<ChunkedSummary, TraceIoError> {
        if self.pending > 0 {
            self.flush_chunk()?;
        }
        self.writer.write_all(&0u32.to_le_bytes())?;
        self.writer.write_all(&8u32.to_le_bytes())?;
        self.writer.write_all(&self.records.to_le_bytes())?;
        self.bytes += 16;
        self.writer.flush()?;
        Ok(ChunkedSummary { records: self.records, chunks: self.chunks, bytes: self.bytes })
    }
}

/// Drains `source` into a chunked compact stream — the core of
/// `vlpp ingest`. Memory held is one chunk's worth of encoded bytes
/// plus whatever `source` itself buffers.
///
/// # Errors
///
/// The first error from `source` or from the output writer.
pub fn copy_to_chunked<S: TraceSource + ?Sized, W: Write>(
    source: &mut S,
    writer: W,
    chunk_cap: u32,
) -> Result<ChunkedSummary, TraceIoError> {
    let mut out = ChunkedWriter::new(writer, chunk_cap)?;
    while let Some(record) = source.next_record()? {
        out.push(&record)?;
    }
    out.finish()
}

/// Streaming reader for VLPC v3 traces, implementing [`TraceSource`].
///
/// The reader holds at most one decoded chunk (≤ the header's
/// `chunk_cap` records, itself capped at [`MAX_CHUNK_RECORDS`]);
/// [`peak_buffered_records`] exposes the high-water mark so tests can
/// assert the bounded-memory guarantee.
///
/// [`peak_buffered_records`]: Self::peak_buffered_records
#[derive(Debug)]
pub struct ChunkedReader<R: Read> {
    reader: Counting<R>,
    chunk_cap: u32,
    buffer: Vec<BranchRecord>,
    cursor: usize,
    records: u64,
    chunks: u64,
    peak_buffered: usize,
    done: bool,
}

impl<R: Read> ChunkedReader<R> {
    /// Opens a VLPC stream, validating magic, version and chunk
    /// capacity.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::BadMagic`] / [`TraceIoError::UnsupportedVersion`]
    /// for foreign or future files, [`TraceIoError::Truncated`] for a
    /// short header, [`TraceIoError::Malformed`] for an impossible
    /// chunk capacity.
    pub fn new(reader: R) -> Result<Self, TraceIoError> {
        let mut reader = Counting { inner: reader, position: 0 };
        let mut header = [0u8; 16];
        reader.read_exact_or(&mut header, 0)?;
        if header[0..4] != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&header[0..4]);
            return Err(TraceIoError::BadMagic { found });
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(TraceIoError::UnsupportedVersion { found: version });
        }
        let chunk_cap = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
        if !(1..=MAX_CHUNK_RECORDS).contains(&chunk_cap) {
            return Err(TraceIoError::Malformed {
                what: format!("chunk capacity {chunk_cap}"),
                byte_offset: 8,
            });
        }
        Ok(ChunkedReader {
            reader,
            chunk_cap,
            buffer: Vec::new(),
            cursor: 0,
            records: 0,
            chunks: 0,
            peak_buffered: 0,
            done: false,
        })
    }

    /// Records yielded so far.
    pub fn records_read(&self) -> u64 {
        self.records - (self.buffer.len() - self.cursor) as u64
    }

    /// Input bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.reader.position
    }

    /// Chunks decoded so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks
    }

    /// High-water mark of records buffered at once — the bounded-memory
    /// guarantee, never above the stream's chunk capacity.
    pub fn peak_buffered_records(&self) -> usize {
        self.peak_buffered
    }

    /// The stream's declared chunk capacity.
    pub fn chunk_cap(&self) -> u32 {
        self.chunk_cap
    }

    /// Loads the next chunk into the buffer, or handles the trailer and
    /// marks the stream done.
    fn load_chunk(&mut self) -> Result<(), TraceIoError> {
        let header_at = self.reader.position;
        let mut header = [0u8; 8];
        self.reader.read_exact_or(&mut header, self.records)?;
        let records = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
        let payload_len =
            u64::from(u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice")));
        if records == 0 {
            // The trailer: an empty chunk whose payload is the total
            // record count, cross-checked against what we decoded.
            if payload_len != 8 {
                return Err(TraceIoError::Malformed {
                    what: format!("trailer payload length {payload_len}"),
                    byte_offset: header_at + 4,
                });
            }
            let mut total = [0u8; 8];
            self.reader.read_exact_or(&mut total, self.records)?;
            let total = u64::from_le_bytes(total);
            if total != self.records {
                return Err(TraceIoError::Malformed {
                    what: format!(
                        "trailer declares {total} records but the chunks held {}",
                        self.records
                    ),
                    byte_offset: header_at + 8,
                });
            }
            let mut probe = [0u8; 1];
            return match self.reader.inner.read(&mut probe) {
                Ok(0) => {
                    self.done = true;
                    Ok(())
                }
                Ok(_) => Err(TraceIoError::Malformed {
                    what: "trailing bytes after the trailer".to_string(),
                    byte_offset: self.reader.position,
                }),
                Err(e) => Err(TraceIoError::Io(e)),
            };
        }
        if records > self.chunk_cap {
            return Err(TraceIoError::Malformed {
                what: format!("chunk declares {records} records above the {} cap", self.chunk_cap),
                byte_offset: header_at,
            });
        }
        if payload_len == 0 || payload_len > u64::from(records) * MAX_RECORD_BYTES {
            return Err(TraceIoError::Malformed {
                what: format!("chunk payload length {payload_len} for {records} records"),
                byte_offset: header_at + 4,
            });
        }
        let payload_at = self.reader.position;
        // Bounded by records * MAX_RECORD_BYTES ≤ MAX_CHUNK_RECORDS * 21.
        let mut payload = vec![0u8; payload_len as usize];
        self.reader.read_exact_or(&mut payload, self.records)?;

        self.buffer.clear();
        self.cursor = 0;
        let mut decoder = Counting { inner: &payload[..], position: 0 };
        let mut previous_pc = 0u64;
        for _ in 0..records {
            let index = self.records + self.buffer.len() as u64;
            let record =
                decode_record(&mut decoder, index, &mut previous_pc).map_err(|e| match e {
                    // The outer stream was intact; the *chunk* lied
                    // about containing `records` whole records.
                    TraceIoError::Truncated { byte_offset, .. } => TraceIoError::Malformed {
                        what: "chunk payload ends mid-record".to_string(),
                        byte_offset: payload_at + byte_offset,
                    },
                    other => other,
                })?;
            self.buffer.push(record);
        }
        if decoder.position != payload_len {
            return Err(TraceIoError::Malformed {
                what: format!(
                    "chunk payload has {} bytes left over after {records} records",
                    payload_len - decoder.position
                ),
                byte_offset: payload_at + decoder.position,
            });
        }
        self.records += u64::from(records);
        self.chunks += 1;
        self.peak_buffered = self.peak_buffered.max(self.buffer.len());
        Ok(())
    }
}

impl<R: Read> TraceSource for ChunkedReader<R> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceIoError> {
        if self.cursor < self.buffer.len() {
            let record = self.buffer[self.cursor];
            self.cursor += 1;
            return Ok(Some(record));
        }
        if self.done {
            return Ok(None);
        }
        self.load_chunk()?;
        if self.done {
            return Ok(None);
        }
        let record = self.buffer[self.cursor];
        self.cursor += 1;
        Ok(Some(record))
    }
}

/// Zigzag + LEB128 encoding of a signed value.
fn write_signed(buf: &mut Vec<u8>, value: i64) {
    let mut zigzag = ((value << 1) ^ (value >> 63)) as u64;
    loop {
        let byte = (zigzag & 0x7f) as u8;
        zigzag >>= 7;
        if zigzag == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

fn read_signed<R: Read>(reader: &mut Counting<R>, index: u64) -> Result<i64, TraceIoError> {
    let mut zigzag: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = reader.read_byte(index)?;
        zigzag |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift >= 64 {
            // A continuation run longer than a u64 is corruption, not a
            // short read, but either way the stream is unusable here.
            return Err(TraceIoError::Truncated {
                records_read: index,
                byte_offset: reader.position,
            });
        }
    }
    Ok(((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64))
}

/// Magic bytes identifying a vlpp model snapshot envelope.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"VLPS";

/// Snapshot envelope version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Longest section name the envelope accepts, in bytes.
const MAX_SECTION_NAME_BYTES: usize = 4096;

/// One named, checksummed section of a model snapshot. The envelope
/// is payload-agnostic: `vlpp-sim` encodes model specs, hash
/// assignments, and per-shard plane state into sections; this layer
/// only guarantees integrity and exact-offset error reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSection {
    /// The section name (`manifest`, `m:<model>:shard:<i>`, …);
    /// non-empty UTF-8, at most 4096 bytes.
    pub name: String,
    /// The raw payload.
    pub payload: Vec<u8>,
}

/// FNV-1a over `bytes` (also reused as a cheap stable string hash by
/// the cluster routing table). The snapshot envelope's per-section
/// checksum chains this over the section *name and then the payload*
/// — see [`section_checksum`] — so a flipped bit in either is caught.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash from a prior state.
fn fnv1a64_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The snapshot envelope's per-section checksum: FNV-1a chained over
/// the section name and then its payload.
pub fn section_checksum(section: &SnapshotSection) -> u64 {
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
/// Payloads are chunked at
/// [`frame::MAX_FRAME_BYTES`](crate::frame::MAX_FRAME_BYTES) so a
/// reader can stream a snapshot
/// of any size without ever trusting a single length field larger
/// than the wire-frame cap.
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
        for chunk in section.payload.chunks(crate::frame::MAX_FRAME_BYTES) {
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
        let mut payload =
            Vec::with_capacity(payload_len.min(crate::frame::MAX_FRAME_BYTES as u64) as usize);
        let mut remaining = payload_len;
        while remaining > 0 {
            let at = reader.position;
            let mut chunk_buf = [0u8; 4];
            reader.read_exact_or(&mut chunk_buf, index)?;
            let chunk_len = u32::from_le_bytes(chunk_buf) as u64;
            if chunk_len == 0 || chunk_len > crate::frame::MAX_FRAME_BYTES as u64 {
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

/// A reader that tracks how many bytes it has consumed, so truncation
/// errors in the variable-width format can name the exact offset.
#[derive(Debug)]
struct Counting<R> {
    inner: R,
    position: u64,
}

impl<R: Read> Counting<R> {
    fn read_byte(&mut self, records_read: u64) -> Result<u8, TraceIoError> {
        let mut byte = [0u8; 1];
        self.read_exact_or(&mut byte, records_read)?;
        Ok(byte[0])
    }

    fn read_exact_or(&mut self, buf: &mut [u8], records_read: u64) -> Result<(), TraceIoError> {
        let at = self.position;
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceIoError::Truncated { records_read, byte_offset: at }
            } else {
                TraceIoError::Io(e)
            }
        })?;
        self.position += buf.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn sample() -> Trace {
        let mut t = Trace::new();
        let mut pc = 0x12_0000u64;
        for i in 0..50u64 {
            let target = pc.wrapping_add(64 + (i % 7) * 4);
            t.push(BranchRecord::conditional(Addr::new(pc), Addr::new(target), i % 3 != 0));
            t.push(BranchRecord::indirect(Addr::new(target), Addr::new(pc ^ 0x4000)));
            pc = target;
        }
        t.push(BranchRecord::ret(Addr::new(u64::MAX - 4), Addr::new(0)));
        t
    }

    fn chunked_bytes(trace: &Trace, cap: u32) -> (Vec<u8>, ChunkedSummary) {
        let mut buf = Vec::new();
        let summary =
            copy_to_chunked(&mut crate::source::MemorySource::new(trace.clone()), &mut buf, cap)
                .unwrap();
        (buf, summary)
    }

    fn decode(bytes: &[u8]) -> Result<Trace, TraceIoError> {
        ChunkedReader::new(bytes)?.read_to_trace()
    }

    #[test]
    fn round_trips() {
        let t = sample();
        let mut buf = Vec::new();
        let mut writer = ChunkedWriter::new(&mut buf, DEFAULT_CHUNK_RECORDS).unwrap();
        for record in t.iter() {
            writer.push(record).unwrap();
        }
        writer.finish().unwrap();
        assert_eq!(decode(&buf).unwrap(), t);
    }

    #[test]
    fn round_trips_empty() {
        let mut buf = Vec::new();
        ChunkedWriter::new(&mut buf, DEFAULT_CHUNK_RECORDS).unwrap().finish().unwrap();
        assert_eq!(decode(&buf).unwrap(), Trace::new());
    }

    #[test]
    fn is_much_smaller_than_champsim_for_local_traces() {
        let t = sample();
        let mut champsim = Vec::new();
        crate::ingest::write_champsim(t.iter(), &mut champsim).unwrap();
        let (vlpc, _) = chunked_bytes(&t, 64);
        assert!(
            vlpc.len() * 3 < champsim.len(),
            "VLPC ({}) should be at least 3x smaller than ChampSim ({})",
            vlpc.len(),
            champsim.len()
        );
    }

    #[test]
    fn rejects_foreign_magic() {
        let mut champsim = Vec::new();
        crate::ingest::write_champsim(sample().iter(), &mut champsim).unwrap();
        assert!(matches!(decode(&champsim).unwrap_err(), TraceIoError::BadMagic { .. }));
    }

    #[test]
    fn rejects_bad_version() {
        let (mut buf, _) = chunked_bytes(&Trace::new(), 8);
        buf[4] = 9;
        assert!(matches!(decode(&buf).unwrap_err(), TraceIoError::UnsupportedVersion { found: 9 }));
    }

    #[test]
    fn version_2_header_is_unsupported() {
        // The retired flat layout shared the magic; a v3 file whose
        // version field reads 2 must not be decoded under that layout.
        let (mut buf, _) = chunked_bytes(&sample(), 1);
        buf[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(decode(&buf).unwrap_err(), TraceIoError::UnsupportedVersion { found: 2 }));
    }

    #[test]
    fn detects_truncation() {
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        buf.truncate(buf.len() - 1);
        assert!(matches!(decode(&buf).unwrap_err(), TraceIoError::Truncated { .. }));
    }

    #[test]
    fn detects_bad_kind() {
        let mut t = Trace::new();
        t.push(BranchRecord::call(Addr::new(4), Addr::new(8)));
        let (mut buf, _) = chunked_bytes(&t, 8);
        buf[24] = 0x7; // the first record's tag, after the file and chunk headers
        assert!(matches!(decode(&buf).unwrap_err(), TraceIoError::BadKind { code: 7, index: 0 }));
    }

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
            payload: (0..3 * crate::frame::MAX_FRAME_BYTES + 17).map(|i| i as u8).collect(),
        };
        let mut buf = Vec::new();
        write_snapshot(std::slice::from_ref(&big), &mut buf).unwrap();
        let chunk_lens: Vec<usize> = {
            // Count chunk headers: every chunk but the last is exactly
            // the frame cap.
            let mut lens = Vec::new();
            let mut remaining = big.payload.len();
            while remaining > 0 {
                let chunk = remaining.min(crate::frame::MAX_FRAME_BYTES);
                lens.push(chunk);
                remaining -= chunk;
            }
            lens
        };
        assert_eq!(chunk_lens.len(), 4, "3 full chunks + 1 tail");
        assert_eq!(read_snapshot(&buf[..]).unwrap(), vec![big]);
    }

    #[test]
    fn snapshot_rejects_trace_magic() {
        let (trace_bytes, _) = chunked_bytes(&sample(), 16);
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

    #[test]
    fn snapshot_rejects_oversized_chunk_before_allocating() {
        // Hand-build an envelope declaring a chunk above the frame cap:
        // the reader must fail on the length field itself.
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
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
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            read_snapshot(&buf[..]).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("name length")
        ));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chunked_round_trips_across_chunk_sizes() {
        let t = sample();
        for cap in [1u32, 2, 7, 64, 1 << 16] {
            let (buf, summary) = chunked_bytes(&t, cap);
            assert_eq!(summary.records, t.len() as u64);
            assert_eq!(summary.bytes, buf.len() as u64);
            assert_eq!(summary.chunks, (t.len() as u64).div_ceil(cap as u64));
            let mut reader = ChunkedReader::new(&buf[..]).unwrap();
            assert_eq!(reader.chunk_cap(), cap);
            assert_eq!(reader.read_to_trace().unwrap(), t);
            assert_eq!(reader.records_read(), t.len() as u64);
            assert_eq!(reader.bytes_read(), buf.len() as u64);
            assert_eq!(reader.chunks_read(), summary.chunks);
        }
    }

    #[test]
    fn chunked_reader_buffers_at_most_one_chunk() {
        // A trace far larger than the chunk cap must never buffer more
        // than `cap` records at once — the bounded-memory guarantee.
        let mut t = Trace::new();
        for i in 0..10_000u64 {
            t.push(BranchRecord::conditional(Addr::new(i * 4), Addr::new(i * 4 + 64), i % 2 == 0));
        }
        let cap = 128u32;
        let (buf, summary) = chunked_bytes(&t, cap);
        assert!(summary.chunks > 50);
        let mut reader = ChunkedReader::new(&buf[..]).unwrap();
        assert_eq!(reader.read_to_trace().unwrap(), t);
        assert!(reader.peak_buffered_records() <= cap as usize);
        assert_eq!(reader.peak_buffered_records(), cap as usize);
    }

    #[test]
    fn chunked_round_trips_empty() {
        let (buf, summary) = chunked_bytes(&Trace::new(), 8);
        assert_eq!(summary, ChunkedSummary { records: 0, chunks: 0, bytes: buf.len() as u64 });
        assert_eq!(decode(&buf).unwrap(), Trace::new());
    }

    #[test]
    fn chunked_missing_trailer_is_truncation() {
        // Cut the stream at the exact end of the last chunk: without the
        // trailer this is indistinguishable from a half-copied file.
        let (buf, _) = chunked_bytes(&sample(), 16);
        let cut = buf.len() - 16;
        match ChunkedReader::new(&buf[..cut]).unwrap().read_to_trace().unwrap_err() {
            TraceIoError::Truncated { byte_offset, .. } => assert_eq!(byte_offset, cut as u64),
            other => panic!("expected truncation, got {other}"),
        }
    }

    #[test]
    fn chunked_rejects_trailing_bytes_and_bad_total() {
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        buf.push(0);
        assert!(matches!(
            decode(&buf).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("trailing")
        ));
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        let total_at = buf.len() - 8;
        buf[total_at] ^= 1;
        assert!(matches!(
            decode(&buf).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("trailer declares")
        ));
    }

    #[test]
    fn chunked_rejects_forged_headers_without_big_allocations() {
        // chunk_cap above the hard cap
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            ChunkedReader::new(&buf[..]).unwrap_err(),
            TraceIoError::Malformed { what, byte_offset: 8 } if what.contains("chunk capacity")
        ));

        // chunk record count above the declared cap
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        buf[16..20].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            decode(&buf).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("above the 16 cap")
        ));

        // payload length impossibly large for the record count
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        buf[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&buf).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("payload length")
        ));
    }

    #[test]
    fn chunked_rejects_payload_record_count_mismatch() {
        // Declare one record fewer than the payload encodes: leftover
        // bytes must be rejected (the payload and count disagree).
        // A single-chunk trace small enough that the forged counts
        // below stay under the 16-record cap and exercise the payload
        // cross-checks themselves.
        let mut t = Trace::new();
        for i in 0..6u64 {
            t.push(BranchRecord::conditional(Addr::new(i * 8), Addr::new(i * 8 + 32), true));
        }
        let (buf, _) = chunked_bytes(&t, 16);
        let mut fewer = buf.clone();
        let declared = t.len() as u32 - 1;
        fewer[16..20].copy_from_slice(&declared.to_le_bytes());
        assert!(matches!(
            decode(&fewer).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("left over")
        ));
        // And one more than it encodes: the decoder runs off the end of
        // the chunk, which is corruption, not stream truncation.
        let mut more = buf;
        let declared = t.len() as u32 + 1;
        more[16..20].copy_from_slice(&declared.to_le_bytes());
        assert!(matches!(
            decode(&more).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("mid-record")
        ));
    }

    #[test]
    fn signed_varint_round_trips_extremes() {
        for value in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x7fff_ffff, -0x8000_0000] {
            let mut buf = Vec::new();
            write_signed(&mut buf, value);
            let mut reader = Counting { inner: &buf[..], position: 0 };
            let got = read_signed(&mut reader, 0).unwrap();
            assert_eq!(got, value, "value {value}");
            assert_eq!(reader.position, buf.len() as u64);
        }
    }
}
