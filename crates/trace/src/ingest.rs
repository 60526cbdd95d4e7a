//! Ingestion adapters for foreign branch-trace formats.
//!
//! Three interchange forms stream through the [`TraceSource`]
//! interface, each in bounded memory (one record, or one line, at a
//! time) and each reporting malformed input as a typed, offset-carrying
//! [`TraceIoError`] — never a panic. `TRACES.md` at the repository root
//! is the normative wire grammar; in brief:
//!
//! * **ChampSim** ([`ChampSimSource`]) — the fixed 18-byte binary
//!   record convention `(ip, target, taken, branch_type)` used by the
//!   ChampSim simulator's branch-predictor interface: two
//!   little-endian `u64` addresses followed by a `taken` byte and a
//!   `branch_type` byte. Non-branch records (`branch_type = 0`) are
//!   skipped.
//! * **CSV** ([`CsvSource`]) — a documented text interchange form: a
//!   mandatory `pc,target,kind,taken` header, then one record per
//!   line; addresses in hex (`0x` optional), kinds as the
//!   [`BranchKind::name`] short names, taken as `0`/`1`. RFC 4180
//!   quoting (`"` fields, `""` escapes) and CRLF line endings are
//!   accepted; blank lines are skipped.
//! * **JSONL** ([`JsonlSource`]) — one JSON object per line in the
//!   same shape [`BranchRecord`]'s `ToJson` emits:
//!   `{"pc":64,"target":128,"kind":"cond","taken":true}`.
//!
//! Each adapter has a matching writer ([`write_champsim`],
//! [`write_csv`], [`write_jsonl`]) so traces round-trip for tests,
//! sample generation, and interchange with other tools.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::json::{JsonValue, ToJson};
use crate::source::TraceSource;
use crate::{Addr, BranchKind, BranchRecord, Trace, TraceIoError};

/// The foreign-trace formats `vlpp ingest` understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// ChampSim-convention fixed-width binary records.
    ChampSim,
    /// The documented CSV interchange form.
    Csv,
    /// One JSON object per line.
    Jsonl,
    /// The native chunked compact format (`VLPC`), already ingested.
    Compact,
}

impl TraceFormat {
    /// All formats, in a stable order.
    pub const ALL: [TraceFormat; 4] =
        [TraceFormat::ChampSim, TraceFormat::Csv, TraceFormat::Jsonl, TraceFormat::Compact];

    /// The CLI name of the format (`champsim`, `csv`, `jsonl`,
    /// `compact`).
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::ChampSim => "champsim",
            TraceFormat::Csv => "csv",
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Compact => "compact",
        }
    }

    /// Parses a CLI name produced by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "champsim" => TraceFormat::ChampSim,
            "csv" => TraceFormat::Csv,
            "jsonl" => TraceFormat::Jsonl,
            "compact" => TraceFormat::Compact,
            _ => return None,
        })
    }

    /// Guesses a format from a file extension (`.champsim`/`.bin`,
    /// `.csv`, `.jsonl`, `.vlpc`), for CLI paths where `--format` was
    /// not given.
    pub fn from_path(path: &Path) -> Option<Self> {
        Some(match path.extension()?.to_str()? {
            "champsim" | "bin" => TraceFormat::ChampSim,
            "csv" => TraceFormat::Csv,
            "jsonl" => TraceFormat::Jsonl,
            "vlpc" => TraceFormat::Compact,
            _ => return None,
        })
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Bytes per ChampSim record: ip `u64`, target `u64`, taken `u8`,
/// branch_type `u8`.
pub const CHAMPSIM_RECORD_BYTES: usize = 18;

// ChampSim `branch_type` codes, as emitted by its tracer.
const CS_NOT_BRANCH: u8 = 0;
const CS_DIRECT_JUMP: u8 = 1;
const CS_INDIRECT: u8 = 2;
const CS_CONDITIONAL: u8 = 3;
const CS_DIRECT_CALL: u8 = 4;
const CS_INDIRECT_CALL: u8 = 5;
const CS_RETURN: u8 = 6;

fn kind_to_champsim(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => CS_CONDITIONAL,
        BranchKind::Indirect => CS_INDIRECT,
        BranchKind::Unconditional => CS_DIRECT_JUMP,
        BranchKind::Call => CS_DIRECT_CALL,
        BranchKind::Return => CS_RETURN,
    }
}

fn kind_from_champsim(code: u8) -> Option<BranchKind> {
    Some(match code {
        CS_DIRECT_JUMP => BranchKind::Unconditional,
        // ChampSim separates indirect jumps from indirect calls; the
        // paper's predictors treat both as indirect targets.
        CS_INDIRECT | CS_INDIRECT_CALL => BranchKind::Indirect,
        CS_CONDITIONAL => BranchKind::Conditional,
        CS_DIRECT_CALL => BranchKind::Call,
        CS_RETURN => BranchKind::Return,
        _ => return None,
    })
}

/// Streams ChampSim-convention binary records. See the module docs for
/// the record layout; `branch_type = 0` (not a branch) records are
/// skipped, and a not-taken non-conditional record is rejected as
/// malformed.
#[derive(Debug)]
pub struct ChampSimSource<R> {
    reader: R,
    offset: u64,
    records: u64,
}

impl<R: Read> ChampSimSource<R> {
    /// Wraps a byte stream of ChampSim records.
    pub fn new(reader: R) -> Self {
        ChampSimSource { reader, offset: 0, records: 0 }
    }

    /// Branch records yielded so far (skipped non-branch records do not
    /// count).
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// Input bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.offset
    }

    /// Reads up to `buf.len()` bytes, looping over short reads. Returns
    /// the byte count actually read (less than `buf.len()` only at end
    /// of stream).
    fn fill(&mut self, buf: &mut [u8]) -> Result<usize, TraceIoError> {
        let mut read = 0;
        while read < buf.len() {
            match self.reader.read(&mut buf[read..]) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TraceIoError::Io(e)),
            }
        }
        Ok(read)
    }
}

impl<R: Read> TraceSource for ChampSimSource<R> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceIoError> {
        loop {
            let at = self.offset;
            let mut raw = [0u8; CHAMPSIM_RECORD_BYTES];
            match self.fill(&mut raw)? {
                0 => return Ok(None),
                n if n < CHAMPSIM_RECORD_BYTES => {
                    return Err(TraceIoError::Truncated {
                        records_read: self.records,
                        byte_offset: at,
                    });
                }
                _ => {}
            }
            self.offset += CHAMPSIM_RECORD_BYTES as u64;
            let pc = u64::from_le_bytes(raw[0..8].try_into().expect("8-byte slice"));
            let target = u64::from_le_bytes(raw[8..16].try_into().expect("8-byte slice"));
            let taken = raw[16];
            let branch_type = raw[17];
            if branch_type == CS_NOT_BRANCH {
                continue;
            }
            let kind = kind_from_champsim(branch_type)
                .ok_or(TraceIoError::BadKind { code: branch_type, index: self.records })?;
            let taken = match taken {
                0 => false,
                1 => true,
                other => {
                    return Err(TraceIoError::Malformed {
                        what: format!("taken byte {other} (want 0 or 1)"),
                        byte_offset: at + 16,
                    });
                }
            };
            if !taken && kind != BranchKind::Conditional {
                return Err(TraceIoError::Malformed {
                    what: format!("not-taken {} record", kind.name()),
                    byte_offset: at + 16,
                });
            }
            self.records += 1;
            return Ok(Some(BranchRecord::new(Addr::new(pc), Addr::new(target), kind, taken)));
        }
    }
}

/// Writes `records` as ChampSim-convention binary records.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the writer fails.
pub fn write_champsim<'a, W: Write>(
    records: impl IntoIterator<Item = &'a BranchRecord>,
    mut writer: W,
) -> Result<(), TraceIoError> {
    for record in records {
        let mut raw = [0u8; CHAMPSIM_RECORD_BYTES];
        raw[0..8].copy_from_slice(&record.pc().raw().to_le_bytes());
        raw[8..16].copy_from_slice(&record.target().raw().to_le_bytes());
        raw[16] = record.taken() as u8;
        raw[17] = kind_to_champsim(record.kind());
        writer.write_all(&raw)?;
    }
    writer.flush()?;
    Ok(())
}

/// The mandatory CSV header line.
pub const CSV_HEADER: &str = "pc,target,kind,taken";

/// Reads one line (through `\n` or end of stream) into `line`,
/// returning the raw byte count consumed (0 at end of stream).
fn read_line<R: Read>(
    reader: &mut BufReader<R>,
    line: &mut Vec<u8>,
) -> Result<usize, TraceIoError> {
    line.clear();
    reader.read_until(b'\n', line).map_err(TraceIoError::Io)
}

/// Strips the line terminator (`\n` or `\r\n`) and decodes UTF-8,
/// reporting non-UTF-8 content against the line's start offset.
fn decode_line(line: &[u8], at: u64) -> Result<&str, TraceIoError> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    std::str::from_utf8(line).map_err(|_| TraceIoError::Malformed {
        what: "line is not UTF-8".to_string(),
        byte_offset: at,
    })
}

/// Splits one CSV line into fields with RFC 4180 semantics: fields may
/// be double-quoted, `""` inside a quoted field is a literal quote.
fn split_csv_fields(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    loop {
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next() {
                    Some('"') if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    Some('"') => break,
                    Some(c) => field.push(c),
                    None => return Err("unterminated quoted field".to_string()),
                }
            }
            match chars.next() {
                None => {
                    fields.push(std::mem::take(&mut field));
                    return Ok(fields);
                }
                Some(',') => fields.push(std::mem::take(&mut field)),
                Some(c) => return Err(format!("unexpected `{c}` after closing quote")),
            }
        } else {
            loop {
                match chars.next() {
                    None => {
                        fields.push(std::mem::take(&mut field));
                        return Ok(fields);
                    }
                    Some(',') => {
                        fields.push(std::mem::take(&mut field));
                        break;
                    }
                    Some('"') => return Err("quote inside unquoted field".to_string()),
                    Some(c) => field.push(c),
                }
            }
        }
    }
}

/// Parses a hex address with an optional `0x`/`0X` prefix.
fn parse_hex_addr(field: &str) -> Option<u64> {
    let digits = field.strip_prefix("0x").or_else(|| field.strip_prefix("0X")).unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// Rejects records that break a kind invariant (not-taken
/// non-conditional), shared by the text adapters.
fn check_taken_invariant(
    kind: BranchKind,
    taken: bool,
    byte_offset: u64,
) -> Result<(), TraceIoError> {
    if !taken && kind != BranchKind::Conditional {
        return Err(TraceIoError::Malformed {
            what: format!("not-taken {} record", kind.name()),
            byte_offset,
        });
    }
    Ok(())
}

/// Streams the CSV interchange form. The first non-blank line must be
/// the [`CSV_HEADER`]; every error names the byte offset of the start
/// of the offending line.
#[derive(Debug)]
pub struct CsvSource<R> {
    reader: BufReader<R>,
    line: Vec<u8>,
    offset: u64,
    records: u64,
    header_seen: bool,
}

impl<R: Read> CsvSource<R> {
    /// Wraps a byte stream of CSV text.
    pub fn new(reader: R) -> Self {
        CsvSource {
            reader: BufReader::new(reader),
            line: Vec::new(),
            offset: 0,
            records: 0,
            header_seen: false,
        }
    }

    /// Records yielded so far (the header and blank lines do not
    /// count).
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// Input bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.offset
    }

    fn malformed(&self, what: impl Into<String>, at: u64) -> TraceIoError {
        TraceIoError::Malformed { what: what.into(), byte_offset: at }
    }
}

impl<R: Read> TraceSource for CsvSource<R> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceIoError> {
        loop {
            let at = self.offset;
            let mut line = std::mem::take(&mut self.line);
            let n = read_line(&mut self.reader, &mut line)?;
            self.line = line;
            if n == 0 {
                if !self.header_seen {
                    return Err(self.malformed("missing `pc,target,kind,taken` header", at));
                }
                return Ok(None);
            }
            self.offset += n as u64;
            let text = decode_line(&self.line, at)?;
            if text.is_empty() {
                continue;
            }
            let fields = split_csv_fields(text).map_err(|what| self.malformed(what, at))?;
            if !self.header_seen {
                let names: Vec<&str> = fields.iter().map(|f| f.trim()).collect();
                if names != ["pc", "target", "kind", "taken"] {
                    return Err(
                        self.malformed(format!("header `{text}` (want `{CSV_HEADER}`)"), at)
                    );
                }
                self.header_seen = true;
                continue;
            }
            if fields.len() != 4 {
                return Err(
                    self.malformed(format!("{} fields (want 4: {CSV_HEADER})", fields.len()), at)
                );
            }
            let pc = parse_hex_addr(&fields[0])
                .ok_or_else(|| self.malformed(format!("pc `{}` is not hex", fields[0]), at))?;
            let target = parse_hex_addr(&fields[1])
                .ok_or_else(|| self.malformed(format!("target `{}` is not hex", fields[1]), at))?;
            let kind = BranchKind::from_name(&fields[2])
                .ok_or_else(|| self.malformed(format!("unknown kind `{}`", fields[2]), at))?;
            let taken = match fields[3].as_str() {
                "0" => false,
                "1" => true,
                other => {
                    return Err(self.malformed(format!("taken `{other}` (want 0 or 1)"), at));
                }
            };
            check_taken_invariant(kind, taken, at)?;
            self.records += 1;
            return Ok(Some(BranchRecord::new(Addr::new(pc), Addr::new(target), kind, taken)));
        }
    }
}

/// Writes `records` in the CSV interchange form, header included.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the writer fails.
pub fn write_csv<'a, W: Write>(
    records: impl IntoIterator<Item = &'a BranchRecord>,
    mut writer: W,
) -> Result<(), TraceIoError> {
    writeln!(writer, "{CSV_HEADER}")?;
    for record in records {
        writeln!(
            writer,
            "{:#x},{:#x},{},{}",
            record.pc().raw(),
            record.target().raw(),
            record.kind().name(),
            record.taken() as u8
        )?;
    }
    writer.flush()?;
    Ok(())
}

/// Streams the JSONL interchange form: one
/// `{"pc":…,"target":…,"kind":"…","taken":…}` object per line, the
/// exact shape [`BranchRecord`]'s `ToJson` emits. Blank lines are
/// skipped; every error names the byte offset where the fault begins.
#[derive(Debug)]
pub struct JsonlSource<R> {
    reader: BufReader<R>,
    line: Vec<u8>,
    offset: u64,
    records: u64,
}

impl<R: Read> JsonlSource<R> {
    /// Wraps a byte stream of JSONL text.
    pub fn new(reader: R) -> Self {
        JsonlSource { reader: BufReader::new(reader), line: Vec::new(), offset: 0, records: 0 }
    }

    /// Records yielded so far.
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// Input bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.offset
    }
}

impl<R: Read> TraceSource for JsonlSource<R> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceIoError> {
        loop {
            let at = self.offset;
            let mut line = std::mem::take(&mut self.line);
            let n = read_line(&mut self.reader, &mut line)?;
            self.line = line;
            if n == 0 {
                return Ok(None);
            }
            self.offset += n as u64;
            let text = decode_line(&self.line, at)?;
            if text.trim().is_empty() {
                continue;
            }
            let value = JsonValue::parse(text).map_err(|e| TraceIoError::Malformed {
                what: format!("invalid JSON: {e}"),
                byte_offset: at + e.offset() as u64,
            })?;
            let malformed = |what: String| TraceIoError::Malformed { what, byte_offset: at };
            let field = |name: &str| {
                value.get(name).ok_or_else(|| malformed(format!("missing `{name}` field")))
            };
            let pc = field("pc")?
                .as_u64()
                .ok_or_else(|| malformed("`pc` is not a non-negative integer".to_string()))?;
            let target = field("target")?
                .as_u64()
                .ok_or_else(|| malformed("`target` is not a non-negative integer".to_string()))?;
            let kind_name = field("kind")?
                .as_str()
                .ok_or_else(|| malformed("`kind` is not a string".to_string()))?;
            let kind = BranchKind::from_name(kind_name)
                .ok_or_else(|| malformed(format!("unknown kind `{kind_name}`")))?;
            let taken = field("taken")?
                .as_bool()
                .ok_or_else(|| malformed("`taken` is not a bool".to_string()))?;
            check_taken_invariant(kind, taken, at)?;
            self.records += 1;
            return Ok(Some(BranchRecord::new(Addr::new(pc), Addr::new(target), kind, taken)));
        }
    }
}

/// Writes `records` as JSONL, one object per line.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the writer fails.
pub fn write_jsonl<'a, W: Write>(
    records: impl IntoIterator<Item = &'a BranchRecord>,
    mut writer: W,
) -> Result<(), TraceIoError> {
    for record in records {
        writeln!(writer, "{}", record.to_json())?;
    }
    writer.flush()?;
    Ok(())
}

/// Opens `reader` as a streaming [`TraceSource`] in the given format —
/// the boxed form for callers that pick the format at runtime. (The
/// concrete source types additionally expose `records_read` /
/// `bytes_read` progress counters.)
///
/// # Errors
///
/// [`TraceFormat::Compact`] validates its header eagerly; the other
/// formats cannot fail to open.
pub fn open_source<R: Read + Send + 'static>(
    format: TraceFormat,
    reader: R,
) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
    Ok(match format {
        TraceFormat::ChampSim => Box::new(ChampSimSource::new(reader)),
        TraceFormat::Csv => Box::new(CsvSource::new(reader)),
        TraceFormat::Jsonl => Box::new(JsonlSource::new(reader)),
        TraceFormat::Compact => Box::new(crate::compact::ChunkedReader::new(reader)?),
    })
}

/// Convenience: parses a whole in-memory byte buffer in the given
/// format (tests and small inputs; large traces should stream).
///
/// # Errors
///
/// The first parse error the format adapter reports.
pub fn parse_trace(format: TraceFormat, bytes: &[u8]) -> Result<Trace, TraceIoError> {
    match format {
        TraceFormat::ChampSim => ChampSimSource::new(bytes).read_to_trace(),
        TraceFormat::Csv => CsvSource::new(bytes).read_to_trace(),
        TraceFormat::Jsonl => JsonlSource::new(bytes).read_to_trace(),
        TraceFormat::Compact => crate::compact::ChunkedReader::new(bytes)?.read_to_trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(Addr::new(0x1000), Addr::new(0x1040), true));
        t.push(BranchRecord::conditional(Addr::new(0x1044), Addr::new(0x1048), false));
        t.push(BranchRecord::indirect(Addr::new(0x1048), Addr::new(0x2000)));
        t.push(BranchRecord::call(Addr::new(0x2004), Addr::new(0x3000)));
        t.push(BranchRecord::ret(Addr::new(0x3008), Addr::new(0x2008)));
        t.push(BranchRecord::unconditional(Addr::new(0x2008), Addr::new(0x1000)));
        t
    }

    #[test]
    fn champsim_round_trips() {
        let mut buf = Vec::new();
        write_champsim(sample().iter(), &mut buf).unwrap();
        assert_eq!(buf.len(), sample().len() * CHAMPSIM_RECORD_BYTES);
        let mut source = ChampSimSource::new(&buf[..]);
        assert_eq!(source.read_to_trace().unwrap(), sample());
        assert_eq!(source.records_read(), sample().len() as u64);
        assert_eq!(source.bytes_read(), buf.len() as u64);
    }

    #[test]
    fn champsim_skips_non_branch_records() {
        let mut buf = Vec::new();
        // A NOT_BRANCH record: all zeros except... all zeros is exactly it.
        buf.extend_from_slice(&[0u8; CHAMPSIM_RECORD_BYTES]);
        write_champsim(sample().iter(), &mut buf).unwrap();
        assert_eq!(ChampSimSource::new(&buf[..]).read_to_trace().unwrap(), sample());
    }

    #[test]
    fn champsim_truncation_carries_offset() {
        let mut buf = Vec::new();
        write_champsim(sample().iter(), &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        match ChampSimSource::new(&buf[..]).read_to_trace().unwrap_err() {
            TraceIoError::Truncated { records_read, byte_offset } => {
                assert_eq!(records_read, sample().len() as u64 - 1);
                assert_eq!(byte_offset, (sample().len() as u64 - 1) * 18);
            }
            other => panic!("expected truncation, got {other}"),
        }
    }

    #[test]
    fn champsim_rejects_bad_taken_and_bad_type() {
        let mut buf = Vec::new();
        write_champsim(sample().iter(), &mut buf).unwrap();
        let mut bad_taken = buf.clone();
        bad_taken[16] = 7;
        assert!(matches!(
            ChampSimSource::new(&bad_taken[..]).read_to_trace().unwrap_err(),
            TraceIoError::Malformed { byte_offset: 16, .. }
        ));
        let mut bad_type = buf.clone();
        bad_type[17] = 200;
        assert!(matches!(
            ChampSimSource::new(&bad_type[..]).read_to_trace().unwrap_err(),
            TraceIoError::BadKind { code: 200, index: 0 }
        ));
        // A not-taken return is structurally impossible.
        let mut bad_invariant = buf;
        let last = sample().len() * CHAMPSIM_RECORD_BYTES - CHAMPSIM_RECORD_BYTES;
        bad_invariant[last + 16] = 0;
        bad_invariant[last + 17] = CS_RETURN;
        assert!(matches!(
            ChampSimSource::new(&bad_invariant[..]).read_to_trace().unwrap_err(),
            TraceIoError::Malformed { .. }
        ));
    }

    #[test]
    fn csv_round_trips() {
        let mut buf = Vec::new();
        write_csv(sample().iter(), &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("pc,target,kind,taken\n"));
        let mut source = CsvSource::new(&buf[..]);
        assert_eq!(source.read_to_trace().unwrap(), sample());
        assert_eq!(source.records_read(), sample().len() as u64);
        assert_eq!(source.bytes_read(), buf.len() as u64);
    }

    #[test]
    fn csv_accepts_crlf_quotes_and_blank_lines() {
        let text = "pc,target,kind,taken\r\n\
                    \r\n\
                    \"0x1000\",1040,\"cond\",1\r\n\
                    \n\
                    1044,0x1048,cond,0\n";
        let trace = CsvSource::new(text.as_bytes()).read_to_trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.records()[0].pc(), Addr::new(0x1000));
        assert_eq!(trace.records()[1].target(), Addr::new(0x1048));
        assert!(!trace.records()[1].taken());
    }

    #[test]
    fn csv_rejects_missing_or_bad_header() {
        assert!(matches!(
            CsvSource::new(&b""[..]).read_to_trace().unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("header")
        ));
        assert!(matches!(
            CsvSource::new(&b"ip,tgt,kind,taken\n"[..]).read_to_trace().unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("header")
        ));
    }

    #[test]
    fn csv_errors_name_the_line_start_offset() {
        let text = "pc,target,kind,taken\n0x10,0x20,cond,1\nzz,0x20,cond,1\n";
        let bad_line_at = "pc,target,kind,taken\n0x10,0x20,cond,1\n".len() as u64;
        match CsvSource::new(text.as_bytes()).read_to_trace().unwrap_err() {
            TraceIoError::Malformed { what, byte_offset } => {
                assert!(what.contains("zz"), "{what}");
                assert_eq!(byte_offset, bad_line_at);
            }
            other => panic!("expected malformed, got {other}"),
        }
        for bad in [
            "pc,target,kind,taken\n0x10,0x20,cond\n",         // 3 fields
            "pc,target,kind,taken\n0x10,0x20,cond,1,extra\n", // 5 fields
            "pc,target,kind,taken\n0x10,0x20,bogus,1\n",      // bad kind
            "pc,target,kind,taken\n0x10,0x20,cond,yes\n",     // bad taken
            "pc,target,kind,taken\n0x10,0x20,ret,0\n",        // not-taken ret
            "pc,target,kind,taken\n\"0x10,0x20,cond,1\n",     // unterminated quote
            "pc,target,kind,taken\n0x\"10\",0x20,cond,1\n",   // stray quote
            "pc,target,kind,taken\n\"0x10\"x,0x20,cond,1\n",  // junk after quote
        ] {
            assert!(
                matches!(
                    CsvSource::new(bad.as_bytes()).read_to_trace().unwrap_err(),
                    TraceIoError::Malformed { .. }
                ),
                "input {bad:?} must be rejected as malformed"
            );
        }
    }

    #[test]
    fn csv_quoted_escape_round_trips() {
        let fields = split_csv_fields("\"a\"\"b\",plain,\"c,d\"").unwrap();
        assert_eq!(fields, vec!["a\"b".to_string(), "plain".to_string(), "c,d".to_string()]);
        assert_eq!(split_csv_fields("").unwrap(), vec![String::new()]);
        assert_eq!(split_csv_fields("a,").unwrap(), vec!["a".to_string(), String::new()]);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut buf = Vec::new();
        write_jsonl(sample().iter(), &mut buf).unwrap();
        let mut source = JsonlSource::new(&buf[..]);
        assert_eq!(source.read_to_trace().unwrap(), sample());
        assert_eq!(source.records_read(), sample().len() as u64);
        assert_eq!(source.bytes_read(), buf.len() as u64);
    }

    #[test]
    fn jsonl_errors_carry_offsets() {
        let good = "{\"pc\":16,\"target\":32,\"kind\":\"cond\",\"taken\":true}\n";
        // Invalid JSON on line 2: offset is line start + intra-line offset.
        let text = format!("{good}{{\"pc\":16,");
        match JsonlSource::new(text.as_bytes()).read_to_trace().unwrap_err() {
            TraceIoError::Malformed { what, byte_offset } => {
                assert!(what.contains("invalid JSON"), "{what}");
                assert!(byte_offset >= good.len() as u64);
            }
            other => panic!("expected malformed, got {other}"),
        }
        for bad in [
            "{\"target\":32,\"kind\":\"cond\",\"taken\":true}\n", // missing pc
            "{\"pc\":-4,\"target\":32,\"kind\":\"cond\",\"taken\":true}\n", // negative pc
            "{\"pc\":16,\"target\":32,\"kind\":\"huge\",\"taken\":true}\n", // bad kind
            "{\"pc\":16,\"target\":32,\"kind\":\"cond\",\"taken\":1}\n", // non-bool taken
            "{\"pc\":16,\"target\":32,\"kind\":\"ret\",\"taken\":false}\n", // not-taken ret
            "[1,2,3]\n",                                          // not an object
        ] {
            assert!(
                matches!(
                    JsonlSource::new(bad.as_bytes()).read_to_trace().unwrap_err(),
                    TraceIoError::Malformed { .. }
                ),
                "input {bad:?} must be rejected as malformed"
            );
        }
    }

    #[test]
    fn jsonl_skips_blank_lines_and_accepts_empty_input() {
        assert_eq!(JsonlSource::new(&b""[..]).read_to_trace().unwrap(), Trace::new());
        let text = "\n  \n{\"pc\":16,\"target\":32,\"kind\":\"cond\",\"taken\":true}\n\n";
        assert_eq!(JsonlSource::new(text.as_bytes()).read_to_trace().unwrap().len(), 1);
    }

    #[test]
    fn format_names_and_extensions_round_trip() {
        for format in TraceFormat::ALL {
            assert_eq!(TraceFormat::from_name(format.name()), Some(format));
            assert_eq!(format.to_string(), format.name());
        }
        assert_eq!(TraceFormat::from_name("xml"), None);
        assert_eq!(TraceFormat::from_path(Path::new("a/t.champsim")), Some(TraceFormat::ChampSim));
        assert_eq!(TraceFormat::from_path(Path::new("t.bin")), Some(TraceFormat::ChampSim));
        assert_eq!(TraceFormat::from_path(Path::new("t.csv")), Some(TraceFormat::Csv));
        assert_eq!(TraceFormat::from_path(Path::new("t.jsonl")), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::from_path(Path::new("t.vlpc")), Some(TraceFormat::Compact));
        assert_eq!(TraceFormat::from_path(Path::new("t.txt")), None);
        assert_eq!(TraceFormat::from_path(Path::new("noext")), None);
    }

    #[test]
    fn open_source_and_parse_trace_cover_every_format() {
        let mut compact = Vec::new();
        crate::compact::copy_to_chunked(
            &mut crate::source::MemorySource::new(sample()),
            &mut compact,
            4,
        )
        .unwrap();
        let mut champsim = Vec::new();
        write_champsim(sample().iter(), &mut champsim).unwrap();
        let mut csv = Vec::new();
        write_csv(sample().iter(), &mut csv).unwrap();
        let mut jsonl = Vec::new();
        write_jsonl(sample().iter(), &mut jsonl).unwrap();
        for (format, bytes) in [
            (TraceFormat::ChampSim, champsim),
            (TraceFormat::Csv, csv),
            (TraceFormat::Jsonl, jsonl),
            (TraceFormat::Compact, compact),
        ] {
            let mut source = open_source(format, std::io::Cursor::new(bytes.clone())).unwrap();
            assert_eq!(source.read_to_trace().unwrap(), sample(), "format {format}");
            assert_eq!(parse_trace(format, &bytes).unwrap(), sample(), "format {format}");
        }
    }
}
