//! Incremental fleet observability: per-cell stream records and sinks.
//!
//! A long experiment grid is opaque until it finishes — this module makes
//! progress observable *while it runs*. As each cell completes, the engine
//! builds a [`CellRecord`] (identity, deterministic run results, a merged
//! metric snapshot, and host wall time) and emits it to a [`StreamSink`]:
//! [`JsonlSink`] appends one JSON object per line to a writer (tailable
//! with standard tools), [`MemorySink`] retains records in memory for
//! tests and in-process consumers.
//!
//! ## Ordering contract
//!
//! Records are emitted in *completion* order, which under N worker
//! threads is nondeterministic. [`StampedSink`] therefore assigns each
//! record a monotone `seq` **under the same lock that serializes the
//! emit**, so the stream's physical order always matches its `seq` order.
//! The deterministic replay guarantee is: sort any N-thread stream by
//! cell `index` and its deterministic fields (everything except `seq`,
//! `wall_seconds`, and `elapsed_seconds`; see
//! [`CellRecord::deterministic_eq`]) are byte-identical to a 1-thread
//! run's stream, which completes cells in index order already. Pinned by
//! `tests/observability.rs`.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// One completed experiment-grid cell, as streamed to a [`StreamSink`].
///
/// Plain data only (no simulator types): the record is the wire format,
/// so it must be constructible from a parsed JSONL line alone.
///
/// `seq`, `wall_seconds`, and `elapsed_seconds` are host-side and
/// **nondeterministic** across thread counts; every other field is a
/// deterministic function of the cell's configuration.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CellRecord {
    /// Monotone completion stamp (0-based) assigned at emit time.
    pub seq: u64,
    /// The cell's index in grid order (workload-major).
    pub index: usize,
    /// Human-readable cell label, e.g. `gcc/pid`.
    pub label: String,
    /// Workload (benchmark) name.
    pub bench: String,
    /// DTM policy name.
    pub policy: String,
    /// Simulation variant, e.g. `single` or `chip4+sup`.
    pub variant: String,
    /// Host wall-clock seconds the cell took (nondeterministic).
    pub wall_seconds: f64,
    /// Host wall-clock seconds from grid start to this record's emission,
    /// stamped by [`StampedSink`] under the emit lock — monotone
    /// nondecreasing along the stream, so the last record's value is the
    /// grid's total wall time (nondeterministic). `0.0` when the stream
    /// predates the field or was built without a stamping sink.
    pub elapsed_seconds: f64,
    /// Thermal solver steps taken.
    pub thermal_steps: u64,
    /// Instructions committed.
    pub committed: u64,
    /// DTM controller samples taken.
    pub dtm_samples: u64,
    /// Committed instructions per simulated cycle.
    pub ipc: f64,
    /// Cycles any block spent above the emergency threshold (chip-wide
    /// for multicore cells).
    pub emergency_cycles: u64,
    /// Cycles any block spent above the stress threshold.
    pub stress_cycles: u64,
    /// Name of the block with the highest peak temperature.
    pub hottest_block: String,
    /// That block's peak temperature (°C).
    pub hottest_temp_c: f64,
    /// Merged per-cell counter snapshot, in registry (schema) order.
    pub metrics: Vec<(String, u64)>,
    /// Result-cache provenance: `None` when the grid ran without a cache
    /// (the field is omitted from JSON, keeping legacy streams
    /// byte-identical), `Some(false)` for a freshly simulated cell, and
    /// `Some(true)` for a cell replayed from the content-addressed cache.
    /// Host-side provenance, not simulation output — excluded from
    /// [`deterministic_eq`](CellRecord::deterministic_eq).
    pub cached: Option<bool>,
}

impl CellRecord {
    /// Compares the deterministic fields only — everything except `seq`,
    /// `wall_seconds`, and `elapsed_seconds`, which are host-side and
    /// vary across thread counts and machines. This is the equality the
    /// stream-determinism pin uses; see the module docs for the contract.
    pub fn deterministic_eq(&self, other: &CellRecord) -> bool {
        self.index == other.index
            && self.label == other.label
            && self.bench == other.bench
            && self.policy == other.policy
            && self.variant == other.variant
            && self.thermal_steps == other.thermal_steps
            && self.committed == other.committed
            && self.dtm_samples == other.dtm_samples
            && self.ipc.to_bits() == other.ipc.to_bits()
            && self.emergency_cycles == other.emergency_cycles
            && self.stress_cycles == other.stress_cycles
            && self.hottest_block == other.hottest_block
            && self.hottest_temp_c.to_bits() == other.hottest_temp_c.to_bits()
            && self.metrics == other.metrics
    }

    /// One JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"seq\":{},\"index\":{},\"label\":{},\"bench\":{},\"policy\":{},\"variant\":{},\
             \"wall_seconds\":{},\"elapsed_seconds\":{},\"thermal_steps\":{},\"committed\":{},\"dtm_samples\":{},\
             \"ipc\":{},\"emergency_cycles\":{},\"stress_cycles\":{},\"hottest_block\":{},\
             \"hottest_temp_c\":{}",
            self.seq,
            self.index,
            json_str(&self.label),
            json_str(&self.bench),
            json_str(&self.policy),
            json_str(&self.variant),
            json_f64(self.wall_seconds),
            json_f64(self.elapsed_seconds),
            self.thermal_steps,
            self.committed,
            self.dtm_samples,
            json_f64(self.ipc),
            self.emergency_cycles,
            self.stress_cycles,
            json_str(&self.hottest_block),
            json_f64(self.hottest_temp_c),
        );
        // Emitted only when a cache was in play: cache-off streams stay
        // byte-identical to streams written before the field existed.
        if let Some(cached) = self.cached {
            let _ = write!(s, ",\"cached\":{cached}");
        }
        s.push_str(",\"metrics\":{");
        for (i, (name, count)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(name), count);
        }
        s.push_str("}}");
        s
    }

    /// Parses one JSON object produced by [`to_json`](CellRecord::to_json).
    ///
    /// Unknown keys are ignored (forward compatibility); missing keys keep
    /// their [`Default`] value. Errors on malformed JSON or a field of the
    /// wrong type.
    pub fn from_json(line: &str) -> Result<CellRecord, String> {
        CellRecord::from_value(&json::parse(line)?)
    }

    /// Builds a record from an already-parsed [`json::Value`] — the hook
    /// for container formats that embed a record inside a larger object
    /// (e.g. the result cache's on-disk artifact entries). Same rules as
    /// [`from_json`](CellRecord::from_json).
    pub fn from_value(value: &json::Value) -> Result<CellRecord, String> {
        let obj = value.as_object().ok_or("top level is not an object")?;
        let mut r = CellRecord::default();
        for (key, v) in obj {
            match key.as_str() {
                "seq" => r.seq = v.as_u64().ok_or("seq: not a u64")?,
                "index" => r.index = v.as_u64().ok_or("index: not a u64")? as usize,
                "label" => r.label = v.as_str().ok_or("label: not a string")?.to_string(),
                "bench" => r.bench = v.as_str().ok_or("bench: not a string")?.to_string(),
                "policy" => r.policy = v.as_str().ok_or("policy: not a string")?.to_string(),
                "variant" => r.variant = v.as_str().ok_or("variant: not a string")?.to_string(),
                "wall_seconds" => r.wall_seconds = v.as_f64().ok_or("wall_seconds: not a number")?,
                "elapsed_seconds" => {
                    r.elapsed_seconds = v.as_f64().ok_or("elapsed_seconds: not a number")?
                }
                "thermal_steps" => {
                    r.thermal_steps = v.as_u64().ok_or("thermal_steps: not a u64")?
                }
                "committed" => r.committed = v.as_u64().ok_or("committed: not a u64")?,
                "dtm_samples" => r.dtm_samples = v.as_u64().ok_or("dtm_samples: not a u64")?,
                "ipc" => r.ipc = v.as_f64().ok_or("ipc: not a number")?,
                "emergency_cycles" => {
                    r.emergency_cycles = v.as_u64().ok_or("emergency_cycles: not a u64")?
                }
                "stress_cycles" => {
                    r.stress_cycles = v.as_u64().ok_or("stress_cycles: not a u64")?
                }
                "hottest_block" => {
                    r.hottest_block = v.as_str().ok_or("hottest_block: not a string")?.to_string()
                }
                "hottest_temp_c" => {
                    r.hottest_temp_c = v.as_f64().ok_or("hottest_temp_c: not a number")?
                }
                "cached" => r.cached = Some(v.as_bool().ok_or("cached: not a bool")?),
                "metrics" => {
                    let m = v.as_object().ok_or("metrics: not an object")?;
                    r.metrics = m
                        .iter()
                        .map(|(name, count)| {
                            count
                                .as_u64()
                                .map(|c| (name.clone(), c))
                                .ok_or_else(|| format!("metrics.{name}: not a u64"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                _ => {} // forward compatibility
            }
        }
        Ok(r)
    }

    /// Parses a whole JSONL stream (blank lines skipped), in file order.
    pub fn parse_jsonl(text: &str) -> Result<Vec<CellRecord>, String> {
        text.lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .map(|(i, l)| {
                CellRecord::from_json(l).map_err(|e| format!("line {}: {e}", i + 1))
            })
            .collect()
    }
}

/// JSON string literal with the escapes our labels can contain. Public so
/// other crates' artifact serializers (e.g. the result cache in
/// `tdtm-core`) share one escaping convention with the stream format.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON-safe float formatting (JSON has no NaN/Infinity literals).
/// Finite values use Rust's shortest round-trip rendering, so parsing the
/// emitted literal recovers the exact bit pattern; non-finite values
/// become `null`, which [`json::Value::as_f64`] reads back as NaN.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Minimal recursive-descent parser for the JSON subset this crate emits:
/// objects, arrays, strings, numbers, booleans, null. No external
/// dependencies — the workspace is std-only and offline. Public so other
/// crates' artifact formats (e.g. the `tdtm-core` result cache) can
/// parse without a second JSON implementation.
pub mod json {
    /// Parsed JSON value (subset; arrays are accepted but only as opaque
    /// nesting — the stream format does not use them).
    #[derive(Clone, PartialEq, Debug)]
    pub enum Value {
        Null,
        Bool(bool),
        /// A number literal with a sign, fraction or exponent, or an
        /// integer past `u64::MAX`.
        Num(f64),
        /// An unsigned integer literal that fits a `u64`, kept exact
        /// (an `f64` would round counters above 2^53).
        Int(u64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The object's key/value pairs, in source order.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }

        /// The array's items, in source order.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The string's contents.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// A boolean literal.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// A number; `null` reads as NaN (the emit side writes non-finite
        /// floats as `null`).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                Value::Int(n) => Some(*n as f64),
                // to_json writes non-finite floats as null.
                Value::Null => Some(f64::NAN),
                _ => None,
            }
        }

        /// An unsigned integer literal (no sign, fraction or exponent)
        /// that fits a `u64`, exactly.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Deepest array/object nesting [`parse`] accepts. The parser is
    /// recursive, so unbounded nesting (a corrupt cache entry of `[[[[…`)
    /// would overflow the stack; the stream and cache formats nest three
    /// levels deep.
    pub(crate) const MAX_DEPTH: usize = 64;

    /// Parses one complete JSON value; trailing input is an error, and so
    /// is nesting deeper than 64 arrays and objects.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(b, pos);
        let open = matches!(b.get(*pos), Some(b'{' | b'['));
        if open && depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos));
        }
        match b.get(*pos) {
            Some(b'{') => object(b, pos, depth + 1),
            Some(b'[') => array(b, pos, depth + 1),
            Some(b'"') => string(b, pos).map(Value::Str),
            Some(b't') => literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => literal(b, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            Some(c) => Err(format!("unexpected byte {c:#x} at {pos}", pos = *pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}", pos = *pos))
        }
    }

    fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        *pos += 1; // '{'
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}", pos = *pos));
            }
            *pos += 1;
            fields.push((key, value(b, pos, depth)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        *pos += 1; // '['
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos, depth)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign (`\u+041`).
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or("\\u escape needs four hex digits")?;
                            let hex = std::str::from_utf8(hex).expect("ASCII hex digits");
                            let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                    }
                    *pos += 1;
                }
                Some(&lead) => {
                    // Consume one UTF-8 scalar. The input is a &str and
                    // `pos` sits on a char boundary, so the lead byte
                    // gives the scalar's length; decoding just those
                    // bytes keeps a long string linear.
                    let len = match lead {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let scalar = b.get(*pos..*pos + len).ok_or("truncated UTF-8 scalar")?;
                    out.push_str(std::str::from_utf8(scalar).map_err(|e| e.to_string())?);
                    *pos += len;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len()
            && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

/// A consumer of completed-cell records. Implementations must be [`Send`]
/// so one sink (behind [`StampedSink`]'s lock) can serve all grid worker
/// threads.
pub trait StreamSink: Send {
    /// Accepts one completed cell. Called in completion order with the
    /// record's `seq` already assigned.
    fn emit(&mut self, record: &CellRecord);
}

/// Retains every emitted record in memory (tests, in-process consumers).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Emitted records, in emit (= `seq`) order.
    pub records: Vec<CellRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }
}

impl StreamSink for MemorySink {
    fn emit(&mut self, record: &CellRecord) {
        self.records.push(record.clone());
    }
}

/// Appends one JSON object per line to a writer, flushing after each
/// record so a tailing consumer sees cells as they complete.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) `path` and streams records into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink<BufWriter<File>>> {
        Ok(JsonlSink { writer: BufWriter::new(File::create(path)?) })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Streams records into an arbitrary writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink { writer }
    }

    /// Consumes the sink and returns the writer (e.g. to inspect an
    /// in-memory `Vec<u8>` buffer).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write + Send> StreamSink for JsonlSink<W> {
    fn emit(&mut self, record: &CellRecord) {
        // Stream sinks are observability, not ground truth: an I/O error
        // must not abort the science run, so it is reported and the run
        // continues (matching how figure binaries treat stdout).
        if let Err(e) = writeln!(self.writer, "{}", record.to_json()).and_then(|()| self.writer.flush())
        {
            eprintln!("stream sink write failed: {e}");
        }
    }
}

/// Serializes concurrent emits and assigns each record its monotone
/// `seq` stamp *under the same lock*, so the sink's physical order always
/// equals `seq` order even when N worker threads race to emit. The same
/// lock stamps `elapsed_seconds` (time since the sink was created, i.e.
/// grid start), which is therefore monotone nondecreasing along the
/// stream.
pub struct StampedSink<'a> {
    inner: Mutex<StampState<'a>>,
    started: std::time::Instant,
}

struct StampState<'a> {
    next: u64,
    sink: &'a mut dyn StreamSink,
}

impl<'a> StampedSink<'a> {
    /// Wraps a sink; stamps start at 0 and the elapsed clock starts now.
    pub fn new(sink: &'a mut dyn StreamSink) -> StampedSink<'a> {
        StampedSink {
            inner: Mutex::new(StampState { next: 0, sink }),
            started: std::time::Instant::now(),
        }
    }

    /// Stamps `record.seq` and `record.elapsed_seconds` and forwards the
    /// record to the wrapped sink, atomically. Returns the assigned stamp.
    pub fn emit(&self, record: &mut CellRecord) -> u64 {
        let mut st = self.inner.lock().expect("stream sink lock poisoned");
        record.seq = st.next;
        record.elapsed_seconds = self.started.elapsed().as_secs_f64();
        st.next += 1;
        st.sink.emit(record);
        record.seq
    }

    /// Number of records emitted so far.
    pub fn emitted(&self) -> u64 {
        self.inner.lock().expect("stream sink lock poisoned").next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: usize) -> CellRecord {
        CellRecord {
            seq: 0,
            index,
            label: format!("gcc/pid#{index}"),
            bench: "gcc".to_string(),
            policy: "pid".to_string(),
            variant: "single".to_string(),
            wall_seconds: 0.25,
            elapsed_seconds: 0.75,
            thermal_steps: 1200,
            committed: 120_000,
            dtm_samples: 12,
            ipc: 0.8125,
            emergency_cycles: 40,
            stress_cycles: 380,
            hottest_block: "IntReg".to_string(),
            hottest_temp_c: 112.625,
            metrics: vec![("sim_runs".to_string(), 1), ("cycles".to_string(), 147_692)],
            cached: None,
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let bomb = "[".repeat(200_000);
        assert!(json::parse(&bomb).is_err());
        assert!(CellRecord::from_json(&"{\"a\":".repeat(100_000)).is_err());
        let at_cap = format!("{}{}", "[".repeat(json::MAX_DEPTH), "]".repeat(json::MAX_DEPTH));
        assert!(json::parse(&at_cap).is_ok(), "nesting up to the cap parses");
        let past_cap = format!("[{at_cap}]");
        assert!(json::parse(&past_cap).is_err(), "one level past the cap is rejected");
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        assert_eq!(json::parse(r#""\u0041""#), Ok(json::Value::Str("A".to_string())));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004""#, r#""\u00g1""#] {
            assert!(json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn as_u64_rejects_two_to_the_64() {
        assert_eq!(json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(json::parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(json::parse("9007199254740993").unwrap().as_u64(), Some((1 << 53) + 1));
        assert_eq!(json::parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        for not_a_count in ["-1", "1.0", "1e3", "-0"] {
            assert_eq!(json::parse(not_a_count).unwrap().as_u64(), None, "{not_a_count}");
        }
        assert_eq!(json::parse("9007199254740993").unwrap().as_f64(), Some(9007199254740992.0));
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample(3);
        let parsed = CellRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn roundtrip_with_escapes_and_nonfinite() {
        let mut r = sample(0);
        r.label = "odd \"label\"\\with\nescapes".to_string();
        r.wall_seconds = f64::NAN; // non-finite → null → NaN
        let parsed = CellRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.label, r.label);
        assert!(parsed.wall_seconds.is_nan());
        assert!(parsed.deterministic_eq(&r), "NaN wall time must not break det-eq");
    }

    #[test]
    fn deterministic_eq_ignores_seq_and_wall() {
        let a = sample(1);
        let mut b = sample(1);
        b.seq = 99;
        b.wall_seconds = 123.0;
        b.elapsed_seconds = 456.0;
        assert!(a.deterministic_eq(&b));
        assert_ne!(a, b, "full equality still sees the host-side fields");
        b.committed += 1;
        assert!(!a.deterministic_eq(&b));
    }

    #[test]
    fn cached_field_is_omitted_when_none_and_roundtrips_when_some() {
        let r = sample(2);
        assert!(!r.to_json().contains("\"cached\""), "None must keep legacy wire format");
        assert_eq!(CellRecord::from_json(&r.to_json()).unwrap().cached, None);
        for flag in [false, true] {
            let mut c = sample(2);
            c.cached = Some(flag);
            let line = c.to_json();
            assert!(line.contains(&format!("\"cached\":{flag}")), "line: {line}");
            let parsed = CellRecord::from_json(&line).unwrap();
            assert_eq!(parsed, c);
        }
    }

    #[test]
    fn deterministic_eq_ignores_cache_provenance() {
        let a = sample(4);
        let mut b = sample(4);
        b.cached = Some(true);
        assert!(a.deterministic_eq(&b), "a cache hit replays the same deterministic cell");
        assert_ne!(a, b, "full equality still sees provenance");
    }

    #[test]
    fn unknown_keys_ignored_and_missing_keys_default() {
        let r =
            CellRecord::from_json("{\"index\":7,\"future_field\":\"x\",\"metrics\":{}}").unwrap();
        assert_eq!(r.index, 7);
        assert_eq!(r.committed, 0);
        assert!(r.metrics.is_empty());
    }

    #[test]
    fn malformed_lines_error_with_line_number() {
        let text = format!("{}\nnot json\n", sample(0).to_json());
        let err = CellRecord::parse_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "err: {err}");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record_and_parses_back() {
        let mut sink = JsonlSink::new(Vec::new());
        for i in 0..3 {
            let mut r = sample(i);
            r.seq = i as u64;
            sink.emit(&r);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let parsed = CellRecord::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[2].index, 2);
    }

    #[test]
    fn stamped_sink_orders_seq_with_physical_order() {
        let mut mem = MemorySink::new();
        {
            let stamped = StampedSink::new(&mut mem);
            // Emit out of index order, as a racing pool would.
            for index in [2usize, 0, 1] {
                let mut r = sample(index);
                stamped.emit(&mut r);
            }
            assert_eq!(stamped.emitted(), 3);
        }
        let seqs: Vec<u64> = mem.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "physical order == seq order");
        let mut sorted = mem.records.clone();
        sorted.sort_by_key(|r| r.index);
        assert_eq!(sorted[0].index, 0);
    }

    #[test]
    fn stamped_sink_is_shareable_across_threads() {
        let mut mem = MemorySink::new();
        {
            let stamped = StampedSink::new(&mut mem);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let stamped = &stamped;
                    scope.spawn(move || {
                        for i in 0..8 {
                            let mut r = sample(t * 8 + i);
                            stamped.emit(&mut r);
                        }
                    });
                }
            });
        }
        assert_eq!(mem.records.len(), 32);
        let seqs: Vec<u64> = mem.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..32).collect::<Vec<u64>>());
        let mut indices: Vec<usize> = mem.records.iter().map(|r| r.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..32).collect::<Vec<usize>>());
    }
}
