//! Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and
//! line-delimited JSON for programmatic consumers.
//!
//! Both serializers are hand-rolled over integer fields with fixed key
//! order and iterate a [`TraceSnapshot`] (whose tracks and events are
//! already canonically sorted), so the output is byte-deterministic
//! for a given seed regardless of `ICKPT_BENCH_THREADS`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::ops::Range;
use std::sync::Arc;

use ickpt_sim::{SimDuration, SimTime};

use crate::event::{push_u64, CaptureKind, Event, Lane, RecoveryTier, TimedEvent};
use crate::log::TraceSnapshot;

/// Append a Chrome-trace timestamp: microseconds with nanosecond
/// precision, rendered with integer math (`f64` formatting would be a
/// determinism hazard across platforms).
fn write_us(out: &mut String, ns: u64) {
    push_u64(out, ns / 1_000);
    out.push('.');
    for place in [100, 10, 1] {
        out.push(char::from(b'0' + (ns / place % 10) as u8));
    }
}

/// Escape a string for embedding in a JSON string literal. Track and
/// group names are ASCII identifiers in practice; this keeps the
/// exporter correct if a caller names a group creatively.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Serialize a snapshot in Chrome trace-event format. Open the result
/// in <https://ui.perfetto.dev> (or `chrome://tracing`): one process
/// per run group, one thread track per rank/device/drain lane, with
/// virtual nanoseconds on the time axis (shown as µs).
pub fn chrome_trace(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("\n ");
    };

    // Metadata: name each process (run group) and thread (lane), and
    // pin the display order to lane order. Once per track, so `write!`
    // is fine here; the per-event loop below does without it.
    let mut groups_seen: Vec<u32> = Vec::new();
    for (key, _, _) in &snap.tracks {
        if !groups_seen.contains(&key.group) {
            groups_seen.push(key.group);
        }
    }
    groups_seen.sort_unstable();
    for group in &groups_seen {
        let pid = group + 1;
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\""
        );
        escape_into(&mut out, &snap.group_name(*group));
        out.push_str("\"}}");
    }
    for (sort_index, (key, _, _)) in snap.tracks.iter().enumerate() {
        let pid = key.group + 1;
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            key.lane.tid(),
            key.lane.label()
        );
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"sort_index\":{sort_index}}}}}",
            key.lane.tid()
        );
    }

    // `,"pid":P,"tid":T,"args":` is the same for a whole track.
    for (key, events, _) in &snap.tracks {
        let ids = format!(",\"pid\":{},\"tid\":{},\"args\":", key.group + 1, key.lane.tid());
        for ev in events {
            push_sep(&mut out, &mut first);
            out.push_str("{\"name\":\"");
            out.push_str(ev.event.name());
            if ev.dur.0 > 0 {
                out.push_str("\",\"cat\":\"ickpt\",\"ph\":\"X\",\"ts\":");
                write_us(&mut out, ev.ts.0);
                out.push_str(",\"dur\":");
                write_us(&mut out, ev.dur.0);
            } else {
                out.push_str("\",\"cat\":\"ickpt\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                write_us(&mut out, ev.ts.0);
            }
            out.push_str(&ids);
            ev.event.write_args(&mut out);
            out.push('}');
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Serialize a snapshot as JSONL: one event per line with fixed keys
/// `run`, `track`, `ts`, `dur`, `name`, `args` (virtual nanoseconds).
/// Tracks appear in canonical order; within a track, events are
/// time-ordered.
pub fn jsonl(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(64 * 1024);
    for (key, events, _) in &snap.tracks {
        // `{"run":"R","track":"T","ts":` is the same for a whole track.
        let mut head = String::from("{\"run\":\"");
        escape_into(&mut head, &snap.group_name(key.group));
        let _ = write!(head, "\",\"track\":\"{}\",\"ts\":", key.lane.label());
        for ev in events {
            out.push_str(&head);
            push_u64(&mut out, ev.ts.0);
            out.push_str(",\"dur\":");
            push_u64(&mut out, ev.dur.0);
            out.push_str(",\"name\":\"");
            out.push_str(ev.event.name());
            out.push_str("\",\"args\":");
            ev.event.write_args(&mut out);
            out.push_str("}\n");
        }
    }
    out
}

/// One event read back from a JSONL export. `run`, `track` and `name`
/// are shared with every event of the same [`parse_jsonl`] call that
/// carries the same string, and the arguments sit in one text that
/// call shares, so an event owns no allocation of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Run group name.
    pub run: Arc<str>,
    /// Track label (`rank0`, `dev:local:3`, `drain`, `run`).
    pub track: Arc<str>,
    /// Virtual start, ns.
    pub ts: u64,
    /// Virtual extent, ns (0 = instant).
    pub dur: u64,
    /// Event-type token.
    pub name: Arc<str>,
    /// Its `args` members; [`ParsedEvent::arg`] decodes one when asked.
    args: Args,
}

/// One event's `args` object members as the line wrote them, braces
/// dropped (`"k":v,…`), checked by [`parse_jsonl`]: a span of the text
/// every event of that call shares.
#[derive(Clone)]
struct Args {
    /// `None` only while [`parse_jsonl`] is still reading lines.
    text: Option<Arc<String>>,
    span: Range<usize>,
}

impl Args {
    fn as_str(&self) -> &str {
        self.text.as_ref().map_or("", |text| &text[self.span.clone()])
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Args {}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// `fields!(parsed, Variant { a, b })`: the event whose integer fields
/// are the arguments of the same names ([`Event::write_args`] names
/// them that way); `None` when one is missing or out of range.
macro_rules! fields {
    ($parsed:ident, $variant:ident { $($field:ident),+ }) => {
        Event::$variant { $($field: $parsed.arg_u64(stringify!($field))?.try_into().ok()?),+ }
    };
}

impl ParsedEvent {
    /// Value of argument `key`, if present: a string's decoded body, or
    /// an integer's digits without leading zeros (`007` reads as `7`).
    pub fn arg(&self, key: &str) -> Option<Cow<'_, str>> {
        let mut p = Cursor { s: self.args.as_str(), i: 0 };
        while p.peek().is_some() {
            if p.i > 0 {
                p.expect(b',').ok()?;
            }
            let k = p.text().ok()?;
            p.expect(b':').ok()?;
            let v = p.value().ok()?;
            if k == key {
                return Some(v);
            }
        }
        None
    }

    /// Integer value of argument `key`, if present and numeric.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.arg(key)?.parse().ok()
    }

    /// Rebuild the typed `(lane, timed event)` this line serialized,
    /// so a JSONL export can be replayed into a
    /// [`MetricsPlane`](crate::MetricsPlane) or summary after the
    /// fact (`inspect --metrics`). Events whose payload holds a
    /// `&'static str` (`counter`, `slo_breach`) and unknown names
    /// return `None` — post-hoc metrics skip them.
    pub fn to_timed(&self) -> Option<(Lane, TimedEvent)> {
        let lane = Lane::parse(&self.track)?;
        let event = match &*self.name {
            "run_start" => fields!(self, RunStart { ranks }),
            "iteration" => fields!(self, IterationBoundary { iteration }),
            "tracker_window" => {
                fields!(self, TrackerWindow { index, iws_pages, footprint_pages, faults })
            }
            "capture" => Event::Capture {
                kind: CaptureKind::parse(&self.arg("kind")?)?,
                generation: self.arg_u64("generation")?,
                pages: self.arg_u64("pages")?,
                payload_bytes: self.arg_u64("payload_bytes")?,
            },
            "dedup_skip" => fields!(self, DedupSkip { generation, pages, bytes_saved }),
            "delta_encode" => fields!(self, DeltaEncode { generation, pages, blocks, bytes_saved }),
            "ckpt_stall" => fields!(self, CheckpointStall { generation }),
            "commit" => fields!(self, CommitBarrier { generation }),
            "chunk_put" => fields!(self, ChunkPut { generation, bytes, queue_wait_ns, service_ns }),
            "chunk_get" => fields!(self, ChunkGet { generation, bytes, queue_wait_ns, service_ns }),
            "manifest_put" => fields!(self, ManifestPut { generation, bytes }),
            "transfer" => fields!(self, DeviceTransfer { bytes, queue_wait_ns, service_ns }),
            "publish" => fields!(self, RedundancyPublish { generation, bytes }),
            "reconstruct" => fields!(self, RedundancyReconstruct { generation, pieces, bytes }),
            "drain_batch" => fields!(self, DrainBatch { generations, chunks, bytes }),
            "drain_depth" => fields!(self, DrainQueueDepth { depth }),
            "drain_torn" => fields!(self, DrainTorn { generations, bytes }),
            "admit" => fields!(self, AdmissionGrant { tenant, bytes, chunks }),
            "reject" => fields!(self, AdmissionReject { tenant, bytes, retry_ns }),
            "tenant_stall" => fields!(self, TenantStall { tenant, bytes }),
            "recovery_read" => Event::RecoveryRead {
                tier: RecoveryTier::parse(&self.arg("tier")?)?,
                bytes: self.arg_u64("bytes")?,
            },
            "recovery_plan" => Event::RecoveryPlan {
                rank: self.arg_u64("rank")?.try_into().ok()?,
                tier: RecoveryTier::parse(&self.arg("tier")?)?,
                generation: self.arg_u64("generation")?,
            },
            "restore" => fields!(self, Restore { generation, chain, pages, bytes }),
            "failure" => fields!(self, Failure { rank, node_loss }),
            _ => return None,
        };
        Some((lane, TimedEvent { ts: SimTime(self.ts), dur: SimDuration(self.dur), event }))
    }
}

/// Parse the exporter's own JSONL back into events — enough JSON for
/// `inspect --trace` and the test suite without a serde dependency.
///
/// Accepts exactly the flat shape [`jsonl`] writes: one object per
/// line with the keys `run`, `track`, `ts`, `dur`, `name` and `args`,
/// each once and in that order, and nothing after its closing brace;
/// no whitespace inside it; strings with the escapes `jsonl` writes
/// (`\"`, `\\`, `\n`, `\r`, `\t` and `\uXXXX` for one scalar value) and
/// no raw control byte; unsigned 64-bit integers, leading zeros
/// allowed; `args` members in any order, each a string or such an
/// integer, no key twice. Blank lines are skipped. The first line that
/// breaks a rule is the error, numbered from 1.
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedEvent>, String> {
    let mut out = Vec::with_capacity(text.matches('\n').count() + 1);
    // The arguments are a part of the text, so its length bounds theirs:
    // one reservation, of which only the part written is ever touched.
    let mut lines = LineParser { args: String::with_capacity(text.len()), ..Default::default() };
    // One pass over the whole text: the cursor ends each line at its
    // `\n`, which no object can hold, so there is no split before it.
    let mut p = Cursor { s: text, i: 0 };
    for lineno in 1.. {
        let start = p.skip_blanks();
        if p.peek().is_some() {
            let event = lines.parse(&mut p).and_then(|event| {
                p.skip_blanks();
                match p.peek() {
                    None => Ok(event),
                    Some(_) => {
                        Err(format!("trailing bytes after the object at byte {}", p.i - start))
                    }
                }
            });
            out.push(event.map_err(|e| format!("line {lineno}: {e}"))?);
        }
        if p.i == text.len() {
            break;
        }
        p.i += 1; // '\n'
    }
    lines.args.shrink_to_fit();
    let args = Arc::new(lines.args);
    for ev in &mut out {
        ev.args.text = Some(args.clone());
    }
    Ok(out)
}

/// One shared string per distinct spelling, keyed by the body as the
/// line wrote it, so a repeat is neither decoded nor copied. JSONL
/// groups lines by track, and a track's events use a few names, so the
/// last few spellings answer most lookups without hashing.
#[derive(Default)]
struct Interner<'a> {
    recent: Vec<(&'a str, Arc<str>)>,
    /// The `recent` slot the next miss replaces.
    evict: usize,
    seen: HashMap<&'a str, Arc<str>>,
}

impl<'a> Interner<'a> {
    const RECENT: usize = 8;

    fn get(&mut self, raw: &'a str) -> Result<Arc<str>, String> {
        if let Some((_, shared)) = self.recent.iter().find(|(seen, _)| *seen == raw) {
            return Ok(shared.clone());
        }
        let shared = match self.seen.get(raw) {
            Some(shared) => shared.clone(),
            None => {
                let shared: Arc<str> = unescape(raw)?.into();
                self.seen.insert(raw, shared.clone());
                shared
            }
        };
        if self.recent.len() < Self::RECENT {
            self.recent.push((raw, shared.clone()));
        } else {
            self.recent[self.evict] = (raw, shared.clone());
            self.evict = (self.evict + 1) % Self::RECENT;
        }
        Ok(shared)
    }
}

/// The state one [`parse_jsonl`] call carries from line to line.
#[derive(Default)]
struct LineParser<'a> {
    runs: Interner<'a>,
    tracks: Interner<'a>,
    names: Interner<'a>,
    /// The current line's `args` keys, for the repeated-key check.
    keys: Vec<Cow<'a, str>>,
    /// Every line's `args` members so far, one after another.
    args: String,
}

impl<'a> LineParser<'a> {
    /// The object at `p`, which is left just past its closing brace.
    fn parse(&mut self, p: &mut Cursor<'a>) -> Result<ParsedEvent, String> {
        p.literal("{\"run\":")?;
        let run = self.runs.get(p.string()?.0)?;
        p.literal(",\"track\":")?;
        let track = self.tracks.get(p.string()?.0)?;
        p.literal(",\"ts\":")?;
        let ts = p.digits()?.1;
        p.literal(",\"dur\":")?;
        let dur = p.digits()?.1;
        p.literal(",\"name\":")?;
        let name = self.names.get(p.string()?.0)?;
        p.literal(",\"args\":")?;
        let span = self.args(p)?;
        p.expect(b'}')?;
        Ok(ParsedEvent { run, track, ts, dur, name, args: Args { text: None, span } })
    }

    /// Check an `args` object and append its members' text to `args`.
    fn args(&mut self, p: &mut Cursor<'a>) -> Result<Range<usize>, String> {
        p.expect(b'{')?;
        let start = p.i;
        self.keys.clear();
        if p.peek() != Some(b'}') {
            loop {
                let key = p.text()?;
                p.expect(b':')?;
                p.value()?;
                if self.keys.contains(&key) {
                    return Err(format!("repeated args key {key:?}"));
                }
                self.keys.push(key);
                match p.peek() {
                    Some(b',') => p.i += 1,
                    Some(b'}') => break,
                    Some(c) => return Err(format!("unexpected byte {:?} in args", c as char)),
                    None => return Err("unexpected end of line".to_string()),
                }
            }
        }
        let at = self.args.len();
        self.args.push_str(&p.s[start..p.i]);
        p.i += 1; // '}'
        Ok(at..self.args.len())
    }
}

/// A byte position in a text, read one line at a time: a line ends at
/// a `\n` or the end of the text. Slices are cut only next to the
/// ASCII bytes the grammar stops at, so they stay on `char` boundaries.
struct Cursor<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Cursor<'a> {
    /// The next byte of this line.
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied().filter(|&c| c != b'\n')
    }

    /// Step over spaces, tabs and carriage returns; returns where the
    /// next byte is.
    fn skip_blanks(&mut self) -> usize {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.i += 1;
        }
        self.i
    }

    fn next(&mut self) -> Result<u8, String> {
        let c = self.peek().ok_or("unexpected end of line")?;
        self.i += 1;
        Ok(c)
    }

    /// The bytes of `want`, which holds no `\n`.
    fn literal(&mut self, want: &str) -> Result<(), String> {
        if !self.s.as_bytes()[self.i..].starts_with(want.as_bytes()) {
            return Err(format!("expected `{want}`"));
        }
        self.i += want.len();
        Ok(())
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.next()?;
        if got != want {
            return Err(format!("expected {:?}, got {:?}", want as char, got as char));
        }
        Ok(())
    }

    /// A string literal's body as the line wrote it, and whether it
    /// holds an escape for [`unescape`] to decode. A raw control byte
    /// is an error here.
    fn string(&mut self) -> Result<(&'a str, bool), String> {
        self.expect(b'"')?;
        let start = self.i;
        let mut escaped = false;
        loop {
            match self.next()? {
                b'"' => return Ok((&self.s[start..self.i - 1], escaped)),
                b'\\' => {
                    // The escaped byte cannot end the string.
                    escaped = true;
                    self.next()?;
                }
                c if c < 0x20 => return Err(format!("raw control byte {c:#04x} in string")),
                _ => {}
            }
        }
    }

    /// A string literal, decoded.
    fn text(&mut self) -> Result<Cow<'a, str>, String> {
        match self.string()? {
            (raw, false) => Ok(Cow::Borrowed(raw)),
            (raw, true) => unescape(raw),
        }
    }

    /// The digits of an unsigned integer and its value.
    fn digits(&mut self) -> Result<(&'a str, u64), String> {
        let start = self.i;
        let mut value = 0u64;
        while let Some(digit) = self.peek().and_then(|c| c.checked_sub(b'0')).filter(|d| *d < 10) {
            let next = value.checked_mul(10).and_then(|v| v.checked_add(u64::from(digit)));
            value = next.ok_or("integer does not fit in 64 bits")?;
            self.i += 1;
        }
        if self.i == start {
            return Err("expected integer".to_string());
        }
        Ok((&self.s[start..self.i], value))
    }

    /// A primitive value, decoded: a string's body, or an integer's
    /// digits with leading zeros dropped (`007` is `7`).
    fn value(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() == Some(b'"') {
            return self.text();
        }
        let digits = self.digits()?.0.trim_start_matches('0');
        Ok(Cow::Borrowed(if digits.is_empty() { "0" } else { digits }))
    }
}

/// Decode a string body: the body itself when it holds no escape,
/// else a copy made one unescaped run at a time. The escapes are the
/// ones [`jsonl`] writes; any other is an error, not a guess.
fn unescape(raw: &str) -> Result<Cow<'_, str>, String> {
    let Some(first) = raw.bytes().position(|b| b == b'\\') else {
        return Ok(Cow::Borrowed(raw));
    };
    let mut decoded = String::with_capacity(raw.len());
    let mut rest = raw;
    let mut at = first;
    loop {
        decoded.push_str(&rest[..at]);
        let escape = &rest[at + 1..];
        let (c, len) = match escape.as_bytes().first() {
            Some(b'"') => ('"', 1),
            Some(b'\\') => ('\\', 1),
            Some(b'n') => ('\n', 1),
            Some(b'r') => ('\r', 1),
            Some(b't') => ('\t', 1),
            Some(b'u') => {
                let hex = escape.get(1..5).ok_or("truncated \\u escape")?;
                let code = hex.bytes().all(|b| b.is_ascii_hexdigit()).then_some(hex);
                let c = code.and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?));
                (c.ok_or_else(|| format!("unsupported escape \\u{hex}"))?, 5)
            }
            _ => {
                let c = escape.chars().next().map_or(String::new(), String::from);
                return Err(format!("unsupported escape \\{c}"));
            }
        };
        decoded.push(c);
        rest = &escape[len..];
        match rest.find('\\') {
            Some(next) => at = next,
            None => {
                decoded.push_str(rest);
                return Ok(Cow::Owned(decoded));
            }
        }
    }
}

/// Check `text` is well-formed JSON (objects, arrays, strings,
/// numbers, literals). Used by the test suite to validate the Chrome
/// export against the trace-event schema's base grammar.
pub fn validate_json(text: &str) -> Result<(), String> {
    let mut v = Validator { b: text.as_bytes(), i: 0 };
    v.skip_ws();
    v.value()?;
    v.skip_ws();
    if v.i != v.b.len() {
        return Err(format!("trailing bytes at offset {}", v.i));
    }
    Ok(())
}

struct Validator<'a> {
    b: &'a [u8],
    i: usize,
}

impl Validator<'_> {
    /// RFC 8259 §2: space, tab, line feed and carriage return only.
    fn skip_ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at offset {}", self.i))
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            _ => self.err("expected value"),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            self.err("bad literal")
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.i += 1; // '{'
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return self.err("expected ':'");
            }
            self.i += 1;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.i += 1; // '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        if self.peek() != Some(b'"') {
            return self.err("expected string");
        }
        self.i += 1;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => self.escape()?,
                Some(c) if c < 0x20 => return self.err("raw control byte in string"),
                Some(_) => self.i += 1,
            }
        }
    }

    /// RFC 8259 §7: `\` and one of `"\/bfnrt`, or `u` and four hex digits.
    #[cold]
    fn escape(&mut self) -> Result<(), String> {
        match self.b.get(self.i + 1) {
            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 2,
            Some(b'u') => {
                let hex = self.b.get(self.i + 2..self.i + 6);
                if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                    return self.err("bad \\u escape");
                }
                self.i += 6;
            }
            _ => return self.err("bad escape"),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        // RFC 8259 §6: `0` or a digit run that does not start with `0`.
        match self.peek() {
            Some(b'0') => {
                self.i += 1;
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    return self.err("leading zero");
                }
            }
            Some(b'1'..=b'9') => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return self.err("expected digits"),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            let frac = self.i;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.i == frac {
                return self.err("expected fraction digits");
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            let exp = self.i;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.i == exp {
                return self.err("expected exponent digits");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DeviceKind, Event, Lane};
    use crate::log::{FlightRecorder, Recorder};
    use ickpt_sim::{SimDuration, SimTime};

    fn sample_snapshot() -> TraceSnapshot {
        let fr = FlightRecorder::new(128);
        fr.name_group(0, "demo");
        let rec = Recorder::new(fr.clone());
        rec.emit(Lane::Run, SimTime(0), Event::RunStart { ranks: 2 });
        rec.emit_span(
            Lane::Rank(0),
            SimTime(1_500),
            SimDuration(2_250),
            Event::Capture {
                kind: crate::event::CaptureKind::Full,
                generation: 0,
                pages: 7,
                payload_bytes: 4096,
            },
        );
        rec.emit(
            Lane::Device(DeviceKind::Local, 0),
            SimTime(2_000),
            Event::DeviceTransfer { bytes: 4096, queue_wait_ns: 0, service_ns: 900 },
        );
        rec.emit(Lane::Drain, SimTime(9_000), Event::DrainQueueDepth { depth: 1 });
        fr.snapshot()
    }

    #[test]
    fn chrome_trace_is_well_formed_and_stable() {
        let snap = sample_snapshot();
        let a = chrome_trace(&snap);
        let b = chrome_trace(&snap);
        assert_eq!(a, b);
        validate_json(&a).expect("chrome export must be valid JSON");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ts\":1.500"));
        assert!(a.contains("\"dur\":2.250"));
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("\"demo\""));
    }

    #[test]
    fn jsonl_roundtrips_through_parse() {
        let snap = sample_snapshot();
        let text = jsonl(&snap);
        let events = parse_jsonl(&text).expect("parse own export");
        assert_eq!(events.len(), snap.event_count());
        let cap = events.iter().find(|e| &*e.name == "capture").unwrap();
        assert_eq!(&*cap.run, "demo");
        assert_eq!(&*cap.track, "rank0");
        assert_eq!(cap.ts, 1_500);
        assert_eq!(cap.dur, 2_250);
        assert_eq!(cap.arg("payload_bytes").as_deref(), Some("4096"));
        // Every line is itself valid JSON.
        for line in text.lines() {
            validate_json(line).expect("jsonl line must be valid JSON");
        }
    }

    #[test]
    fn per_track_timestamps_are_sorted() {
        let fr = FlightRecorder::new(128);
        let rec = Recorder::new(fr.clone());
        // Inserted out of order on the same track.
        rec.emit(Lane::Rank(0), SimTime(30), Event::IterationBoundary { iteration: 2 });
        rec.emit(Lane::Rank(0), SimTime(10), Event::IterationBoundary { iteration: 0 });
        rec.emit(Lane::Rank(0), SimTime(20), Event::IterationBoundary { iteration: 1 });
        let events = parse_jsonl(&jsonl(&fr.snapshot())).unwrap();
        let ts: Vec<u64> = events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn parsed_events_rebuild_typed_events() {
        let fr = FlightRecorder::new(128);
        let rec = Recorder::new(fr.clone());
        let originals: Vec<(Lane, TimedEvent)> = vec![
            (
                Lane::Rank(2),
                TimedEvent {
                    ts: SimTime(10),
                    dur: SimDuration(5),
                    event: Event::Capture {
                        kind: crate::event::CaptureKind::Incremental,
                        generation: 3,
                        pages: 9,
                        payload_bytes: 4096,
                    },
                },
            ),
            (
                Lane::Device(DeviceKind::Array, 1),
                TimedEvent {
                    ts: SimTime(20),
                    dur: SimDuration::ZERO,
                    event: Event::DeviceTransfer { bytes: 7, queue_wait_ns: 1, service_ns: 2 },
                },
            ),
            (
                Lane::Drain,
                TimedEvent {
                    ts: SimTime(30),
                    dur: SimDuration::ZERO,
                    event: Event::DrainTorn { generations: 2, bytes: 555 },
                },
            ),
            (
                Lane::Tenant(4),
                TimedEvent {
                    ts: SimTime(40),
                    dur: SimDuration(9),
                    event: Event::TenantStall { tenant: 4, bytes: 64 },
                },
            ),
            (
                Lane::Run,
                TimedEvent {
                    ts: SimTime(50),
                    dur: SimDuration::ZERO,
                    event: Event::RecoveryPlan {
                        rank: 1,
                        tier: crate::event::RecoveryTier::Durable,
                        generation: 2,
                    },
                },
            ),
        ];
        for (lane, ev) in &originals {
            rec.emit_span(*lane, ev.ts, ev.dur, ev.event);
        }
        let parsed = parse_jsonl(&jsonl(&fr.snapshot())).unwrap();
        let mut rebuilt: Vec<(Lane, TimedEvent)> =
            parsed.iter().map(|p| p.to_timed().expect("reconstructible")).collect();
        rebuilt.sort_by_key(|(_, ev)| ev.ts);
        let mut want = originals;
        want.sort_by_key(|(_, ev)| ev.ts);
        assert_eq!(rebuilt, want);
        // Static-str payloads are deliberately not reconstructible.
        rec.emit(Lane::Run, SimTime(60), Event::Counter { name: "x", value: 1 });
        let parsed = parse_jsonl(&jsonl(&fr.snapshot())).unwrap();
        let counter = parsed.iter().find(|p| &*p.name == "counter").unwrap();
        assert!(counter.to_timed().is_none());
    }

    #[test]
    fn lane_labels_roundtrip() {
        for lane in [
            Lane::Run,
            Lane::Rank(0),
            Lane::Rank(16383),
            Lane::Device(DeviceKind::Local, 3),
            Lane::Device(DeviceKind::Storage, 0),
            Lane::Tenant(63),
            Lane::Drain,
        ] {
            assert_eq!(Lane::parse(&lane.label()), Some(lane));
        }
        assert_eq!(Lane::parse("dev:bogus:0"), None);
        assert_eq!(Lane::parse("rankx"), None);
        assert_eq!(Lane::parse(""), None);
    }

    #[test]
    fn validate_json_rejects_garbage() {
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,2,]").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(validate_json("{\"a\":1}").is_ok());
        // RFC 8259 §§6–7: no leading zeros, only the listed escapes
        // with four hex digits after `\u`, no raw control bytes in a
        // string; §2: no whitespace but space, tab, LF and CR.
        for bad in [
            "[01]",
            "[-01]",
            "[00]",
            "[-]",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\",
            "\"a\nb\"",
            "\"a\u{1}b\"",
            "\"\t\"",
            "[1,\u{c}2]",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?}");
        }
        for good in [
            "0",
            "-0",
            "0.500",
            "-1",
            "1e5",
            "10E-2",
            "[0,10,-0.5]",
            "\"\\/\\b\\f\\n\\r\\t\\\"\\\\\\u00e9\\uD800\"",
            "\"idéntité\"",
            " {\r\n\t\"a\" : [ 1 , 2 ] } ",
        ] {
            assert!(validate_json(good).is_ok(), "{good:?}");
        }
    }
}
