//! A JSON-lines serving protocol over [`ServiceHandle`] — the wire shape
//! of the `qits serve` subcommand.
//!
//! One request per input line, one event per output line, everything
//! UTF-8 JSON. Results **stream in completion order**, not request
//! order: the server writes each job's `result` event the moment the
//! job finishes, so a long reachability fixpoint never holds up the
//! short image queries submitted after it.
//!
//! # Requests
//!
//! | line | effect |
//! |---|---|
//! | `{"op":"submit","id":"q1","job":{...}}` | admit a job; optional `"priority":"high"\|"normal"\|"low"`, `"deadline_ms":250` |
//! | `{"op":"cancel","id":"q1"}` | trip job `q1`'s cancellation token |
//! | `{"op":"stats"}` | emit a `stats` event with live pool counters |
//! | `{"op":"save","path":"memo.qsnap"}` | spill the result memo to a snapshot file ([`ServiceHandle::save_snapshot`]) |
//! | `{"op":"load","path":"memo.qsnap"}` | preload a snapshot's memo entries as warm results ([`ServiceHandle::load_snapshot`]) |
//! | `{"op":"shutdown"}` | stop reading; drain in-flight jobs, then exit |
//!
//! # Job payloads
//!
//! | `"job"` value | runs |
//! |---|---|
//! | `{"type":"image","densify":false}` | [`Job::Image`] (`densify` answers at most `2^20` amplitudes) |
//! | `{"type":"reachability","max_iterations":64}` | [`Job::Reachability`] |
//! | `{"type":"invariant","n_qubits":2,"states":[[[1,0,0,0],[1,0,0,0]]],"max_iterations":64}` | [`Job::Invariant`] (each qubit is `[a_re,a_im,b_re,b_im]`) |
//! | `{"type":"equivalence","a":"h 0; cx 0 1","b":"h 0; cx 0 1","up_to_phase":false}` | [`Job::Equivalence`] (circuits in the gate DSL below) |
//!
//! The circuit DSL is the shared gate DSL of [`qits_circuit::parse`]
//! (`;`/newline-separated statements: `i q`, `h q`, `x q`, `y q`, `z q`,
//! `s q`, `sdg q`, `t q`, `tdg q`, `phase q theta`, `rx/ry/rz q theta`,
//! `cx c t`, `cz c t`, `cp c t theta`, `ccx c1 c2 t`, `swap a b`,
//! `proj q b`) — the same parser behind scenario files and the `qits`
//! CLI. Validation happens entirely in the parse layer (arity, wire
//! syntax, duplicate wires, finite angles), so a malformed client line —
//! `"cx 0 0"` included — is an `error` event, never a server panic.
//! Every JSON number must be finite too: a literal that overflows `f64`,
//! such as an amplitude of `1e999`, makes its line an `error` event.
//! The two circuits of an equivalence job are parsed onto one shared
//! register (the wider of the two), so `"h 0"` vs `"h 0; z 1"` compares
//! the operators instead of failing with a register mismatch.
//!
//! # Events
//!
//! | line | meaning |
//! |---|---|
//! | `{"event":"accepted","id":"q1"}` | the job was admitted (or served from the memo) |
//! | `{"event":"rejected","id":"q1","error":"..."}` | admission refused (queue full / shutdown) — terminal for this id |
//! | `{"event":"result","id":"q1","status":"ok","output":{...},"latency_ms":1.9}` | the job completed |
//! | `{"event":"result","id":"q1","status":"error","error":"..."}` | the job failed / was cancelled / expired |
//! | `{"event":"stats","jobs_submitted":...,...}` | answer to `{"op":"stats"}` — memo counters split `memo_hits` / `memo_warm_hits` (hits served by snapshot-restored entries) and report `memo_evictions`; `peak_arena` is the sum of every worker's peak arena slots, and `gc_runs` / `nodes_reclaimed` count the workers' collections and the nodes they swept |
//! | `{"event":"saved","path":"...","entries":N}` | the memo spill was written (`N` entries) |
//! | `{"event":"loaded","path":"...","entries":N}` | a snapshot's memo entries were preloaded |
//! | `{"event":"error","error":"..."}` | the input line did not parse, or a `save`/`load` failed; the server keeps reading |
//! | `{"event":"bye"}` | drain finished after `shutdown` / EOF; last line |

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qits_circuit::{parse, Circuit};
use qits_num::Cplx;

use super::{Job, JobOutput, JobRequest, JobTicket, PoolStats, Priority, ServiceHandle};

// ----------------------------------------------------------------------
// A minimal JSON value model (the workspace carries no serde).
// ----------------------------------------------------------------------

/// A parsed JSON value. Minimal by design: the protocol needs objects,
/// arrays, strings, `f64` numbers, booleans, and `null` — nothing else.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as `f64`.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Linear-scan lookup — protocol objects are tiny.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        // Strict upper bound: `usize::MAX as f64` rounds *up* to 2^64,
        // which a `<=` would admit (and the cast would then saturate).
        // Every integral f64 strictly below 2^64 fits in usize exactly.
        if n.fract() == 0.0 && n >= 0.0 && n < usize::MAX as f64 {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Hard cap on container nesting. The protocol's own documents are at
/// most three levels deep; the cap exists so a client line of thousands
/// of `[`s gets a typed error instead of recursing the serve thread's
/// stack into the ground.
const MAX_JSON_DEPTH: usize = 64;

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage refused). Container nesting beyond `MAX_JSON_DEPTH` (64)
/// levels is refused with an error — the recursive-descent parser's
/// stack use is bounded by the cap, so no input can overflow it.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth >= MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(JsonValue::Number(x)),
        // JSON has no infinities: a literal that overflows `f64` (`1e999`)
        // is refused, not read as one, so every decoded number is finite.
        Ok(_) => Err(format!("number '{text}' at byte {start} overflows f64")),
        Err(_) => Err(format!("bad number '{text}' at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always at a boundary).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        members.push((key, parse_value(bytes, pos, depth + 1)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ----------------------------------------------------------------------
// Requests.
// ----------------------------------------------------------------------

/// One decoded input line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"op":"submit",...}` — admit a job under a client-chosen id.
    Submit {
        /// Client-chosen correlation id, echoed on every event.
        id: String,
        /// The decoded job payload.
        job: Job,
        /// Scheduling class (defaults to [`Priority::Normal`]).
        priority: Priority,
        /// Queue-time budget in milliseconds, if any.
        deadline_ms: Option<u64>,
    },
    /// `{"op":"cancel","id":...}` — trip a submitted job's token.
    Cancel {
        /// Id of the job to cancel.
        id: String,
    },
    /// `{"op":"stats"}` — emit live pool counters.
    Stats,
    /// `{"op":"save","path":...}` — spill the result memo to a snapshot
    /// file.
    Save {
        /// Filesystem path to write the snapshot to.
        path: String,
    },
    /// `{"op":"load","path":...}` — preload a snapshot's memo entries.
    Load {
        /// Filesystem path to read the snapshot from.
        path: String,
    },
    /// `{"op":"shutdown"}` — stop reading, drain, exit.
    Shutdown,
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality through the canonical Debug encoding — the
        // same identity the result memo keys on. Test/protocol plumbing,
        // not a hot path.
        format!("{self:?}") == format!("{other:?}")
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line)?;
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"op\"")?;
    match op {
        "submit" => {
            let id = v
                .get("id")
                .and_then(JsonValue::as_str)
                .ok_or("submit needs an \"id\"")?
                .to_string();
            let job = parse_job(v.get("job").ok_or("submit needs a \"job\"")?)?;
            let priority = match v.get("priority").and_then(JsonValue::as_str) {
                None => Priority::Normal,
                Some("high") => Priority::High,
                Some("normal") => Priority::Normal,
                Some("low") => Priority::Low,
                Some(other) => return Err(format!("unknown priority '{other}'")),
            };
            let deadline_ms = match v.get("deadline_ms") {
                None => None,
                Some(n) => Some(
                    n.as_usize()
                        .ok_or("\"deadline_ms\" must be a non-negative integer")?
                        as u64,
                ),
            };
            Ok(Request::Submit {
                id,
                job,
                priority,
                deadline_ms,
            })
        }
        "cancel" => Ok(Request::Cancel {
            id: v
                .get("id")
                .and_then(JsonValue::as_str)
                .ok_or("cancel needs an \"id\"")?
                .to_string(),
        }),
        "stats" => Ok(Request::Stats),
        "save" => Ok(Request::Save {
            path: v
                .get("path")
                .and_then(JsonValue::as_str)
                .ok_or("save needs a \"path\"")?
                .to_string(),
        }),
        "load" => Ok(Request::Load {
            path: v
                .get("path")
                .and_then(JsonValue::as_str)
                .ok_or("load needs a \"path\"")?
                .to_string(),
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op '{other}'")),
    }
}

fn parse_job(v: &JsonValue) -> Result<Job, String> {
    let kind = v
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or("job needs a \"type\"")?;
    match kind {
        "image" => Ok(Job::Image {
            densify: v
                .get("densify")
                .map(|b| b.as_bool().ok_or("\"densify\" must be a boolean"))
                .transpose()?
                .unwrap_or(false),
        }),
        "reachability" => Ok(Job::Reachability {
            max_iterations: v
                .get("max_iterations")
                .and_then(JsonValue::as_usize)
                .ok_or("reachability needs \"max_iterations\"")?,
        }),
        "invariant" => {
            let n_qubits = v
                .get("n_qubits")
                .and_then(JsonValue::as_usize)
                .ok_or("invariant needs \"n_qubits\"")?;
            let n_qubits = u32::try_from(n_qubits)
                .map_err(|_| format!("\"n_qubits\" {n_qubits} exceeds the u32 register limit"))?;
            let max_iterations = v
                .get("max_iterations")
                .and_then(JsonValue::as_usize)
                .ok_or("invariant needs \"max_iterations\"")?;
            let mut states = Vec::new();
            for state in v
                .get("states")
                .and_then(JsonValue::as_array)
                .ok_or("invariant needs \"states\"")?
            {
                let mut qubits = Vec::new();
                for q in state.as_array().ok_or("each state is an array")? {
                    let parts = q.as_array().ok_or("each qubit is an array")?;
                    if parts.len() != 4 {
                        return Err("each qubit is [a_re,a_im,b_re,b_im]".to_string());
                    }
                    let nums: Vec<f64> = parts
                        .iter()
                        .map(|p| p.as_f64().ok_or("amplitudes are numbers"))
                        .collect::<Result<_, _>>()?;
                    qubits.push((Cplx::new(nums[0], nums[1]), Cplx::new(nums[2], nums[3])));
                }
                states.push(qubits);
            }
            Ok(Job::Invariant {
                n_qubits,
                states,
                max_iterations,
            })
        }
        "equivalence" => {
            let a_text = v
                .get("a")
                .and_then(JsonValue::as_str)
                .ok_or("equivalence needs circuit \"a\"")?;
            let b_text = v
                .get("b")
                .and_then(JsonValue::as_str)
                .ok_or("equivalence needs circuit \"b\"")?;
            // One shared register for both circuits: "h 0" vs "h 0; z 1"
            // compares the operators on 2 qubits instead of failing with
            // a register mismatch.
            let (a, b) = parse::parse_circuit_pair(a_text, b_text).map_err(|e| e.to_string())?;
            Ok(Job::Equivalence {
                a,
                b,
                up_to_phase: v
                    .get("up_to_phase")
                    .map(|b| b.as_bool().ok_or("\"up_to_phase\" must be a boolean"))
                    .transpose()?
                    .unwrap_or(false),
            })
        }
        other => Err(format!("unknown job type '{other}'")),
    }
}

/// Parses the circuit DSL — a thin protocol-level wrapper over the
/// shared [`qits_circuit::parse::parse_circuit`] (register width one
/// past the highest wire mentioned), with the typed error flattened to
/// the protocol's string shape.
pub fn parse_circuit(text: &str) -> Result<Circuit, String> {
    parse::parse_circuit(text).map_err(|e| e.to_string())
}

// ----------------------------------------------------------------------
// Events.
// ----------------------------------------------------------------------

/// Renders a [`JobOutput`] as the protocol's `"output"` JSON object —
/// shared with the `qits` CLI so a scenario run and a served job answer
/// in the same shape.
pub fn output_json(out: &JobOutput) -> String {
    match out {
        JobOutput::Image(o) => {
            let mut s = format!("{{\"kind\": \"image\", \"dim\": {}", o.dim);
            if !o.amplitudes.is_empty() {
                s.push_str(", \"amplitudes\": [");
                for (i, row) in o.amplitudes.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push('[');
                    for (j, a) in row.iter().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        s.push_str(&format!("[{}, {}]", a.re, a.im));
                    }
                    s.push(']');
                }
                s.push(']');
            }
            s.push('}');
            s
        }
        JobOutput::Reachability(r) => format!(
            "{{\"kind\": \"reachability\", \"dim\": {}, \"iterations\": {}, \"converged\": {}}}",
            r.dim, r.iterations, r.converged
        ),
        JobOutput::Invariant { holds, reach } => format!(
            "{{\"kind\": \"invariant\", \"holds\": {}, \"dim\": {}, \"iterations\": {}}}",
            holds, reach.dim, reach.iterations
        ),
        JobOutput::Equivalence { equivalent } => {
            format!("{{\"kind\": \"equivalence\", \"equivalent\": {equivalent}}}")
        }
    }
}

fn stats_json(s: &PoolStats) -> String {
    format!(
        "{{\"event\": \"stats\", \"workers\": {}, \"jobs_submitted\": {}, \
         \"jobs_completed\": {}, \"jobs_failed\": {}, \"jobs_rejected\": {}, \
         \"jobs_cancelled\": {}, \"jobs_expired\": {}, \"queue_depth\": {}, \
         \"memo_hits\": {}, \"memo_warm_hits\": {}, \"memo_misses\": {}, \
         \"memo_evictions\": {}, \"images\": {}, \"peak_arena\": {}, \
         \"gc_runs\": {}, \"nodes_reclaimed\": {}}}",
        s.workers.len(),
        s.jobs_submitted,
        s.jobs_completed,
        s.jobs_failed,
        s.jobs_rejected,
        s.jobs_cancelled,
        s.jobs_expired,
        s.queue_depth,
        s.memo.hits,
        s.memo.warm_hits,
        s.memo.misses,
        s.memo.evictions,
        s.images,
        s.workers
            .iter()
            .map(|w| w.manager.peak_arena)
            .sum::<usize>(),
        s.manager.gc_runs,
        s.manager.nodes_reclaimed,
    )
}

fn result_json(
    id: &str,
    ticket: &JobTicket,
    result: &Result<JobOutput, crate::QitsError>,
) -> String {
    let latency_ms = ticket
        .latency()
        .map(|d| d.as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    match result {
        Ok(out) => format!(
            "{{\"event\": \"result\", \"id\": \"{}\", \"status\": \"ok\", \
             \"output\": {}, \"latency_ms\": {latency_ms}}}",
            escape_json(id),
            output_json(out),
        ),
        Err(e) => format!(
            "{{\"event\": \"result\", \"id\": \"{}\", \"status\": \"error\", \
             \"error\": \"{}\", \"latency_ms\": {latency_ms}}}",
            escape_json(id),
            escape_json(&e.to_string()),
        ),
    }
}

// ----------------------------------------------------------------------
// The serve loop.
// ----------------------------------------------------------------------

/// Serves the JSON-lines protocol over a [`ServiceHandle`]: reads
/// requests from `input` until EOF or `{"op":"shutdown"}`, streams
/// events to `output` as they happen, drains every in-flight job before
/// returning. A poller thread owns the output stream and flushes each
/// completed job's `result` event immediately — results never wait for
/// the next input line.
pub fn serve(
    handle: ServiceHandle,
    input: impl BufRead,
    output: impl Write + Send + 'static,
) -> io::Result<()> {
    let output = Arc::new(Mutex::new(output));
    let pending: Arc<Mutex<Vec<(String, JobTicket)>>> = Arc::new(Mutex::new(Vec::new()));
    let draining = Arc::new(Mutex::new(false));

    let poller = {
        let output = output.clone();
        let pending = pending.clone();
        let draining = draining.clone();
        std::thread::Builder::new()
            .name("qits-events".to_string())
            .spawn(move || loop {
                let mut done: Vec<(String, Result<JobOutput, crate::QitsError>, JobTicket)> =
                    Vec::new();
                {
                    let mut p = pending.lock().unwrap();
                    let mut i = 0;
                    while i < p.len() {
                        if let Some(result) = p[i].1.try_join() {
                            let (id, ticket) = p.swap_remove(i);
                            done.push((id, result, ticket));
                        } else {
                            i += 1;
                        }
                    }
                }
                if !done.is_empty() {
                    let mut out = output.lock().unwrap();
                    for (id, result, ticket) in &done {
                        let _ = writeln!(out, "{}", result_json(id, ticket, result));
                    }
                    let _ = out.flush();
                }
                let empty = pending.lock().unwrap().is_empty();
                if empty && *draining.lock().unwrap() {
                    return;
                }
                std::thread::sleep(Duration::from_micros(200));
            })
            .expect("spawning the serve poller thread")
    };

    let mut cancels: HashMap<String, qits_tdd::CancelToken> = HashMap::new();
    let emit = |line: String| -> io::Result<()> {
        let mut out = output.lock().unwrap();
        writeln!(out, "{line}")?;
        out.flush()
    };

    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Err(e) => emit(format!(
                "{{\"event\": \"error\", \"error\": \"{}\"}}",
                escape_json(&e)
            ))?,
            Ok(Request::Stats) => emit(stats_json(&handle.stats()))?,
            Ok(Request::Save { path }) => match handle.save_snapshot(&path, "qits serve") {
                Ok(entries) => emit(format!(
                    "{{\"event\": \"saved\", \"path\": \"{}\", \"entries\": {entries}}}",
                    escape_json(&path)
                ))?,
                Err(e) => emit(format!(
                    "{{\"event\": \"error\", \"error\": \"{}\"}}",
                    escape_json(&e.to_string())
                ))?,
            },
            Ok(Request::Load { path }) => match handle.load_snapshot(&path) {
                Ok(entries) => emit(format!(
                    "{{\"event\": \"loaded\", \"path\": \"{}\", \"entries\": {entries}}}",
                    escape_json(&path)
                ))?,
                Err(e) => emit(format!(
                    "{{\"event\": \"error\", \"error\": \"{}\"}}",
                    escape_json(&e.to_string())
                ))?,
            },
            Ok(Request::Shutdown) => break,
            Ok(Request::Cancel { id }) => {
                if let Some(token) = cancels.get(&id) {
                    token.cancel();
                }
            }
            Ok(Request::Submit {
                id,
                job,
                priority,
                deadline_ms,
            }) => {
                let mut req = JobRequest::new(job).priority(priority);
                if let Some(ms) = deadline_ms {
                    req = req.deadline(Duration::from_millis(ms));
                }
                match handle.try_submit(req) {
                    Ok(ticket) => {
                        cancels.insert(id.clone(), ticket.cancel_token().clone());
                        emit(format!(
                            "{{\"event\": \"accepted\", \"id\": \"{}\"}}",
                            escape_json(&id)
                        ))?;
                        pending.lock().unwrap().push((id, ticket));
                    }
                    Err(e) => emit(format!(
                        "{{\"event\": \"rejected\", \"id\": \"{}\", \"error\": \"{}\"}}",
                        escape_json(&id),
                        escape_json(&e.to_string())
                    ))?,
                }
            }
        }
    }

    *draining.lock().unwrap() = true;
    let _ = poller.join();
    emit("{\"event\": \"bye\"}".to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_the_protocol_shapes() {
        let v = parse_json(
            r#"{"op":"submit","id":"q\"1","job":{"type":"image","densify":true},"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_str().unwrap(), "q\"1");
        assert_eq!(v.get("deadline_ms").unwrap().as_usize().unwrap(), 250);
        assert!(parse_json("[1, -2.5, true, null, \"x\"]").is_ok());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
    }

    #[test]
    fn overflowing_numbers_are_refused() {
        for text in ["1e999", "-1e999", "[0, 1e400]", "{\"a\": -2E+500}"] {
            let err = parse_json(text).unwrap_err();
            assert!(err.contains("overflows f64"), "{text}: {err}");
        }
        assert!(parse_json("[1e308, -1e-400]").is_ok());
        // An invariant amplitude of 1e999 is a refused line, not a verdict.
        let line = r#"{"op":"submit","id":"i","job":{"type":"invariant","n_qubits":2,"states":[[[1e999,0,0,0],[1,0,0,0]]],"max_iterations":4}}"#;
        let err = parse_request(line).unwrap_err();
        assert!(err.contains("overflows f64"), "{err}");
    }

    #[test]
    fn json_nesting_is_depth_capped() {
        // Exactly MAX_JSON_DEPTH levels parse; one more is a typed error,
        // and a megabyte-scale bomb cannot touch the stack.
        let ok = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&ok).is_ok());
        let deep = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        assert!(parse_json(&"[".repeat(1 << 20)).is_err());
        assert!(parse_json(&"{\"k\":".repeat(1 << 18)).is_err());
    }

    #[test]
    fn requests_decode() {
        let r = parse_request(
            r#"{"op":"submit","id":"a","job":{"type":"reachability","max_iterations":8},"priority":"high"}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Submit {
                id: "a".into(),
                job: Job::reachability(8),
                priority: Priority::High,
                deadline_ms: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","id":"a"}"#).unwrap(),
            Request::Cancel { id: "a".into() }
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"save","path":"m.qsnap"}"#).unwrap(),
            Request::Save {
                path: "m.qsnap".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"load","path":"m.qsnap"}"#).unwrap(),
            Request::Load {
                path: "m.qsnap".into()
            }
        );
        assert!(parse_request(r#"{"op":"save"}"#).is_err());
        assert!(parse_request(r#"{"op":"submit","id":"a"}"#).is_err());
    }

    #[test]
    fn circuit_dsl_builds_real_circuits() {
        let c = parse_circuit("h 0; cx 0 1; phase 1 0.25").unwrap();
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.gates().len(), 3);
        assert!(parse_circuit("bogus 0").is_err());
        assert!(parse_circuit("").is_err());
        assert!(parse_circuit("cx 0").is_err());
    }

    #[test]
    fn duplicate_wire_gates_are_errors_not_panics() {
        // Regression: these used to unwind through Gate::new's
        // distinctness assertion, killing the serve reader thread.
        for dsl in ["cx 0 0", "swap 2 2", "ccx 0 1 0", "cp 3 3 0.5"] {
            assert!(parse_circuit(dsl).is_err(), "{dsl}");
            let line = format!(
                r#"{{"op":"submit","id":"q","job":{{"type":"equivalence","a":"{dsl}","b":"h 0"}}}}"#
            );
            assert!(parse_request(&line).is_err(), "{dsl}");
        }
    }

    #[test]
    fn equivalence_circuits_share_one_register() {
        // Regression: independently inferred widths made "h 0" vs
        // "h 0; z 1" a register mismatch instead of an answer.
        let r = parse_request(
            r#"{"op":"submit","id":"e","job":{"type":"equivalence","a":"h 0","b":"h 0; z 1"}}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                job: Job::Equivalence { a, b, .. },
                ..
            } => {
                assert_eq!(a.n_qubits(), 2);
                assert_eq!(b.n_qubits(), 2);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn as_usize_rejects_the_rounded_up_bound() {
        // 2^64 is exactly `usize::MAX as f64` after rounding — admitting
        // it would saturate the cast to usize::MAX.
        assert_eq!(JsonValue::Number(18446744073709551616.0).as_usize(), None);
        assert_eq!(JsonValue::Number(-1.0).as_usize(), None);
        assert_eq!(JsonValue::Number(1.5).as_usize(), None);
        assert_eq!(JsonValue::Number(250.0).as_usize(), Some(250));
        // Large but exactly representable below 2^64 still converts.
        assert_eq!(
            JsonValue::Number((1u64 << 53) as f64).as_usize(),
            Some(1usize << 53)
        );
    }

    #[test]
    fn invariant_n_qubits_must_fit_u32() {
        // Regression: `as u32` silently truncated 2^32 to 0.
        let line = r#"{"op":"submit","id":"i","job":{"type":"invariant","n_qubits":4294967296,"states":[[[1,0,0,0]]],"max_iterations":4}}"#;
        let err = parse_request(line).unwrap_err();
        assert!(err.contains("u32"), "{err}");
        // The boundary value itself still decodes.
        let ok = r#"{"op":"submit","id":"i","job":{"type":"invariant","n_qubits":1,"states":[[[1,0,0,0]]],"max_iterations":4}}"#;
        assert!(parse_request(ok).is_ok());
    }

    #[test]
    fn invariant_states_decode_to_amplitude_pairs() {
        let r = parse_request(
            r#"{"op":"submit","id":"i","job":{"type":"invariant","n_qubits":1,
               "states":[[[0.6,0,0.8,0]]],"max_iterations":4}}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap();
        match r {
            Request::Submit {
                job: Job::Invariant {
                    n_qubits, states, ..
                },
                ..
            } => {
                assert_eq!(n_qubits, 1);
                assert_eq!(
                    states,
                    vec![vec![(Cplx::new(0.6, 0.0), Cplx::new(0.8, 0.0))]]
                );
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn the_stats_event_reports_worker_memory() {
        let pool =
            crate::EnginePool::builder(crate::EngineSpec::new(qits_circuit::generators::ghz(3)))
                .workers(2)
                .build()
                .unwrap();
        pool.submit(Job::image()).join().unwrap();
        let stats = pool.shutdown();
        let peak: usize = stats.workers.iter().map(|w| w.manager.peak_arena).sum();
        assert!(peak > 0);
        let event = parse_json(&stats_json(&stats)).unwrap();
        let field = |name: &str| event.get(name).and_then(JsonValue::as_f64);
        assert_eq!(field("peak_arena"), Some(peak as f64));
        assert_eq!(field("gc_runs"), Some(stats.manager.gc_runs as f64));
        assert_eq!(
            field("nodes_reclaimed"),
            Some(stats.manager.nodes_reclaimed as f64)
        );
    }
}
