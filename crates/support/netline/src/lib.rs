//! Minimal std-only JSONL-over-TCP plumbing for the serving daemon.
//!
//! The workspace builds hermetically without crates.io access, so this crate
//! provides the small networking/serialization slice `pimba-serviced` needs
//! and nothing more:
//!
//! * [`Json`] — a JSON value model with a strict parser ([`Json::parse`],
//!   structured [`JsonError`]s carrying a byte offset) and a deterministic
//!   renderer ([`Json::render`]; object keys keep insertion order, floats use
//!   Rust's shortest round-trip formatting so re-rendering a parsed line is
//!   byte-stable),
//! * [`LineServer`] — a thread-per-connection TCP accept loop that blocks in
//!   `accept` and a [`Stopper`] for graceful shutdown (wakes the loop, stops
//!   accepting, then joins every live connection thread),
//! * [`LineConn`] — one newline-delimited text connection, used by both the
//!   server handler and clients ([`LineConn::connect`]).
//!
//! Numbers distinguish [`Json::Int`] (i64, no fractional part written) from
//! [`Json::Num`] (f64) so integer fields such as seeds and counts round-trip
//! without a float detour.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A JSON value. Objects preserve insertion order so rendering is
/// deterministic; duplicate keys are rejected by the parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional/exponent part that fits an `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A structured JSON parse error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub pos: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.pos)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs (insertion order kept).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload ([`Json::Int`] only — floats do not coerce).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (accepts both [`Json::Int`] and
    /// [`Json::Num`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs in document order, if this is an object — for
    /// callers that need to *enumerate* keys (schema validation, diffing)
    /// rather than look one up with [`Json::get`].
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Renders to compact JSON (no whitespace). Deterministic: object keys in
    /// insertion order, floats in Rust's shortest round-trip form (`{}`),
    /// non-finite floats as `null` (JSON has no NaN/Inf).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let start = out.len();
                    let _ = write!(out, "{x}");
                    // Keep the int/float distinction visible in the text so a
                    // parse→render round trip is stable.
                    if !out.as_bytes()[start..]
                        .iter()
                        .any(|b| matches!(b, b'.' | b'e' | b'E'))
                    {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    pos: key_pos,
                    message: format!("duplicate object key '{key}'"),
                });
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require the paired low one.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run of plain bytes up to the next quote or escape,
                    // pushed whole. The run stops only at ASCII bytes, so it
                    // is a char-boundary slice of the input &str, and
                    // multi-byte UTF-8 passes through as-is.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        match b {
                            b'"' | b'\\' => break,
                            0..=0x1f => {
                                return Err(self.error("unescaped control character in string"))
                            }
                            _ => self.pos += 1,
                        }
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Reads exactly four hex digits starting at `pos`, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape digits"))?;
        self.pos = end;
        Ok(digits)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => {
                self.pos = start;
                Err(self.error("invalid number"))
            }
        }
    }
}

/// A shared stop flag: cloned into whatever needs to request or observe
/// shutdown (signal handlers, tests, the daemon's `shutdown` command).
#[derive(Debug, Clone, Default)]
pub struct Stopper(Arc<StopState>);

#[derive(Debug, Default)]
struct StopState {
    stopped: AtomicBool,
    /// The listener a [`LineServer`] blocks on; the first
    /// [`Stopper::stop`] connects to it once so a blocked `accept` returns.
    wake: Option<SocketAddr>,
}

impl Stopper {
    /// A fresh, un-tripped stopper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown (idempotent). The first call also wakes the
    /// [`LineServer`] this stopper belongs to, if any.
    pub fn stop(&self) {
        if self.0.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = self.0.wake {
            // The accept loop sees the flag as soon as this connection is
            // accepted; if the listener is already gone the connect fails
            // fast and there is nothing to wake.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_stopped(&self) -> bool {
        self.0.stopped.load(Ordering::SeqCst)
    }
}

/// One newline-delimited text connection. Lines are UTF-8, framed by `\n`
/// (a trailing `\r` is stripped, so `\r\n` clients work too).
#[derive(Debug)]
pub struct LineConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineConn {
    /// Connects to a line server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Self> {
        // The protocol is many small request/reply lines; without TCP_NODELAY,
        // Nagle's algorithm batches them against delayed ACKs and adds ~40 ms
        // stalls to every warm (sub-millisecond) exchange.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Reads the next line (without its terminator). `Ok(None)` on clean EOF.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Writes one line (appending `\n`) and flushes. The line must not itself
    /// contain a newline — that would desynchronize the framing.
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "line payloads must be newline-free");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Bounds how long a [`LineConn::read_line`] may block (`None` = forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }
}

/// A thread-per-connection TCP accept loop over [`LineConn`]s.
///
/// The loop blocks in `accept`, so a connecting client is served as soon as
/// the kernel wakes the thread; [`Stopper::stop`] wakes it with a loopback
/// connection. Once stopped it closes the accept path and joins every live
/// connection thread before [`LineServer::run`] returns — connections in
/// flight finish, new ones are refused by virtue of nobody accepting.
#[derive(Debug)]
pub struct LineServer {
    listener: TcpListener,
    stopper: Stopper,
}

impl LineServer {
    /// Binds (port 0 picks an ephemeral port — read it back with
    /// [`LineServer::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            // A wildcard bind is reachable on the loopback of its family.
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let stopper = Stopper(Arc::new(StopState {
            stopped: AtomicBool::new(false),
            wake: Some(wake),
        }));
        Ok(Self { listener, stopper })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`LineServer::run`] return.
    pub fn stopper(&self) -> Stopper {
        self.stopper.clone()
    }

    /// Accepts connections until stopped, running `handler` on a dedicated
    /// thread per connection; joins all of them before returning.
    pub fn run<H>(&self, handler: H)
    where
        H: Fn(LineConn) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let workers: Mutex<VecDeque<JoinHandle<()>>> = Mutex::new(VecDeque::new());
        while !self.stopper.is_stopped() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.stopper.is_stopped() {
                        // The wake-up connection from `Stopper::stop`, or a
                        // client that raced it: refused either way.
                        break;
                    }
                    let Ok(conn) = LineConn::from_stream(stream) else {
                        continue;
                    };
                    let handler = Arc::clone(&handler);
                    let handle = std::thread::spawn(move || handler(conn));
                    let mut workers = workers.lock().unwrap();
                    workers.push_back(handle);
                    // Reap finished threads so long-lived servers don't
                    // accumulate handles.
                    while workers.front().is_some_and(JoinHandle::is_finished) {
                        let _ = workers.pop_front().unwrap().join();
                    }
                }
                // Transient failures (e.g. out of file descriptors): back
                // off instead of spinning.
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        for handle in workers.into_inner().unwrap() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_and_preserves_int_float_distinction() {
        let line = r#"{"cmd":"submit","priority":2,"rate":12.5,"tags":["a","b"],"deep":{"x":null,"ok":true}}"#;
        let value = Json::parse(line).unwrap();
        assert_eq!(value.get("priority").unwrap().as_i64(), Some(2));
        assert_eq!(value.get("rate").unwrap().as_f64(), Some(12.5));
        assert!(matches!(value.get("rate"), Some(Json::Num(_))));
        assert_eq!(value.render(), line);
        // Shortest round-trip float form is parse-stable.
        let reparsed = Json::parse(&value.render()).unwrap();
        assert_eq!(reparsed, value);
    }

    #[test]
    fn json_renders_whole_floats_with_a_fractional_part() {
        assert_eq!(Json::Num(3.0).render(), "3.0");
        assert_eq!(Json::Int(3).render(), "3");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
    }

    #[test]
    fn json_errors_carry_positions() {
        let err = Json::parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        let err = Json::parse("[1, 2,]").unwrap_err();
        assert_eq!(err.pos, 6);
        let err = Json::parse("").unwrap_err();
        assert!(err.message.contains("end of input"));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("tab\tquote\"slash\\newline\nünïcode\u{1}".into());
        let rendered = original.render();
        assert_eq!(Json::parse(&rendered).unwrap(), original);
        // Surrogate-pair escape decodes to one astral char.
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn numbers_render_to_pinned_bytes() {
        let cases = [
            (Json::Num(-0.0), "-0.0".to_string()),
            (Json::Num(5e-324), format!("0.{}5", "0".repeat(323))),
            (Json::Num(1e21), format!("1{}.0", "0".repeat(21))),
            (Json::Num(1e-7), "0.0000001".to_string()),
            (Json::Num(3.0), "3.0".to_string()),
            (Json::Num(-12.5), "-12.5".to_string()),
            (Json::Int(i64::MIN), "-9223372036854775808".to_string()),
            (Json::Int(0), "0".to_string()),
            (Json::Num(f64::NAN), "null".to_string()),
            (Json::Num(f64::INFINITY), "null".to_string()),
            (Json::Num(f64::NEG_INFINITY), "null".to_string()),
        ];
        for (value, bytes) in &cases {
            assert_eq!(value.render(), *bytes, "{value:?}");
        }
        // Numbers inside containers render into the same buffer.
        let arr = Json::Arr(cases.iter().map(|(v, _)| v.clone()).collect());
        let joined: Vec<&str> = cases.iter().map(|(_, b)| b.as_str()).collect();
        assert_eq!(arr.render(), format!("[{}]", joined.join(",")));
        // Finite values parse back to the same bits.
        for (value, bytes) in &cases[..8] {
            assert_eq!(Json::parse(bytes).unwrap(), *value, "{bytes}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time_and_round_trip() {
        // A quarter-MiB string: the size of a traced job's shipped trace.
        let unit = "{\"track\":\"replica-0\",\"t\":12.5}\n";
        let original = unit.repeat(256 * 1024 / unit.len() + 1);
        assert!(original.len() >= 256 * 1024);
        let rendered = Json::Str(original.clone()).render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(original.as_str()));
        assert_eq!(parsed.render(), rendered);

        // A scan that revisits the rest of the input per character takes
        // minutes on 4 MiB; a linear one takes milliseconds.
        let big = Json::Str("é".repeat(2 * 1024 * 1024)).render();
        let t0 = std::time::Instant::now();
        let parsed = Json::parse(&big).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "parsing a {}-byte string took {:?}",
            big.len(),
            t0.elapsed()
        );
        assert_eq!(parsed.render(), big);
    }

    #[test]
    fn multibyte_runs_interleave_with_every_escape() {
        let escapes = [
            ("\\\"", '"'),
            ("\\\\", '\\'),
            ("\\/", '/'),
            ("\\b", '\u{8}'),
            ("\\f", '\u{c}'),
            ("\\n", '\n'),
            ("\\r", '\r'),
            ("\\t", '\t'),
            ("\\u0001", '\u{1}'),
            ("\\u00e9", 'é'),
            ("\\u20ac", '€'),
            ("\\ud83d\\ude00", '\u{1F600}'),
        ];
        let runs = ["ünï", "€€", "日本語", "😀", "a"];
        let mut input = String::from("\"");
        let mut expected = String::new();
        for (i, (escape, decoded)) in escapes.iter().enumerate() {
            let run = runs[i % runs.len()];
            input.push_str(run);
            input.push_str(escape);
            expected.push_str(run);
            expected.push(*decoded);
        }
        input.push_str("tail😀\"");
        expected.push_str("tail😀");
        let parsed = Json::parse(&input).unwrap();
        assert_eq!(parsed.as_str(), Some(expected.as_str()));
        // Rendering escapes only what it must, and parses back exactly.
        let rendered = parsed.render();
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn unescaped_control_bytes_report_their_own_position() {
        for (input, pos) in [
            ("\"\u{1}\"", 1),
            ("\"ab\ncd\"", 3),
            ("\"ünï\tx\"", 6),
            ("{\"k\":\"€\\n\u{1f}\"}", 11),
            ("[\"ok\",\"日本\u{0}\"]", 13),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert_eq!(err.pos, pos, "{input:?}: {err}");
            assert!(err.message.contains("control character"), "{err}");
        }
        assert_eq!(Json::parse("\"abc").unwrap_err().pos, 4);
    }

    #[test]
    fn line_server_echoes_and_stops_cleanly() {
        let server = LineServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stopper = server.stopper();
        let server_thread = std::thread::spawn(move || {
            server.run(|mut conn| {
                while let Ok(Some(line)) = conn.read_line() {
                    if conn.write_line(&format!("echo:{line}")).is_err() {
                        break;
                    }
                }
            });
        });

        let mut client = LineConn::connect(addr).unwrap();
        client.write_line("hello").unwrap();
        assert_eq!(client.read_line().unwrap().as_deref(), Some("echo:hello"));
        client.write_line("world").unwrap();
        assert_eq!(client.read_line().unwrap().as_deref(), Some("echo:world"));
        drop(client);

        stopper.stop();
        server_thread.join().unwrap();
    }

    #[test]
    fn stop_wakes_an_idle_accept_loop() {
        // A wildcard bind is woken through the loopback of its family.
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = LineServer::bind(addr).unwrap();
            let stopper = server.stopper();
            let handled = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let handled_in_server = Arc::clone(&handled);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let server_thread = std::thread::spawn(move || {
                server.run(move |_conn| {
                    handled_in_server.fetch_add(1, Ordering::SeqCst);
                });
                done_tx.send(()).unwrap();
            });
            // Let the loop block in `accept` with no client ever connecting.
            std::thread::sleep(Duration::from_millis(50));
            let t0 = std::time::Instant::now();
            stopper.stop();
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("run must return after stop");
            server_thread.join().unwrap();
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "{addr}: run took {:?} to return after stop",
                t0.elapsed()
            );
            assert_eq!(
                handled.load(Ordering::SeqCst),
                0,
                "the wake-up connection must not reach the handler"
            );
            // Stopping again is a no-op.
            stopper.stop();
        }
    }
}
