//! Deterministic observability: event traces, a metrics registry, and
//! simulator self-profiling.
//!
//! The stack's bit-identity gates (see the `pimba-fleet` cluster module docs)
//! make a hard demand on any instrumentation: **observing a run must never
//! change it**. This module meets that demand by construction:
//!
//! * **No perturbation.** Every trace event and metric sample is *derived*
//!   from simulation state — nothing here is read back by the engine, the
//!   routers, the fault layer, or the schedulers. A run with a
//!   [`TraceSink`]/[`MetricsHub`] attached produces byte-identical
//!   `SimResult`/`FleetResult` values to the same run with both disabled
//!   (asserted by `tests/obs_identity.rs` and the CI `obs_smoke` job), which
//!   is exactly the same invariant the empty-`FaultPlan` gate defends for the
//!   fault layer.
//! * **Zero cost when off.** A disabled [`TraceSink`] is a `None` — every
//!   emission site is one branch and the event constructor closure is never
//!   run. Same for a disabled [`MetricsHub`] and for the [`profile_phase`]
//!   guards (no clock read unless profiling was enabled).
//! * **Deterministic output.** Events are stamped in *simulated* nanoseconds,
//!   tracks are registered in driver-thread creation order, and every
//!   exporter renders floats with Rust's shortest round-trip `{:?}`
//!   representation — so traces and metric snapshots are themselves
//!   reproducible artifacts (modulo the optional wall-time channel, which is
//!   confined to the profiler).
//!
//! Three layers:
//!
//! * [`TraceRecorder`] / [`TraceSink`] / [`TraceEvent`] — a per-track event
//!   log of scheduler, router, and fault decisions, exported as a JSONL
//!   stream ([`render_jsonl`]) or as Chrome trace-event JSON ([`render_chrome_json`]) that loads directly in
//!   Perfetto / `chrome://tracing` with one timeline track per replica.
//! * [`MetricsHub`] — named counter/gauge/histogram series with sorted
//!   `(key, value)` labels (per-tenant, per-replica), unifying the ad-hoc
//!   `TelemetryStats`/`Throughput`/`FaultStats` structs into one snapshot-able
//!   registry ([`MetricsHub::snapshot`], [`MetricsHub::to_json`]). Series
//!   live in a hash map keyed by a flat encoding of `(name, sorted labels)`,
//!   so recording into an existing series allocates nothing, and
//!   [`MetricsHub::batch`] records a whole result under one lock. Snapshots
//!   sort by `(name, labels)`, so their order and bytes do not depend on the
//!   map.
//! * [`profile_phase`] and friends — process-global wall-time accounting of
//!   the *simulator's own* phases (routing, stepping, handoff delivery, memo
//!   lookup, persist I/O, window-barrier wait, metrics export) so benches
//!   can report where host time goes. Wall time never feeds back into
//!   simulated time.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::memo::FxHasher;

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// One trace event: an instant (`dur_ns == 0`) or a span, stamped in
/// simulated nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event kind, e.g. `"admit"`, `"crash"`, `"handoff"`.
    pub name: String,
    /// Simulated start time in nanoseconds.
    pub time_ns: f64,
    /// Span duration in simulated nanoseconds; `0.0` renders as an instant.
    pub dur_ns: f64,
    /// Subject identifier (request id, replica index, ...), `0` when unused.
    pub id: u64,
    /// Extra numeric payload, in emission order.
    pub args: Vec<(String, f64)>,
}

impl TraceEvent {
    /// An instant event at `time_ns`.
    pub fn instant(name: &str, time_ns: f64, id: u64) -> Self {
        Self {
            name: name.to_string(),
            time_ns,
            dur_ns: 0.0,
            id,
            args: Vec::new(),
        }
    }

    /// A span covering `[time_ns, time_ns + dur_ns]`.
    pub fn span(name: &str, time_ns: f64, dur_ns: f64, id: u64) -> Self {
        Self {
            dur_ns,
            ..Self::instant(name, time_ns, id)
        }
    }

    /// Appends a numeric argument (builder style).
    pub fn arg(mut self, key: &str, value: f64) -> Self {
        self.args.push((key.to_string(), value));
        self
    }
}

/// The write side of one trace track. Cloning shares the underlying buffer.
///
/// A default-constructed sink is *disabled*: [`TraceSink::emit`] is a single
/// `Option` branch and never runs its closure, so instrumented hot loops pay
/// nothing when tracing is off (the same shape as the engine's
/// `compute_scale == 1.0` fast path). An enabled sink appends to the
/// [`TraceRecorder`] track it was created from and — by construction — is
/// never read by the simulation, so enabling it cannot perturb results.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    buf: Option<Arc<Mutex<Vec<TraceEvent>>>>,
}

impl TraceSink {
    /// A sink that drops everything at zero cost (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// `true` when events emitted here are recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Records `make()` if the sink is enabled; the closure is not run (and
    /// allocates nothing) otherwise.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = &self.buf {
            buf.lock().expect("trace buffer poisoned").push(make());
        }
    }
}

/// One named track's events, in emission order — the unit of export.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTrack {
    /// Track name, e.g. `"fleet"` or `"replica 3"`.
    pub name: String,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
}

/// Shared event buffer of one track (the write side a [`TraceSink`] holds).
type TrackBuf = Arc<Mutex<Vec<TraceEvent>>>;

/// Collects trace events from many [`TraceSink`]s into named tracks
/// (one per replica / logical timeline), registered in creation order so the
/// export layout is deterministic.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    tracks: Mutex<Vec<(String, TrackBuf)>>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new track and returns its (enabled) write sink. Tracks
    /// keep their registration order in every export.
    pub fn track(&self, name: &str) -> TraceSink {
        let buf = Arc::new(Mutex::new(Vec::new()));
        self.tracks
            .lock()
            .expect("trace tracks poisoned")
            .push((name.to_string(), Arc::clone(&buf)));
        TraceSink { buf: Some(buf) }
    }

    /// A snapshot of every track (registration order, events in emission
    /// order).
    pub fn tracks(&self) -> Vec<TraceTrack> {
        self.tracks
            .lock()
            .expect("trace tracks poisoned")
            .iter()
            .map(|(name, buf)| TraceTrack {
                name: name.clone(),
                events: buf.lock().expect("trace buffer poisoned").clone(),
            })
            .collect()
    }

    /// Total recorded events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks
            .lock()
            .expect("trace tracks poisoned")
            .iter()
            .map(|(_, buf)| buf.lock().expect("trace buffer poisoned").len())
            .sum()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.event_count() == 0
    }

    /// Drops all tracks and events (the recorder can be reused).
    pub fn clear(&self) {
        self.tracks.lock().expect("trace tracks poisoned").clear();
    }

    /// The canonical JSONL export of the current snapshot (see
    /// [`render_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        render_jsonl(&self.tracks())
    }

    /// The Chrome trace-event export of the current snapshot (see
    /// [`render_chrome_json`]).
    pub fn to_chrome_json(&self) -> String {
        render_chrome_json(&self.tracks())
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Renders `value` in Rust's shortest round-trip representation — parsing the
/// result with [`str::parse::<f64>`] recovers the exact bits.
fn fmt_f64(value: f64) -> String {
    format!("{value:?}")
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn render_event_line(out: &mut String, track: &str, ev: &TraceEvent) {
    out.push_str("{\"track\":\"");
    escape_into(out, track);
    out.push_str("\",\"name\":\"");
    escape_into(out, &ev.name);
    out.push_str("\",\"t\":");
    out.push_str(&fmt_f64(ev.time_ns));
    out.push_str(",\"dur\":");
    out.push_str(&fmt_f64(ev.dur_ns));
    out.push_str(",\"id\":");
    out.push_str(&ev.id.to_string());
    out.push_str(",\"args\":[");
    for (i, (key, value)) in ev.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("[\"");
        escape_into(out, key);
        out.push_str("\",");
        out.push_str(&fmt_f64(*value));
        out.push(']');
    }
    out.push_str("]}\n");
}

/// Renders tracks as the canonical JSONL stream: one event per line, shaped
/// `{"track":...,"name":...,"t":...,"dur":...,"id":...,"args":[[k,v],...]}`,
/// floats in shortest round-trip form — the bytes the serving daemon streams
/// for a traced job.
pub fn render_jsonl(tracks: &[TraceTrack]) -> String {
    let mut out = String::new();
    for track in tracks {
        if track.events.is_empty() {
            // Keep empty tracks visible in the stream.
            out.push_str("{\"track\":\"");
            escape_into(&mut out, &track.name);
            out.push_str("\",\"name\":\"\",\"t\":0.0,\"dur\":0.0,\"id\":0,\"args\":[]}\n");
            continue;
        }
        for ev in &track.events {
            render_event_line(&mut out, &track.name, ev);
        }
    }
    out
}

/// Renders tracks as Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// envelope understood by Perfetto and `chrome://tracing`): one `tid` per
/// track with a `thread_name` metadata record, spans as `"ph":"X"` complete
/// events and instants as `"ph":"i"`, timestamps in microseconds.
pub fn render_chrome_json(tracks: &[TraceTrack]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: &str| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };
    for (tid, track) in tracks.iter().enumerate() {
        let mut meta = String::from("{\"ph\":\"M\",\"pid\":0,\"tid\":");
        meta.push_str(&tid.to_string());
        meta.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
        escape_into(&mut meta, &track.name);
        meta.push_str("\"}}");
        push(&mut out, &mut first, &meta);
        for ev in &track.events {
            let mut line = String::from("{\"ph\":\"");
            if ev.dur_ns > 0.0 {
                line.push('X');
            } else {
                line.push('i');
            }
            line.push_str("\",\"pid\":0,\"tid\":");
            line.push_str(&tid.to_string());
            line.push_str(",\"ts\":");
            line.push_str(&fmt_f64(ev.time_ns / 1000.0));
            if ev.dur_ns > 0.0 {
                line.push_str(",\"dur\":");
                line.push_str(&fmt_f64(ev.dur_ns / 1000.0));
            } else {
                line.push_str(",\"s\":\"t\"");
            }
            line.push_str(",\"name\":\"");
            escape_into(&mut line, &ev.name);
            line.push_str("\",\"args\":{\"id\":");
            line.push_str(&ev.id.to_string());
            for (key, value) in &ev.args {
                line.push_str(",\"");
                escape_into(&mut line, key);
                line.push_str("\":");
                line.push_str(&fmt_f64(*value));
            }
            line.push_str("}}");
            push(&mut out, &mut first, &line);
        }
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Number of log2 histogram buckets: bucket 0 holds `v < 1`, bucket `b` holds
/// `2^(b-1) <= v < 2^b`, the last bucket absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of non-negative samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Per-bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// The bucket index a sample falls into.
    pub fn bucket_index(value: f64) -> usize {
        // NaN and sub-1 samples (including negatives) land in bucket 0.
        let below_one = value
            .partial_cmp(&1.0)
            .is_none_or(|o| o == std::cmp::Ordering::Less);
        if below_one {
            return 0;
        }
        // Saturating f64→u64 cast, then position of the leading bit.
        let bits = value.min(u64::MAX as f64) as u64;
        (64 - bits.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample (negatives and NaNs land in bucket 0).
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.buckets[Self::bucket_index(value)] += 1;
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Last-write-wins level.
    Gauge(f64),
    /// Log2-bucketed distribution.
    Histogram(Histogram),
}

/// One named, labeled series from a [`MetricsHub::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Series name, e.g. `"serve_requests_completed"`.
    pub name: String,
    /// Sorted `(key, value)` labels, e.g. `[("tenant", "0")]`.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: MetricValue,
}

/// Labels sorted on the stack before a lookup; a call with more labels sorts
/// a heap copy instead.
const INLINE_LABELS: usize = 8;

/// The registry behind an enabled [`MetricsHub`]: series in creation order,
/// indexed by their encoded `(name, sorted labels)` key.
#[derive(Debug, Default)]
struct Registry {
    index: HashMap<Box<[u8]>, usize, BuildHasherDefault<FxHasher>>,
    series: Vec<MetricSeries>,
    /// Reused buffer the lookup key is encoded into.
    key: Vec<u8>,
}

/// Appends one field of a series key: its length as a LEB128 varint, then its
/// bytes. Length-prefixed fields decode uniquely, so distinct series never
/// share a key (a separator byte could also occur inside a name).
fn push_key_part(key: &mut Vec<u8>, part: &str) {
    let mut len = part.len();
    while len >= 0x80 {
        key.push(len as u8 | 0x80);
        len >>= 7;
    }
    key.push(len as u8);
    key.extend_from_slice(part.as_bytes());
}

impl Registry {
    /// The value of series `(name, labels)`, created with `init()` on first
    /// use. Looking up an existing series allocates nothing.
    fn value(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> MetricValue,
    ) -> &mut MetricValue {
        let mut inline = [("", ""); INLINE_LABELS];
        let mut spilled = Vec::new();
        let sorted: &mut [(&str, &str)] = if labels.len() <= INLINE_LABELS {
            let sorted = &mut inline[..labels.len()];
            sorted.copy_from_slice(labels);
            sorted
        } else {
            spilled.extend_from_slice(labels);
            &mut spilled
        };
        sorted.sort_unstable();

        self.key.clear();
        push_key_part(&mut self.key, name);
        for &(k, v) in sorted.iter() {
            push_key_part(&mut self.key, k);
            push_key_part(&mut self.key, v);
        }
        let slot = match self.index.get(self.key.as_slice()) {
            Some(&slot) => slot,
            None => {
                self.series.push(MetricSeries {
                    name: name.to_string(),
                    labels: sorted
                        .iter()
                        .map(|&(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                    value: init(),
                });
                self.index
                    .insert(self.key.as_slice().into(), self.series.len() - 1);
                self.series.len() - 1
            }
        };
        &mut self.series[slot].value
    }

    /// Every series in `(name, labels)` order — the order of a `BTreeMap`
    /// keyed by the `(String, Vec<(String, String)>)` tuple.
    fn sorted(&self) -> Vec<&MetricSeries> {
        let mut order: Vec<&MetricSeries> = self.series.iter().collect();
        order.sort_unstable_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        order
    }
}

/// A clone-to-share registry of named metric series. Like [`TraceSink`], a
/// default-constructed hub is disabled and every recording call is a single
/// branch; an enabled hub is only ever *written* by the simulation layers, so
/// attaching one cannot change results.
///
/// **Storage.** A series is identified by its name and its labels sorted by
/// `(key, value)`. The registry keeps series in a `Vec` and indexes them by a
/// flat, length-prefixed byte encoding of that identity in an
/// [`FxHasher`]-keyed hash map. A lookup sorts the labels on a small stack
/// array and encodes the key into a buffer the registry reuses, so recording
/// into an existing series allocates nothing; the owned name and labels are
/// built only when a series is created.
///
/// **One lock per result.** [`MetricsHub::batch`] locks the registry once and
/// hands the closure a [`MetricsBatch`]; the result exporters record a whole
/// run (or a whole fleet cell, every replica included) through one batch.
/// [`counter`](Self::counter), [`gauge`](Self::gauge),
/// [`observe`](Self::observe) and [`observe_all`](Self::observe_all) are
/// one-op batches, so the batch is the only implementation of the recording
/// rules.
///
/// **Deterministic snapshots.** [`MetricsHub::snapshot`] and
/// [`MetricsHub::to_json`] sort the series by `(name, labels)`, which is the
/// order a `BTreeMap` keyed by the `(name, labels)` tuple iterates in, so
/// snapshots do not depend on recording order, thread interleaving or the
/// hash map's layout.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Option<Arc<Mutex<Registry>>>,
}

/// Recording access to a locked [`MetricsHub`] registry, handed out by
/// [`MetricsHub::batch`]. Labels may arrive in any order; a series is keyed by
/// its name and its sorted labels.
#[derive(Debug)]
pub struct MetricsBatch<'a> {
    registry: &'a mut Registry,
}

impl MetricsBatch<'_> {
    /// Adds `delta` to a counter series (created at zero). A series of
    /// another kind becomes a counter holding `delta`.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        match self
            .registry
            .value(name, labels, || MetricValue::Counter(0))
        {
            MetricValue::Counter(n) => *n += delta,
            other => *other = MetricValue::Counter(delta),
        }
    }

    /// Sets a gauge series to `value`, whatever the series held before.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        *self
            .registry
            .value(name, labels, || MetricValue::Gauge(value)) = MetricValue::Gauge(value);
    }

    /// Records `values` into one histogram series, in order: the result is
    /// identical to one [`MetricsHub::observe`] per sample (the `f64` sum
    /// accumulates in slice order). A series of another kind restarts as an
    /// empty histogram first. An empty batch records nothing.
    pub fn observe_all(&mut self, name: &str, labels: &[(&str, &str)], values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let value =
            self.registry.value(
                name,
                labels,
                || MetricValue::Histogram(Histogram::default()),
            );
        if !matches!(value, MetricValue::Histogram(_)) {
            *value = MetricValue::Histogram(Histogram::default());
        }
        if let MetricValue::Histogram(h) = value {
            for &v in values {
                h.observe(v);
            }
        }
    }
}

impl MetricsHub {
    /// An enabled, empty hub.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// A hub that drops everything at zero cost (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// `true` when samples recorded here are kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `record` with the registry locked once for all of its calls.
    /// A disabled hub never runs `record`.
    pub fn batch(&self, record: impl FnOnce(&mut MetricsBatch<'_>)) {
        let Some(inner) = &self.inner else { return };
        let mut registry = inner.lock().expect("metrics registry poisoned");
        record(&mut MetricsBatch {
            registry: &mut registry,
        });
    }

    /// Adds `delta` to a counter series (see [`MetricsBatch::counter`]).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.batch(|b| b.counter(name, labels, delta));
    }

    /// Sets a gauge series to `value` (see [`MetricsBatch::gauge`]).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.batch(|b| b.gauge(name, labels, value));
    }

    /// Records one sample into a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.observe_all(name, labels, &[value]);
    }

    /// Records `values` into one histogram series, in order, under one lock
    /// (see [`MetricsBatch::observe_all`]).
    pub fn observe_all(&self, name: &str, labels: &[(&str, &str)], values: &[f64]) {
        self.batch(|b| b.observe_all(name, labels, values));
    }

    /// A deterministic (name, then labels) ordered snapshot of every series.
    /// Empty for a disabled hub.
    pub fn snapshot(&self) -> Vec<MetricSeries> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let registry = inner.lock().expect("metrics registry poisoned");
        registry.sorted().into_iter().cloned().collect()
    }

    /// Renders the snapshot as one canonical JSON object:
    /// `{"metrics":[{"name":...,"labels":[[k,v],...],"kind":...,...},...]}`.
    /// Histograms list only their non-empty buckets as `[index, count]`
    /// pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        if let Some(inner) = &self.inner {
            let registry = inner.lock().expect("metrics registry poisoned");
            for (i, series) in registry.sorted().into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_series(&mut out, series);
            }
        }
        out.push_str("]}");
        out
    }
}

fn render_series(out: &mut String, series: &MetricSeries) {
    out.push_str("{\"name\":\"");
    escape_into(out, &series.name);
    out.push_str("\",\"labels\":[");
    for (j, (k, v)) in series.labels.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str("[\"");
        escape_into(out, k);
        out.push_str("\",\"");
        escape_into(out, v);
        out.push_str("\"]");
    }
    out.push_str("],");
    match &series.value {
        MetricValue::Counter(n) => {
            let _ = write!(out, "\"kind\":\"counter\",\"value\":{n}");
        }
        MetricValue::Gauge(v) => {
            let _ = write!(out, "\"kind\":\"gauge\",\"value\":{v:?}");
        }
        MetricValue::Histogram(h) => {
            let _ = write!(
                out,
                "\"kind\":\"histogram\",\"count\":{},\"sum\":{:?},\"buckets\":[",
                h.count, h.sum
            );
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{b},{n}]");
            }
            out.push(']');
        }
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// Self-profiling
// ---------------------------------------------------------------------------

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Accumulated wall time of one simulator phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of completed [`profile_phase`] guards.
    pub calls: u64,
    /// Total wall time in nanoseconds.
    pub wall_ns: u64,
}

fn phase_table() -> &'static Mutex<BTreeMap<&'static str, PhaseStat>> {
    static TABLE: OnceLock<Mutex<BTreeMap<&'static str, PhaseStat>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Turns the process-global phase profiler on. Profiling measures *host* wall
/// time of simulator phases (routing, stepping, handoff delivery, memo
/// lookup, persist I/O, window-barrier wait); it never touches simulated time
/// and cannot change results.
pub fn enable_profiling() {
    PROFILING.store(true, Ordering::Relaxed);
}

/// Turns the phase profiler off (guards created afterwards are free).
pub fn disable_profiling() {
    PROFILING.store(false, Ordering::Relaxed);
}

/// `true` while the phase profiler is on.
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// RAII guard from [`profile_phase`]: records elapsed wall time into the
/// phase table on drop (only if profiling was on at creation).
#[derive(Debug)]
pub struct PhaseGuard {
    name: &'static str,
    start: Option<std::time::Instant>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let mut table = phase_table().lock().expect("profile table poisoned");
            let stat = table.entry(self.name).or_default();
            stat.calls += 1;
            stat.wall_ns += elapsed;
        }
    }
}

/// Starts timing `name` until the returned guard drops. When profiling is off
/// (the default) this reads no clock and records nothing.
#[inline]
#[must_use = "the phase is timed until the guard drops"]
pub fn profile_phase(name: &'static str) -> PhaseGuard {
    PhaseGuard {
        name,
        start: profiling_enabled().then(std::time::Instant::now),
    }
}

/// A name-ordered snapshot of every phase recorded since the last
/// [`reset_profiling`].
pub fn profile_report() -> Vec<(&'static str, PhaseStat)> {
    phase_table()
        .lock()
        .expect("profile table poisoned")
        .iter()
        .map(|(&name, &stat)| (name, stat))
        .collect()
}

/// Clears all accumulated phase stats (profiling stays in its current state).
pub fn reset_profiling() {
    phase_table()
        .lock()
        .expect("profile table poisoned")
        .clear();
}

/// A human-readable phase profile table for bench/CLI output, e.g.:
///
/// ```text
/// phase                 calls      wall_ms
/// memo_lookup            1200         3.41
/// routing                 450         0.52
/// ```
pub fn profile_report_text() -> String {
    let report = profile_report();
    let mut out = String::from("phase                    calls      wall_ms\n");
    for (name, stat) in report {
        out.push_str(&format!(
            "{name:<22} {:>8} {:>12.3}\n",
            stat.calls,
            stat.wall_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_never_runs_the_closure() {
        let sink = TraceSink::disabled();
        assert!(!sink.enabled());
        sink.emit(|| unreachable!("disabled sink must not build events"));
    }

    #[test]
    fn tracks_keep_registration_order_and_events() {
        let rec = TraceRecorder::new();
        let fleet = rec.track("fleet");
        let r0 = rec.track("replica 0");
        fleet.emit(|| TraceEvent::instant("route", 10.0, 7).arg("replica", 0.0));
        r0.emit(|| TraceEvent::span("checkpoint", 20.0, 5.0, 7));
        let tracks = rec.tracks();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[0].name, "fleet");
        assert_eq!(tracks[1].name, "replica 0");
        assert_eq!(tracks[0].events[0].name, "route");
        assert_eq!(tracks[1].events[0].dur_ns, 5.0);
        assert_eq!(rec.event_count(), 2);
    }

    /// The JSONL bytes the daemon streams, pinned as a literal: string
    /// escapes, shortest-form floats, a `u64::MAX` id and the placeholder
    /// line of an empty track.
    #[test]
    fn jsonl_rendering_is_pinned() {
        let rec = TraceRecorder::new();
        let a = rec.track("fleet \"odd\\name\"");
        let b = rec.track("replica 1");
        rec.track("empty track");
        a.emit(|| TraceEvent::instant("crash", 1234.5, 3).arg("replica", 1.0));
        a.emit(|| {
            TraceEvent::span("migrate", 2000.0, 0.125, 3)
                .arg("bytes", 1.5e9)
                .arg("from", 1.0)
        });
        b.emit(|| TraceEvent::span("fastforward", 0.1, 1e12, u64::MAX));
        let expected = concat!(
            r#"{"track":"fleet \"odd\\name\"","name":"crash","t":1234.5,"dur":0.0,"id":3,"args":[["replica",1.0]]}"#,
            "\n",
            r#"{"track":"fleet \"odd\\name\"","name":"migrate","t":2000.0,"dur":0.125,"id":3,"args":[["bytes",1500000000.0],["from",1.0]]}"#,
            "\n",
            r#"{"track":"replica 1","name":"fastforward","t":0.1,"dur":1000000000000.0,"id":18446744073709551615,"args":[]}"#,
            "\n",
            r#"{"track":"empty track","name":"","t":0.0,"dur":0.0,"id":0,"args":[]}"#,
            "\n",
        );
        assert_eq!(rec.to_jsonl(), expected);
        assert_eq!(render_jsonl(&rec.tracks()), expected);
    }

    #[test]
    fn chrome_export_contains_spans_instants_and_thread_names() {
        let rec = TraceRecorder::new();
        let t = rec.track("replica 0");
        t.emit(|| TraceEvent::span("restore", 1000.0, 250.0, 9));
        t.emit(|| TraceEvent::instant("admit", 2000.0, 9));
        let json = rec.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.0")); // 1000 ns == 1.0 us
        assert!(json.contains("\"dur\":0.25"));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-5.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(1.0), 1);
        assert_eq!(Histogram::bucket_index(1.9), 1);
        assert_eq!(Histogram::bucket_index(2.0), 2);
        assert_eq!(Histogram::bucket_index(1024.0), 11);
        assert_eq!(
            Histogram::bucket_index(f64::INFINITY),
            HISTOGRAM_BUCKETS - 1
        );
    }

    #[test]
    fn metrics_snapshot_is_deterministic_and_labeled() {
        let hub = MetricsHub::new();
        hub.counter("fleet_crashes", &[("replica", "1")], 2);
        hub.counter("fleet_crashes", &[("replica", "0")], 1);
        hub.gauge("run_progress", &[], 0.5);
        hub.observe("ttft_ms", &[("tenant", "0")], 3.0);
        hub.observe("ttft_ms", &[("tenant", "0")], 100.0);
        let snap = hub.snapshot();
        let names: Vec<_> = snap
            .iter()
            .map(|s| (s.name.as_str(), s.labels.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("fleet_crashes", vec![("replica".into(), "0".into())]),
                ("fleet_crashes", vec![("replica".into(), "1".into())]),
                ("run_progress", vec![]),
                ("ttft_ms", vec![("tenant".into(), "0".into())]),
            ]
        );
        match &snap[3].value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 103.0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        let json = hub.to_json();
        assert!(json.contains("\"kind\":\"counter\",\"value\":1"));
        assert!(json.contains("\"kind\":\"gauge\",\"value\":0.5"));
        assert!(json.contains("\"buckets\":[[2,1],[7,1]]"));
    }

    /// The registry as it was before the hashed storage: an owned
    /// `(name, sorted labels)` tuple key per call into a `BTreeMap`, whose
    /// iteration order *is* the snapshot order.
    #[derive(Default)]
    struct ReferenceRegistry(BTreeMap<(String, Vec<(String, String)>), MetricValue>);

    impl ReferenceRegistry {
        fn key(name: &str, labels: &[(&str, &str)]) -> (String, Vec<(String, String)>) {
            let mut labels: Vec<(String, String)> = labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            labels.sort();
            (name.to_string(), labels)
        }

        fn counter(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
            match self
                .0
                .entry(Self::key(name, labels))
                .or_insert(MetricValue::Counter(0))
            {
                MetricValue::Counter(n) => *n += delta,
                other => *other = MetricValue::Counter(delta),
            }
        }

        fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
            self.0
                .insert(Self::key(name, labels), MetricValue::Gauge(value));
        }

        fn observe_all(&mut self, name: &str, labels: &[(&str, &str)], values: &[f64]) {
            if values.is_empty() {
                return;
            }
            let value = self
                .0
                .entry(Self::key(name, labels))
                .or_insert_with(|| MetricValue::Histogram(Histogram::default()));
            if !matches!(value, MetricValue::Histogram(_)) {
                *value = MetricValue::Histogram(Histogram::default());
            }
            if let MetricValue::Histogram(h) = value {
                for &v in values {
                    h.observe(v);
                }
            }
        }

        fn snapshot(&self) -> Vec<MetricSeries> {
            self.0
                .iter()
                .map(|((name, labels), value)| MetricSeries {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: value.clone(),
                })
                .collect()
        }

        fn to_json(&self) -> String {
            let mut out = String::from("{\"metrics\":[");
            for (i, series) in self.snapshot().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":\"");
                escape_into(&mut out, &series.name);
                out.push_str("\",\"labels\":[");
                for (j, (k, v)) in series.labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("[\"");
                    escape_into(&mut out, k);
                    out.push_str("\",\"");
                    escape_into(&mut out, v);
                    out.push_str("\"]");
                }
                out.push_str("],");
                match &series.value {
                    MetricValue::Counter(n) => {
                        out.push_str("\"kind\":\"counter\",\"value\":");
                        out.push_str(&n.to_string());
                    }
                    MetricValue::Gauge(v) => {
                        out.push_str("\"kind\":\"gauge\",\"value\":");
                        out.push_str(&fmt_f64(*v));
                    }
                    MetricValue::Histogram(h) => {
                        out.push_str("\"kind\":\"histogram\",\"count\":");
                        out.push_str(&h.count.to_string());
                        out.push_str(",\"sum\":");
                        out.push_str(&fmt_f64(h.sum));
                        out.push_str(",\"buckets\":[");
                        let mut first = true;
                        for (b, &n) in h.buckets.iter().enumerate() {
                            if n == 0 {
                                continue;
                            }
                            if !first {
                                out.push(',');
                            }
                            first = false;
                            out.push_str(&format!("[{b},{n}]"));
                        }
                        out.push(']');
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
            out
        }
    }

    #[test]
    fn snapshot_order_and_bytes_match_the_tuple_keyed_reference() {
        enum Op {
            Counter(u64),
            Gauge(f64),
            Observe(&'static [f64]),
        }
        type Record = (&'static str, &'static [(&'static str, &'static str)], Op);
        let ops: &[Record] = &[
            // Names where one is a prefix of the other, recorded long first.
            ("serve_events_x", &[("cell", "1")], Op::Counter(3)),
            ("serve_events", &[("cell", "1")], Op::Counter(2)),
            ("serve_events", &[("cell", "10")], Op::Counter(5)),
            // Label values where one is a prefix of another.
            (
                "serve_events",
                &[("cell", "1"), ("replica", "12")],
                Op::Counter(1),
            ),
            (
                "serve_events",
                &[("cell", "1"), ("replica", "1")],
                Op::Counter(1),
            ),
            ("serve_events", &[("cell", "")], Op::Counter(7)),
            ("serve_events", &[("cel", "l1")], Op::Counter(4)),
            // Different label counts, unsorted input (same series twice).
            (
                "ttft_ms",
                &[("tenant", "0"), ("cell", "1"), ("replica", "2")],
                Op::Observe(&[3.0, 0.5]),
            ),
            (
                "ttft_ms",
                &[("replica", "2"), ("tenant", "0"), ("cell", "1")],
                Op::Observe(&[100.0]),
            ),
            ("ttft_ms", &[("cell", "1")], Op::Observe(&[7.25])),
            ("ttft_ms", &[], Op::Observe(&[1e9, f64::NAN])),
            (
                "ttft_ms",
                &[("b", "x"), ("a", "y"), ("a", "x")],
                Op::Observe(&[2.0]),
            ),
            ("ttft_ms", &[("cell", "1")], Op::Observe(&[])),
            ("empty_only", &[], Op::Observe(&[])),
            // Identities whose plain concatenations collide ("abcd").
            ("ab", &[("c", "d")], Op::Counter(1)),
            ("a", &[("bc", "d")], Op::Counter(2)),
            ("a", &[("b", "cd")], Op::Counter(3)),
            ("abcd", &[], Op::Counter(4)),
            // More labels than fit the stack array, unsorted.
            (
                "wide",
                &[
                    ("i", "9"),
                    ("h", "8"),
                    ("g", "7"),
                    ("f", "6"),
                    ("e", "5"),
                    ("d", "4"),
                    ("c", "3"),
                    ("b", "2"),
                    ("a", "1"),
                ],
                Op::Counter(1),
            ),
            ("gauge", &[("k", "v\"q\\")], Op::Gauge(-0.0)),
            // A gauge onto a counter, then a counter onto the gauge.
            ("fleet_events", &[("cell", "fleet")], Op::Counter(9)),
            ("fleet_events", &[("cell", "fleet")], Op::Gauge(2.5)),
            ("fleet_events", &[("cell", "fleet")], Op::Counter(4)),
            ("fleet_events", &[("cell", "fleet")], Op::Counter(1)),
            // Observes onto a counter and onto a gauge series.
            ("serve_events", &[("cell", "10")], Op::Observe(&[4.0, 8.0])),
            ("gauge", &[("k", "v\"q\\")], Op::Observe(&[0.25])),
            ("run_progress", &[], Op::Gauge(0.5)),
            ("run_progress", &[], Op::Gauge(1.0)),
        ];
        let hub = MetricsHub::new();
        let mut reference = ReferenceRegistry::default();
        let mut record = |name: &str, labels: &[(&str, &str)], op: &Op| match op {
            Op::Counter(delta) => {
                hub.counter(name, labels, *delta);
                reference.counter(name, labels, *delta);
            }
            Op::Gauge(value) => {
                hub.gauge(name, labels, *value);
                reference.gauge(name, labels, *value);
            }
            Op::Observe(values) => {
                if let [value] = values {
                    hub.observe(name, labels, *value);
                } else {
                    hub.observe_all(name, labels, values);
                }
                reference.observe_all(name, labels, values);
            }
        };
        for (name, labels, op) in ops {
            record(name, labels, op);
        }
        // Fields of 127, 128 and 300 bytes: one- and two-byte length
        // prefixes, and values that are prefixes of each other.
        let long: Vec<String> = [127, 128, 300].iter().map(|&n| "v".repeat(n)).collect();
        for (i, value) in long.iter().enumerate() {
            record("long", &[("k", value)], &Op::Counter(i as u64 + 1));
            record(value, &[("k", "v")], &Op::Gauge(i as f64));
        }
        record("long", &[("k", &long[1])], &Op::Counter(10));
        let snapshot = hub.snapshot();
        let want = reference.snapshot();
        // NaN sums compare unequal, so compare identities, then bytes.
        let ids = |s: &[MetricSeries]| -> Vec<(String, Vec<(String, String)>)> {
            s.iter()
                .map(|s| (s.name.clone(), s.labels.clone()))
                .collect()
        };
        assert_eq!(ids(&snapshot), ids(&want));
        assert_eq!(format!("{snapshot:?}"), format!("{want:?}"));
        assert_eq!(hub.to_json(), reference.to_json());
        assert!(!hub.to_json().contains("empty_only"));
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let hub = MetricsHub::disabled();
        hub.counter("x", &[], 1);
        hub.gauge("y", &[], 2.0);
        hub.observe("z", &[], 3.0);
        hub.batch(|_| panic!("a disabled hub never runs a batch"));
        assert!(hub.snapshot().is_empty());
        assert_eq!(hub.to_json(), "{\"metrics\":[]}");
    }

    #[test]
    fn profiler_is_free_when_off_and_counts_when_on() {
        reset_profiling();
        {
            let _g = profile_phase("obs_test_phase");
        }
        assert!(profile_report()
            .iter()
            .all(|(name, _)| *name != "obs_test_phase"));
        enable_profiling();
        {
            let _g = profile_phase("obs_test_phase");
        }
        disable_profiling();
        let report = profile_report();
        let stat = report
            .iter()
            .find(|(name, _)| *name == "obs_test_phase")
            .expect("phase recorded");
        assert_eq!(stat.1.calls, 1);
        assert!(profile_report_text().contains("obs_test_phase"));
        reset_profiling();
    }
}
