//! Unified observability for the ISE reproduction stack.
//!
//! This crate provides the [`Recorder`] trait — the single instrumentation
//! surface used by the enumeration engine, the task scheduler, the
//! canonicalization memo, the serve caches, and the daemon — together with
//! two implementations:
//!
//! * [`NoopRecorder`]: every method is a no-op. Call sites hold an
//!   `Option<&dyn Recorder>` (one branch when disabled) or a pre-registered
//!   [`Counter`] handle (one null check when disabled), so the disabled path
//!   costs at most a predictable branch per event. The `obs_overhead` bench
//!   asserts the end-to-end cost stays within 1% of an uninstrumented run.
//! * [`MetricsRegistry`]: lock-striped named counters, gauges, power-of-two
//!   bucketed histograms, monotonic span timers feeding a bounded
//!   Chrome-trace event buffer, and renderers for Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]) and Chrome trace-event JSON
//!   ([`MetricsRegistry::render_chrome_trace`]).
//!
//! Design rules enforced throughout the workspace:
//!
//! * Observability is **write-only** from the algorithms' perspective: nothing
//!   recorded here may influence enumeration order, cache keys, or any byte of
//!   result payloads. The integration test `tests/obs_identity.rs` pins this.
//! * Hot paths never format strings or take locks: they hold [`Counter`]
//!   handles (a single relaxed `fetch_add` when enabled) and flush bulk
//!   statistics once per task/run boundary.
//! * Metric names follow Prometheus conventions; labels are embedded in the
//!   registered name (e.g. `ise_engine_phase_ns_total{phase="dedup"}`) and
//!   the renderer groups series by the base name before the `{`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of independent counter-map shards in a [`MetricsRegistry`].
///
/// Registration (name -> atomic) is striped so concurrent workers registering
/// handles do not serialize on one map; increments never touch the maps.
const COUNTER_SHARDS: usize = 16;

/// Maximum number of buffered trace events before new spans are counted but
/// dropped from the timeline (the drop count is exported as a counter).
const TRACE_CAPACITY: usize = 65_536;

/// Number of power-of-two histogram buckets (covers the full `u64` range).
const HIST_BUCKETS: usize = 64;

// ---------------------------------------------------------------------------
// Counter handles
// ---------------------------------------------------------------------------

/// A cheap, cloneable handle to a named monotonic counter.
///
/// A disabled handle (from [`Counter::disabled`] or any [`NoopRecorder`])
/// carries no allocation; `add`/`incr` reduce to a single `None` check.
/// An enabled handle performs one relaxed `fetch_add` per event.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that ignores every increment. This is the `Default`.
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Wrap a shared atomic cell as a live counter handle.
    pub fn from_cell(cell: Arc<AtomicU64>) -> Self {
        Counter(Some(cell))
    }

    /// True when increments on this handle are discarded.
    pub fn is_disabled(&self) -> bool {
        self.0.is_none()
    }

    /// Add `n` to the counter (no-op when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one to the counter (no-op when disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        match &self.0 {
            Some(cell) => cell.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Span tokens
// ---------------------------------------------------------------------------

/// Opaque handle returned by [`Recorder::span_begin`] and consumed by
/// [`Recorder::span_end`]. The zero token is inert ("no span open").
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct SpanToken(u64);

impl SpanToken {
    /// The inert token: ending it is a no-op.
    pub const NONE: SpanToken = SpanToken(0);
}

// ---------------------------------------------------------------------------
// Recorder trait + no-op implementation
// ---------------------------------------------------------------------------

/// The instrumentation surface threaded through every subsystem.
///
/// All methods default to no-ops so implementations opt into exactly the
/// signals they care about, and so call sites can be written once against
/// `&dyn Recorder` regardless of whether recording is live.
pub trait Recorder: Send + Sync {
    /// True when this recorder actually persists events. Call sites may use
    /// this to skip building expensive event descriptions.
    fn enabled(&self) -> bool {
        false
    }

    /// Register (or look up) a named counter and return a cheap handle for
    /// hot-path increments.
    fn counter(&self, name: &str) -> Counter {
        let _ = name;
        Counter::disabled()
    }

    /// One-shot add to a named counter (cold paths; hot paths should hold a
    /// [`Counter`] handle instead).
    fn add(&self, name: &str, n: u64) {
        let _ = (name, n);
    }

    /// Record one observation into a named power-of-two bucketed histogram.
    fn observe(&self, name: &str, value: u64) {
        let _ = (name, value);
    }

    /// Set a named gauge to an absolute value (last write wins).
    fn set_gauge(&self, name: &str, value: u64) {
        let _ = (name, value);
    }

    /// Open a timed span in category `cat`. The returned token must be passed
    /// to [`Recorder::span_end`] exactly once; dropping it leaks the span (the
    /// enter/exit ledger makes that visible).
    fn span_begin(&self, cat: &str, name: &str) -> SpanToken {
        let _ = (cat, name);
        SpanToken::NONE
    }

    /// Close a span opened by [`Recorder::span_begin`].
    fn span_end(&self, token: SpanToken) {
        let _ = token;
    }

    /// Name the calling thread in trace output (e.g. `worker-3`).
    fn set_thread_name(&self, name: &str) {
        let _ = name;
    }
}

/// A recorder that drops every event. Used when no `--trace-out`,
/// `--progress`, or daemon metrics endpoint is active.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Fixed-size power-of-two bucketed histogram (bucket `i` counts values
/// `v` with `v < 2^i`, cumulative at render time).
#[derive(Clone)]
struct Histogram {
    /// `buckets[i]` counts observations whose bucket index is `i`.
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        // Bucket index = number of bits needed, so value 0 lands in bucket 0
        // (le 1), values 1..=1 in bucket 1 (le 2), 2..=3 in bucket 2, etc.
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx.min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// A completed span destined for the Chrome trace-event JSON output.
struct TraceEvent {
    name: String,
    cat: String,
    /// Microseconds since the registry epoch.
    start_us: u64,
    /// Span duration in microseconds.
    dur_us: u64,
    tid: u32,
}

/// A span that has begun but not yet ended; lives in the pending slab.
struct PendingSpan {
    name: String,
    cat: String,
    start: Instant,
    tid: u32,
}

/// Slab of in-flight spans, indexed by `SpanToken - 1`.
#[derive(Default)]
struct PendingSpans {
    slots: Vec<Option<PendingSpan>>,
    free: Vec<usize>,
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// The live recorder: lock-striped counters, gauges, histograms, span timers,
/// and a bounded trace buffer, with Prometheus and Chrome-trace renderers.
///
/// One registry is shared (via `Arc`) across all threads of a run or across
/// the whole daemon lifetime; rendering takes point-in-time snapshots and
/// never blocks hot-path increments.
pub struct MetricsRegistry {
    counters: Vec<Mutex<HashMap<String, Arc<AtomicU64>>>>,
    gauges: Mutex<HashMap<String, u64>>,
    histograms: Mutex<HashMap<String, Histogram>>,
    pending: Mutex<PendingSpans>,
    trace: Mutex<Vec<TraceEvent>>,
    trace_dropped: AtomicU64,
    spans_entered: AtomicU64,
    spans_exited: AtomicU64,
    epoch: Instant,
    threads: Mutex<ThreadTable>,
}

/// Maps OS threads to small stable trace tids plus optional display names.
#[derive(Default)]
struct ThreadTable {
    ids: HashMap<std::thread::ThreadId, u32>,
    names: HashMap<u32, String>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Create an empty registry; the creation instant becomes the trace epoch.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: (0..COUNTER_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            gauges: Mutex::new(HashMap::new()),
            histograms: Mutex::new(HashMap::new()),
            pending: Mutex::new(PendingSpans::default()),
            trace: Mutex::new(Vec::new()),
            trace_dropped: AtomicU64::new(0),
            spans_entered: AtomicU64::new(0),
            spans_exited: AtomicU64::new(0),
            epoch: Instant::now(),
            threads: Mutex::new(ThreadTable::default()),
        }
    }

    fn shard_for(&self, name: &str) -> &Mutex<HashMap<String, Arc<AtomicU64>>> {
        // FNV-1a over the name bytes; only registration hits this path.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.counters[(h as usize) % COUNTER_SHARDS]
    }

    fn cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut shard = self.shard_for(name).lock().expect("counter shard poisoned");
        Arc::clone(shard.entry(name.to_string()).or_default())
    }

    /// Stable small trace tid for the calling thread, assigned on first use.
    fn tid(&self) -> u32 {
        let mut table = self.threads.lock().expect("thread table poisoned");
        let next = table.ids.len() as u32;
        *table.ids.entry(std::thread::current().id()).or_insert(next)
    }

    /// Number of spans opened so far (ledger; compare with
    /// [`MetricsRegistry::spans_exited`]).
    pub fn spans_entered(&self) -> u64 {
        self.spans_entered.load(Ordering::Relaxed)
    }

    /// Number of spans closed so far.
    pub fn spans_exited(&self) -> u64 {
        self.spans_exited.load(Ordering::Relaxed)
    }

    /// Number of completed spans discarded because the trace buffer was full.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped.load(Ordering::Relaxed)
    }

    /// Current value of a named counter (0 if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        let shard = self.shard_for(name).lock().expect("counter shard poisoned");
        shard.get(name).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Flat, sorted `(sanitized_name, value)` snapshot of all counters and
    /// gauges, suitable for embedding as a flat JSON object (the daemon's
    /// `stats` op). Label punctuation is folded into `_` so keys contain no
    /// braces or quotes.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for shard in &self.counters {
            let shard = shard.lock().expect("counter shard poisoned");
            for (name, cell) in shard.iter() {
                out.push((sanitize_key(name), cell.load(Ordering::Relaxed)));
            }
        }
        let gauges = self.gauges.lock().expect("gauge map poisoned");
        for (name, value) in gauges.iter() {
            out.push((sanitize_key(name), *value));
        }
        out.push(("obs_spans_entered".to_string(), self.spans_entered()));
        out.push(("obs_spans_exited".to_string(), self.spans_exited()));
        out.sort();
        out.dedup_by(|a, b| a.0 == b.0);
        out
    }

    /// Render every counter, gauge, and histogram in Prometheus text
    /// exposition format (version 0.0.4). Series sharing a base name (the
    /// part before any `{`) are grouped under one `# TYPE` line.
    pub fn render_prometheus(&self) -> String {
        let mut counters: Vec<(String, u64)> = Vec::new();
        for shard in &self.counters {
            let shard = shard.lock().expect("counter shard poisoned");
            for (name, cell) in shard.iter() {
                counters.push((name.clone(), cell.load(Ordering::Relaxed)));
            }
        }
        counters.push((
            "ise_obs_spans_entered_total".to_string(),
            self.spans_entered(),
        ));
        counters.push((
            "ise_obs_spans_exited_total".to_string(),
            self.spans_exited(),
        ));
        counters.push((
            "ise_obs_trace_dropped_total".to_string(),
            self.trace_dropped(),
        ));
        counters.sort();
        let mut gauges: Vec<(String, u64)> = {
            let map = self.gauges.lock().expect("gauge map poisoned");
            map.iter().map(|(k, v)| (k.clone(), *v)).collect()
        };
        gauges.sort();

        let mut out = String::new();
        let mut last_base = String::new();
        for (name, value) in &counters {
            let base = base_name(name);
            if base != last_base {
                out.push_str("# TYPE ");
                out.push_str(base);
                out.push_str(" counter\n");
                last_base = base.to_string();
            }
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        last_base.clear();
        for (name, value) in &gauges {
            let base = base_name(name);
            if base != last_base {
                out.push_str("# TYPE ");
                out.push_str(base);
                out.push_str(" gauge\n");
                last_base = base.to_string();
            }
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }

        let mut hists: Vec<(String, Histogram)> = {
            let map = self.histograms.lock().expect("histogram map poisoned");
            map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        last_base.clear();
        for (name, hist) in &hists {
            // A labelled series `base{labels}` renders as `base_bucket{labels,le=..}`,
            // `base_sum{labels}` and `base_count{labels}`, one # TYPE line per base.
            let base = base_name(name);
            let braced = &name[base.len()..];
            let labels = braced
                .strip_prefix('{')
                .and_then(|rest| rest.strip_suffix('}'))
                .unwrap_or("");
            if base != last_base {
                out.push_str("# TYPE ");
                out.push_str(base);
                out.push_str(" histogram\n");
                last_base = base.to_string();
            }
            let mut bucket = |le: &str, cumulative: u64| {
                out.push_str(base);
                out.push_str("_bucket{");
                out.push_str(labels);
                if !labels.is_empty() {
                    out.push(',');
                }
                out.push_str("le=\"");
                out.push_str(le);
                out.push_str("\"} ");
                out.push_str(&cumulative.to_string());
                out.push('\n');
            };
            let mut cumulative = 0u64;
            for (i, n) in hist.buckets.iter().enumerate() {
                cumulative += n;
                if *n == 0 && i != 0 {
                    continue;
                }
                // Upper bound of bucket i is 2^i (bucket 0 holds value 0).
                if i >= 63 {
                    bucket("+Inf", cumulative);
                } else {
                    bucket(&(1u64 << i).to_string(), cumulative);
                }
            }
            bucket("+Inf", hist.count);
            for (suffix, value) in [("_sum", hist.sum), ("_count", hist.count)] {
                out.push_str(base);
                out.push_str(suffix);
                out.push_str(braced);
                out.push(' ');
                out.push_str(&value.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Render the buffered spans as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form, loadable in `chrome://tracing`
    /// and Perfetto). Each span is a `ph:"X"` complete event under its
    /// worker thread; named threads get `ph:"M"` `thread_name` metadata.
    pub fn render_chrome_trace(&self) -> String {
        let events = self.trace.lock().expect("trace buffer poisoned");
        let table = self.threads.lock().expect("thread table poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut names: Vec<(u32, &String)> = table.names.iter().map(|(k, v)| (*k, v)).collect();
        names.sort();
        for (tid, name) in names {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                tid,
                escape_json(name)
            ));
        }
        for ev in events.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                escape_json(&ev.name),
                escape_json(&ev.cat),
                ev.start_us,
                ev.dur_us,
                ev.tid
            ));
        }
        out.push_str("]}");
        out
    }
}

impl Recorder for MetricsRegistry {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &str) -> Counter {
        Counter::from_cell(self.cell(name))
    }

    fn add(&self, name: &str, n: u64) {
        self.cell(name).fetch_add(n, Ordering::Relaxed);
    }

    fn observe(&self, name: &str, value: u64) {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        match map.get_mut(name) {
            Some(hist) => hist.observe(value),
            None => map
                .entry(name.to_string())
                .or_insert_with(Histogram::new)
                .observe(value),
        }
    }

    fn set_gauge(&self, name: &str, value: u64) {
        let mut map = self.gauges.lock().expect("gauge map poisoned");
        map.insert(name.to_string(), value);
    }

    fn span_begin(&self, cat: &str, name: &str) -> SpanToken {
        self.spans_entered.fetch_add(1, Ordering::Relaxed);
        let span = PendingSpan {
            name: name.to_string(),
            cat: cat.to_string(),
            start: Instant::now(),
            tid: self.tid(),
        };
        let mut pending = self.pending.lock().expect("pending spans poisoned");
        let idx = match pending.free.pop() {
            Some(idx) => {
                pending.slots[idx] = Some(span);
                idx
            }
            None => {
                pending.slots.push(Some(span));
                pending.slots.len() - 1
            }
        };
        SpanToken(idx as u64 + 1)
    }

    fn span_end(&self, token: SpanToken) {
        if token == SpanToken::NONE {
            return;
        }
        let idx = (token.0 - 1) as usize;
        let span = {
            let mut pending = self.pending.lock().expect("pending spans poisoned");
            let span = pending.slots.get_mut(idx).and_then(Option::take);
            if span.is_some() {
                pending.free.push(idx);
            }
            span
        };
        let Some(span) = span else { return };
        self.spans_exited.fetch_add(1, Ordering::Relaxed);
        let end = Instant::now();
        let start_us = span.start.duration_since(self.epoch).as_micros() as u64;
        let dur_us = end.duration_since(span.start).as_micros() as u64;
        let mut trace = self.trace.lock().expect("trace buffer poisoned");
        if trace.len() >= TRACE_CAPACITY {
            drop(trace);
            self.trace_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        trace.push(TraceEvent {
            name: span.name,
            cat: span.cat,
            start_us,
            dur_us,
            tid: span.tid,
        });
    }

    fn set_thread_name(&self, name: &str) {
        let tid = self.tid();
        let mut table = self.threads.lock().expect("thread table poisoned");
        table.names.insert(tid, name.to_string());
    }
}

/// The base series name: everything before the first `{` label delimiter.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Fold label punctuation (`{`, `}`, `"`, `=`, `,`) into underscores and trim
/// runs so snapshot keys are safe inside a flat JSON object.
fn sanitize_key(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_underscore = false;
    for ch in name.chars() {
        let mapped = match ch {
            '{' | '}' | '"' | '=' | ',' | ' ' => '_',
            other => other,
        };
        if mapped == '_' {
            if !last_underscore {
                out.push('_');
            }
            last_underscore = true;
        } else {
            out.push(mapped);
            last_underscore = false;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// Minimal JSON string escaping for trace names and categories.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counter_is_inert() {
        let c = Counter::disabled();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 0);
        assert!(c.is_disabled());
    }

    #[test]
    fn noop_recorder_returns_inert_handles() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        let c = rec.counter("anything");
        c.add(7);
        assert_eq!(c.get(), 0);
        let token = rec.span_begin("cat", "name");
        assert_eq!(token, SpanToken::NONE);
        rec.span_end(token);
    }

    #[test]
    fn registry_counters_accumulate_and_share_cells() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("ise_test_total");
        let b = reg.counter("ise_test_total");
        a.add(3);
        b.incr();
        assert_eq!(reg.counter_value("ise_test_total"), 4);
        reg.add("ise_test_total", 6);
        assert_eq!(reg.counter_value("ise_test_total"), 10);
    }

    #[test]
    fn span_ledger_balances_and_fills_trace() {
        let reg = MetricsRegistry::new();
        reg.set_thread_name("main");
        let outer = reg.span_begin("engine", "run");
        let inner = reg.span_begin("engine", "phase");
        reg.span_end(inner);
        reg.span_end(outer);
        assert_eq!(reg.spans_entered(), 2);
        assert_eq!(reg.spans_exited(), 2);
        let trace = reg.render_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"phase\""));
        assert!(trace.contains("\"thread_name\""));
        // Double-end is harmless.
        reg.span_end(outer);
        assert_eq!(reg.spans_exited(), 2);
    }

    #[test]
    fn prometheus_rendering_groups_by_base_name() {
        let reg = MetricsRegistry::new();
        reg.add("ise_phase_ns_total{phase=\"dedup\"}", 5);
        reg.add("ise_phase_ns_total{phase=\"pick_output\"}", 7);
        reg.set_gauge("ise_memo_entries", 42);
        reg.observe("ise_task_nodes", 3);
        reg.observe("ise_task_nodes", 900);
        let text = reg.render_prometheus();
        // One TYPE line for the labelled counter family.
        assert_eq!(text.matches("# TYPE ise_phase_ns_total counter").count(), 1);
        assert!(text.contains("ise_phase_ns_total{phase=\"dedup\"} 5\n"));
        assert!(text.contains("ise_phase_ns_total{phase=\"pick_output\"} 7\n"));
        assert!(text.contains("# TYPE ise_memo_entries gauge\nise_memo_entries 42\n"));
        assert!(text.contains("# TYPE ise_task_nodes histogram"));
        assert!(text.contains("ise_task_nodes_sum 903\n"));
        assert!(text.contains("ise_task_nodes_count 2\n"));
        assert!(text.contains("ise_task_nodes_bucket{le=\"+Inf\"} 2\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<u64>().is_ok(), "bad value in line: {line}");
        }
    }

    #[test]
    fn snapshot_sanitizes_label_syntax() {
        let reg = MetricsRegistry::new();
        reg.add("ise_phase_ns_total{phase=\"dedup\"}", 9);
        reg.set_gauge("ise_memo_entries", 1);
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert!(
            keys.contains(&"ise_phase_ns_total_phase_dedup"),
            "keys: {keys:?}"
        );
        assert!(keys.contains(&"ise_memo_entries"));
        for (k, _) in &snap {
            assert!(!k.contains(['{', '}', '"', '=']), "unsanitized key {k}");
        }
        // Sorted for deterministic embedding.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_output() {
        let reg = MetricsRegistry::new();
        reg.observe("h", 0);
        reg.observe("h", 1);
        reg.observe("h", u64::MAX);
        let text = reg.render_prometheus();
        assert!(text.contains("h_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("h_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn labelled_histograms_render_one_family_with_merged_labels() {
        let reg = MetricsRegistry::new();
        reg.observe("ise_req_us{op=\"a\",outcome=\"hit\"}", 3);
        reg.observe("ise_req_us{op=\"a\",outcome=\"miss\"}", 900);
        reg.observe("ise_req_us{op=\"a\",outcome=\"miss\"}", 1);
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# TYPE ise_req_us histogram").count(),
            1,
            "{text}"
        );
        assert!(text.contains("ise_req_us_bucket{op=\"a\",outcome=\"hit\",le=\"4\"} 1\n"));
        assert!(text.contains("ise_req_us_bucket{op=\"a\",outcome=\"miss\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("ise_req_us_sum{op=\"a\",outcome=\"miss\"} 901\n"));
        assert!(text.contains("ise_req_us_count{op=\"a\",outcome=\"hit\"} 1\n"));
    }

    #[test]
    fn concurrent_span_and_counter_traffic_is_consistent() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    reg.set_thread_name(&format!("worker-{i}"));
                    let c = reg.counter("ise_thread_events_total");
                    for _ in 0..100 {
                        let t = reg.span_begin("pool", "task");
                        c.incr();
                        reg.span_end(t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter_value("ise_thread_events_total"), 400);
        assert_eq!(reg.spans_entered(), 400);
        assert_eq!(reg.spans_exited(), 400);
    }
}
