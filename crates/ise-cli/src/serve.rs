//! `ise serve`: a concurrent enumeration daemon with a content-addressed cache.
//!
//! A long-running process accepting **line-delimited JSON** requests — one request
//! per line, one response line per request — over stdin/stdout or, with
//! `--listen ADDR`, over TCP, where each accepted connection is served by its own
//! thread over one shared [`ServerState`]. The same listener also speaks a minimal
//! **HTTP/1.1** dialect (the first line of a connection is sniffed: an HTTP method
//! selects the HTTP shim, anything else is treated as a JSON request line), so
//! load balancers and plain `curl` can talk to the daemon. The protocol
//! (DESIGN.md §7):
//!
//! ```text
//! {"op":"enumerate"|"select"|"group", "block": <.dfg text or corpus path>,
//!  "flags": {"nin":4, "nout":2, "budget":1000000, ...}}
//! {"op":"stats"}      -> cache/server counters (never cached)
//! {"op":"shutdown"}   -> acknowledge and exit the serve loop
//!
//! POST /v1/enumerate|/v1/group|/v1/select   (JSON request body, minus "op")
//! GET  /v1/stats                            -> the stats op
//! GET  /v1/metrics                          -> Prometheus text exposition
//! ```
//!
//! A successful evaluation answers
//! `{"ok":true,"op":...,"key":"<hex>","cached":bool,"elapsed_ms":N,"result":{...}}`;
//! failures answer `{"ok":false,"error":"..."}` and the daemon keeps serving. The
//! HTTP shim returns the identical envelope as the response body (status 200 for
//! `ok:true`, 400 otherwise). A request whose bytes are not UTF-8 is one more
//! such failure, on every transport. A request line or HTTP body longer than
//! [`MAX_REQUEST_BYTES`] is answered with that error envelope (HTTP status 413)
//! before it is read in full. Over TCP the connection is then closed; on stdin the
//! rest of the line is skipped unbuffered and the next line is served.
//!
//! **Caching.** Every evaluated request is keyed by a stable content hash
//! ([`crate::cache::content_hash`]) over semantic inputs only: the canonical `.dfg`
//! bytes of every block ([`ise_corpus::CorpusBlock::canonical_bytes`], so
//! formatting-only variants of a block share a key), the engine flag tokens
//! ([`ise_enum::Constraints::cache_token`], [`ise_enum::PruningConfig::cache_token`],
//! budget and fan-out threshold) and the op-specific flags. Results are
//! held in a bounded in-memory LRU of once-cells, one per key, backed by an
//! optional `--cache-dir` directory that survives restarts
//! (`cache::read_payload`, `cache::write_payload`). Below the
//! response cache, per-block `Enumeration`s and canonical codings are cached
//! under their own content keys, so an `enumerate` followed by a `group` over the same corpus
//! re-enumerates nothing. Beneath all three sits a shared [`ise_canon::CanonMemo`]:
//! the canonical labeler runs once per distinct raw interface graph over the
//! daemon's whole lifetime. Before any key is derived, a source cache keeps each
//! request `block`'s parsed blocks, their canonical bytes and the key hasher's
//! state after each block; every request still reads its files, and the cached
//! parse answers only while those bytes are unchanged, so a warm request re-reads
//! but never re-parses. The `stats` op reports every cache's counters plus the
//! daemon-level `server` counters (requests, hits, misses, errors, coalesced,
//! connection errors), and `GET /v1/metrics` adds the per-op, per-outcome request
//! latency histogram `ise_serve_request_us`.
//!
//! **Concurrency.** `--listen` accepts up to `--max-connections` concurrent
//! connections, each on its own thread; all threads share one [`ServerState`]
//! whose caches live behind mutexes and whose counters are atomics. Concurrent
//! *cold* requests for the same content key are **coalesced**: a request takes the
//! response lock once, to find its key's `OnceLock` cell or insert an empty one,
//! and answers from the cell outside every lock. A filled cell is a hit; otherwise
//! the first request to initialize the cell reads the `--cache-dir` file or
//! computes (and writes the file), and every concurrent duplicate waits on the
//! same cell — N clients asking for the same cold block trigger exactly one
//! `run_batch_obs`. A panicking initializer leaves the cell empty for a waiting
//! request to fill. Coalesced responses report `"cached":true` (they were
//! answered without computing) and are counted by the `coalesced` counter in the
//! `stats` op. With `--cache-cap 0` no cell is kept, so nothing coalesces, and a
//! cell evicted while it is still being filled may be computed once more.
//! Byte-identity is preserved under any interleaving because every payload is a
//! pure function of its content key — the concurrency stress harness (`tests/serve_concurrent.rs` and
//! `crates/ise-cli/tests/serve_daemon.rs`) replays mixed workloads from many
//! clients and compares stripped responses against a serial replay.
//!
//! **Determinism.** Cached payloads embed no wall times, thread counts or request
//! paths (elapsed fields are zeroed, `threads` is pinned to 1, the `corpus` field
//! is the corpus content key) — so a warm response is **byte-identical** to the
//! cold response it replays, and the volatile facts (`cached`, `elapsed_ms`) live
//! only in the envelope. CI's serve smoke strips the envelope fields and `cmp`s
//! cold vs warm bytes — and the concurrent replay against a serial one.
//!
//! **Shutdown.** A stop is the `shutdown` op or SIGTERM/SIGINT (the handler only
//! stores an `AtomicBool`, which one watcher thread looks at every 50 ms). Over
//! TCP the accept loop blocks in `accept`, and a stop wakes it with one connection
//! to the listener's own address. The loop then shuts the read half of every live
//! connection: idle readers see EOF at once, while a request already in flight
//! finishes and writes its whole response (responses are written before the flag
//! is re-checked). The threads are joined and the process exits with status 0 —
//! what CI's smoke asserts after `kill -TERM` under load. Nothing on the
//! connection path sleeps or polls. The stdin loop reads both flags after each
//! request and every 100 ms while idle.

use std::io::{self, BufRead, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant};

use ise_bench::json::Json;
use ise_canon::{
    canonicalize_cuts_memo, CanonMemo, CodedCut, GroupConfig, MemoStats, PatternIndex,
};
use ise_corpus::{parse_corpus, read_corpus, CorpusBlock, CorpusText};
use ise_enum::Enumeration;
use ise_obs::{Counter, MetricsRegistry};

use crate::batch::{run_batch_obs, BatchConfig, BlockOutcome};
use crate::cache::{
    content_hash, prepare_dir, read_payload, write_payload, CacheStats, ContentHasher, LruCache,
};
use crate::job::{job_flags, Job, Op};
use crate::report::written;
use crate::{group, CliError, Flags};

/// Default bound, in entries, of each of the daemon's caches (`--cache-cap`).
pub const DEFAULT_CACHE_CAP: usize = 256;

/// Default bound on concurrent TCP connections (`--max-connections`). Beyond it
/// the accept loop waits for a connection to finish before it accepts again —
/// pending clients queue in the kernel backlog instead of being refused.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Largest request the daemon accepts, in bytes: one JSON-protocol line (on stdin
/// or TCP), one HTTP header line, or one HTTP body. The largest committed corpus
/// block is about 31 KB, so inline blocks keep two orders of magnitude of headroom,
/// while a hostile or broken client can no longer make the daemon allocate without
/// bound.
pub const MAX_REQUEST_BYTES: usize = 8 << 20;

/// Marks the I/O error a transport returns for a request whose end it cannot
/// find: one over [`MAX_REQUEST_BYTES`], or an HTTP request whose
/// `Content-Length` does not parse or that carries a `Transfer-Encoding`.
/// [`serve_connection`] answers it in band, with `status` over HTTP, and closes
/// the connection, which can no longer stay in step.
#[derive(Debug)]
struct RejectedRequest {
    status: &'static str,
    message: String,
}

impl std::fmt::Display for RejectedRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RejectedRequest {}

fn rejected(status: &'static str, message: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        RejectedRequest { status, message },
    )
}

fn request_too_large(what: &str) -> io::Error {
    rejected(
        "413 Payload Too Large",
        format!("{what} exceeds the {MAX_REQUEST_BYTES}-byte request limit"),
    )
}

/// Signal handling for graceful shutdown: SIGTERM/SIGINT set a flag that the stdin
/// loop and the TCP transport's signal watcher read. The single `unsafe` block of
/// the workspace lives here — one audited libc `signal` binding; the handler body
/// is async-signal-safe (one atomic store).
#[cfg(unix)]
#[allow(unsafe_code)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn terminated() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn terminated() -> bool {
        false
    }
}

const SERVE_FLAGS: &[&str] = &[
    "listen",
    "cache-dir",
    "cache-cap",
    "max-connections",
    "compute-delay-ms",
    "trace-out",
];

/// Runs `ise serve` until EOF, a `shutdown` request, or SIGTERM/SIGINT.
///
/// # Errors
///
/// Returns [`CliError`] on malformed serve flags, an unbindable `--listen`
/// address, or a broken stdout pipe. Request-level failures are answered in-band
/// (`{"ok":false,...}`) and never terminate the daemon.
pub fn run_serve_command(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, SERVE_FLAGS)?;
    let cap = flags.usize("cache-cap", DEFAULT_CACHE_CAP)?;
    let dir = flags.get("cache-dir").map(PathBuf::from);
    let max_connections = flags.usize("max-connections", DEFAULT_MAX_CONNECTIONS)?;
    if max_connections == 0 {
        return Err(CliError::Usage(
            "`--max-connections` must be at least 1".to_string(),
        ));
    }
    let mut state = ServerState::new(cap, dir);
    // Test seam (used by the concurrency harness and CI's shutdown-under-load
    // smoke): an artificial delay on every cold computation, so "mid-request"
    // and "concurrent cold duplicates" are reproducible states.
    let delay_ms = flags.usize("compute-delay-ms", 0)?;
    if delay_ms > 0 {
        state = state.with_compute_delay(Duration::from_millis(delay_ms as u64));
    }
    let trace_out = flags.get("trace-out").map(str::to_string);
    if let Some(path) = &trace_out {
        crate::validate_out_target(path)?;
    }
    sig::install();
    let state = Arc::new(state);
    match flags.get("listen") {
        Some(addr) => serve_tcp(&state, addr, max_connections)?,
        None => serve_stdin(&state)?,
    }
    // The trace is written once, at graceful shutdown, so it covers the daemon's
    // whole lifetime (the buffer is bounded; long-lived daemons keep the oldest
    // spans and count the dropped tail).
    if let Some(path) = &trace_out {
        crate::obs::write_trace(path, state.registry())?;
    }
    Ok(())
}

/// Daemon-level request accounting, reported as the `server` object of the
/// `stats` op. Every protocol line that evaluates (or fails) counts exactly one
/// of `hits` (answered without computing: a filled response cell, a `--cache-dir`
/// file, or another request's computation, which also counts as `coalesced`),
/// `misses` (this request ran the computation) or `errors` (`ok:false`), so
/// `hits + misses + errors == requests` is an invariant the concurrency stress
/// harness asserts. `stats` and `shutdown` lines are control traffic and are
/// deliberately not counted.
///
/// Each counter is a handle into the daemon's [`MetricsRegistry`]
/// (`ise_serve_<name>_total`), so the same cells feed the `stats` op and the
/// `GET /v1/metrics` exposition.
#[derive(Debug)]
struct ServeCounters {
    requests: Counter,
    hits: Counter,
    misses: Counter,
    errors: Counter,
    coalesced: Counter,
    /// Response payloads read back from `--cache-dir`, reported under `responses`.
    disk_hits: Counter,
    connection_errors: Counter,
}

impl ServeCounters {
    fn new(rec: &MetricsRegistry) -> Self {
        ServeCounters {
            requests: rec.counter("ise_serve_requests_total"),
            hits: rec.counter("ise_serve_hits_total"),
            misses: rec.counter("ise_serve_misses_total"),
            errors: rec.counter("ise_serve_errors_total"),
            coalesced: rec.counter("ise_serve_coalesced_total"),
            disk_hits: rec.counter("ise_serve_disk_hits_total"),
            connection_errors: rec.counter("ise_serve_connection_errors_total"),
        }
    }
}

/// One daemon's shared state: caches, counters and the shutdown latch. Every
/// cache lives behind its own mutex and every counter is atomic, so [`ServerState::handle_line`] takes `&self` and one state serves
/// any number of connection threads ([`ServerState`] is `Sync`). The serve loops
/// only move lines in and out — so tests drive the daemon in-process without
/// sockets, or concurrently over `Arc<ServerState>`.
pub struct ServerState {
    /// One cell per response key, filled once by the first request that
    /// initializes it; concurrent requests for the key wait on the same cell.
    responses: Mutex<LruCache<Arc<OnceLock<String>>>>,
    /// Where response payloads persist across restarts (`--cache-dir`).
    cache_dir: Option<PathBuf>,
    /// Each request source parsed once, keyed by the request's `block` string and
    /// answered only while its bytes are unchanged (see [`resolve`]).
    sources: SourceCache,
    /// Per-block enumerations and codings. Values are shared, so a hit clones
    /// a pointer under the lock and any owned copy is made outside it.
    enumerations: Mutex<LruCache<Arc<(Enumeration, usize)>>>,
    codings: Mutex<LruCache<Arc<Vec<CodedCut>>>>,
    /// Raw-encoding → canonical-code memo shared by every coding the daemon
    /// performs. It sits *beneath* the codings LRU: even when a coding key is
    /// evicted or a new port configuration misses the LRU, patterns already
    /// labeled in any earlier request skip the canonical labeler. Already
    /// lock-striped internally — no outer mutex needed.
    memo: CanonMemo,
    counters: ServeCounters,
    /// The daemon's metrics registry: request/engine/pool counters, request
    /// spans and cache/memo gauges, rendered by `GET /v1/metrics` (Prometheus)
    /// and `--trace-out` (Chrome trace events). Pure observability — nothing in
    /// it ever reaches a cached payload.
    registry: Arc<MetricsRegistry>,
    /// Test seam: sleep this long at the start of every cold computation.
    compute_delay: Option<Duration>,
    shutdown: AtomicBool,
}

// `ServerState` is shared by reference across connection threads; keep the
// compiler proving that is sound as fields evolve.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<ServerState>();
};

/// An evaluated request: the deterministic payload plus the envelope facts.
struct Reply {
    op: &'static str,
    key: String,
    answer: Answer,
    payload: String,
}

/// How an evaluated request was answered; the `outcome` label of its latency
/// series, beside `error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Answer {
    /// From the response cache or its `--cache-dir` file.
    Hit,
    /// From a concurrent request's computation.
    Coalesced,
    /// Computed for this request.
    Miss,
}

impl Answer {
    fn label(self) -> &'static str {
        match self {
            Answer::Hit => "hit",
            Answer::Coalesced => "coalesced",
            Answer::Miss => "miss",
        }
    }
}

impl ServerState {
    /// A fresh state whose four caches (responses, request sources, per-block
    /// enumerations, per-block codings) each hold at most `cap` entries;
    /// `cache_dir` persists response payloads across restarts (created here,
    /// best-effort, and cleared of temporary files that a killed daemon left).
    pub fn new(cap: usize, cache_dir: Option<PathBuf>) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let mut memo = CanonMemo::new();
        memo.set_recorder(registry.as_ref());
        if let Some(dir) = &cache_dir {
            prepare_dir(dir);
        }
        ServerState {
            responses: Mutex::new(LruCache::new(cap)),
            cache_dir,
            sources: Mutex::new(LruCache::new(cap)),
            enumerations: Mutex::new(LruCache::new(cap)),
            codings: Mutex::new(LruCache::new(cap)),
            memo,
            counters: ServeCounters::new(registry.as_ref()),
            registry,
            compute_delay: None,
            shutdown: AtomicBool::new(false),
        }
    }

    /// The daemon's metrics registry (for `--trace-out` and test observability).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Test seam: sleep `delay` at the start of every cold computation, so
    /// concurrency tests can hold a request "mid-flight" deterministically
    /// (the same role `CanonMemo::with_fingerprinter` plays for the memo).
    /// Exposed to the binary as the `--compute-delay-ms` flag.
    #[must_use]
    pub fn with_compute_delay(mut self, delay: Duration) -> Self {
        self.compute_delay = Some(delay);
        self
    }

    /// Whether a `shutdown` request has been acknowledged.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The source cache's counters (test observability).
    pub fn source_stats(&self) -> CacheStats {
        self.sources.lock().expect("source cache lock").stats()
    }

    /// The per-block enumeration cache's counters (test observability).
    pub fn enumeration_stats(&self) -> CacheStats {
        self.enumerations
            .lock()
            .expect("enumeration cache lock")
            .stats()
    }

    /// The per-block coding cache's counters (test observability).
    pub fn coding_stats(&self) -> CacheStats {
        self.codings.lock().expect("coding cache lock").stats()
    }

    /// The canonicalization memo's counters (test observability).
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Handles one protocol line and returns the response line (without the
    /// trailing newline). Never panics on malformed input — every failure becomes
    /// an `{"ok":false,...}` response. Safe to call from many threads at once;
    /// concurrent duplicate cold requests coalesce onto one computation.
    ///
    /// The control ops (`stats`, `shutdown`) are answered verbatim, like
    /// `GET /v1/stats`: outside any request span, the `server` counters and the
    /// latency histogram, so a `stats` answer reads a balanced span ledger.
    pub fn handle_line(&self, line: &str) -> String {
        let started = Instant::now();
        let request =
            Json::parse(line).map_err(|e| CliError::Usage(format!("request is not JSON: {e}")));
        match request.as_ref().ok().and_then(|r| r.get("op")?.as_str()) {
            Some("stats") => return self.stats_response(),
            Some("shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                return "{\"ok\":true,\"op\":\"shutdown\"}".to_string();
            }
            _ => {}
        }
        self.respond(started, |label| {
            let request = request?;
            let op = request
                .get("op")
                .and_then(Json::as_str)
                .ok_or_else(|| CliError::Usage("request needs a string `op` field".into()))?;
            *label = op_label(op);
            self.evaluate(resolve(op, &request, &self.sources)?)
        })
    }

    /// Runs one request inside a `serve`/`request` span and renders its response:
    /// the envelope around an evaluated payload, or a counted in-band error. Both
    /// transports answer every evaluated request through here.
    ///
    /// The request sets its `op` label once it knows it (`unknown` until then);
    /// every evaluated or failed request is observed once in
    /// `ise_serve_request_us{op,outcome}`, timed from `started`.
    fn respond(
        &self,
        started: Instant,
        request: impl FnOnce(&mut &'static str) -> Result<Reply, CliError>,
    ) -> String {
        let span = self.registry.span_begin("serve", "request");
        let mut op = "unknown";
        let outcome = request(&mut op);
        drop(span);
        let (response, label) = match outcome {
            Ok(Reply {
                op,
                key,
                answer,
                payload,
            }) => {
                self.counters.requests.incr();
                let cached = answer != Answer::Miss;
                if cached {
                    self.counters.hits.incr();
                } else {
                    self.counters.misses.incr();
                }
                if answer == Answer::Coalesced {
                    self.counters.coalesced.incr();
                }
                // `elapsed_us` exists because warm hits routinely finish in well
                // under a millisecond, where `elapsed_ms` truncates to 0; both
                // are envelope-only facts (never cached, stripped as volatile).
                let elapsed = started.elapsed();
                let response = format!(
                    "{{\"ok\":true,\"op\":\"{op}\",\"key\":\"{key}\",\"cached\":{cached},\
                     \"elapsed_ms\":{},\"elapsed_us\":{},\"result\":{payload}}}",
                    elapsed.as_millis(),
                    elapsed.as_micros(),
                );
                (response, answer.label())
            }
            Err(error) => (self.error_response(&error.to_string()), "error"),
        };
        self.registry.observe(
            &format!("ise_serve_request_us{{op=\"{op}\",outcome=\"{label}\"}}"),
            started.elapsed().as_micros() as u64,
        );
        response
    }

    /// Renders (and counts) one in-band error response. Also used by the HTTP
    /// shim for routing failures, so the `server` counters stay consistent for
    /// any transport.
    fn error_response(&self, message: &str) -> String {
        self.counters.requests.incr();
        self.counters.errors.incr();
        format!("{{\"ok\":false,\"error\":{}}}", Json::str(message).render())
    }

    /// The in-band error for a request whose bytes are not UTF-8; every transport
    /// answers it and keeps serving.
    fn not_utf8(&self, error: std::str::Utf8Error) -> String {
        self.error_response(&format!("request is not valid UTF-8: {error}"))
    }

    /// Logs a connection-level I/O failure and bumps the `connection_errors`
    /// counter — a dropped connection must be observable, never silent.
    fn note_connection_error(&self, peer: &str, error: &io::Error) {
        self.counters.connection_errors.incr();
        eprintln!("ise serve: connection {peer}: {error}");
    }

    /// The shared evaluate path: one lookup under the response lock finds the
    /// key's cell or inserts an empty one, and the request is answered from the
    /// cell outside every lock. A filled cell is a hit. Otherwise the request
    /// initializes the cell ([`ServerState::load_or_compute`]), or waits for the
    /// request already initializing it and answers its payload, byte-identical to
    /// what this request would compute.
    fn evaluate(&self, resolved: Resolved) -> Result<Reply, CliError> {
        let cell = self
            .responses
            .lock()
            .expect("response cache lock")
            .get_or_insert_with(&resolved.key, Arc::default);
        let (answer, payload) = match cell.get() {
            Some(payload) => (Answer::Hit, payload.clone()),
            None => {
                let mut answer = Answer::Coalesced;
                let payload = cell.get_or_init(|| {
                    let (from_disk, payload) = self.load_or_compute(&resolved);
                    answer = if from_disk { Answer::Hit } else { Answer::Miss };
                    payload
                });
                (answer, payload.clone())
            }
        };
        Ok(Reply {
            op: resolved.job.op.command(),
            key: resolved.key,
            answer,
            payload,
        })
    }

    /// A response cell's initializer: the payload of a verified `--cache-dir`
    /// file (`true`), or a fresh computation, stored there for a restarted daemon
    /// (`false`).
    fn load_or_compute(&self, resolved: &Resolved) -> (bool, String) {
        let dir = self.cache_dir.as_deref();
        if let Some(payload) = dir.and_then(|dir| read_payload(dir, &resolved.key)) {
            self.counters.disk_hits.incr();
            return (true, payload);
        }
        let payload = self.compute(resolved);
        if let Some(dir) = dir {
            write_payload(dir, &resolved.key, &payload);
        }
        (false, payload)
    }

    fn compute(&self, resolved: &Resolved) -> String {
        if let Some(delay) = self.compute_delay {
            std::thread::sleep(delay);
        }
        let (job, source, n) = (&resolved.job, &resolved.source, resolved.blocks);
        let (blocks, canonical) = (&source.blocks[..n], &source.canonical[..n]);
        let (engine_token, _) = job.cache_tokens();
        let (outcomes, enum_keys) =
            self.outcomes_with_cache(blocks, canonical, &job.batch_config(), &engine_token);

        // The deterministic payload: no wall times, no thread counts, no request
        // paths. `corpus` names the corpus *content*, so an inline block and a file
        // holding the same block render the same bytes.
        let mut meta = job.meta(Duration::ZERO);
        meta.threads = 1;
        meta.corpus = format!("cache:{}", source.prefixes[n].finish());

        let index = matches!(job.op, Op::Group | Op::SelectGlobal)
            .then(|| self.index_with_cache(blocks, &outcomes, &enum_keys, &job.group_config()));
        let report = job.report(blocks, &outcomes, index.as_ref());
        // Memo stats are never embedded in the payload: they depend on request
        // history, and serve payloads must be byte-identical cold vs. warm. The
        // `stats` op reports them instead.
        written(|out| job.write_json(out, &report, &meta, None))
    }

    /// Per-block enumeration through the content-addressed cache: cached blocks
    /// are reconstructed, missed blocks run through the real batch scheduler with
    /// the daemon's registry observing (the per-block result of [`run_batch_obs`]
    /// is a function of the block and the config alone — never of the recorder —
    /// so a partial batch reproduces the full batch's rows exactly). The
    /// cache lock is held per lookup/insert, never across `run_batch_obs` — two
    /// threads may race to compute the same block, in which case both compute the
    /// identical value and the second insert overwrites with the same bytes
    /// (response-level coalescing makes this race rare in practice).
    fn outcomes_with_cache(
        &self,
        blocks: &[CorpusBlock],
        canonical: &[String],
        config: &BatchConfig,
        engine_token: &str,
    ) -> (Vec<BlockOutcome>, Vec<String>) {
        let keys: Vec<String> = canonical
            .iter()
            .map(|bytes| content_hash(&[bytes, engine_token]))
            .collect();
        let mut slots: Vec<Option<BlockOutcome>> = Vec::new();
        slots.resize_with(blocks.len(), || None);
        let mut missed: Vec<usize> = Vec::new();
        for (i, block) in blocks.iter().enumerate() {
            let cached = self
                .enumerations
                .lock()
                .expect("enumeration cache lock")
                .get(&keys[i])
                .map(Arc::clone);
            if let Some(cached) = cached {
                let (enumeration, tasks) = &*cached;
                // The batch's own constructor rebuilds the outcome; the selection
                // (when requested) is recomputed, a cheap deterministic function
                // of the cuts.
                slots[i] = Some(BlockOutcome::new(
                    i,
                    block,
                    *tasks,
                    enumeration.clone(),
                    config.select.as_ref(),
                ));
            } else {
                missed.push(i);
            }
        }
        if !missed.is_empty() {
            let misses: Vec<CorpusBlock> = missed.iter().map(|&i| blocks[i].clone()).collect();
            let fresh = run_batch_obs(&misses, config, Some(self.registry.as_ref()));
            for (&i, mut outcome) in missed.iter().zip(fresh) {
                let kept = Arc::new((outcome.enumeration.clone(), outcome.tasks));
                self.enumerations
                    .lock()
                    .expect("enumeration cache lock")
                    .put(&keys[i], kept);
                outcome.index = i;
                outcome.elapsed = Duration::ZERO;
                slots[i] = Some(outcome);
            }
        }
        let outcomes = slots
            .into_iter()
            .map(|slot| slot.expect("every block is either cached or freshly run"))
            .collect();
        (outcomes, keys)
    }

    /// Builds the pattern index over the outcomes through the per-block coding
    /// cache, merging strictly in corpus order (the [`PatternIndex`] determinism
    /// contract). Like the enumeration cache, the coding cache lock is never held
    /// across the coding itself.
    fn index_with_cache(
        &self,
        blocks: &[CorpusBlock],
        outcomes: &[BlockOutcome],
        enum_keys: &[String],
        config: &GroupConfig,
    ) -> PatternIndex {
        let mut index = PatternIndex::new(config.clone());
        for (i, outcome) in outcomes.iter().enumerate() {
            let ports = format!(
                "code:ports-in={};ports-out={}",
                config.ports_in, config.ports_out
            );
            let key = content_hash(&[&enum_keys[i], &ports]);
            let cached = self
                .codings
                .lock()
                .expect("coding cache lock")
                .get(&key)
                .map(Arc::clone);
            let coded = cached.unwrap_or_else(|| {
                let coded = Arc::new(canonicalize_cuts_memo(
                    &blocks[i].dfg,
                    &outcome.enumeration.cuts,
                    config,
                    &self.memo,
                ));
                self.codings
                    .lock()
                    .expect("coding cache lock")
                    .put(&key, Arc::clone(&coded));
                coded
            });
            index.add_coded_block(&coded, blocks[i].weight());
        }
        index
    }

    fn stats_response(&self) -> String {
        let mut responses = cache_json(&self.responses);
        responses.insert(2, ("disk_hits", Json::UInt(self.counters.disk_hits.get())));
        self.publish_gauges();
        let obs = Json::object(
            self.registry
                .snapshot()
                .into_iter()
                .map(|(key, value)| (key, Json::UInt(value))),
        );
        let result = Json::object([
            (
                "server",
                Json::object([
                    ("requests", Json::UInt(self.counters.requests.get())),
                    ("hits", Json::UInt(self.counters.hits.get())),
                    ("misses", Json::UInt(self.counters.misses.get())),
                    ("errors", Json::UInt(self.counters.errors.get())),
                    ("coalesced", Json::UInt(self.counters.coalesced.get())),
                    (
                        "connection_errors",
                        Json::UInt(self.counters.connection_errors.get()),
                    ),
                ]),
            ),
            ("responses", Json::object(responses)),
            ("sources", Json::object(cache_json(&self.sources))),
            ("enumerations", Json::object(cache_json(&self.enumerations))),
            ("codings", Json::object(cache_json(&self.codings))),
            ("memo", group::memo_stats_json(&self.memo.stats())),
            // The registry's flat counter/gauge snapshot — the same series
            // `GET /v1/metrics` exposes, here for JSON-protocol clients. Volatile
            // by nature (it accumulates across requests): CI strips it alongside
            // `cached`/`elapsed_*` before byte comparisons.
            ("obs", obs),
        ]);
        format!(
            "{{\"ok\":true,\"op\":\"stats\",\"result\":{}}}",
            result.render()
        )
    }

    /// Pushes the mutex-guarded cache and memo snapshots into the registry as
    /// gauges, so a scrape (or the `stats` op) sees current values next to the
    /// always-live atomic counters.
    fn publish_gauges(&self) {
        let rec = self.registry.as_ref();
        let lock = "cache lock";
        self.responses.lock().expect(lock).publish(rec, "responses");
        self.sources.lock().expect(lock).publish(rec, "sources");
        self.enumerations
            .lock()
            .expect(lock)
            .publish(rec, "enumerations");
        self.codings.lock().expect(lock).publish(rec, "codings");
        self.memo_stats().publish(rec);
    }

    /// The `GET /v1/metrics` body: the registry rendered as Prometheus text
    /// exposition (version 0.0.4), covering the server counters, engine and pool
    /// counters/histograms, and the cache and memo gauges published at scrape
    /// time.
    fn metrics_response(&self) -> String {
        self.publish_gauges();
        self.registry.render_prometheus()
    }
}

/// One cache's counters and size, as the `stats` op reports them.
fn cache_json<V>(cache: &Mutex<LruCache<V>>) -> Vec<(&'static str, Json)> {
    let cache = cache.lock().expect("cache lock");
    let stats = cache.stats();
    vec![
        ("hits", Json::UInt(stats.hits)),
        ("misses", Json::UInt(stats.misses)),
        ("puts", Json::UInt(stats.puts)),
        ("evictions", Json::UInt(stats.evictions)),
        ("entries", Json::uint(cache.len())),
        ("cap", Json::uint(cache.cap())),
    ]
}

/// A request resolved: its job, its source, how many of the source's blocks the
/// job reads (`--limit`), and the response key.
struct Resolved {
    job: Job,
    source: Arc<Source>,
    blocks: usize,
    key: String,
}

/// One request source, parsed: the blocks of a `block` string, their canonical
/// bytes, and the key hasher's state after each block.
struct Source {
    blocks: Vec<CorpusBlock>,
    /// `canonical[i]` is `blocks[i].canonical_bytes()`.
    canonical: Vec<String>,
    /// `prefixes[n]` has absorbed `canonical[..n]`: the key of a job reading `n`
    /// blocks continues from it, and its digest names the corpus content.
    prefixes: Vec<ContentHasher>,
}

/// The source cache: each path `block` string's corpus bytes and the [`Source`]
/// parsed from them, answered only while a fresh read finds the same bytes.
/// Inline sources are not cached. Bounded by `--cache-cap`; errors are never
/// stored. The lock is held for one lookup or insert, never while reading or
/// parsing.
type SourceCache = Mutex<LruCache<(CorpusText, Arc<Source>)>>;

impl Source {
    /// Canonicalizes `blocks` and hashes them into the key prefixes.
    fn new(blocks: Vec<CorpusBlock>) -> Source {
        let canonical: Vec<String> = blocks.iter().map(CorpusBlock::canonical_bytes).collect();
        let mut hasher = ContentHasher::new();
        let mut prefixes = vec![hasher];
        for bytes in &canonical {
            hasher.part(bytes);
            prefixes.push(hasher);
        }
        Source {
            blocks,
            canonical,
            prefixes,
        }
    }
}

/// Resolves one `enumerate`/`select`/`group` request: maps its `flags` object onto
/// the command's flags, builds the [`Job`], reads the `block` field's source
/// through the source cache, applies `--limit`, and derives the content key over
/// the canonical block bytes and the job's key tokens. A request's `threads` is
/// capped at the host's parallelism: the batch spawns up to that many workers, and
/// a client must not make the daemon start one thread per block (threads are in
/// neither the key nor the payload).
///
/// The source cache is the only state it reads. A path's files are listed and read
/// on every request, and a cached source is used only if those bytes are exactly
/// the ones it was parsed from; a hit then skips parsing, canonicalization and
/// hashing the blocks, continuing the key from the cached hasher state. Both
/// transports call it, the JSON protocol with the line's `op` and HTTP with the
/// path's (a body `op` is ignored, so the path is authoritative).
fn resolve(op: &str, request: &Json, sources: &SourceCache) -> Result<Resolved, CliError> {
    let Some((allowed, switches)) = job_flags(op) else {
        return Err(CliError::Usage(format!(
            "unknown op `{op}` (enumerate|select|group|stats|shutdown)"
        )));
    };
    let block_field = request
        .get("block")
        .and_then(Json::as_str)
        .ok_or_else(|| CliError::Usage("request needs a string `block` field".into()))?;
    let mut job = Job::from_flags(
        op,
        &flags_from_json(request.get("flags"), &allowed, switches)?,
    )?;
    job.threads = job.threads.min(host_parallelism());
    let source = read_source(block_field, sources)?;
    let blocks = job
        .limit
        .map_or(source.blocks.len(), |limit| limit.min(source.blocks.len()));
    let (engine_token, op_token) = job.cache_tokens();
    let mut hasher = source.prefixes[blocks];
    hasher.part(&engine_token);
    hasher.part(&op_token);
    Ok(Resolved {
        job,
        source,
        blocks,
        key: hasher.finish(),
    })
}

/// The parsed source of a request's `block` field: inline `.dfg` text (anything
/// containing a newline or starting like a block), parsed on every call, or else
/// a filesystem path loaded like the batch subcommands' `--corpus`. A path's files
/// are read on every call; the cached source answers only if they hold the bytes
/// it was parsed from, and a miss parses exactly the bytes it compared.
fn read_source(block: &str, sources: &SourceCache) -> Result<Arc<Source>, CliError> {
    let trimmed = block.trim_start();
    if block.contains('\n') || trimmed.starts_with("dfg ") || trimmed.starts_with('#') {
        let blocks =
            parse_corpus(block).map_err(|e| CliError::Usage(format!("inline block: {e}")))?;
        return Ok(Arc::new(Source::new(blocks)));
    }
    let text = read_corpus(block)?;
    let cached = sources
        .lock()
        .expect("source cache lock")
        .get_if(block, |(kept, _)| kept.same_bytes(&text))
        .map(|(_, source)| Arc::clone(source));
    if let Some(source) = cached {
        return Ok(source);
    }
    let (blocks, text) = text.parse()?;
    let source = Arc::new(Source::new(blocks));
    sources
        .lock()
        .expect("source cache lock")
        .put(block, (text, Arc::clone(&source)));
    Ok(source)
}

/// The `op` label of a request's latency series: the evaluation op it named, or
/// `unknown`.
fn op_label(op: &str) -> &'static str {
    ["enumerate", "select", "group"]
        .into_iter()
        .find(|&known| known == op)
        .unwrap_or("unknown")
}

/// The host's parallelism, read once: `available_parallelism` parses the cgroup
/// quota files on every call, which would cost each warm request more than its
/// cache lookup.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Converts a request's `flags` object into the CLI flag parser's argv form, so
/// the daemon accepts exactly the batch subcommands' flags with exactly their
/// validation. JSON booleans map to switches (`"global":true`) or `true`/`false`
/// values; numbers must be non-negative integers.
fn flags_from_json(
    flags: Option<&Json>,
    allowed: &[&str],
    switches: &[&str],
) -> Result<Flags, CliError> {
    let mut argv: Vec<String> = Vec::new();
    if let Some(object) = flags {
        let Json::Object(pairs) = object else {
            return Err(CliError::Usage("`flags` must be a JSON object".into()));
        };
        for (key, value) in pairs {
            match value {
                Json::Bool(true) if switches.contains(&key.as_str()) => {
                    argv.push(format!("--{key}"));
                }
                Json::Bool(false) if switches.contains(&key.as_str()) => {}
                Json::Str(text) => {
                    argv.push(format!("--{key}"));
                    argv.push(text.clone());
                }
                Json::UInt(number) => {
                    argv.push(format!("--{key}"));
                    argv.push(number.to_string());
                }
                Json::Bool(flag) => {
                    argv.push(format!("--{key}"));
                    argv.push(flag.to_string());
                }
                _ => {
                    return Err(CliError::Usage(format!(
                        "flag `{key}` must be a string, integer or boolean"
                    )));
                }
            }
        }
    }
    Flags::parse_with_switches(&argv, allowed, switches)
}

/// The stdin/stdout serve loop: a reader thread feeds a channel so the main loop
/// can poll the shutdown flag every 100ms even while no request arrives. EOF on
/// stdin ends the loop (the channel disconnects). Lines travel as bytes, so a line
/// that is not UTF-8 is answered in band instead of ending the input. A line
/// longer than [`MAX_REQUEST_BYTES`] is answered with the request-limit error; the
/// reader skips the rest of it unbuffered and goes on with the next line.
fn serve_stdin(state: &ServerState) -> Result<(), CliError> {
    let (sender, receiver) = mpsc::channel::<io::Result<Vec<u8>>>();
    std::thread::spawn(move || {
        let mut stdin = io::stdin().lock();
        loop {
            let mut line = Vec::new();
            // One byte of room past the cap tells an over-long line from one that fits.
            match stdin
                .by_ref()
                .take(MAX_REQUEST_BYTES as u64 + 1)
                .read_until(b'\n', &mut line)
            {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let request = if line.ends_with(b"\n") {
                // The terminator goes as `BufRead::lines` drops it: `\n`, then one `\r`.
                line.pop();
                if line.ends_with(b"\r") {
                    line.pop();
                }
                Ok(line)
            } else if line.len() > MAX_REQUEST_BYTES {
                drop(line);
                if skip_line(&mut stdin).is_err() {
                    break;
                }
                Err(request_too_large("request line"))
            } else {
                Ok(line)
            };
            if sender.send(request).is_err() {
                break;
            }
        }
    });
    let stdout = io::stdout();
    loop {
        if sig::terminated() {
            return Ok(());
        }
        match receiver.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                let response = match line.as_deref().map(std::str::from_utf8) {
                    Ok(Ok(text)) if text.trim().is_empty() => continue,
                    Ok(Ok(text)) => state.handle_line(text),
                    Ok(Err(error)) => state.not_utf8(error),
                    Err(too_long) => state.error_response(&too_long.to_string()),
                };
                let mut out = stdout.lock();
                writeln!(out, "{response}")
                    .and_then(|()| out.flush())
                    .map_err(|source| CliError::Io {
                        path: "<stdout>".to_string(),
                        source,
                    })?;
                if state.shutdown_requested() {
                    return Ok(());
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Consumes `reader` through the next newline, or to EOF, without buffering the
/// bytes it skips.
fn skip_line(reader: &mut impl BufRead) -> io::Result<()> {
    loop {
        let available = match reader.fill_buf() {
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            available => available?,
        };
        let (done, used) = match available.iter().position(|&byte| byte == b'\n') {
            Some(end) => (true, end + 1),
            None => (available.is_empty(), available.len()),
        };
        reader.consume(used);
        if done {
            return Ok(());
        }
    }
}

/// Whether the daemon is stopping: SIGTERM/SIGINT arrived, or a `shutdown` op was
/// acknowledged.
fn stopping(state: &ServerState) -> bool {
    sig::terminated() || state.shutdown_requested()
}

/// How often the signal watcher reads the flag the SIGTERM/SIGINT handler sets —
/// the one periodic wait the TCP transport keeps.
const SIGNAL_POLL: Duration = Duration::from_millis(50);

/// The longest a failed `accept` (out of descriptors, typically) waits for a
/// connection to finish before it retries, so a lasting failure cannot spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// How long a stop tries to connect to its own listener. The wake-up only matters
/// while the accept loop blocks in `accept` with nothing queued, where it connects
/// at once; the bound keeps a full backlog from holding a stopping thread.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The TCP transport's shared control: the count of live connections behind
/// `--max-connections`, and the wake-up that unblocks the accept loop on a stop.
struct Gate {
    live: Mutex<usize>,
    /// Notified when a connection ends and when the daemon stops.
    changed: Condvar,
    /// Where a stop connects to wake the loop out of `accept`.
    wake: SocketAddr,
    woken: AtomicBool,
}

impl Gate {
    fn new(listening: SocketAddr) -> Gate {
        Gate {
            live: Mutex::new(0),
            changed: Condvar::new(),
            wake: wake_address(listening),
            woken: AtomicBool::new(false),
        }
    }

    /// Blocks until fewer than `max` connections are live; `false` once the
    /// daemon is stopping.
    fn wait_for_slot(&self, state: &ServerState, max: usize) -> bool {
        let mut live = self.live.lock().expect("connection count lock");
        while *live >= max && !stopping(state) {
            live = self.changed.wait(live).expect("connection count lock");
        }
        !stopping(state)
    }

    /// Waits until a connection ends or the daemon stops, at most `timeout`.
    fn wait_for_change(&self, timeout: Duration) {
        let live = self.live.lock().expect("connection count lock");
        let _ = self.changed.wait_timeout(live, timeout);
    }

    /// Takes a connection slot; it is freed when the returned guard drops.
    fn enter(self: &Arc<Gate>) -> Slot {
        *self.live.lock().expect("connection count lock") += 1;
        Slot(Arc::clone(self))
    }

    /// Wakes the accept loop after the stop flag is set: a waiter for a slot through
    /// the condition variable, a loop blocked in `accept` by one connection to the
    /// listener (made once, whoever stops first).
    fn stop(&self) {
        {
            // Holding the lock orders this notify after a waiter's flag check.
            let _live = self.live.lock();
            self.changed.notify_all();
        }
        if !self.woken.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
        }
    }
}

/// One live connection's slot in the [`Gate`]. Dropping it, also while its thread
/// unwinds from a panic, frees the slot.
struct Slot(Arc<Gate>);

impl Drop for Slot {
    fn drop(&mut self) {
        // The count is valid after every update, so a poisoned lock still holds it.
        *self.0.live.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.0.changed.notify_all();
    }
}

/// The address a stop connects to: the listener's own, with an unspecified IP
/// (`0.0.0.0`, `[::]`) replaced by loopback of the same family.
fn wake_address(mut listening: SocketAddr) -> SocketAddr {
    if listening.ip().is_unspecified() {
        listening.set_ip(match listening {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    listening
}

/// Turns SIGTERM/SIGINT into a stop of the TCP transport: the handler can only
/// store an atomic, so this thread reads it every [`SIGNAL_POLL`] and wakes the
/// accept loop. It returns once the daemon stops for any reason; [`serve_tcp`]
/// unparks it on the way out.
fn watch_signals(state: &ServerState, gate: &Gate) {
    while !stopping(state) {
        std::thread::park_timeout(SIGNAL_POLL);
    }
    gate.stop();
}

/// The TCP serve loop: it blocks in `accept` and hands each connection to its own
/// thread over the shared state, up to `max_connections` at once. At the bound it
/// waits on the [`Gate`] until a connection ends, and pending clients wait in the
/// kernel backlog. A stop (SIGTERM, or a `shutdown` op) wakes it, and it
/// **drains**: it shuts the read half of every live connection, so idle readers
/// see EOF at once while an in-flight request still writes its whole response,
/// and it joins every thread before the daemon exits 0. The bound address is
/// announced on stdout so callers binding port 0 learn the port.
fn serve_tcp(state: &Arc<ServerState>, addr: &str, max_connections: usize) -> Result<(), CliError> {
    let io_error = |source: io::Error| CliError::Io {
        path: addr.to_string(),
        source,
    };
    let listener = TcpListener::bind(addr).map_err(io_error)?;
    let local = listener.local_addr().map_err(io_error)?;
    crate::emit("-", &format!("listening on {local}\n"))?;
    let gate = Arc::new(Gate::new(local));
    let watcher = {
        let (state, gate) = (Arc::clone(state), Arc::clone(&gate));
        std::thread::spawn(move || watch_signals(&state, &gate))
    };
    // Each connection's thread owns its stream; the loop keeps a weak handle to
    // drain it, so a finished connection's socket closes as its thread ends.
    let mut live: Vec<(std::thread::JoinHandle<()>, Weak<TcpStream>)> = Vec::new();
    while gate.wait_for_slot(state, max_connections) {
        let accepted = listener.accept();
        if stopping(state) {
            // The wake-up connection, or a client that raced the stop: dropped.
            break;
        }
        let Ok((stream, peer)) = accepted else {
            gate.wait_for_change(ACCEPT_BACKOFF);
            continue;
        };
        live.retain(|(worker, _)| !worker.is_finished());
        let stream = Arc::new(stream);
        let drain = Arc::downgrade(&stream);
        let slot = gate.enter();
        let (state, gate) = (Arc::clone(state), Arc::clone(&gate));
        let worker = std::thread::spawn(move || {
            let _slot = slot;
            if let Err(error) = serve_connection(&state, &stream) {
                state.note_connection_error(&peer.to_string(), &error);
            }
            // The worker that answered a `shutdown` op wakes the loop at once.
            if stopping(&state) {
                gate.stop();
            }
        });
        live.push((worker, drain));
    }
    for stream in live.iter().filter_map(|(_, stream)| stream.upgrade()) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (worker, _) in live {
        let _ = worker.join();
    }
    watcher.thread().unpark();
    let _ = watcher.join();
    Ok(())
}

/// Serves one TCP connection, sniffing the transport from its first line: an
/// HTTP method selects the HTTP/1.1 shim, anything else (in practice a `{`) is
/// line-delimited JSON. Reads block until the client sends, closes, or the drain
/// of a stopping daemon shuts the read half. A request over
/// [`MAX_REQUEST_BYTES`], or an HTTP request whose `Content-Length` does not
/// parse or that carries a `Transfer-Encoding`, gets the in-band error envelope
/// (status 413, 400 or 501 over HTTP; headers only for a `HEAD`), and the
/// connection is closed without reading the rest of it.
fn serve_connection(state: &ServerState, mut stream: &TcpStream) -> io::Result<()> {
    // Each response is one small write the client latency-chains on; Nagle
    // would hold it for the previous segment's (possibly delayed) ACK.
    let _ = stream.set_nodelay(true);
    let mut reader = io::BufReader::new(stream);
    let mut first = Vec::new();
    let (mut http, mut head) = (false, false);
    let served = match read_line(state, &mut reader, &mut first) {
        Ok(false) => return Ok(()),
        Ok(true) if is_http_request_line(&first) => {
            http = true;
            head = first.starts_with(b"HEAD ");
            serve_http(state, stream, &mut reader, first)
        }
        Ok(true) => serve_json(state, stream, &mut reader, first),
        Err(error) => Err(error),
    };
    let rejected = match &served {
        Err(error) => error
            .get_ref()
            .and_then(|e| e.downcast_ref::<RejectedRequest>()),
        Ok(()) => None,
    };
    let Some(rejected) = rejected else {
        return served;
    };
    let payload = state.error_response(&rejected.message);
    let reply = match (http, head) {
        (true, true) => http_head_response(rejected.status),
        (true, false) => http_response(rejected.status, CONTENT_JSON, &payload, true),
        (false, _) => payload + "\n",
    };
    stream.write_all(reply.as_bytes())?;
    stream.shutdown(Shutdown::Write)
}

/// Whether a connection's first line looks like an HTTP request line.
fn is_http_request_line(line: &[u8]) -> bool {
    ["POST ", "GET ", "HEAD ", "PUT ", "DELETE ", "OPTIONS "]
        .iter()
        .any(|method| line.starts_with(method.as_bytes()))
}

/// Reads one line's bytes, newline included, into the empty `line`: `Ok(true)`
/// once it holds a whole line, `Ok(false)` at a clean end. A clean end is EOF
/// between lines, or any EOF once the daemon is stopping — the drain shuts the
/// read half of every connection, so a client caught mid-request is no
/// connection error. Any other peer that disconnects **mid-line** is an error —
/// the caller surfaces it as a connection error rather than silently dropping
/// the partial request. A line longer than [`MAX_REQUEST_BYTES`] stops growing at
/// the cap and fails with [`RejectedRequest`]. UTF-8 is checked by the caller,
/// once per whole line.
fn read_line(
    state: &ServerState,
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> io::Result<bool> {
    // One byte of room past the cap tells an over-long line from one that fits.
    reader
        .by_ref()
        .take(MAX_REQUEST_BYTES as u64 + 1)
        .read_until(b'\n', line)?;
    if line.ends_with(b"\n") {
        return Ok(true);
    }
    if line.len() > MAX_REQUEST_BYTES {
        return Err(request_too_large("request line"));
    }
    if line.is_empty() || stopping(state) {
        return Ok(false);
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("connection closed mid-line after {} bytes", line.len()),
    ))
}

/// The line-delimited JSON loop: one request per line, one response line per
/// request. `line` already holds the connection's first request line.
fn serve_json(
    state: &ServerState,
    mut stream: &TcpStream,
    reader: &mut impl BufRead,
    mut line: Vec<u8>,
) -> io::Result<()> {
    loop {
        let response = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => None,
            Ok(text) => Some(state.handle_line(text.trim_end())),
            Err(error) => Some(state.not_utf8(error)),
        };
        if let Some(mut response) = response {
            response.push('\n');
            // One write per response: a formatted write would emit the payload
            // and the newline as separate segments.
            stream.write_all(response.as_bytes())?;
        }
        if stopping(state) {
            return Ok(());
        }
        line.clear();
        if !read_line(state, reader, &mut line)? {
            return Ok(());
        }
    }
}

/// The HTTP/1.1 shim: a hand-rolled keep-alive loop mapping
/// `POST /v1/{enumerate,group,select}` (JSON request body, the `op` implied by
/// the path) and `GET /v1/stats` onto the same handlers as the JSON protocol —
/// the response body is the identical envelope. No chunked encoding, no TLS, no
/// dependencies: request bodies are delimited by `Content-Length`, responses
/// always carry one. A request with a `Transfer-Encoding` gets 501 and the
/// connection closes, since its body cannot be delimited. A `HEAD` request is
/// answered 405 with headers only, and the connection closes. A request line,
/// header or body that is not UTF-8 is answered 400 once the whole request is
/// read, so the connection stays in step.
fn serve_http(
    state: &ServerState,
    mut stream: &TcpStream,
    reader: &mut impl BufRead,
    mut request_line: Vec<u8>,
) -> io::Result<()> {
    loop {
        let mut not_utf8 = std::str::from_utf8(&request_line).err();
        let (method, path) = {
            let line = String::from_utf8_lossy(&request_line);
            let mut parts = line.split_whitespace();
            (
                parts.next().unwrap_or("").to_string(),
                parts.next().unwrap_or("").to_string(),
            )
        };
        // Headers: only Content-Length (body delimiter), Transfer-Encoding
        // (refused) and Connection: close (keep-alive override) matter;
        // everything else is skipped.
        let mut content_length = 0usize;
        let mut close = method == "HEAD";
        let mut header = Vec::new();
        loop {
            header.clear();
            if !read_line(state, reader, &mut header)? {
                if stopping(state) {
                    return Ok(());
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside HTTP headers",
                ));
            }
            if let Err(error) = std::str::from_utf8(&header) {
                not_utf8.get_or_insert(error);
            }
            let line = String::from_utf8_lossy(&header);
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(|_| {
                        rejected("400 Bad Request", format!("bad Content-Length `{value}`"))
                    })?;
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    return Err(rejected(
                        "501 Not Implemented",
                        format!("Transfer-Encoding `{value}` is not supported"),
                    ));
                } else if name.eq_ignore_ascii_case("connection") {
                    close |= value.eq_ignore_ascii_case("close");
                }
            }
        }
        // Checked before allocating: the header is the client's claim, not data.
        if content_length > MAX_REQUEST_BYTES {
            return Err(request_too_large("request body"));
        }
        let mut body = Vec::with_capacity(content_length);
        reader
            .by_ref()
            .take(content_length as u64)
            .read_to_end(&mut body)?;
        if body.len() < content_length {
            if stopping(state) {
                return Ok(());
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "connection closed mid-body after {} of {content_length} bytes",
                    body.len()
                ),
            ));
        }
        let body = String::from_utf8(body).unwrap_or_else(|error| {
            not_utf8.get_or_insert(error.utf8_error());
            String::new()
        });

        let (status, content_type, payload) = match not_utf8 {
            Some(error) => ("400 Bad Request", CONTENT_JSON, state.not_utf8(error)),
            None => http_reply(state, &method, &path, &body),
        };
        let response = match method.as_str() {
            "HEAD" => http_head_response(status),
            _ => http_response(status, content_type, &payload, close),
        };
        stream.write_all(response.as_bytes())?;
        if close || stopping(state) {
            return Ok(());
        }
        request_line.clear();
        if !read_line(state, reader, &mut request_line)? {
            return Ok(());
        }
    }
}

/// One complete HTTP/1.1 response.
fn http_response(status: &str, content_type: &str, payload: &str, close: bool) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n{payload}",
        payload.len(),
        if close { "close" } else { "keep-alive" },
    )
}

/// The answer to a `HEAD` request: the status line and headers, no body bytes.
/// It names the methods the daemon serves and leaves out Content-Length, which
/// would have to give the length of a `GET`'s body; the connection closes.
fn http_head_response(status: &str) -> String {
    format!("HTTP/1.1 {status}\r\nAllow: GET, POST\r\nConnection: close\r\n\r\n")
}

/// The Content-Type of every JSON-bodied HTTP response.
const CONTENT_JSON: &str = "application/json";

/// The Content-Type of the Prometheus text exposition format.
const CONTENT_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Routes one HTTP request to the protocol handlers and picks the status line
/// and content type. Routing failures are answered with the same in-band
/// `{"ok":false,...}` body the JSON protocol uses (and counted by the same
/// `server` counters).
fn http_reply(
    state: &ServerState,
    method: &str,
    path: &str,
    body: &str,
) -> (&'static str, &'static str, String) {
    match (method, path) {
        ("GET", "/v1/stats") => ("200 OK", CONTENT_JSON, state.stats_response()),
        ("GET", "/v1/metrics") => ("200 OK", CONTENT_PROMETHEUS, state.metrics_response()),
        ("POST", "/v1/enumerate" | "/v1/group" | "/v1/select") => {
            let op = path.rsplit('/').next().expect("path has segments");
            let response = state.respond(Instant::now(), |label| {
                *label = op_label(op);
                // An empty body, like any body that is no object with a string
                // `block`, fails validation in-band.
                let request = match body.trim() {
                    "" => Json::Null,
                    _ => Json::parse(body)
                        .map_err(|e| CliError::Usage(format!("request body is not JSON: {e}")))?,
                };
                state.evaluate(resolve(op, &request, &state.sources)?)
            });
            let status = if response.starts_with("{\"ok\":true") {
                "200 OK"
            } else {
                "400 Bad Request"
            };
            (status, CONTENT_JSON, response)
        }
        ("POST" | "GET", _) => (
            "404 Not Found",
            CONTENT_JSON,
            state.error_response(&format!(
                "unknown path `{path}` (POST /v1/{{enumerate,group,select}}, \
                 GET /v1/stats, GET /v1/metrics)"
            )),
        ),
        _ => (
            "405 Method Not Allowed",
            CONTENT_JSON,
            state.error_response(&format!("method `{method}` is not supported")),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INLINE: &str = "dfg mac\nnode 0 in @a\nnode 1 in @x\nnode 2 in @acc\n\
                          node 3 mul\nnode 4 add\nedge 0 3\nedge 1 3\nedge 3 4\nedge 2 4\n\
                          output 4\nend\n";

    fn request(op: &str, block: &str, flags: &str) -> String {
        let doc = Json::object([("op", Json::str(op)), ("block", Json::str(block))]);
        let mut text = doc.render();
        if !flags.is_empty() {
            text.truncate(text.len() - 1);
            text.push_str(&format!(",\"flags\":{flags}}}"));
        }
        text
    }

    /// An empty source cache, for resolving requests without a daemon.
    fn no_sources() -> SourceCache {
        Mutex::new(LruCache::new(8))
    }

    fn result_of(response: &str) -> Json {
        let doc = Json::parse(response).expect("response is JSON");
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        doc.get("result").expect("result present").clone()
    }

    /// The small inline block, then every committed corpus block sent inline.
    #[test]
    fn enumerate_cold_then_warm_is_byte_identical() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("committed corpus")
            .map(|entry| entry.expect("corpus entry").path())
            .collect();
        files.sort();
        let mut requests = vec![request("enumerate", INLINE, r#"{"nin":3,"nout":1}"#)];
        for path in &files {
            let text = std::fs::read_to_string(path).expect("corpus file");
            requests.push(request("enumerate", &text, r#"{"budget":5000}"#));
        }
        assert!(requests.len() > 20, "every committed block is sent");

        let state = ServerState::new(8, None);
        let parse = |text: &str| Json::parse(text).unwrap();
        for req in &requests {
            let cold = state.handle_line(req);
            let warm = state.handle_line(req);
            assert_eq!(parse(&cold).get("cached"), Some(&Json::Bool(false)));
            assert_eq!(parse(&warm).get("cached"), Some(&Json::Bool(true)));
            assert_eq!(
                result_of(&cold).render(),
                result_of(&warm).render(),
                "cold and warm payloads must be byte-identical"
            );
            assert_eq!(
                parse(&cold).get("key"),
                parse(&warm).get("key"),
                "same request, same content key"
            );
        }
        let stats = parse(&state.handle_line(r#"{"op":"stats"}"#));
        let server = stats.get("result").and_then(|r| r.get("server")).unwrap();
        let counter = |field: &str| server.get(field).and_then(Json::as_u64).unwrap();
        assert_eq!(counter("hits"), requests.len() as u64);
        assert_eq!(counter("misses"), requests.len() as u64);
    }

    #[test]
    fn formatting_only_variants_share_a_key_and_flag_changes_miss() {
        let state = ServerState::new(8, None);
        let noisy = format!(
            "# comment\n\n{}",
            INLINE.replace("node 3 mul", "node 3   mul")
        );
        let key_of = |state: &ServerState, block: &str, flags: &str| {
            let response = state.handle_line(&request("enumerate", block, flags));
            Json::parse(&response)
                .unwrap()
                .get("key")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        let base = key_of(&state, INLINE, r#"{"nin":3,"nout":1}"#);
        assert_eq!(
            base,
            key_of(&state, &noisy, r#"{"nin":3,"nout":1}"#),
            "comments and spacing must not change the cache key"
        );
        assert_ne!(base, key_of(&state, INLINE, r#"{"nin":2,"nout":1}"#));
        assert_ne!(
            base,
            key_of(&state, INLINE, r#"{"nin":3,"nout":1,"budget":7}"#)
        );
    }

    #[test]
    fn threads_flag_does_not_change_key_or_payload() {
        let state = ServerState::new(8, None);
        let one = state.handle_line(&request(
            "enumerate",
            INLINE,
            r#"{"nin":3,"nout":1,"threads":1}"#,
        ));
        let four = state.handle_line(&request(
            "enumerate",
            INLINE,
            r#"{"nin":3,"nout":1,"threads":4}"#,
        ));
        let doc = Json::parse(&four).unwrap();
        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)), "{four}");
        assert_eq!(result_of(&one).render(), result_of(&four).render());
    }

    #[test]
    fn group_and_global_select_reuse_the_enumeration_cache() {
        let state = ServerState::new(8, None);
        let _ = state.handle_line(&request("enumerate", INLINE, r#"{"nin":3,"nout":1}"#));
        let enum_misses = state.enumeration_stats().misses;
        let grouped = state.handle_line(&request("group", INLINE, r#"{"nin":3,"nout":1}"#));
        assert!(
            result_of(&grouped).render().contains("ise-cli/group/v1"),
            "{grouped}"
        );
        let selected = state.handle_line(&request(
            "select",
            INLINE,
            r#"{"nin":3,"nout":1,"global":true}"#,
        ));
        let selected_payload = result_of(&selected).render();
        assert!(
            selected_payload.contains("\"mode\":\"global\""),
            "{selected}"
        );
        assert_eq!(
            state.enumeration_stats().misses,
            enum_misses,
            "group and global select must hit the per-block enumeration cache"
        );
        assert!(
            state.coding_stats().hits > 0,
            "global select reuses group's coding"
        );
    }

    #[test]
    fn canon_memo_persists_across_requests_and_port_configs() {
        let state = ServerState::new(8, None);
        let _ = state.handle_line(&request("group", INLINE, r#"{"nin":3,"nout":1}"#));
        let cold = state.memo_stats();
        assert!(cold.labeler_runs > 0, "cold group must run the labeler");
        // A different port configuration misses the codings LRU (the key embeds
        // the ports) but every pattern was already labeled: the memo answers all
        // of them and the labeler never runs again.
        let coding_misses = state.coding_stats().misses;
        let _ = state.handle_line(&request(
            "group",
            INLINE,
            r#"{"nin":3,"nout":1,"ports-in":2}"#,
        ));
        assert!(
            state.coding_stats().misses > coding_misses,
            "changed ports must miss the codings cache"
        );
        let warm = state.memo_stats();
        assert_eq!(
            warm.labeler_runs, cold.labeler_runs,
            "memo must answer every re-coded cut"
        );
        assert!(warm.raw_hits > cold.raw_hits);
        let stats = state.handle_line(r#"{"op":"stats"}"#);
        let memo = Json::parse(&stats)
            .unwrap()
            .get("result")
            .and_then(|r| r.get("memo"))
            .cloned()
            .expect("stats op reports the memo");
        assert_eq!(
            memo.get("labeler_runs").and_then(Json::as_u64),
            Some(warm.labeler_runs)
        );
        assert_eq!(
            memo.get("entries").and_then(Json::as_u64),
            Some(warm.entries)
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_port_pair_answers_alike_whatever_was_asked_before() {
        // x0 * x1 * x2 * x3 * x4: the whole chain reads five inputs, so four read
        // ports cost it a transfer cycle that five do not.
        let chain = "dfg chain\nnode 0 in @x0\nnode 1 in @x1\nnode 2 in @x2\n\
                     node 3 in @x3\nnode 4 in @x4\nnode 5 mul\nnode 6 mul\nnode 7 mul\n\
                     node 8 mul\nedge 0 5\nedge 1 5\nedge 5 6\nedge 2 6\nedge 6 7\n\
                     edge 3 7\nedge 7 8\nedge 4 8\noutput 8\nend\n";
        // Once packed into one merit key as `(ports_in << 32) | ports_out`.
        let five = request(
            "group",
            chain,
            r#"{"nin":5,"nout":2,"ports-in":5,"ports-out":2}"#,
        );
        let four = request(
            "group",
            chain,
            r#"{"nin":5,"nout":2,"ports-in":4,"ports-out":4294967298}"#,
        );
        let fresh = result_of(&ServerState::new(8, None).handle_line(&four)).render();
        let state = ServerState::new(8, None);
        let five_first = result_of(&state.handle_line(&five)).render();
        assert_ne!(
            five_first, fresh,
            "the pairs must cost the chain differently"
        );
        assert_eq!(result_of(&state.handle_line(&four)).render(), fresh);
    }

    #[test]
    fn per_block_select_matches_modes_and_caches() {
        let state = ServerState::new(8, None);
        let response = state.handle_line(&request(
            "select",
            INLINE,
            r#"{"nin":3,"nout":1,"max-instr":2}"#,
        ));
        let payload = result_of(&response).render();
        assert!(payload.contains("\"mode\":\"per-block\""), "{response}");
        assert!(payload.contains("\"selection\":{"), "{response}");
        assert!(payload.contains("\"threads\":1"), "pinned: {response}");
        assert!(payload.contains("\"corpus\":\"cache:"), "{response}");
    }

    #[test]
    fn malformed_requests_answer_in_band_errors() {
        let state = ServerState::new(8, None);
        for (line, expect) in [
            ("not json", "not JSON"),
            ("{}", "`op` field"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"enumerate"}"#, "`block` field"),
            (
                r#"{"op":"enumerate","block":"dfg x\nend\n","flags":{"nin":0}}"#,
                "--nin",
            ),
            (
                r#"{"op":"enumerate","block":"dfg x\nend\n","flags":{"bogus":1}}"#,
                "unknown flag",
            ),
            (
                r#"{"op":"enumerate","block":"dfg x\nnode 0 bad-op\nend\n"}"#,
                "inline block",
            ),
            (r#"{"op":"enumerate","block":"/nonexistent-ise-path"}"#, ""),
        ] {
            let response = state.handle_line(line);
            let doc = Json::parse(&response).expect("error responses are JSON");
            assert_eq!(
                doc.get("ok"),
                Some(&Json::Bool(false)),
                "{line} -> {response}"
            );
            let message = doc.get("error").and_then(Json::as_str).unwrap();
            assert!(message.contains(expect), "{line} -> {message}");
        }
    }

    #[test]
    fn stats_and_shutdown_ops_work() {
        let state = ServerState::new(8, None);
        let _ = state.handle_line(&request("enumerate", INLINE, ""));
        let _ = state.handle_line(&request("enumerate", INLINE, ""));
        let stats = state.handle_line(r#"{"op":"stats"}"#);
        let doc = Json::parse(&stats).unwrap();
        let responses = doc.get("result").and_then(|r| r.get("responses")).unwrap();
        assert_eq!(responses.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(responses.get("misses").and_then(Json::as_u64), Some(1));
        assert!(!state.shutdown_requested());
        let bye = state.handle_line(r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"ok\":true"), "{bye}");
        assert!(state.shutdown_requested());
    }

    #[test]
    fn server_counters_classify_every_request_exactly_once() {
        let state = ServerState::new(8, None);
        let _ = state.handle_line(&request("enumerate", INLINE, "")); // miss
        let _ = state.handle_line(&request("enumerate", INLINE, "")); // hit
        let _ = state.handle_line("not json"); // error
        let _ = state.handle_line(r#"{"op":"stats"}"#); // control: not counted
        let stats = state.handle_line(r#"{"op":"stats"}"#);
        let server = Json::parse(&stats)
            .unwrap()
            .get("result")
            .and_then(|r| r.get("server"))
            .cloned()
            .expect("stats op reports the server counters");
        let counter = |field: &str| server.get(field).and_then(Json::as_u64).unwrap();
        assert_eq!(counter("requests"), 3, "{stats}");
        assert_eq!(counter("hits"), 1, "{stats}");
        assert_eq!(counter("misses"), 1, "{stats}");
        assert_eq!(counter("errors"), 1, "{stats}");
        assert_eq!(
            counter("hits") + counter("misses") + counter("errors"),
            counter("requests"),
            "every counted request is exactly one of hit/miss/error: {stats}"
        );
        assert_eq!(counter("coalesced"), 0, "single-threaded: no coalescing");
        assert_eq!(counter("connection_errors"), 0);
    }

    #[test]
    fn envelopes_report_microsecond_latency_alongside_milliseconds() {
        let state = ServerState::new(8, None);
        let req = request("enumerate", INLINE, r#"{"nin":3,"nout":1}"#);
        let _ = state.handle_line(&req);
        let warm = state.handle_line(&req);
        let doc = Json::parse(&warm).unwrap();
        // A warm hit is typically sub-millisecond: `elapsed_ms` alone reads 0.
        // `elapsed_us` must be present (envelope-only; the payload has neither).
        assert!(
            doc.get("elapsed_ms").and_then(Json::as_u64).is_some(),
            "{warm}"
        );
        assert!(
            doc.get("elapsed_us").and_then(Json::as_u64).is_some(),
            "{warm}"
        );
        let payload = result_of(&warm).render();
        assert!(!payload.contains("elapsed_us"), "envelope-only: {payload}");
        assert!(
            !payload.contains("\"obs\""),
            "no obs in payloads: {payload}"
        );
    }

    #[test]
    fn metrics_endpoint_renders_valid_prometheus_exposition() {
        let state = ServerState::new(8, None);
        let _ = state.handle_line(&request("enumerate", INLINE, r#"{"nin":3,"nout":1}"#));
        let _ = state.handle_line(&request("group", INLINE, r#"{"nin":3,"nout":1}"#));
        let (status, content_type, body) = http_reply(&state, "GET", "/v1/metrics", "");
        assert_eq!(status, "200 OK");
        assert!(content_type.starts_with("text/plain"), "{content_type}");
        // Exposition validity: every non-comment line is `name[{labels}] value`,
        // and every series is preceded by its # TYPE header (a histogram's
        // `_bucket`, `_sum` and `_count` samples by their family's).
        let mut typed: Vec<(&str, &str)> = Vec::new();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.push(rest.split_once(' ').unwrap());
                continue;
            }
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .expect("sample lines are `name value`");
            let base = series.split('{').next().unwrap();
            let family = |name: &str, kind: &str| {
                name == base
                    || kind == "histogram"
                        && ["_bucket", "_sum", "_count"]
                            .iter()
                            .any(|suffix| base.strip_suffix(suffix) == Some(name))
            };
            assert!(
                typed.iter().any(|&(name, kind)| family(name, kind)),
                "sample `{series}` lacks a # TYPE header:\n{body}"
            );
            assert!(
                value.parse::<f64>().is_ok(),
                "sample value `{value}` is not numeric"
            );
        }
        // The exposition covers every layer: server, cache, memo, engine, pool.
        for series in [
            "ise_serve_requests_total 2",
            "ise_cache_hits{cache=\"responses\"}",
            "ise_cache_hits{cache=\"sources\"}",
            "ise_cache_entries{cache=\"sources\"}",
            "ise_cache_cap{cache=\"sources\"} 8",
            "ise_serve_request_us_count{op=\"enumerate\",outcome=\"miss\"} 1",
            "ise_memo_entries",
            "ise_engine_runs_total",
            "ise_engine_cone_vertices_total",
            "ise_pool_seeded_total",
        ] {
            assert!(body.contains(series), "missing `{series}`:\n{body}");
        }
        // Each memo count is exported once, as its live `_total` counter.
        for count in ["raw_hits", "fingerprint_hits", "labeler_runs"] {
            let name = format!("ise_memo_{count}");
            assert!(body.contains(&format!("\n{name}_total ")), "{body}");
            assert!(!body.contains(&format!("\n{name} ")), "{body}");
        }
    }

    #[test]
    fn stats_op_reports_the_registry_snapshot() {
        let state = ServerState::new(8, None);
        let _ = state.handle_line(&request("enumerate", INLINE, r#"{"nin":3,"nout":1}"#));
        let _ = state.handle_line("not json");
        let stats = state.handle_line(r#"{"op":"stats"}"#);
        let obs = Json::parse(&stats)
            .unwrap()
            .get("result")
            .and_then(|r| r.get("obs"))
            .cloned()
            .expect("stats op reports the obs snapshot");
        assert_eq!(
            obs.get("ise_serve_requests_total").and_then(Json::as_u64),
            Some(2),
            "{stats}"
        );
        assert!(
            obs.get("ise_engine_runs_total")
                .and_then(Json::as_u64)
                .is_some_and(|runs| runs >= 1),
            "{stats}"
        );
        // The request span ledger balances even with a dispatch error in between,
        // and the stats op reads it balanced: it answers outside any request span,
        // as `GET /v1/metrics` does.
        let entered = obs.get("obs_spans_entered").and_then(Json::as_u64);
        assert!(entered.is_some_and(|n| n >= 2), "{stats}");
        assert_eq!(
            obs.get("obs_spans_exited").and_then(Json::as_u64),
            entered,
            "{stats}"
        );
    }

    /// A client's `threads` is capped at the host's parallelism when the request
    /// resolves; nothing is evaluated, so no worker is started.
    #[test]
    fn resolve_caps_threads_at_the_host_parallelism() {
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        let resolved = |flags: &str| {
            let request = Json::parse(&request("enumerate", INLINE, flags)).unwrap();
            resolve("enumerate", &request, &no_sources()).expect("valid request")
        };
        let capped = resolved(r#"{"threads":1000000}"#);
        assert_eq!(capped.job.threads, host);
        assert_eq!(
            capped.key,
            resolved("{}").key,
            "threads stay out of the key"
        );
        assert_eq!(resolved(r#"{"threads":1}"#).job.threads, 1);
    }

    /// The response key doubles as the `--cache-dir` file name, so it must not
    /// drift: one pinned key per request shape, and explicit defaults key exactly
    /// like absent flags.
    #[test]
    fn cache_keys_are_pinned_and_explicit_defaults_key_like_absent_flags() {
        let key_of = |op: &str, flags: &str| {
            let request = Json::parse(&request(op, INLINE, flags)).unwrap();
            resolve(op, &request, &no_sources())
                .expect("valid request")
                .key
        };
        for (op, flags, key) in [
            (
                "enumerate",
                r#"{"nin":3,"nout":1}"#,
                "669bd80a9c7b4d06e1beda6f172ff4d1",
            ),
            (
                "select",
                r#"{"nin":3,"nout":1}"#,
                "bcbbbda46d9df8fa0b3e84beae9f8691",
            ),
            (
                "select",
                r#"{"nin":3,"nout":1,"global":true,"max-instr":2}"#,
                "df4159416d0d24da380c35ac6283c018",
            ),
            (
                "group",
                r#"{"nin":3,"nout":1,"ports-in":2,"ports-out":1,"min-count":2}"#,
                "b8993f7e6c93d10378006a3486d73df7",
            ),
        ] {
            assert_eq!(key_of(op, flags), key, "{op} {flags}");
        }
        for (op, absent, explicit) in [
            (
                "enumerate",
                r#"{"nin":3,"nout":1}"#,
                r#"{"nin":3,"nout":1,"budget":1000000}"#,
            ),
            (
                "select",
                r#"{"nin":3,"nout":1}"#,
                r#"{"nin":3,"nout":1,"global":false,"max-instr":4,"ports-in":3,"ports-out":1}"#,
            ),
            (
                "select",
                r#"{"nin":3,"nout":1,"global":true}"#,
                r#"{"nin":3,"nout":1,"global":true,"max-instr":0}"#,
            ),
            (
                "group",
                r#"{"nin":3,"nout":1}"#,
                r#"{"nin":3,"nout":1,"ports-in":3,"ports-out":1,"min-count":1}"#,
            ),
        ] {
            assert_eq!(key_of(op, absent), key_of(op, explicit), "{op} {explicit}");
        }
    }

    #[test]
    fn http_reply_takes_the_op_from_the_path() {
        let state = ServerState::new(8, None);
        // A conflicting body op is replaced by the path's.
        let body = format!(
            "{{\"op\":\"shutdown\",\"block\":{},\"flags\":{{\"nin\":3,\"nout\":1}}}}",
            Json::str(INLINE).render()
        );
        let (status, _, response) = http_reply(&state, "POST", "/v1/group", &body);
        assert_eq!(status, "200 OK", "{response}");
        let doc = Json::parse(&response).unwrap();
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("group"));
        assert!(response.contains("ise-cli/group/v1"), "{response}");
        assert!(!state.shutdown_requested());
        // Malformed bodies are answered in-band, not panicked on.
        for (body, expect) in [
            ("[1,2]", "`block` field"),
            ("{nope", "not JSON"),
            // An empty body is an empty object, which then fails validation.
            ("  ", "`block` field"),
        ] {
            let (status, _, response) = http_reply(&state, "POST", "/v1/enumerate", body);
            assert_eq!(status, "400 Bad Request", "{body}: {response}");
            let doc = Json::parse(&response).expect("error responses are JSON");
            assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{response}");
            let message = doc.get("error").and_then(Json::as_str).unwrap();
            assert!(message.contains(expect), "{body}: {message}");
        }
    }

    #[test]
    fn http_reply_routes_paths_and_status_codes() {
        let state = ServerState::new(8, None);
        let (status, content_type, body) = http_reply(&state, "GET", "/v1/stats", "");
        assert_eq!(status, "200 OK");
        assert_eq!(content_type, CONTENT_JSON);
        assert!(body.contains("\"op\":\"stats\""), "{body}");
        let request_body = format!(
            "{{\"block\":{},\"flags\":{{\"nin\":3,\"nout\":1}}}}",
            Json::str(INLINE).render()
        );
        let (status, _, body) = http_reply(&state, "POST", "/v1/enumerate", &request_body);
        assert_eq!(status, "200 OK", "{body}");
        assert!(body.contains("\"op\":\"enumerate\""), "{body}");
        assert!(
            body.contains("ise-cli/enumerate/v1"),
            "the HTTP body is the JSON protocol's envelope: {body}"
        );
        // The HTTP response envelope equals the JSON-protocol response envelope
        // byte for byte (the warm pass here also proves the transports share
        // one cache).
        let via_json = state.handle_line(&request("enumerate", INLINE, r#"{"nin":3,"nout":1}"#));
        let stripped = |text: &str| Json::parse(text).unwrap().get("result").unwrap().render();
        assert_eq!(stripped(&body), stripped(&via_json));
        assert!(via_json.contains("\"cached\":true"), "{via_json}");

        let (status, _, body) = http_reply(&state, "POST", "/v1/enumerate", "{nope");
        assert_eq!(status, "400 Bad Request");
        assert!(body.contains("\"ok\":false"), "{body}");
        let (status, _, body) = http_reply(&state, "POST", "/v1/frobnicate", "{}");
        assert_eq!(status, "404 Not Found");
        assert!(body.contains("unknown path"), "{body}");
        let (status, _, _) = http_reply(&state, "PATCH", "/v1/stats", "");
        assert_eq!(status, "405 Method Not Allowed");
        // Routing failures feed the same counters as in-band errors.
        let stats = state.handle_line(r#"{"op":"stats"}"#);
        let server = Json::parse(&stats)
            .unwrap()
            .get("result")
            .and_then(|r| r.get("server"))
            .cloned()
            .unwrap();
        let counter = |field: &str| server.get(field).and_then(Json::as_u64).unwrap();
        assert_eq!(
            counter("hits") + counter("misses") + counter("errors"),
            counter("requests"),
            "{stats}"
        );
    }

    #[test]
    fn http_sniffing_recognizes_methods_not_json() {
        for http in [
            "POST /v1/enumerate HTTP/1.1\r\n",
            "GET /v1/stats HTTP/1.1\r\n",
            "DELETE /x HTTP/1.1\r\n",
        ] {
            assert!(is_http_request_line(http.as_bytes()), "{http}");
        }
        for json in [
            "{\"op\":\"stats\"}\n",
            " {\"op\":\"stats\"}\n",
            "not json\n",
        ] {
            assert!(!is_http_request_line(json.as_bytes()), "{json}");
        }
    }

    #[test]
    fn a_stop_wakes_an_unspecified_listener_through_loopback() {
        for (listening, wake) in [
            ("0.0.0.0:7878", "127.0.0.1:7878"),
            ("[::]:7878", "[::1]:7878"),
            ("192.0.2.1:7878", "192.0.2.1:7878"),
            ("[::1]:0", "[::1]:0"),
        ] {
            let listening: SocketAddr = listening.parse().expect("an address");
            assert_eq!(wake_address(listening).to_string(), wake, "{listening}");
        }
    }

    #[test]
    fn disk_cache_survives_a_restart_byte_identically() {
        let dir = std::env::temp_dir().join(format!("ise-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = request("enumerate", INLINE, r#"{"nin":3,"nout":1}"#);
        let cold = {
            let state = ServerState::new(8, Some(dir.clone()));
            state.handle_line(&req)
        };
        let restarted = ServerState::new(8, Some(dir.clone()));
        let warm = restarted.handle_line(&req);
        assert_eq!(
            Json::parse(&warm).unwrap().get("cached"),
            Some(&Json::Bool(true)),
            "{warm}"
        );
        assert_eq!(result_of(&cold).render(), result_of(&warm).render());
        let stats = Json::parse(&restarted.stats_response()).unwrap();
        let responses = stats.get("result").and_then(|r| r.get("responses"));
        let disk_hits = responses.and_then(|r| r.get("disk_hits"));
        assert_eq!(disk_hits.and_then(Json::as_u64), Some(1), "{stats:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A scratch directory for the source-cache tests, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("ise-serve-src-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }

        fn write(&self, name: &str, text: &str) -> String {
            let path = self.path(name);
            std::fs::write(&path, text).unwrap();
            path
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A response's `cached` flag and its deterministic part (key and payload, or
    /// the whole error line).
    fn answer(response: &str) -> (Option<bool>, String) {
        let doc = Json::parse(response).expect("response is JSON");
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => (
                doc.get("cached").and_then(Json::as_bool),
                format!(
                    "{}:{}",
                    doc.get("key").and_then(Json::as_str).unwrap(),
                    doc.get("result").unwrap().render()
                ),
            ),
            _ => (None, response.to_string()),
        }
    }

    /// What a daemon that never saw the earlier requests answers.
    fn fresh_answer(line: &str) -> String {
        answer(&ServerState::new(8, None).handle_line(line)).1
    }

    fn key_of(response: &str) -> String {
        Json::parse(response)
            .unwrap()
            .get("key")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    }

    /// The error text the batch loader gives for `path`.
    fn load_error(path: &str) -> String {
        let error = ise_corpus::load_corpus_path(path).expect_err("the load fails");
        CliError::from(error).to_string()
    }

    #[test]
    fn source_cache_reuses_a_parse_only_for_unchanged_bytes() {
        let scratch = Scratch::new("edit");
        let file = scratch.write("mac.dfg", INLINE);
        let state = ServerState::new(8, None);
        let line = request("group", &file, r#"{"nin":3,"nout":1}"#);
        let (cached, cold) = answer(&state.handle_line(&line));
        assert_eq!(cached, Some(false));
        assert_eq!(
            answer(&state.handle_line(&line)),
            (Some(true), cold.clone())
        );
        assert_eq!(
            state.source_stats().hits,
            1,
            "the warm request reused the parse"
        );

        // The same length, one opcode changed: a new key, computed, as a fresh
        // daemon answers it.
        std::fs::write(&file, INLINE.replace("node 3 mul", "node 3 sub")).unwrap();
        let (cached, edited) = answer(&state.handle_line(&line));
        assert_eq!(cached, Some(false));
        assert_ne!(edited[..32], cold[..32], "a new key");
        assert_eq!(edited, fresh_answer(&line));
        assert_eq!(state.source_stats().hits, 1, "changed bytes never hit");

        // A comment changes the bytes but not the canonical bytes: the same key,
        // answered from the response cache.
        std::fs::write(&file, format!("# a comment\n{INLINE}")).unwrap();
        let misses = state.source_stats().misses;
        assert_eq!(
            answer(&state.handle_line(&line)),
            (Some(true), cold.clone())
        );
        assert_eq!(state.source_stats().misses, misses + 1, "re-parsed");
        assert_eq!(answer(&state.handle_line(&line)), (Some(true), cold));
    }

    #[test]
    fn source_cache_follows_files_added_to_and_removed_from_a_directory() {
        let scratch = Scratch::new("dir");
        scratch.write("a.dfg", INLINE);
        let state = ServerState::new(8, None);
        let line = request(
            "select",
            &scratch.path(""),
            r#"{"nin":3,"nout":1,"global":true}"#,
        );
        let (_, one) = answer(&state.handle_line(&line));
        assert_eq!(answer(&state.handle_line(&line)).1, one);

        let added = scratch.write("b.dfg", &INLINE.replace("dfg mac", "dfg mac2"));
        let (cached, two) = answer(&state.handle_line(&line));
        assert_eq!(cached, Some(false), "an added file is a new corpus");
        assert_eq!(two, fresh_answer(&line));
        assert!(two.contains("mac2"), "{two}");

        std::fs::remove_file(&added).unwrap();
        assert_eq!(answer(&state.handle_line(&line)), (Some(true), one.clone()));

        // A file that repeats a block name: the batch loader's error text, every
        // time, and nothing cached for it.
        scratch.write("c.dfg", INLINE);
        let expected = load_error(&scratch.path(""));
        assert!(
            expected.contains("duplicate block name `mac`"),
            "{expected}"
        );
        for _ in 0..2 {
            let response = state.handle_line(&line);
            let message = Json::parse(&response)
                .unwrap()
                .get("error")
                .and_then(Json::as_str)
                .map(str::to_string);
            assert_eq!(message.as_deref(), Some(expected.as_str()), "{response}");
        }
        std::fs::remove_file(scratch.path("c.dfg")).unwrap();
        assert_eq!(answer(&state.handle_line(&line)), (Some(true), one));
    }

    #[test]
    fn broken_or_deleted_sources_answer_todays_errors_and_are_not_cached() {
        let scratch = Scratch::new("broken");
        let file = scratch.write("mac.dfg", INLINE);
        let state = ServerState::new(8, None);
        let line = request("enumerate", &file, r#"{"nin":3,"nout":1}"#);
        let (_, cold) = answer(&state.handle_line(&line));
        let entries = || {
            let stats = state.handle_line(r#"{"op":"stats"}"#);
            Json::parse(&stats)
                .unwrap()
                .get("result")
                .and_then(|r| r.get("sources"))
                .and_then(|s| s.get("entries"))
                .and_then(Json::as_u64)
        };
        assert_eq!(entries(), Some(1));
        for broken in [None, Some(INLINE.replace("node 3 mul", "node 3 mull"))] {
            match &broken {
                None => std::fs::remove_file(&file).unwrap(),
                Some(text) => std::fs::write(&file, text).unwrap(),
            }
            let expected = load_error(&file);
            let response = state.handle_line(&line);
            let message = Json::parse(&response)
                .unwrap()
                .get("error")
                .and_then(Json::as_str)
                .map(str::to_string);
            assert_eq!(message.as_deref(), Some(expected.as_str()), "{response}");
            assert_eq!(entries(), Some(1), "the error was not cached");
            std::fs::write(&file, INLINE).unwrap();
            assert_eq!(
                answer(&state.handle_line(&line)),
                (Some(true), cold.clone())
            );
        }
    }

    #[test]
    fn zero_cache_cap_turns_the_source_cache_off() {
        let scratch = Scratch::new("nocap");
        let file = scratch.write("mac.dfg", INLINE);
        let state = ServerState::new(0, None);
        let line = request("enumerate", &file, r#"{"nin":3,"nout":1}"#);
        let first = answer(&state.handle_line(&line));
        assert_eq!(answer(&state.handle_line(&line)), first);
        let stats = state.source_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert_eq!(state.sources.lock().unwrap().len(), 0);
    }

    #[test]
    fn more_sources_than_the_cap_evict_and_stay_correct() {
        let scratch = Scratch::new("evict");
        let files: Vec<String> = (0..3)
            .map(|i| {
                scratch.write(
                    &format!("b{i}.dfg"),
                    &INLINE.replace("dfg mac", &format!("dfg mac{i}")),
                )
            })
            .collect();
        let state = ServerState::new(2, None);
        for round in 0..2 {
            for file in &files {
                let line = request("enumerate", file, r#"{"nin":3,"nout":1}"#);
                assert_eq!(
                    answer(&state.handle_line(&line)).1,
                    fresh_answer(&line),
                    "round {round}"
                );
            }
        }
        let stats = state.source_stats();
        assert!(stats.evictions >= 4, "{stats:?}");
        assert_eq!(stats.hits, 0, "round robin over three sources in two slots");
        assert!(state.sources.lock().unwrap().len() <= 2);
    }

    #[test]
    fn an_inline_block_and_a_file_holding_it_share_one_response_key() {
        let scratch = Scratch::new("inline");
        let file = scratch.write("mac.dfg", INLINE);
        let state = ServerState::new(8, None);
        let flags = r#"{"nin":3,"nout":1}"#;
        let inline = state.handle_line(&request("enumerate", INLINE, flags));
        let from_file = state.handle_line(&request("enumerate", &file, flags));
        assert_eq!(key_of(&inline), key_of(&from_file));
        assert_eq!(answer(&from_file), (Some(true), answer(&inline).1));
        assert_eq!(
            state.sources.lock().unwrap().len(),
            1,
            "only the file is cached; both share one key"
        );
    }

    /// `--limit` keys continue from the cached hasher state after the kept
    /// blocks, so they equal the key of a source holding only those blocks.
    #[test]
    fn limited_requests_key_like_the_blocks_they_keep() {
        let scratch = Scratch::new("limit");
        let two = scratch.write(
            "two.dfg",
            &format!("{INLINE}{}", INLINE.replace("dfg mac", "dfg mac2")),
        );
        let state = ServerState::new(8, None);
        let flags = |limit: &str| format!(r#"{{"nin":3,"nout":1{limit}}}"#);
        let one = answer(&state.handle_line(&request("group", INLINE, &flags(""))));
        let limited = answer(&state.handle_line(&request("group", &two, &flags(r#","limit":1"#))));
        assert_eq!(limited, (Some(true), one.1));
        let both = answer(&state.handle_line(&request("group", &two, &flags(""))));
        let over = answer(&state.handle_line(&request("group", &two, &flags(r#","limit":9"#))));
        assert_eq!(over, (Some(true), both.1));
        assert_eq!(
            state.source_stats().hits,
            2,
            "one parse of the two-block source"
        );
    }

    #[test]
    fn latency_histograms_split_by_op_and_outcome() {
        let state = ServerState::new(8, None);
        let line = request("enumerate", INLINE, r#"{"nin":3,"nout":1}"#);
        let _ = state.handle_line(&line); // miss
        let _ = state.handle_line(&line); // hit
        let _ = state.handle_line(r#"{"op":"enumerate"}"#); // error
        let _ = state.handle_line("not json"); // error, no op yet
        let body = state.metrics_response();
        for (series, count) in [
            ("op=\"enumerate\",outcome=\"miss\"", 1),
            ("op=\"enumerate\",outcome=\"hit\"", 1),
            ("op=\"enumerate\",outcome=\"error\"", 1),
            ("op=\"unknown\",outcome=\"error\"", 1),
        ] {
            let sample = format!("ise_serve_request_us_count{{{series}}} {count}\n");
            assert!(body.contains(&sample), "missing `{sample}`:\n{body}");
        }
        assert_eq!(
            body.matches("ise_serve_request_us_count{").count(),
            4,
            "{body}"
        );
    }
}
