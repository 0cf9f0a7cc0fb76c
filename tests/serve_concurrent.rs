//! Concurrency harness for the `ise serve` daemon's shared state: many threads
//! hammer one [`ServerState`] with a shuffled mix of cold, warm, inline and
//! malformed requests, and every response must be byte-identical to a
//! single-threaded serial replay — the serve-side analogue of
//! `tests/par_equivalence.rs`. Also pins the single-flight guarantee (N
//! concurrent cold requests for one key run exactly one computation) and the
//! server-counter consistency invariant (`hits + misses + errors == requests`).
//!
//! These tests drive the daemon in-process over `Arc<ServerState>`; the
//! process-level harness (TCP clients, HTTP, SIGTERM) lives in
//! `crates/ise-cli/tests/serve_daemon.rs`.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use ise_cli::serve::ServerState;

/// A tiny multiply-accumulate block; `{n}` is replaced to mint distinct blocks.
const TINY: &str = "dfg tiny{n}\nnode 0 in @a\nnode 1 in @x\nnode 2 in @acc\n\
                    node 3 mul\nnode 4 add\nedge 0 3\nedge 1 3\nedge 3 4\nedge 2 4\n\
                    output 4\nend\n";

fn tiny_block(n: usize) -> String {
    TINY.replace("{n}", &n.to_string())
}

/// Builds one request line, JSON-escaping the inline block text.
fn request(op: &str, block: &str, flags: &str) -> String {
    let escaped = block.replace('\n', "\\n");
    format!("{{\"op\":\"{op}\",\"block\":\"{escaped}\",\"flags\":{{{flags}}}}}")
}

/// The deterministic part of a response: for `ok:true` envelopes the content key
/// plus the raw `result` payload bytes (everything except the volatile `cached`
/// and `elapsed_ms` facts); for errors the whole line (errors carry nothing
/// volatile). This is the Rust-side equivalent of `ci/strip-volatile.sh`.
fn stripped(response: &str) -> String {
    if !response.starts_with("{\"ok\":true") {
        return response.to_string();
    }
    let key_at = response.find("\"key\":\"").expect("key field") + "\"key\":\"".len();
    let key = &response[key_at..key_at + 32];
    let payload_at = response.find("\"result\":").expect("result field") + "\"result\":".len();
    format!("{key}:{}", &response[payload_at..response.len() - 1])
}

/// A u64 counter out of the `"server"` object of a `stats` response.
fn server_counter(stats_response: &str, field: &str) -> u64 {
    let server_at = stats_response
        .find("\"server\":{")
        .expect("stats reports a server object");
    let tail = &stats_response[server_at..];
    let needle = format!("\"{field}\":");
    let at = tail.find(&needle).expect("server counter present") + needle.len();
    tail[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter is a number")
}

/// The workload: cold keys, duplicates that warm up mid-run, an op mix over the
/// same blocks (distinct keys, shared enumeration layer) and malformed lines
/// that must answer in-band errors without poisoning anything.
fn mixed_workload() -> Vec<String> {
    let mut lines = Vec::new();
    for n in 0..4 {
        lines.push(request("enumerate", &tiny_block(n), "\"budget\":5000"));
    }
    for n in 0..2 {
        lines.push(request("group", &tiny_block(n), "\"budget\":5000"));
        lines.push(request(
            "select",
            &tiny_block(n),
            "\"budget\":5000,\"max-instr\":2",
        ));
    }
    // Duplicates: the same cold keys again (warm for whoever comes second).
    for n in 0..4 {
        lines.push(request("enumerate", &tiny_block(n), "\"budget\":5000"));
    }
    lines.push("definitely not json".to_string());
    lines.push("{\"op\":\"frobnicate\"}".to_string());
    lines.push("{\"op\":\"enumerate\"}".to_string());
    lines
}

/// A deterministic per-thread shuffle (no RNG dependency): a simple LCG drives
/// Fisher-Yates, seeded by the thread index so every thread replays a different
/// interleaving on every run of the test, reproducibly.
fn shuffled(lines: &[String], seed: u64) -> Vec<String> {
    let mut order: Vec<String> = lines.to_vec();
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// 8 threads × shuffled mixed workload over one shared state: every stripped
/// response must equal the serial replay's, and the final server counters must
/// classify every request exactly once.
#[test]
fn concurrent_mixed_workload_matches_serial_replay() {
    let workload = mixed_workload();

    // Serial ground truth on a private state: request line -> stripped response.
    let serial_state = ServerState::new(64, None);
    let mut expected: HashMap<&str, String> = HashMap::new();
    for line in &workload {
        let response = serial_state.handle_line(line);
        let strip = stripped(&response);
        if let Some(previous) = expected.insert(line, strip.clone()) {
            assert_eq!(previous, strip, "serial replay must itself be stable");
        }
    }

    const CLIENTS: usize = 8;
    let state = Arc::new(ServerState::new(64, None));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let state = Arc::clone(&state);
        let barrier = Arc::clone(&barrier);
        let lines = shuffled(&workload, client as u64 + 1);
        handles.push(thread::spawn(move || {
            barrier.wait();
            lines
                .into_iter()
                .map(|line| {
                    let response = state.handle_line(&line);
                    (line, stripped(&response))
                })
                .collect::<Vec<(String, String)>>()
        }));
    }
    let mut answered = 0u64;
    for handle in handles {
        for (line, strip) in handle.join().expect("client thread panicked") {
            answered += 1;
            assert_eq!(
                expected[line.as_str()],
                strip,
                "concurrent response diverged from the serial replay for {line}"
            );
        }
    }
    assert_eq!(answered, (CLIENTS * workload.len()) as u64);

    let stats = state.handle_line("{\"op\":\"stats\"}");
    let counter = |field: &str| server_counter(&stats, field);
    assert_eq!(
        counter("requests"),
        answered,
        "every protocol line is counted once: {stats}"
    );
    assert_eq!(
        counter("hits") + counter("misses") + counter("errors"),
        counter("requests"),
        "every request is exactly one of hit/miss/error: {stats}"
    );
    // 3 malformed lines per client, never more or fewer.
    assert_eq!(counter("errors"), (CLIENTS * 3) as u64, "{stats}");
    // Each distinct evaluated key computes at most once per *cache lifetime*;
    // with a 64-entry cache nothing evicts, so across 8 clients the 8 distinct
    // keys compute exactly 8 times total and everything else is a hit.
    assert_eq!(
        counter("misses"),
        8,
        "one computation per distinct key: {stats}"
    );
    // Every computation was led by a flight; a flight may additionally have
    // been led by a racer that found the payload published while it joined
    // (counted as a hit, not a miss), so the ledger is an inequality.
    assert!(
        counter("flights_led") >= counter("misses"),
        "every computation runs under a flight: {stats}"
    );
    assert!(
        counter("hits") >= counter("coalesced"),
        "every coalesced answer is a hit: {stats}"
    );

    // Observability ledgers, under full concurrency. Every span that was entered
    // was exited (no leaked tokens on any path, error dispatches included), the
    // registry's request counter agrees with the `server` object it feeds.
    let registry = state.registry();
    assert_eq!(
        registry.spans_entered(),
        registry.spans_exited(),
        "span enter/exit ledger must balance"
    );
    assert_eq!(
        registry.counter_value("ise_serve_requests_total"),
        counter("requests"),
        "the stats op and the metrics registry share one requests counter"
    );
}

/// The single-flight guarantee, pinned with the compute-delay seam: four
/// barrier-synchronized clients issue the identical cold request; the delay
/// holds the leader's computation open so every other client must coalesce.
/// Exactly one computation runs (server `misses`, flight `leaders` and the
/// enumeration cache all agree) and all four payloads are byte-identical.
#[test]
fn single_flight_coalesces_identical_cold_requests() {
    const CLIENTS: usize = 4;
    let state = Arc::new(ServerState::new(8, None).with_compute_delay(Duration::from_millis(500)));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let line = request("enumerate", &tiny_block(0), "\"budget\":5000");
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let state = Arc::clone(&state);
        let barrier = Arc::clone(&barrier);
        let line = line.clone();
        handles.push(thread::spawn(move || {
            barrier.wait();
            state.handle_line(&line)
        }));
    }
    let responses: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();

    let first = stripped(&responses[0]);
    for response in &responses {
        assert!(response.starts_with("{\"ok\":true"), "{response}");
        assert_eq!(
            first,
            stripped(response),
            "coalesced payloads must be byte-identical"
        );
    }
    let cold: Vec<&String> = responses
        .iter()
        .filter(|r| r.contains("\"cached\":false"))
        .collect();
    assert_eq!(cold.len(), 1, "exactly one client computed: {responses:?}");

    let stats = state.handle_line("{\"op\":\"stats\"}");
    let counter = |field: &str| server_counter(&stats, field);
    assert_eq!(counter("misses"), 1, "one computation: {stats}");
    assert_eq!(counter("hits"), (CLIENTS - 1) as u64, "{stats}");
    assert_eq!(counter("coalesced"), (CLIENTS - 1) as u64, "{stats}");
    assert_eq!(counter("flights_led"), 1, "{stats}");
    assert_eq!(
        state.enumeration_stats().misses,
        1,
        "run_batch_obs ran for exactly one block"
    );
    assert_eq!(state.flight_stats().leaders, 1);
    assert_eq!(state.flight_stats().coalesced, (CLIENTS - 1) as u64);
}

/// A failing flight must not poison its followers permanently: concurrent
/// identical *invalid* requests all receive the leader's error in-band, and the
/// daemon keeps serving afterwards.
#[test]
fn failed_flights_propagate_errors_and_do_not_poison() {
    let state = Arc::new(ServerState::new(8, None).with_compute_delay(Duration::from_millis(200)));
    // Valid syntax (passes key derivation) but an unloadable corpus path: the
    // failure happens inside the coalesced computation.
    let line = "{\"op\":\"enumerate\",\"block\":\"/nonexistent/ise-serve-flight\"}".to_string();
    // Path resolution fails before the compute delay, so exercise plain
    // concurrent errors rather than flight mechanics; both clients must see
    // `ok:false` and the daemon must still answer valid requests.
    let mut handles = Vec::new();
    for _ in 0..2 {
        let state = Arc::clone(&state);
        let line = line.clone();
        handles.push(thread::spawn(move || state.handle_line(&line)));
    }
    for handle in handles {
        let response = handle.join().expect("client thread panicked");
        assert!(response.starts_with("{\"ok\":false"), "{response}");
    }
    let ok = state.handle_line(&request("enumerate", &tiny_block(1), "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "daemon still serves: {ok}");
    let stats = state.handle_line("{\"op\":\"stats\"}");
    assert_eq!(
        server_counter(&stats, "hits")
            + server_counter(&stats, "misses")
            + server_counter(&stats, "errors"),
        server_counter(&stats, "requests"),
        "{stats}"
    );
}
