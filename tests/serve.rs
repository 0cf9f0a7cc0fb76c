//! Integration tests for the `ise serve` daemon: the LRU capacity invariant under
//! arbitrary operation sequences (property-tested), byte-identical recomputation
//! after eviction, and the cache-key canonicalization regression — formatting-only
//! block variants must share a key while any flag change must miss — and the
//! in-band rejection of the retired `dedup-mode` and `split-threshold` request
//! flags.
//!
//! These drive the daemon through its public surface ([`ise_cli::serve::ServerState`]
//! and [`ise_cli::cache::LruCache`]); the protocol-level cold/warm byte-identity and
//! in-band error handling are unit-tested next to the implementation.

use proptest::prelude::*;

use ise_cli::cache::LruCache;
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

/// The 32-hex content key of an `ok:true` response envelope.
fn key_of(response: &str) -> &str {
    let start = response.find("\"key\":\"").expect("key field") + "\"key\":\"".len();
    &response[start..start + 32]
}

/// The raw `result` payload bytes of an `ok:true` response envelope.
fn payload_of(response: &str) -> &str {
    let start = response.find("\"result\":").expect("result field") + "\"result\":".len();
    &response[start..response.len() - 1]
}

/// Every `"entries":N` counter in a `stats` response (one per cache).
fn entry_counts(stats_response: &str) -> Vec<usize> {
    stats_response
        .match_indices("\"entries\":")
        .map(|(at, needle)| {
            stats_response[at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("entries counter")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LRU bound is a hard invariant: whatever the sequence of puts and gets,
    /// the cache never holds more than its capacity (including capacity 0, the
    /// `--cache-cap 0` off switch), and a just-inserted key is always readable
    /// back at its latest value when the cache stores anything at all.
    #[test]
    fn lru_never_exceeds_its_capacity(
        cap in 0usize..5,
        ops in proptest::collection::vec((0usize..8, any::<bool>()), 1..48),
    ) {
        let mut cache = LruCache::new(cap);
        let mut serial = 0u32;
        for (slot, is_put) in ops {
            let key = format!("k{slot}");
            if is_put {
                serial += 1;
                cache.put(&key, serial);
                if cap > 0 {
                    prop_assert_eq!(cache.get(&key), Some(&serial), "fresh insert readable");
                }
            } else {
                let _ = cache.get(&key);
            }
            prop_assert!(
                cache.len() <= cap,
                "cache holds {} entries with cap {cap}",
                cache.len()
            );
        }
        let stats = cache.stats();
        prop_assert!(stats.evictions <= stats.puts, "cannot evict more than was put");
    }

    /// Under a single-entry response cache, rotating through three distinct blocks
    /// evicts on every request — and every recomputation after eviction must be
    /// byte-identical to the first answer for that block. The daemon's own caches
    /// must also respect the capacity at every step.
    #[test]
    fn eviction_and_requery_stay_byte_identical(seq in proptest::collection::vec(0usize..3, 1..12)) {
        let state = ServerState::new(1, None);
        let blocks = [tiny_block(0), tiny_block(1), tiny_block(2)];
        let mut first_payload: [Option<String>; 3] = [None, None, None];
        for index in seq {
            let response = state.handle_line(&request("enumerate", &blocks[index], "\"budget\":5000"));
            prop_assert!(response.starts_with("{\"ok\":true"), "{}", response);
            let payload = payload_of(&response).to_string();
            match &first_payload[index] {
                Some(first) => prop_assert_eq!(
                    first,
                    &payload,
                    "block {} recomputed differently after eviction",
                    index
                ),
                None => first_payload[index] = Some(payload),
            }
            let stats = state.handle_line("{\"op\":\"stats\"}");
            for entries in entry_counts(&stats) {
                prop_assert!(entries <= 1, "a cache exceeded --cache-cap 1: {}", stats);
            }
        }
    }
}

/// Regression: the cache key is derived from *canonical* block bytes, so comments,
/// blank lines and horizontal whitespace must not change it — while any semantic
/// flag change must produce a different key and therefore a cold miss.
#[test]
fn formatting_invariant_keys_and_flag_sensitive_misses() {
    let state = ServerState::new(8, None);
    let clean = tiny_block(9);
    let noisy = format!(
        "# leading comment\n\n{}",
        clean.replace("node 3 mul", "node   3   mul")
    );

    let cold = state.handle_line(&request("enumerate", &clean, "\"budget\":5000"));
    let noisy_warm = state.handle_line(&request("enumerate", &noisy, "\"budget\":5000"));
    assert_eq!(
        key_of(&cold),
        key_of(&noisy_warm),
        "formatting-only variants must share a cache key"
    );
    assert!(cold.contains("\"cached\":false"), "{cold}");
    assert!(
        noisy_warm.contains("\"cached\":true"),
        "the noisy variant must hit the clean variant's entry: {noisy_warm}"
    );
    assert_eq!(
        payload_of(&cold),
        payload_of(&noisy_warm),
        "shared key must replay byte-identical payload"
    );

    for flags in [
        "\"budget\":4999",
        "\"budget\":5000,\"nin\":3",
        "\"budget\":5000,\"nout\":1",
    ] {
        let changed = state.handle_line(&request("enumerate", &clean, flags));
        assert!(changed.starts_with("{\"ok\":true"), "{changed}");
        assert_ne!(
            key_of(&cold),
            key_of(&changed),
            "flag change {flags} must change the cache key"
        );
        assert!(
            changed.contains("\"cached\":false"),
            "flag change {flags} must miss: {changed}"
        );
    }
}

/// The de-duplication order is no longer a request flag: a request carrying
/// `dedup-mode` gets an in-band error, and the daemon answers the next request.
#[test]
fn retired_dedup_mode_flag_is_an_in_band_error() {
    let state = ServerState::new(8, None);
    let block = tiny_block(11);
    let rejected = state.handle_line(&request(
        "enumerate",
        &block,
        "\"budget\":5000,\"dedup-mode\":\"dedup-first\"",
    ));
    assert!(rejected.starts_with("{\"ok\":false"), "{rejected}");
    assert!(
        rejected.contains("unknown flag `--dedup-mode`"),
        "{rejected}"
    );
    let next = state.handle_line(&request("enumerate", &block, "\"budget\":5000"));
    assert!(next.starts_with("{\"ok\":true"), "{next}");
    assert!(next.contains("\"dedup_mode\":\"dedup-first\""), "{next}");
}

/// Recursive task splitting is gone: a request carrying `split-threshold` gets an
/// in-band error, and the daemon answers the next request, whose report still echoes
/// the retired threshold's fixed value.
#[test]
fn retired_split_threshold_flag_is_an_in_band_error() {
    let state = ServerState::new(8, None);
    let block = tiny_block(12);
    let rejected = state.handle_line(&request(
        "enumerate",
        &block,
        "\"budget\":5000,\"split-threshold\":5",
    ));
    assert!(rejected.starts_with("{\"ok\":false"), "{rejected}");
    assert!(
        rejected.contains("unknown flag") && rejected.contains("split-threshold"),
        "{rejected}"
    );
    let next = state.handle_line(&request("enumerate", &block, "\"budget\":5000"));
    assert!(next.starts_with("{\"ok\":true"), "{next}");
    assert!(next.contains("\"split_threshold\":1000000"), "{next}");
}
