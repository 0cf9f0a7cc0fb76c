//! Content-addressed result caching for the `ise serve` daemon.
//!
//! Four pieces, all dependency-free (DESIGN.md §7):
//!
//! * [`content_hash`] — a stable 128-bit hex digest over a list of byte strings,
//!   computed with two independent FNV-1a accumulators; [`ContentHasher`] is its
//!   streaming form, whose state after a prefix of the parts can be kept and
//!   continued. Stability matters more than
//!   cryptographic strength here: the same inputs must produce the same key across
//!   processes and restarts (so an on-disk cache written yesterday still hits
//!   today), which rules out `std`'s randomly seeded hashers.
//! * [`LruCache`] — a bounded, least-recently-used map from hex keys to values,
//!   with hit/miss/eviction counters. The bound is a hard invariant: the cache
//!   never holds more than `cap` entries (property-tested in `tests/serve.rs`).
//! * [`ResponseCache`] — an [`LruCache`] over rendered response payloads, backed by
//!   an optional on-disk directory (`--cache-dir`) so a restarted daemon answers
//!   warm. Disk I/O is strictly best-effort: a read or write failure degrades to a
//!   miss, never to a request error.
//! * [`SingleFlight`] — request coalescing for the concurrent daemon: N threads
//!   missing the cache on the *same* key elect exactly one leader to compute while
//!   the rest block on the leader's published outcome, so a thundering herd of
//!   identical cold requests triggers exactly one `run_batch_obs` (DESIGN.md §7.4).
//!
//! Cache *keys* are derived from semantic request content only — canonical `.dfg`
//! bytes ([`ise_corpus::CorpusBlock::canonical_bytes`]) plus the flag tokens of
//! `ise_enum` ([`ise_enum::Constraints::cache_token`] and friends) — never from
//! wall-clock time, thread counts or file paths. Cache *values* are fully rendered
//! deterministic payloads, so a hit is a string lookup and the cold and warm bytes
//! are identical by construction — which is also what makes coalescing sound: a
//! follower returning the leader's bytes is indistinguishable from recomputing.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Stable 128-bit content hash of `parts`, as 32 lowercase hex characters: a
/// [`ContentHasher`] fed every part in order.
///
/// Each part is length-prefixed before hashing, so `["ab", "c"]` and `["a", "bc"]`
/// digest differently. Deterministic across processes, platforms and releases —
/// the contract an on-disk cache needs.
///
/// # Example
///
/// ```
/// use ise_cli::cache::content_hash;
///
/// let key = content_hash(&["dfg a\nend\n", "nin=4;nout=2"]);
/// assert_eq!(key.len(), 32);
/// assert_eq!(key, content_hash(&["dfg a\nend\n", "nin=4;nout=2"]));
/// assert_ne!(key, content_hash(&["dfg a\nend\n", "nin=4;nout=3"]));
/// assert_ne!(content_hash(&["ab", "c"]), content_hash(&["a", "bc"]));
/// ```
pub fn content_hash(parts: &[&str]) -> String {
    let mut hasher = ContentHasher::new();
    for part in parts {
        hasher.part(part);
    }
    hasher.finish()
}

/// The streaming form of [`content_hash`]: parts are absorbed one at a time, and
/// the state after any prefix of the parts can be copied and continued, so a key
/// over a shared prefix plus a few tokens hashes only the tokens.
///
/// Two FNV-1a 64-bit accumulators with different offset bases (the standard basis
/// and its xor with a fixed constant) run over the same stream of length-prefixed
/// parts; their concatenation is the digest.
///
/// # Example
///
/// ```
/// use ise_cli::cache::{content_hash, ContentHasher};
///
/// let mut prefix = ContentHasher::new();
/// prefix.part("dfg a\nend\n");
/// let mut key = prefix;
/// key.part("nin=4;nout=2");
/// assert_eq!(key.finish(), content_hash(&["dfg a\nend\n", "nin=4;nout=2"]));
/// assert_eq!(prefix.finish(), content_hash(&["dfg a\nend\n"]));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContentHasher {
    lo: u64,
    hi: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const TWIST: u64 = 0x9e37_79b9_7f4a_7c15;

    /// The state before any part.
    pub fn new() -> Self {
        ContentHasher {
            lo: Self::OFFSET,
            hi: Self::OFFSET ^ Self::TWIST,
        }
    }

    /// Absorbs one part: its length, then its bytes.
    pub fn part(&mut self, part: &str) {
        self.bytes(&(part.len() as u64).to_le_bytes());
        self.bytes(part.as_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let (mut lo, mut hi) = (self.lo, self.hi);
        for &byte in bytes {
            lo = (lo ^ u64::from(byte)).wrapping_mul(Self::PRIME);
            hi = ((hi ^ u64::from(byte)).wrapping_mul(Self::PRIME)).rotate_left(1);
        }
        (self.lo, self.hi) = (lo, hi);
    }

    /// The digest of the parts absorbed so far, as 32 lowercase hex characters.
    pub fn finish(&self) -> String {
        format!("{:016x}{:016x}", self.lo, self.hi)
    }
}

/// Hit/miss accounting of one cache, reported by the daemon's `stats` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups answered by neither memory nor disk.
    pub misses: u64,
    /// Lookups missed in memory but recovered from the disk directory.
    pub disk_hits: u64,
    /// Entries inserted.
    pub puts: u64,
    /// Entries dropped to keep the cache within its capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Publishes this snapshot into a metrics registry as gauges named
    /// `ise_cache_<field>{cache="<cache>"}` (e.g.
    /// `ise_cache_hits{cache="responses"}`) — the daemon routes each of its
    /// caches' counters through the shared registry this way before rendering
    /// `GET /v1/metrics`.
    pub fn publish(&self, rec: &dyn ise_obs::Recorder, cache: &str) {
        let gauge = |field: &str, value: u64| {
            rec.set_gauge(&format!("ise_cache_{field}{{cache=\"{cache}\"}}"), value);
        };
        gauge("hits", self.hits);
        gauge("misses", self.misses);
        gauge("disk_hits", self.disk_hits);
        gauge("puts", self.puts);
        gauge("evictions", self.evictions);
    }
}

/// A bounded least-recently-used map from string keys to values.
///
/// `get` and `put` both refresh recency; inserting beyond the capacity evicts the
/// least recently used entry first. With capacity 0 the cache stores nothing and
/// every lookup misses — the `--cache-cap 0` off switch.
///
/// The recency list is a plain `Vec` scanned linearly: capacities here are request
/// caches (tens to a few thousand entries), where the scan is noise next to
/// rendering a single response.
#[derive(Clone, Debug)]
pub struct LruCache<V> {
    map: HashMap<String, V>,
    recency: Vec<String>,
    cap: usize,
    stats: CacheStats,
}

impl<V> LruCache<V> {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            recency: Vec::new(),
            cap,
            stats: CacheStats::default(),
        }
    }

    /// The capacity this cache was created with.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of entries currently held (`<= cap()` always).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        self.get_if(key, |_| true)
    }

    /// Looks up `key` like [`LruCache::get`], but answers only an entry that
    /// `fresh` accepts. A rejected entry counts as a miss and is left in place
    /// for the caller's [`LruCache::put`] to replace.
    pub fn get_if(&mut self, key: &str, fresh: impl FnOnce(&V) -> bool) -> Option<&V> {
        if self.map.get(key).is_some_and(fresh) {
            self.stats.hits += 1;
            self.touch(key);
            self.map.get(key)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Publishes this cache's counters ([`CacheStats::publish`]) and its
    /// `ise_cache_entries`/`ise_cache_cap` gauges under the label `cache`.
    pub fn publish(&self, rec: &dyn ise_obs::Recorder, cache: &str) {
        self.stats.publish(rec, cache);
        rec.set_gauge(
            &format!("ise_cache_entries{{cache=\"{cache}\"}}"),
            self.len() as u64,
        );
        rec.set_gauge(
            &format!("ise_cache_cap{{cache=\"{cache}\"}}"),
            self.cap as u64,
        );
    }

    /// Inserts `key -> value` (refreshing recency on overwrite), evicting the least
    /// recently used entries while the cache exceeds its capacity.
    pub fn put(&mut self, key: &str, value: V) {
        self.stats.puts += 1;
        if self.cap == 0 {
            return;
        }
        if self.map.insert(key.to_string(), value).is_none() {
            self.recency.push(key.to_string());
        } else {
            self.touch(key);
        }
        while self.map.len() > self.cap {
            let victim = self.recency.remove(0);
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.recency.iter().position(|k| k == key) {
            let k = self.recency.remove(pos);
            self.recency.push(k);
        }
    }
}

/// The daemon's response cache: a bounded in-memory [`LruCache`] over rendered
/// payload strings, optionally backed by a directory of `<key>.json` files.
///
/// Disk reads re-populate memory (and count as [`CacheStats::disk_hits`]); disk
/// writes happen on every insert. All disk I/O is best-effort — an unreadable or
/// unwritable cache directory silently degrades the daemon to memory-only caching,
/// because caching must never turn a computable request into an error.
#[derive(Debug)]
pub struct ResponseCache {
    memory: LruCache<String>,
    dir: Option<PathBuf>,
}

impl ResponseCache {
    /// A cache holding at most `cap` payloads in memory, mirrored to `dir` when
    /// given (the directory is created eagerly, best-effort).
    pub fn new(cap: usize, dir: Option<PathBuf>) -> Self {
        if let Some(dir) = &dir {
            let _ = std::fs::create_dir_all(dir);
        }
        ResponseCache {
            memory: LruCache::new(cap),
            dir,
        }
    }

    /// The accounting so far (disk hits included).
    pub fn stats(&self) -> CacheStats {
        self.memory.stats()
    }

    /// The in-memory capacity this cache was created with.
    pub fn cap(&self) -> usize {
        self.memory.cap()
    }

    /// Number of payloads currently in memory.
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// Whether the in-memory cache holds no payloads.
    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }

    /// Publishes the in-memory cache's gauges ([`LruCache::publish`]).
    pub fn publish(&self, rec: &dyn ise_obs::Recorder, cache: &str) {
        self.memory.publish(rec, cache);
    }

    /// Looks up `key` in memory without touching the hit/miss counters or the
    /// recency order. The single-flight re-check hook: a flight leader probes
    /// once more before computing (a racing leader may have filled the cache as
    /// its flight retired), and that probe must not distort the accounting the
    /// per-request `get` already did.
    pub fn peek(&self, key: &str) -> Option<String> {
        self.memory.map.get(key).cloned()
    }

    /// Looks up `key` in memory, then on disk. A disk hit is promoted into memory.
    pub fn get(&mut self, key: &str) -> Option<String> {
        if let Some(hit) = self.memory.get(key) {
            return Some(hit.clone());
        }
        let path = self.dir.as_ref()?.join(format!("{key}.json"));
        let payload = std::fs::read_to_string(path).ok()?;
        self.memory.stats.disk_hits += 1;
        self.memory.put(key, payload.clone());
        Some(payload)
    }

    /// Stores `key -> payload` in memory and, when configured, on disk.
    pub fn put(&mut self, key: &str, payload: &str) {
        self.memory.put(key, payload.to_string());
        if let Some(dir) = &self.dir {
            let _ = std::fs::write(dir.join(format!("{key}.json")), payload);
        }
    }
}

/// Counters of one [`SingleFlight`], reported by the daemon's `stats` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Times a caller became the leader of a new flight (one per distinct
    /// in-flight key — the number of computations that actually ran).
    pub leaders: u64,
    /// Times a caller joined an existing flight and waited for its leader's
    /// outcome instead of computing — the work the coalescing saved.
    pub coalesced: u64,
}

impl FlightStats {
    /// Publishes this snapshot into a metrics registry as gauges
    /// (`ise_flight_leaders`, `ise_flight_coalesced`).
    pub fn publish(&self, rec: &dyn ise_obs::Recorder) {
        rec.set_gauge("ise_flight_leaders", self.leaders);
        rec.set_gauge("ise_flight_coalesced", self.coalesced);
    }
}

/// One in-flight computation: the slot followers block on until the leader
/// publishes. `outcome` is `None` while the computation runs.
#[derive(Debug, Default)]
struct FlightSlot {
    outcome: Mutex<Option<Result<String, String>>>,
    ready: Condvar,
}

/// The caller's role in a flight, returned by [`SingleFlight::join`].
pub enum Flight<'a> {
    /// This caller must compute and then [`FlightGuard::publish`] the outcome.
    Leader(FlightGuard<'a>),
    /// Another caller was already computing this key; this is its published
    /// outcome (`Ok(payload)` or `Err(error message)`).
    Coalesced(Result<String, String>),
}

/// The leader's obligation token: publishes the outcome to every waiting
/// follower and retires the flight. Dropping the guard without publishing
/// (a panic on the compute path) publishes an error so followers never hang.
pub struct FlightGuard<'a> {
    flights: &'a SingleFlight,
    key: String,
    slot: Arc<FlightSlot>,
    published: bool,
}

impl FlightGuard<'_> {
    /// Publishes the computation's outcome, waking every coalesced follower, and
    /// removes the flight so later requests for the key start fresh (they will
    /// hit the response cache the leader filled before publishing).
    pub fn publish(mut self, outcome: Result<String, String>) {
        self.resolve(outcome);
    }

    fn resolve(&mut self, outcome: Result<String, String>) {
        if self.published {
            return;
        }
        self.published = true;
        // Retire the flight *before* waking followers: a new request arriving now
        // starts its own flight (or hits the cache) instead of reading a slot that
        // is about to be dropped by the last follower.
        self.flights
            .flights
            .lock()
            .expect("flight map lock")
            .remove(&self.key);
        let mut published = self.slot.outcome.lock().expect("flight slot lock");
        *published = Some(outcome);
        self.slot.ready.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.resolve(Err("the computation leading this flight failed".to_string()));
    }
}

/// Coalesces concurrent computations of the same cache key: the first caller to
/// [`SingleFlight::join`] a key becomes the **leader** (and must compute, fill the
/// cache, and [`FlightGuard::publish`]), every concurrent caller for the same key
/// becomes a **follower** and blocks until the leader publishes. Keys are
/// content hashes, so two requests share a flight exactly when their stripped
/// responses would be byte-identical anyway — coalescing is observably pure.
///
/// # Example
///
/// ```
/// use ise_cli::cache::{Flight, SingleFlight};
///
/// let flights = SingleFlight::default();
/// let Flight::Leader(guard) = flights.join("key") else {
///     panic!("first join leads");
/// };
/// guard.publish(Ok("payload".to_string()));
/// assert_eq!(flights.stats().leaders, 1);
/// ```
#[derive(Debug, Default)]
pub struct SingleFlight {
    flights: Mutex<HashMap<String, Arc<FlightSlot>>>,
    leaders: AtomicU64,
    coalesced: AtomicU64,
}

impl SingleFlight {
    /// Joins the flight for `key`: the first concurrent caller leads (and must
    /// publish through the returned guard), the rest block here until the leader
    /// publishes and receive its outcome.
    pub fn join(&self, key: &str) -> Flight<'_> {
        let slot = {
            let mut flights = self.flights.lock().expect("flight map lock");
            match flights.get(key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(FlightSlot::default());
                    flights.insert(key.to_string(), Arc::clone(&slot));
                    self.leaders.fetch_add(1, Ordering::Relaxed);
                    return Flight::Leader(FlightGuard {
                        flights: self,
                        key: key.to_string(),
                        slot,
                        published: false,
                    });
                }
            }
        };
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        let mut outcome = slot.outcome.lock().expect("flight slot lock");
        while outcome.is_none() {
            outcome = slot
                .ready
                .wait(outcome)
                .expect("flight leader never poisons the slot");
        }
        Flight::Coalesced(outcome.clone().expect("loop exits only once published"))
    }

    /// The accounting so far.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            leaders: self.leaders.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        // Pinned value: the key doubles as an on-disk filename, so it must never
        // drift between releases.
        assert_eq!(content_hash(&[]), "cbf29ce48422232555c5e55dfb685f30");
        assert_eq!(content_hash(&["a"]), content_hash(&["a"]));
        assert_ne!(content_hash(&["a"]), content_hash(&["b"]));
        assert_ne!(content_hash(&["a", "b"]), content_hash(&["ab"]));
        assert_ne!(content_hash(&["", "a"]), content_hash(&["a", ""]));
        assert!(content_hash(&["x"]).chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn continued_hasher_states_equal_one_shot_hashes() {
        let parts = ["dfg a\nend\n", "", "dfg b\nnode 0 in\nend\n", "nin=4", "op"];
        let mut hasher = ContentHasher::new();
        for (len, part) in parts.iter().enumerate() {
            assert_eq!(hasher.finish(), content_hash(&parts[..len]));
            let mut fork = hasher;
            fork.part("token");
            let mut expected = parts[..len].to_vec();
            expected.push("token");
            assert_eq!(fork.finish(), content_hash(&expected));
            hasher.part(part);
        }
        assert_eq!(hasher.finish(), content_hash(&parts));
    }

    #[test]
    fn get_if_answers_only_accepted_entries() {
        let mut cache = LruCache::new(2);
        cache.put("a", 1);
        cache.put("b", 2);
        assert_eq!(cache.get_if("a", |&v| v == 2), None, "rejected: a miss");
        assert_eq!(cache.len(), 2, "a rejected entry stays until replaced");
        assert_eq!(cache.get_if("a", |&v| v == 1), Some(&1));
        cache.put("c", 3);
        assert_eq!(
            cache.get("b"),
            None,
            "the accepted lookup refreshed a past b"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_tracks_recency_and_evicts_oldest() {
        let mut cache = LruCache::new(2);
        cache.put("a", 1);
        cache.put("b", 2);
        assert_eq!(cache.get("a"), Some(&1), "refreshes a");
        cache.put("c", 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("b"), None, "b was least recently used");
        assert_eq!(cache.get("a"), Some(&1));
        assert_eq!(cache.get("c"), Some(&3));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.puts, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn lru_overwrite_refreshes_without_growing() {
        let mut cache = LruCache::new(2);
        cache.put("a", 1);
        cache.put("b", 2);
        cache.put("a", 10);
        assert_eq!(cache.len(), 2);
        cache.put("c", 3);
        assert_eq!(cache.get("b"), None, "overwriting a refreshed it past b");
        assert_eq!(cache.get("a"), Some(&10));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = LruCache::new(0);
        cache.put("a", 1);
        assert!(cache.is_empty());
        assert_eq!(cache.get("a"), None);
        assert_eq!(
            cache.stats().evictions,
            0,
            "nothing stored, nothing evicted"
        );
    }

    #[test]
    fn response_cache_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("ise-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = ResponseCache::new(4, Some(dir.clone()));
            cache.put("k1", "{\"x\":1}");
            assert_eq!(cache.get("k1").as_deref(), Some("{\"x\":1}"));
        }
        // A fresh (restarted) cache recovers the payload from disk.
        let mut cache = ResponseCache::new(4, Some(dir.clone()));
        assert!(cache.is_empty());
        assert_eq!(cache.get("k1").as_deref(), Some("{\"x\":1}"));
        assert_eq!(cache.stats().disk_hits, 1);
        assert_eq!(cache.len(), 1, "disk hit promoted into memory");
        assert_eq!(cache.get("absent"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn response_cache_without_dir_is_memory_only() {
        let mut cache = ResponseCache::new(1, None);
        cache.put("a", "1");
        cache.put("b", "2");
        assert_eq!(cache.get("a"), None, "evicted, and no disk to recover from");
        assert_eq!(cache.get("b").as_deref(), Some("2"));
    }

    #[test]
    fn single_flight_coalesces_concurrent_joins() {
        let flights = Arc::new(SingleFlight::default());
        let Flight::Leader(guard) = flights.join("k") else {
            panic!("first join must lead");
        };
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let flights = Arc::clone(&flights);
                std::thread::spawn(move || match flights.join("k") {
                    Flight::Coalesced(outcome) => outcome,
                    Flight::Leader(_) => panic!("joined while a leader was in flight"),
                })
            })
            .collect();
        // Wait until every follower is registered on the flight before publishing.
        while flights.stats().coalesced < 4 {
            std::thread::yield_now();
        }
        guard.publish(Ok("payload".to_string()));
        for follower in followers {
            assert_eq!(follower.join().unwrap(), Ok("payload".to_string()));
        }
        let stats = flights.stats();
        assert_eq!(stats.leaders, 1, "one computation for five joins");
        assert_eq!(stats.coalesced, 4);
        // The flight retired: the next join leads a fresh computation.
        assert!(matches!(flights.join("k"), Flight::Leader(_)));
        assert_eq!(flights.stats().leaders, 2);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let flights = SingleFlight::default();
        let Flight::Leader(a) = flights.join("a") else {
            panic!("a leads");
        };
        let Flight::Leader(b) = flights.join("b") else {
            panic!("b leads too — different key, different flight");
        };
        a.publish(Ok("ra".to_string()));
        b.publish(Err("eb".to_string()));
        assert_eq!(
            flights.stats(),
            FlightStats {
                leaders: 2,
                coalesced: 0
            }
        );
    }

    #[test]
    fn dropped_leader_publishes_an_error_instead_of_hanging_followers() {
        let flights = Arc::new(SingleFlight::default());
        let guard = match flights.join("k") {
            Flight::Leader(guard) => guard,
            Flight::Coalesced(_) => panic!("first join must lead"),
        };
        let follower = {
            let flights = Arc::clone(&flights);
            std::thread::spawn(move || match flights.join("k") {
                Flight::Coalesced(outcome) => outcome,
                Flight::Leader(_) => panic!("joined while a leader was in flight"),
            })
        };
        while flights.stats().coalesced < 1 {
            std::thread::yield_now();
        }
        drop(guard); // the leader's computation panicked / bailed without publishing
        let outcome = follower.join().unwrap();
        assert!(outcome.is_err(), "followers must see an error, not hang");
    }
}
