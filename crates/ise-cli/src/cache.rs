//! Content-addressed result caching for the `ise serve` daemon.
//!
//! Three pieces, all dependency-free (DESIGN.md §7):
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
//!   The daemon's response cache holds one `Arc<OnceLock<String>>` cell per key:
//!   [`LruCache::get_or_insert_with`] hands every request its key's cell, the first
//!   request to initialize the cell computes the payload, and concurrent requests
//!   for the same key wait on that cell instead of computing (DESIGN.md §7.4).
//! * `read_payload` and `write_payload` — the optional `--cache-dir` tier, one
//!   `<key>.json` file per response payload, so a restarted daemon answers warm.
//!   A file holds the payload's content hash beside it, is written under a
//!   temporary name and renamed into place, and is checked on every read; a file
//!   that fails the check is a miss and is removed. Disk I/O is best-effort: a
//!   failure degrades to a miss, never to a request error.
//!
//! Cache *keys* are derived from semantic request content only — canonical `.dfg`
//! bytes ([`ise_corpus::CorpusBlock::canonical_bytes`]) plus the flag tokens of
//! `ise_enum` ([`ise_enum::Constraints::cache_token`] and friends) — never from
//! wall-clock time, thread counts or file paths. Cache *values* are fully rendered
//! deterministic payloads, so a hit is a string lookup and the cold and warm bytes
//! are identical by construction — which is also what makes coalescing sound: a
//! request answered from another request's computation is indistinguishable from
//! one that recomputed.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
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
    pub fn publish(&self, rec: &ise_obs::MetricsRegistry, cache: &str) {
        let gauge = |field: &str, value: u64| {
            rec.set_gauge(&format!("ise_cache_{field}{{cache=\"{cache}\"}}"), value);
        };
        gauge("hits", self.hits);
        gauge("misses", self.misses);
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

    /// Returns a copy of `key`'s entry, marking it most recently used, or inserts
    /// `make()` for it (counted as a miss and a put) and returns a copy of that.
    /// With capacity 0 nothing is kept, so every call makes a fresh value.
    pub fn get_or_insert_with(&mut self, key: &str, make: impl FnOnce() -> V) -> V
    where
        V: Clone,
    {
        if let Some(value) = self.get(key) {
            return value.clone();
        }
        let value = make();
        self.put(key, value.clone());
        value
    }

    /// Publishes this cache's counters ([`CacheStats::publish`]) and its
    /// `ise_cache_entries`/`ise_cache_cap` gauges under the label `cache`.
    pub fn publish(&self, rec: &ise_obs::MetricsRegistry, cache: &str) {
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

/// Creates the `--cache-dir` directory, best-effort, and removes the temporary
/// files of [`write_payload`] calls that never reached their rename (a daemon
/// killed in between); `<key>.json` payload files stay. A second daemon started
/// on a live daemon's directory may remove a temporary file that daemon is still
/// writing; that write is then lost, which costs only a later recomputation,
/// since the writer already answered from memory.
pub(crate) fn prepare_dir(dir: &Path) {
    let _ = std::fs::create_dir_all(dir);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_str().is_some_and(is_temporary) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Whether `name` is a [`write_payload`] temporary file name,
/// `.<key>.<pid>.<n>.tmp`.
fn is_temporary(name: &str) -> bool {
    let Some(inner) = name
        .strip_prefix('.')
        .and_then(|rest| rest.strip_suffix(".tmp"))
    else {
        return false;
    };
    let digits = |part: &str| !part.is_empty() && part.bytes().all(|b| b.is_ascii_digit());
    let hex = |part: &str| part.len() == 32 && part.bytes().all(|b| b.is_ascii_hexdigit());
    let parts: Vec<&str> = inner.split('.').collect();
    matches!(parts[..], [key, pid, n] if hex(key) && digits(pid) && digits(n))
}

/// Where [`write_payload`] stores `key`'s payload in `dir`.
fn payload_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json"))
}

/// The payload [`write_payload`] stored for `key` in `dir`, or `None`.
///
/// A file is its payload's [`content_hash`], a newline, then the payload. A file
/// that cannot be read, or whose payload does not match its hash (a truncated or
/// corrupt file, or one written by an older daemon), is removed and read as a
/// miss, so the caller recomputes and rewrites it.
pub(crate) fn read_payload(dir: &Path, key: &str) -> Option<String> {
    let path = payload_path(dir, key);
    let verified = match std::fs::read_to_string(&path) {
        Err(error) if error.kind() == io::ErrorKind::NotFound => return None,
        Err(_) => None,
        Ok(text) => text
            .split_once('\n')
            .filter(|&(hash, payload)| hash == content_hash(&[payload]))
            .map(|(_, payload)| payload.to_string()),
    };
    if verified.is_none() {
        let _ = std::fs::remove_file(&path);
    }
    verified
}

/// Stores `payload` for `key` in `dir`, best-effort. The file is written under a
/// name unique to this process and call, then renamed to `<key>.json`, so a
/// reader finds either the old file, no file or the whole new one; a failed
/// write removes its temporary file. Nothing is synced to disk: a file that a
/// crash of the machine damages fails the check in [`read_payload`] and is
/// recomputed.
pub(crate) fn write_payload(dir: &Path, key: &str, payload: &str) {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let temp = dir.join(format!(
        ".{key}.{}.{}.tmp",
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    let text = format!("{}\n{payload}", content_hash(&[payload]));
    let written =
        std::fs::write(&temp, text).and_then(|()| std::fs::rename(&temp, payload_path(dir, key)));
    if written.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Barrier, Mutex, OnceLock};
    use std::time::Duration;

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

    /// A response cache as the daemon holds it: one once-cell per key.
    type Cells = Mutex<LruCache<Arc<OnceLock<String>>>>;

    fn cell(cells: &Cells, key: &str) -> Arc<OnceLock<String>> {
        cells.lock().unwrap().get_or_insert_with(key, Arc::default)
    }

    #[test]
    fn get_or_insert_with_makes_once_per_key() {
        let mut cache = LruCache::new(2);
        assert_eq!(cache.get_or_insert_with("a", || 1), 1);
        assert_eq!(cache.get_or_insert_with("a", || 2), 1, "a is kept");
        assert_eq!(cache.get_or_insert_with("b", || 3), 3);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.puts), (1, 2, 2));
    }

    #[test]
    fn a_follower_of_a_panicking_initializer_is_answered() {
        let cells = Cells::new(LruCache::new(4));
        let leader_cell = cell(&cells, "k");
        let (entered, released) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                leader_cell.get_or_init(|| {
                    entered.wait();
                    released.wait();
                    panic!("the computation failed");
                });
            });
            entered.wait();
            let follower_cell = cell(&cells, "k");
            assert!(
                Arc::ptr_eq(&leader_cell, &follower_cell),
                "one cell per key"
            );
            let follower =
                scope.spawn(move || follower_cell.get_or_init(|| "payload".to_string()).clone());
            // Whether the follower blocks on the cell before the panic or reaches
            // it after, it must be answered; the pause makes blocking the likely
            // case, since no API shows that a thread waits on a `OnceLock`.
            std::thread::sleep(Duration::from_millis(50));
            released.wait();
            assert!(
                leader.join().is_err(),
                "the leader's panic reaches its caller"
            );
            assert_eq!(follower.join().unwrap(), "payload");
        });
        assert!(!cells.is_poisoned(), "no lock is held while a cell fills");
        assert_eq!(cell(&cells, "k").get().map(String::as_str), Some("payload"));
    }

    #[test]
    fn distinct_keys_compute_independently() {
        let cells = Cells::new(LruCache::new(4));
        let (a, b) = (cell(&cells, "a"), cell(&cells, "b"));
        let (entered, released) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            let slow = scope.spawn(|| {
                a.get_or_init(|| {
                    entered.wait();
                    released.wait();
                    "ra".to_string()
                })
                .clone()
            });
            entered.wait();
            // `a` is still computing; `b` neither waits for it nor shares its cell.
            assert_eq!(b.get_or_init(|| "rb".to_string()), "rb");
            released.wait();
            assert_eq!(slow.join().unwrap(), "ra");
        });
        let stats = cells.lock().unwrap().stats();
        assert_eq!((stats.hits, stats.misses, stats.puts), (0, 2, 2));
    }

    #[test]
    fn zero_capacity_answers_concurrent_requests_by_computing_each() {
        const CLIENTS: usize = 4;
        let cells = Cells::new(LruCache::new(0));
        let runs = AtomicU64::new(0);
        let barrier = Barrier::new(CLIENTS);
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cell(&cells, "k")
                            .get_or_init(|| {
                                runs.fetch_add(1, Ordering::Relaxed);
                                "payload".to_string()
                            })
                            .clone()
                    })
                })
                .collect();
            for client in clients {
                assert_eq!(client.join().unwrap(), "payload");
            }
        });
        assert_eq!(runs.into_inner(), CLIENTS as u64, "cap 0 coalesces nothing");
        assert!(cells.lock().unwrap().is_empty());
    }

    #[test]
    fn payload_files_round_trip_and_damaged_ones_are_removed() {
        let dir = std::env::temp_dir().join(format!("ise-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_payload(&dir, "k1"), None, "nothing stored yet");
        write_payload(&dir, "k1", "{\"x\":1}");
        assert_eq!(read_payload(&dir, "k1").as_deref(), Some("{\"x\":1}"));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["k1.json"], "the temporary file was renamed");

        let path = dir.join("k1.json");
        let whole = std::fs::read(&path).unwrap();
        for damaged in [&whole[..whole.len() - 1], b"{\"x\":1}", &[0xff, b'\n']] {
            std::fs::write(&path, damaged).unwrap();
            assert_eq!(read_payload(&dir, "k1"), None, "{damaged:?}");
            assert!(!path.exists(), "a damaged file is removed");
        }
        write_payload(&dir.join("missing"), "k2", "2");
        assert_eq!(
            read_payload(&dir, "k2"),
            None,
            "a failed write stores nothing"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
