//! Fingerprint-keyed raw→canonical memoization — the grouping hot path's cache.
//!
//! `CanonicalCode::of` runs iterative refinement plus backtracking labeling once
//! per cut, yet on real corpora the same few thousand patterns recur tens of
//! thousands of times. Following the memoesu approach (SNIPPETS.md), [`CanonMemo`]
//! memoizes `raw encoding → canonical code` so the labeler runs once per *distinct
//! raw graph*, in three layers (DESIGN.md §6.4):
//!
//! 1. **Raw encoding.** [`ise_graph::RawEncoder`] serializes a cut's interface
//!    graph into one reused `Vec<u32>` from the cut's own body, `I(S)` and `O(S)`
//!    — labels, operand wiring and output flags in local-id order. Equal
//!    encodings mean *identical* (not merely isomorphic) interface graphs, so an
//!    exact-raw hit skips graph construction, merit estimation and labeling
//!    entirely; a miss builds the graph as a view over the same words.
//! 2. **64-bit fingerprint pre-key.** Entries are bucketed by a cheap fingerprint
//!    of the raw encoding. A fingerprint hit is always confirmed by a full
//!    raw-encoding comparison before the cached code is returned, so a collision
//!    costs one extra comparison and can never produce a wrong code.
//! 3. **Lock-striped sharing.** Buckets are spread over mutex-guarded shards
//!    selected by fingerprint bits, so `canonicalize_cuts_memo` workers on
//!    different blocks share one memo with negligible contention, and `ise serve`
//!    keeps the memo warm in its `ServerState` across requests.
//!
//! Memoization is observably pure: a hit returns exactly the `CodedCut` fields a
//! cold computation would produce (pinned by proptest in `tests/properties.rs` and
//! by byte-identical grouped JSON in `tests/grouping_pipeline.rs` and CI). Each
//! entry also caches merits, keyed by the exact `(ports_in, ports_out)` pair they
//! were costed for, so no port pair is ever served another's saving.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ise_obs::{Counter, MetricsRegistry};

use crate::canon::{digest_words, CanonicalCode};

/// A snapshot of one memo's counters, reported by `--memo-stats` and the daemon's
/// `stats` op.
///
/// `raw_hits <= fingerprint_hits` always: a fingerprint hit is a bucket match, a
/// raw hit is a bucket match whose full raw-encoding comparison also succeeded.
/// The difference counts fingerprint collisions (in practice zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo (fingerprint matched *and* the full raw
    /// encoding compared equal) — the labeler was skipped.
    pub raw_hits: u64,
    /// Lookups whose fingerprint bucket held at least one candidate entry.
    pub fingerprint_hits: u64,
    /// Times the backtracking labeler actually ran (one per distinct raw graph,
    /// plus at most one per thread racing on the same new graph).
    pub labeler_runs: u64,
    /// Distinct raw encodings currently stored.
    pub entries: u64,
}

impl MemoStats {
    /// Publishes the entry count into a metrics registry as the
    /// `ise_memo_entries` gauge — the daemon calls this before rendering
    /// `GET /v1/metrics`. The hit and labeler counts need no gauge: the live
    /// `_total` counters of [`CanonMemo::set_recorder`] already export them.
    pub fn publish(&self, rec: &MetricsRegistry) {
        rec.set_gauge("ise_memo_entries", self.entries);
    }
}

/// One memoized raw graph: the confirmed key, the cached pattern facts, and any
/// merit values computed so far (keyed by port pair).
#[derive(Debug)]
struct MemoEntry {
    raw: Box<[u32]>,
    code: CanonicalCode,
    /// Shared with every `CodedCut` this entry answers: a hit clones the pointer.
    ops: Arc<str>,
    /// `(ports, saved_cycles)` pairs.
    /// Raw-equal graphs are identical, so the cached merit is bit-identical to a
    /// recomputation; a linear scan suffices because a memo sees one or two port
    /// pairs.
    merits: Vec<(Ports, u32)>,
}

impl MemoEntry {
    fn merit(&self, ports: Ports) -> Option<u32> {
        self.merits
            .iter()
            .find(|&&(p, _)| p == ports)
            .map(|&(_, saved)| saved)
    }

    fn record_merit(&mut self, ports: Ports, saved_cycles: u32) {
        if self.merit(ports).is_none() {
            self.merits.push((ports, saved_cycles));
        }
    }
}

/// One lock stripe: fingerprint-keyed buckets plus the counters local to it.
#[derive(Debug, Default)]
struct Shard {
    buckets: HashMap<u64, Vec<MemoEntry>>,
    raw_hits: u64,
    fingerprint_hits: u64,
    labeler_runs: u64,
}

/// The `(ports_in, ports_out)` pair a merit was costed for: the merit cache's key,
/// compared whole.
pub(crate) type Ports = (usize, usize);

/// A cached lookup result: the pattern facts stored for a raw encoding, plus the
/// cached merit for the requested port pair when one was recorded.
pub(crate) struct MemoHit {
    pub code: CanonicalCode,
    pub ops: Arc<str>,
    pub saved_cycles: Option<u32>,
}

/// A shared, lock-striped memo from raw interface-graph encodings to canonical
/// codes (plus cached ops summaries and merit values).
///
/// Cheap to share by reference across threads (`&CanonMemo` is `Sync`); lives for
/// a whole `ise group`/`select --global` run, or across requests inside
/// `ise serve`. The three lookup layers (raw encoding, fingerprint pre-key,
/// lock striping) are described at the top of `memo.rs`.
///
/// # Example
///
/// ```
/// use ise_canon::{CanonMemo, canonicalize_cuts_memo, GroupConfig};
/// use ise_enum::{enumerate_cuts, Constraints};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("twice");
/// for i in 0..2 {
///     let a = b.input(format!("a{i}"));
///     let c = b.input(format!("c{i}"));
///     let s = b.node(Operation::Add, &[a, c]);
///     b.mark_output(s);
/// }
/// let dfg = b.build().unwrap();
/// let cuts = enumerate_cuts(&dfg, &Constraints::new(2, 1).unwrap()).unwrap();
///
/// let memo = CanonMemo::new();
/// let coded = canonicalize_cuts_memo(&dfg, &cuts.cuts, &GroupConfig::default(), &memo);
/// assert_eq!(coded[0].code, coded[1].code, "the two adds are one pattern");
/// let stats = memo.stats();
/// assert!(stats.raw_hits >= 1, "the second add hits the memo");
/// assert!(stats.labeler_runs < coded.len() as u64);
/// ```
#[derive(Debug)]
pub struct CanonMemo {
    shards: Box<[Mutex<Shard>]>,
    fingerprint: fn(&[u32]) -> u64,
    /// Set by [`CanonMemo::set_recorder`]; an untraced memo counts only in its
    /// shards, with no shared atomics on the lookup path.
    obs: Option<MemoCounters>,
}

/// Mirror counters in a metrics registry, incremented at the same sites as the
/// shard-local totals; [`CanonMemo::stats`] stays the source of truth.
#[derive(Debug)]
struct MemoCounters {
    raw_hits: Counter,
    fingerprint_hits: Counter,
    labeler_runs: Counter,
}

impl Default for CanonMemo {
    fn default() -> Self {
        CanonMemo::new()
    }
}

impl CanonMemo {
    /// Default shard count: enough stripes that the handful of coding workers a
    /// 1-CPU-to-desktop machine runs almost never collide on a lock.
    const DEFAULT_SHARDS: usize = 16;

    /// An empty memo with the default shard count and fingerprint.
    pub fn new() -> Self {
        CanonMemo::with_fingerprinter(Self::DEFAULT_SHARDS, digest_words)
    }

    /// An empty memo with an explicit fingerprint function — the test seam that
    /// makes fingerprint collisions reproducible (pass a constant function and
    /// every raw encoding shares one bucket). Correctness never depends on the
    /// fingerprint: hits are confirmed against the full raw encoding.
    pub fn with_fingerprinter(shards: usize, fingerprint: fn(&[u32]) -> u64) -> Self {
        let count = shards.next_power_of_two().max(1);
        CanonMemo {
            shards: (0..count).map(|_| Mutex::default()).collect(),
            fingerprint,
            obs: None,
        }
    }

    /// Arms live mirror counters (`ise_memo_raw_hits_total`,
    /// `ise_memo_fingerprint_hits_total`, `ise_memo_labeler_runs_total`) in the
    /// given registry, incremented alongside the shard-local totals. Recording
    /// never changes lookup results; call before sharing the memo across threads.
    pub fn set_recorder(&mut self, rec: &MetricsRegistry) {
        self.obs = Some(MemoCounters {
            raw_hits: rec.counter("ise_memo_raw_hits_total"),
            fingerprint_hits: rec.counter("ise_memo_fingerprint_hits_total"),
            labeler_runs: rec.counter("ise_memo_labeler_runs_total"),
        });
    }

    fn shard_for(&self, fingerprint: u64) -> &Mutex<Shard> {
        // Shard on the *high* fingerprint bits: the bucket HashMap consumes the
        // full value, so any bits work, but distinct bits keep the two layers of
        // bucketing independent.
        &self.shards[(fingerprint >> 32) as usize & (self.shards.len() - 1)]
    }

    /// Looks up `raw`, returning the cached facts on a confirmed hit, with the
    /// cached saving for `ports` when one was recorded.
    pub(crate) fn lookup(&self, raw: &[u32], ports: Ports) -> Option<MemoHit> {
        let fingerprint = (self.fingerprint)(raw);
        let mut guard = self.shard_for(fingerprint).lock().unwrap();
        let shard = &mut *guard;
        // An absent bucket is a fingerprint miss and counts nowhere.
        let entries = shard.buckets.get(&fingerprint)?;
        shard.fingerprint_hits += 1;
        if let Some(obs) = &self.obs {
            obs.fingerprint_hits.incr();
        }
        let entry = entries.iter().find(|e| *e.raw == *raw)?;
        shard.raw_hits += 1;
        if let Some(obs) = &self.obs {
            obs.raw_hits.incr();
        }
        Some(MemoHit {
            code: entry.code.clone(),
            ops: Arc::clone(&entry.ops),
            saved_cycles: entry.merit(ports),
        })
    }

    /// Records a freshly computed graph: one labeler run, the resulting code and
    /// ops, and the merit for `ports`. If another thread raced us
    /// to the same raw encoding the earlier entry wins (the values are identical by
    /// construction).
    pub(crate) fn insert(
        &self,
        raw: &[u32],
        code: &CanonicalCode,
        ops: &Arc<str>,
        ports: Ports,
        saved_cycles: u32,
    ) {
        let fingerprint = (self.fingerprint)(raw);
        let mut shard = self.shard_for(fingerprint).lock().unwrap();
        shard.labeler_runs += 1;
        if let Some(obs) = &self.obs {
            obs.labeler_runs.incr();
        }
        let bucket = shard.buckets.entry(fingerprint).or_default();
        match bucket.iter_mut().find(|e| *e.raw == *raw) {
            Some(entry) => {
                debug_assert_eq!(entry.code, *code, "raced entries must agree");
                entry.record_merit(ports, saved_cycles);
            }
            None => bucket.push(MemoEntry {
                raw: raw.into(),
                code: code.clone(),
                ops: Arc::clone(ops),
                merits: vec![(ports, saved_cycles)],
            }),
        }
    }

    /// Records the merit for `ports` on an existing entry (a raw hit whose port
    /// pair had not been costed yet). A no-op if the entry vanished — the memo
    /// never grows an entry without its labeler run.
    pub(crate) fn record_merit(&self, raw: &[u32], ports: Ports, saved_cycles: u32) {
        let fingerprint = (self.fingerprint)(raw);
        let mut shard = self.shard_for(fingerprint).lock().unwrap();
        if let Some(entry) = shard
            .buckets
            .get_mut(&fingerprint)
            .and_then(|b| b.iter_mut().find(|e| *e.raw == *raw))
        {
            entry.record_merit(ports, saved_cycles);
        }
    }

    /// A snapshot of the counters, summed over all shards.
    pub fn stats(&self) -> MemoStats {
        let mut stats = MemoStats::default();
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap();
            stats.raw_hits += shard.raw_hits;
            stats.fingerprint_hits += shard.fingerprint_hits;
            stats.labeler_runs += shard.labeler_runs;
            stats.entries += shard.buckets.values().map(|b| b.len() as u64).sum::<u64>();
        }
        stats
    }

    /// Number of distinct raw encodings stored.
    pub fn len(&self) -> usize {
        self.stats().entries as usize
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{canonicalize_cuts, canonicalize_cuts_memo, CodedCut, GroupConfig};
    use ise_enum::{enumerate_cuts, Constraints};
    use ise_graph::Dfg;
    use ise_graph::{DfgBuilder, Operation, RawEncoder};

    /// A block holding `macs` MAC datapaths plus one unique xor-shift tail.
    fn block(name: &str, macs: usize) -> (Dfg, Vec<ise_enum::Cut>) {
        let mut b = DfgBuilder::new(name);
        for i in 0..macs {
            let a = b.input(format!("a{i}"));
            let x = b.input(format!("x{i}"));
            let acc = b.input(format!("acc{i}"));
            let m = b.node(Operation::Mul, &[a, x]);
            let s = b.node(Operation::Add, &[m, acc]);
            b.mark_output(s);
        }
        let p = b.input("p");
        let q = b.node(Operation::Xor, &[p, p]);
        let r = b.node(Operation::Shl, &[q]);
        b.mark_output(r);
        let dfg = b.build().unwrap();
        let cuts = enumerate_cuts(&dfg, &Constraints::new(3, 1).unwrap()).unwrap();
        (dfg, cuts.cuts)
    }

    #[test]
    fn memoized_coding_matches_plain_coding_and_hits() {
        let config = GroupConfig::new(3, 1);
        let memo = CanonMemo::new();
        for (name, macs) in [("a", 2), ("b", 1), ("c", 2)] {
            let (dfg, cuts) = block(name, macs);
            let plain = canonicalize_cuts(&dfg, &cuts, &config);
            let memoized = canonicalize_cuts_memo(&dfg, &cuts, &config, &memo);
            assert_eq!(plain.len(), memoized.len());
            for (p, m) in plain.iter().zip(&memoized) {
                assert_eq!(p.code, m.code);
                assert_eq!(p.size, m.size);
                assert_eq!(p.inputs, m.inputs);
                assert_eq!(p.outputs, m.outputs);
                assert_eq!(p.ops, m.ops);
                assert_eq!(p.saved_cycles, m.saved_cycles);
            }
        }
        let stats = memo.stats();
        assert!(stats.raw_hits > 0, "recurring MACs must hit");
        assert!(stats.labeler_runs > 0);
        assert_eq!(
            stats.entries, stats.labeler_runs,
            "single-threaded: one labeler run per stored entry"
        );
        assert!(
            stats.fingerprint_hits >= stats.raw_hits,
            "every raw hit is first a fingerprint hit"
        );
        assert_eq!(memo.len(), stats.entries as usize);
        assert!(!memo.is_empty());
    }

    #[test]
    fn second_sweep_never_runs_the_labeler() {
        let config = GroupConfig::new(3, 1);
        let memo = CanonMemo::with_fingerprinter(4, digest_words);
        let (dfg, cuts) = block("warm", 2);
        let cold = canonicalize_cuts_memo(&dfg, &cuts, &config, &memo);
        let runs_after_cold = memo.stats().labeler_runs;
        let warm = canonicalize_cuts_memo(&dfg, &cuts, &config, &memo);
        let stats = memo.stats();
        assert_eq!(stats.labeler_runs, runs_after_cold, "everything was cached");
        assert_eq!(
            stats.raw_hits,
            2 * cuts.len() as u64 - stats.entries,
            "warm sweep hits on every cut, cold sweep on repeats only"
        );
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.code, w.code);
            assert_eq!(c.saved_cycles, w.saved_cycles);
        }
    }

    #[test]
    fn raw_hits_share_their_entrys_ops_summary() {
        let config = GroupConfig::new(3, 1);
        let memo = CanonMemo::new();
        let (dfg, cuts) = block("shared", 2);
        let cold = canonicalize_cuts_memo(&dfg, &cuts, &config, &memo);
        let warm = canonicalize_cuts_memo(&dfg, &cuts, &config, &memo);
        let mut encoder = RawEncoder::new(&dfg);
        let mut raw = Vec::new();
        for ((cut, c), w) in cuts.iter().zip(&cold).zip(&warm) {
            encoder.encode(&dfg, cut, &mut raw);
            let entry = memo
                .lookup(&raw, (3, 1))
                .expect("every coded cut is stored");
            assert!(
                Arc::ptr_eq(&w.ops, &entry.ops),
                "a raw hit clones its entry's pointer"
            );
            assert!(
                Arc::ptr_eq(&c.ops, &entry.ops),
                "the miss that filled the entry shares its summary too"
            );
        }
        // Within the cold sweep, the second MAC is a raw hit on the first's entry.
        let macs: Vec<&CodedCut> = cold.iter().filter(|c| &*c.ops == "add+mul").collect();
        assert!(macs.len() >= 2, "the block holds two MACs");
        assert!(macs.iter().all(|m| Arc::ptr_eq(&m.ops, &macs[0].ops)));
    }

    #[test]
    fn forced_fingerprint_collision_still_yields_distinct_codes() {
        // A constant fingerprint sends every raw encoding to one bucket: layer 2
        // alone would conflate all graphs, so this pins the raw-encoding
        // confirmation (and the collision accounting).
        let config = GroupConfig::new(3, 1);
        let memo = CanonMemo::with_fingerprinter(2, |_| 0x42);
        let (dfg, cuts) = block("collide", 1);
        let memoized = canonicalize_cuts_memo(&dfg, &cuts, &config, &memo);
        let plain = canonicalize_cuts(&dfg, &cuts, &config);
        for (p, m) in plain.iter().zip(&memoized) {
            assert_eq!(p.code, m.code, "collisions must not corrupt codes");
        }
        // The MAC (add+mul) and the tail (shl+xor) are non-isomorphic but share
        // the forced pre-key; they must still get distinct codes.
        let mac = memoized.iter().find(|c| &*c.ops == "add+mul").unwrap();
        let tail = memoized.iter().find(|c| &*c.ops == "shl+xor").unwrap();
        assert_ne!(mac.code, tail.code);
        let stats = memo.stats();
        assert_eq!(stats.entries, stats.labeler_runs);
        assert!(
            stats.fingerprint_hits > stats.raw_hits,
            "colliding lookups match the bucket but fail raw confirmation"
        );
    }

    #[test]
    fn merit_is_cached_per_port_configuration() {
        let (dfg, cuts) = block("ports", 1);
        let memo = CanonMemo::new();
        let wide = canonicalize_cuts_memo(&dfg, &cuts, &GroupConfig::new(3, 1), &memo);
        let runs = memo.stats().labeler_runs;
        // Different ports: codes hit the memo (no new labeler runs), merits are
        // recomputed for the new configuration — and match a cold run exactly.
        let narrow = canonicalize_cuts_memo(&dfg, &cuts, &GroupConfig::new(2, 1), &memo);
        assert_eq!(memo.stats().labeler_runs, runs);
        let cold = canonicalize_cuts(&dfg, &cuts, &GroupConfig::new(2, 1));
        for (c, n) in cold.iter().zip(&narrow) {
            assert_eq!(c.saved_cycles, n.saved_cycles);
            assert_eq!(c.code, n.code);
        }
        assert!(
            wide.iter()
                .zip(&narrow)
                .any(|(w, n)| w.saved_cycles != n.saved_cycles),
            "port pressure must change some merit, or this test checks nothing"
        );
    }

    /// A chain of four multiplies: its whole-chain cut reads five inputs, so four
    /// read ports cost it a transfer cycle that five do not.
    fn wide_block() -> (Dfg, Vec<ise_enum::Cut>) {
        let mut b = DfgBuilder::new("wide");
        let mut acc = b.input("x0");
        for i in 1..5 {
            let x = b.input(format!("x{i}"));
            acc = b.node(Operation::Mul, &[acc, x]);
        }
        b.mark_output(acc);
        let dfg = b.build().unwrap();
        let cuts = enumerate_cuts(&dfg, &Constraints::new(5, 2).unwrap()).unwrap();
        (dfg, cuts.cuts)
    }

    fn saved(coded: &[CodedCut]) -> Vec<u32> {
        coded.iter().map(|c| c.saved_cycles).collect()
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn port_pairs_that_would_pack_alike_keep_their_own_merits() {
        // Packed as `(ports_in << 32) | ports_out`, (4, 2 + 2^32) and (5, 2) were
        // one key, so whichever pair came first decided the other's merits.
        let (dfg, cuts) = wide_block();
        let five = GroupConfig::new(5, 2);
        let four = GroupConfig::new(4, 2 + (1usize << 32));
        let cold_four = saved(&canonicalize_cuts(&dfg, &cuts, &four));
        let cold_five = saved(&canonicalize_cuts(&dfg, &cuts, &five));
        assert_ne!(
            cold_four, cold_five,
            "the pairs must cost some cut differently"
        );
        let memo = CanonMemo::new();
        for (config, cold) in [
            (&five, &cold_five),
            (&four, &cold_four),
            (&five, &cold_five),
        ] {
            let warm = saved(&canonicalize_cuts_memo(&dfg, &cuts, config, &memo));
            assert_eq!(
                &warm,
                cold,
                "ports {:?}",
                (config.ports_in, config.ports_out)
            );
        }
    }

    #[test]
    fn sharing_one_memo_across_threads_is_deterministic() {
        let config = GroupConfig::new(3, 1);
        let blocks: Vec<_> = (0..4).map(|i| block(&format!("t{i}"), 1 + i % 2)).collect();
        let serial: Vec<_> = blocks
            .iter()
            .map(|(dfg, cuts)| canonicalize_cuts(dfg, cuts, &config))
            .collect();
        let memo = CanonMemo::with_fingerprinter(2, digest_words);
        let parallel: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .iter()
                .map(|(dfg, cuts)| {
                    let memo = &memo;
                    let config = &config;
                    scope.spawn(move || canonicalize_cuts_memo(dfg, cuts, config, memo))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.len(), p.len());
            for (a, b) in s.iter().zip(p.iter()) {
                assert_eq!(a.code, b.code);
                assert_eq!(a.saved_cycles, b.saved_cycles);
                assert_eq!(a.ops, b.ops);
            }
        }
        let stats = memo.stats();
        assert!(
            stats.labeler_runs >= stats.entries,
            "races may run the labeler twice but never lose an entry"
        );
    }
}
