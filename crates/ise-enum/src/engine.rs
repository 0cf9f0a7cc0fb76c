//! The shared search core driven by every enumeration algorithm.
//!
//! Every algorithm (`incremental`, `basic`, `baseline`, `exhaustive`) runs on one
//! engine (see DESIGN.md for the design history):
//!
//! * [`SearchState`] — an arena-style state owning the dense bit sets (cut body,
//!   inputs, outputs, cached forbidden set), the preallocated DFS/worklist scratch, the
//!   packed-key de-duplication table and the undo stack. Algorithms borrow it for the
//!   duration of one run and report candidates through it.
//! * [`run`] — wires one algorithm's search, a closure over a fresh state, to the
//!   run's span and counters and collects the [`Enumeration`]. Each algorithm's
//!   public entry point is its `*_cuts` function, which calls it.
//! * **Incremental body maintenance** — the paper's §5.2 discipline: the body `S` is
//!   extended when an output is picked (forward closure of new support) and retracted
//!   when an input is picked (cascading support loss), with every mutation recorded on
//!   an undo trail so that backtracking restores the previous state exactly. A
//!   forbidden-vertex counter makes the §5.3 "pruning while building S" test `O(1)`.
//!
//! The body invariant maintained between `push`/`pop` calls is local and cheap to
//! update: a vertex `v` is in `S` iff `v` is not a chosen input and `support[v] > 0`,
//! where `support[v]` counts the edges from `v` to *non-forbidden* body members plus
//! one if `v` is a chosen output. Forbidden vertices act as truncation boundaries:
//! they enter the body (and the forbidden counter) but never propagate support, so the
//! maintenance never walks the forbidden region behind them. For bodies free of
//! forbidden vertices (the only ones that can become valid cuts) this is exactly the
//! backward closure [`crate::cone`] computes from scratch (the
//! `transactional_body_matches_the_backward_closure` test pins this, and the property
//! tests cross-check the engine against the brute-force oracle under all 64 pruning
//! combinations).
//!
//! **Threading.** A [`SearchState`] (and everything it owns) is `Send`, and the
//! read-only inputs ([`EnumContext`], [`Constraints`]) are `Sync`; batch drivers such
//! as the `ise` CLI exploit this by giving each worker thread its own state over its
//! own block. Nothing here is `Sync`-shareable mid-run by design — a run owns its
//! mutable arena exclusively. The `search_state_and_friends_are_send` test pins this
//! contract at compile time.

use ise_graph::{DenseNodeSet, NodeId};
use ise_obs::MetricsRegistry;

use crate::config::Constraints;
use crate::context::EnumContext;
use crate::cut::{Cut, CutChecker};
use crate::obs::{phase, PhaseClock};
use crate::result::Enumeration;
use crate::stats::EnumStats;

/// The engine's de-duplication order: every candidate is de-duplicated on its packed
/// body key *before* validation (DESIGN.md §1.2), so repeated candidates skip the
/// convexity and I/O-condition checks entirely, at the cost of retaining every
/// distinct *examined* body (valid or not) in the seen-set arena — ~11M keys on the
/// committed scaling workload's largest row. There is one order; the type names it
/// in batch configurations and JSON reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DedupMode {
    /// De-duplicate on the packed body key before validation.
    #[default]
    DedupFirst,
}

impl DedupMode {
    /// The stable lowercase name used in JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DedupMode::DedupFirst => "dedup-first",
        }
    }
}

/// Per-run engine settings, shared by every `*_cuts` entry point and the `par`
/// module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Search budget in recursion steps (`None` = unbounded). A task-parallel run
    /// splits it evenly over its tasks ([`crate::par::plan`]).
    pub max_search_nodes: Option<usize>,
}

/// Runs `search` over a fresh [`SearchState`] for `ctx` with the given
/// [`EngineOptions`], collecting the [`Enumeration`]; `name` names the run's span.
///
/// An optional [`MetricsRegistry`] receives per-phase timings, search-progress
/// counters, and a span covering the whole run. Observability is strictly write-only:
/// the registry never influences the search, so the result is byte-for-byte the one a
/// run without a registry produces.
pub(crate) fn run(
    name: &str,
    ctx: &EnumContext,
    constraints: &Constraints,
    options: &EngineOptions,
    rec: Option<&MetricsRegistry>,
    search: impl FnOnce(&mut SearchState<'_>),
) -> Enumeration {
    let mut state = SearchState::new(ctx, constraints, options);
    if let Some(rec) = rec {
        state.set_recorder(rec);
    }
    let _span = rec.map(|rec| rec.span_begin("engine", name));
    search(&mut state);
    let enumeration = state.finish();
    if let Some(rec) = rec {
        publish_block_counters(rec, &enumeration.stats);
    }
    enumeration
}

/// Publishes a finished block's `ise_engine_valid_cuts_total` and
/// `ise_engine_duplicates_total`: once per block, from its final statistics —
/// [`run`]'s for a whole run, `par::merge_tasks`'s for a fanned-out block — so a
/// cut that several tasks find counts once.
pub(crate) fn publish_block_counters(rec: &MetricsRegistry, stats: &EnumStats) {
    rec.add("ise_engine_valid_cuts_total", stats.valid_cuts as u64);
    rec.add(
        "ise_engine_duplicates_total",
        stats.rejected_duplicate as u64,
    );
}

/// One entry of the undo trail; popping a frame replays these in reverse.
#[derive(Clone, Copy, Debug)]
enum TrailEntry {
    /// `support[v]` was incremented.
    SupportInc(NodeId),
    /// `support[v]` was decremented.
    SupportDec(NodeId),
    /// `v` entered the body.
    BodyAdd(NodeId),
    /// `v` left the body.
    BodyRemove(NodeId),
}

/// The arena-style shared search state (see the module docs).
///
/// The transactional API ([`SearchState::push_output`], [`SearchState::push_input`],
/// [`SearchState::pop_output`], [`SearchState::pop_input`]) maintains the cut body
/// incrementally and must be used with strict LIFO discipline. Algorithms that build
/// bodies directly (the exhaustive oracle, the Atasu/Pozzi baseline) instead use the
/// raw body accessors ([`SearchState::body_insert`], [`SearchState::body_remove`],
/// [`SearchState::body_clear`]) and must not mix them with the transactional API.
pub(crate) struct SearchState<'a> {
    ctx: &'a EnumContext,
    constraints: &'a Constraints,
    max_search_nodes: Option<usize>,
    /// Cached `ctx.rooted().forbidden()` for hot membership tests.
    forbidden: &'a DenseNodeSet,
    // --- cut body S, maintained incrementally ---
    body: DenseNodeSet,
    /// `support[v]` = edges from `v` into the body, plus 1 if `v` is a chosen output.
    support: Vec<u32>,
    /// Number of forbidden vertices currently in the body (`O(1)` build-S pruning).
    forbidden_in_body: usize,
    trail: Vec<TrailEntry>,
    frames: Vec<usize>,
    worklist: Vec<NodeId>,
    // --- chosen inputs and outputs ---
    inputs: Vec<NodeId>,
    input_set: DenseNodeSet,
    outputs: Vec<NodeId>,
    output_set: DenseNodeSet,
    // --- CHECK-CUT scratch: derived interface and dominance-walk buffers ---
    checker: CutChecker,
    // --- results ---
    seen: CutKeySet,
    cuts: Vec<Cut>,
    stats: EnumStats,
    // --- observability (write-only; never influences the search) ---
    rec: Option<&'a MetricsRegistry>,
    clock: PhaseClock,
    /// Vertices the enumerator's cone dominator passes met, flushed as
    /// `ise_engine_cone_vertices_total`.
    cone_vertices: u64,
}

impl<'a> SearchState<'a> {
    /// Creates a fresh state for one enumeration run under `options`.
    pub fn new(
        ctx: &'a EnumContext,
        constraints: &'a Constraints,
        options: &EngineOptions,
    ) -> Self {
        let n = ctx.rooted().num_nodes();
        SearchState {
            ctx,
            constraints,
            max_search_nodes: options.max_search_nodes,
            forbidden: ctx.rooted().forbidden(),
            body: DenseNodeSet::new(n),
            support: vec![0; n],
            forbidden_in_body: 0,
            trail: Vec::new(),
            frames: Vec::new(),
            worklist: Vec::new(),
            inputs: Vec::new(),
            input_set: DenseNodeSet::new(n),
            outputs: Vec::new(),
            output_set: DenseNodeSet::new(n),
            checker: CutChecker::new(ctx),
            seen: CutKeySet::new(n.div_ceil(64)),
            cuts: Vec::new(),
            stats: EnumStats::new(),
            rec: None,
            clock: PhaseClock::disabled(),
            cone_vertices: 0,
        }
    }

    /// Attaches a registry: per-phase self-time attribution arms immediately,
    /// and the accumulated counters flush when the run finishes. Without one the
    /// phase clock stays disarmed, so every transition is a single predictable
    /// branch. Recording is write-only — it never changes what the search
    /// explores or reports.
    pub fn set_recorder(&mut self, rec: &'a MetricsRegistry) {
        self.rec = Some(rec);
        self.clock.enable();
    }

    /// Switches the phase clock (no-op without a recorder); see
    /// [`crate::obs::PhaseClock::enter`].
    #[inline]
    pub(crate) fn phase_enter(&mut self, phase: u8) -> u8 {
        self.clock.enter(phase)
    }

    /// Restores the phase clock (no-op without a recorder); see
    /// [`crate::obs::PhaseClock::restore`].
    #[inline]
    pub(crate) fn phase_restore(&mut self, phase: u8) {
        self.clock.restore(phase)
    }

    /// Flushes the per-phase timings and the progress counters to the attached
    /// recorder (bulk, once per run or per parallel task — never per event). The
    /// cut and duplicate counters are per block, not per task: see
    /// [`publish_block_counters`].
    fn flush_obs(&mut self) {
        let Some(rec) = self.rec else { return };
        let (ns, entries) = self.clock.finalize();
        for i in 0..phase::COUNT {
            if ns[i] > 0 {
                rec.add(phase::NS_METRICS[i], ns[i]);
            }
            if entries[i] > 0 {
                rec.add(phase::ENTRY_METRICS[i], entries[i]);
            }
        }
        rec.add("ise_engine_runs_total", 1);
        rec.add(
            "ise_engine_search_nodes_total",
            self.stats.search_nodes as u64,
        );
        rec.add(
            "ise_engine_candidates_total",
            self.stats.candidates_checked as u64,
        );
        rec.add(
            "ise_engine_dominator_runs_total",
            self.stats.dominator_runs as u64,
        );
        rec.add("ise_engine_cone_vertices_total", self.cone_vertices);
    }

    /// Adds `n` vertices met by cone dominator passes to the run's
    /// `ise_engine_cone_vertices_total` (observability only; no search counter).
    pub(crate) fn count_cone_vertices(&mut self, n: u64) {
        self.cone_vertices += n;
    }

    /// The microarchitectural constraints of this run.
    pub fn constraints(&self) -> &'a Constraints {
        self.constraints
    }

    /// Mutable access to the statistics, for algorithm-specific pruning counters.
    pub fn stats_mut(&mut self) -> &mut EnumStats {
        &mut self.stats
    }

    /// Whether the search budget is exhausted.
    pub fn out_of_budget(&self) -> bool {
        self.max_search_nodes
            .is_some_and(|limit| self.stats.search_nodes >= limit)
    }

    /// Accounts one recursion step against the budget: returns `false` (and counts
    /// nothing) if the budget is already exhausted, otherwise bumps `search_nodes`.
    pub fn try_enter(&mut self) -> bool {
        if self.out_of_budget() {
            return false;
        }
        self.stats.search_nodes += 1;
        true
    }

    /// The chosen input vertices, in pick order.
    pub fn chosen_inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The chosen output vertices, in pick order.
    pub fn chosen_outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The chosen inputs as a set.
    pub fn input_set(&self) -> &DenseNodeSet {
        &self.input_set
    }

    /// The chosen outputs as a set.
    pub fn output_set(&self) -> &DenseNodeSet {
        &self.output_set
    }

    /// The current cut body `S`.
    pub fn body(&self) -> &DenseNodeSet {
        &self.body
    }

    /// Whether the chosen input set blocks every source path to `target` (condition 1
    /// of the generalized-dominator definition), using the preallocated walk scratch.
    /// The incremental search reads cone levels and open sets instead; debug builds
    /// check both against this walk.
    pub fn inputs_dominate(&mut self, target: NodeId) -> bool {
        self.checker
            .set_dominates(self.ctx, &self.input_set, target)
    }

    // ------------------------------------------------------------------
    // Transactional body maintenance (§5.2): push/pop in LIFO order.
    // ------------------------------------------------------------------

    /// Chooses `o` as an output, extending the body with every vertex that now reaches
    /// an output through a path free of chosen inputs.
    ///
    /// # Panics
    ///
    /// Panics if `o` is already a chosen output.
    pub fn push_output(&mut self, o: NodeId) {
        self.frames.push(self.trail.len());
        assert!(self.output_set.insert(o), "output {o} pushed twice");
        self.outputs.push(o);
        debug_assert!(self.worklist.is_empty());
        let ctx = self.ctx;
        self.bump_support(o);
        while let Some(v) = self.worklist.pop() {
            for &p in ctx.rooted().preds(v) {
                self.bump_support(p);
            }
        }
    }

    /// Reverts the most recent [`SearchState::push_output`].
    pub fn pop_output(&mut self) {
        let o = self.outputs.pop().expect("pop_output without push_output");
        self.output_set.remove(o);
        self.unwind_frame();
    }

    /// Chooses `w` as an input, retracting from the body `w` itself and every vertex
    /// whose every input-free path to an output ran through `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is already a chosen input.
    pub fn push_input(&mut self, w: NodeId) {
        self.frames.push(self.trail.len());
        assert!(self.input_set.insert(w), "input {w} pushed twice");
        self.inputs.push(w);
        if self.body.contains(w) {
            debug_assert!(self.worklist.is_empty());
            let ctx = self.ctx;
            self.drop_from_body(w);
            while let Some(v) = self.worklist.pop() {
                for &p in ctx.rooted().preds(v) {
                    self.drop_support(p);
                }
            }
        }
    }

    /// Reverts the most recent [`SearchState::push_input`].
    pub fn pop_input(&mut self) {
        let w = self.inputs.pop().expect("pop_input without push_input");
        self.input_set.remove(w);
        self.unwind_frame();
    }

    fn bump_support(&mut self, v: NodeId) {
        let i = v.index();
        self.support[i] += 1;
        self.trail.push(TrailEntry::SupportInc(v));
        if self.support[i] == 1 && !self.input_set.contains(v) {
            self.add_to_body(v);
        }
    }

    fn drop_support(&mut self, v: NodeId) {
        let i = v.index();
        self.support[i] -= 1;
        self.trail.push(TrailEntry::SupportDec(v));
        if self.support[i] == 0 && self.body.contains(v) {
            self.drop_from_body(v);
        }
    }

    fn add_to_body(&mut self, v: NodeId) {
        self.body.insert(v);
        self.trail.push(TrailEntry::BodyAdd(v));
        // Forbidden vertices are truncation boundaries: they enter the body (so the
        // O(1) build-S test sees them) but never propagate support to their
        // predecessors — the maintenance never walks the forbidden region behind them.
        // Valid cut bodies contain no forbidden vertices, so their maintained bodies
        // are exact; truncated bodies are invalid and rejected either way.
        if self.forbidden.contains(v) {
            self.forbidden_in_body += 1;
        } else {
            self.worklist.push(v);
        }
    }

    fn drop_from_body(&mut self, v: NodeId) {
        self.body.remove(v);
        self.trail.push(TrailEntry::BodyRemove(v));
        // Mirror of `add_to_body`: forbidden vertices contributed no support to their
        // predecessors, so their retraction must not cascade either.
        if self.forbidden.contains(v) {
            self.forbidden_in_body -= 1;
        } else {
            self.worklist.push(v);
        }
    }

    fn unwind_frame(&mut self) {
        let mark = self.frames.pop().expect("unbalanced push/pop frames");
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail shorter than its frame mark") {
                TrailEntry::SupportInc(v) => self.support[v.index()] -= 1,
                TrailEntry::SupportDec(v) => self.support[v.index()] += 1,
                TrailEntry::BodyAdd(v) => {
                    self.body.remove(v);
                    if self.forbidden.contains(v) {
                        self.forbidden_in_body -= 1;
                    }
                }
                TrailEntry::BodyRemove(v) => {
                    self.body.insert(v);
                    if self.forbidden.contains(v) {
                        self.forbidden_in_body += 1;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Raw body access, for algorithms without the transactional discipline.
    // ------------------------------------------------------------------

    /// Adds `v` to the body directly, bypassing the incremental machinery.
    pub fn body_insert(&mut self, v: NodeId) {
        self.body.insert(v);
    }

    /// Removes `v` from the body directly, bypassing the incremental machinery.
    pub fn body_remove(&mut self, v: NodeId) {
        self.body.remove(v);
    }

    /// Empties the body directly, bypassing the incremental machinery.
    pub fn body_clear(&mut self) {
        self.body.clear();
    }

    // ------------------------------------------------------------------
    // Candidate reporting.
    // ------------------------------------------------------------------

    /// `CHECK-CUT` for the transactional algorithms: checks the candidate identified
    /// by the chosen inputs and outputs and reports it.
    ///
    /// The maintained body is used directly: the §5.3 build-S pruning degenerates to
    /// the `O(1)` forbidden counter test, and the candidate is de-duplicated on its
    /// packed body key *before* validation, so repeated candidates skip the convexity
    /// and I/O-condition checks entirely.
    pub fn check_cut(&mut self, abort_on_forbidden: bool) {
        let prev = self.clock.enter(phase::DEDUP);
        if abort_on_forbidden && self.forbidden_in_body > 0 {
            self.stats.pruned_build_s += 1;
        } else {
            self.report(None, true);
        }
        self.clock.restore(prev);
    }

    /// Reports an owned candidate body with packed-key de-duplication (used by the
    /// basic algorithm, whose output/dominator couplings revisit cuts).
    pub fn report_deduped(&mut self, body: DenseNodeSet, require_io_condition: bool) {
        self.report(Some(body), require_io_condition);
    }

    /// De-duplicates and validates one candidate, `body` or (for `None`) the
    /// maintained body. Validation derives the interface into the checker's reusable
    /// buffers; a [`Cut`] is built only for a valid, first-seen candidate.
    fn report(&mut self, body: Option<DenseNodeSet>, require_io_condition: bool) {
        self.stats.candidates_checked += 1;
        let candidate = body.as_ref().unwrap_or(&self.body);
        if !self.seen.insert(candidate.words()) {
            self.stats.rejected_duplicate += 1;
            return;
        }
        let verdict =
            self.checker
                .check(self.ctx, self.constraints, candidate, require_io_condition);
        match verdict {
            Ok(()) => {
                self.stats.valid_cuts += 1;
                let cut = self
                    .checker
                    .cut(self.ctx, body.unwrap_or_else(|| self.body.clone()));
                self.cuts.push(cut);
            }
            Err(rejection) => self.stats.record_rejection(rejection),
        }
    }

    /// Reports the current raw body without de-duplication (used by the exhaustive
    /// oracle and the Atasu/Pozzi baseline, whose searches visit each body once).
    pub fn report_current(&mut self, require_io_condition: bool) {
        self.stats.candidates_checked += 1;
        let verdict =
            self.checker
                .check(self.ctx, self.constraints, &self.body, require_io_condition);
        match verdict {
            Ok(()) => {
                self.stats.valid_cuts += 1;
                self.cuts
                    .push(self.checker.cut(self.ctx, self.body.clone()));
            }
            Err(rejection) => self.stats.record_rejection(rejection),
        }
    }

    /// Consumes the state, yielding the collected cuts and statistics.
    pub fn finish(mut self) -> Enumeration {
        self.flush_obs();
        Enumeration {
            cuts: self.cuts,
            stats: self.stats,
        }
    }
}

/// Insert-only hash set of packed cut-body keys.
///
/// Keys are fixed-width word slices (one stride per graph) stored back to back in a
/// single arena; the open-addressing table stores arena indices. Hashing is FNV-1a one
/// 64-bit word at a time. This replaces the legacy
/// `HashSet<(Vec<NodeId>, Vec<NodeId>)>` seen-sets, which allocated two vectors per
/// candidate and hashed node ids one by one.
#[derive(Clone, Debug)]
pub(crate) struct CutKeySet {
    stride: usize,
    arena: Vec<u64>,
    /// Open-addressing table of key indices; `EMPTY_SLOT` marks a free slot.
    table: Vec<u32>,
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl CutKeySet {
    pub(crate) fn new(stride: usize) -> Self {
        CutKeySet {
            stride,
            arena: Vec::new(),
            table: vec![EMPTY_SLOT; 64],
            len: 0,
        }
    }

    fn hash(words: &[u64]) -> u64 {
        // FNV-1a over 64-bit words, followed by a murmur3-style finalizer. The
        // finalizer matters: the FNV multiply only propagates entropy towards the high
        // bits, and the table index is taken from the *low* bits — without the final
        // avalanche, bodies differing only in high vertex indices cluster into the
        // same slots and the linear probing degenerates.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &w in words {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    /// Inserts `words`; returns `true` if the key was not already present.
    pub(crate) fn insert(&mut self, words: &[u64]) -> bool {
        debug_assert_eq!(words.len(), self.stride);
        if (self.len + 1) * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut slot = (Self::hash(words) as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY_SLOT => {
                    self.table[slot] = self.len as u32;
                    self.arena.extend_from_slice(words);
                    self.len += 1;
                    return true;
                }
                idx => {
                    let start = idx as usize * self.stride;
                    if &self.arena[start..start + self.stride] == words {
                        return false;
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = self.table.len() * 2;
        let mask = new_cap - 1;
        let mut table = vec![EMPTY_SLOT; new_cap];
        for idx in 0..self.len {
            let start = idx * self.stride;
            let words = &self.arena[start..start + self.stride];
            let mut slot = (Self::hash(words) as usize) & mask;
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            table[slot] = idx as u32;
        }
        self.table = table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::cone;
    use ise_graph::{DfgBuilder, Operation};

    #[test]
    fn cut_key_set_deduplicates_and_grows() {
        let mut set = CutKeySet::new(3);
        // Insert enough distinct keys to force several growth rounds.
        for i in 0..500u64 {
            assert!(set.insert(&[i, i.wrapping_mul(7), !i]));
        }
        for i in 0..500u64 {
            assert!(!set.insert(&[i, i.wrapping_mul(7), !i]), "key {i} twice");
        }
        assert!(set.insert(&[0, 0, 0]));
        assert_eq!(set.len, 501);
    }

    #[test]
    fn cut_key_set_handles_colliding_hashes() {
        // Zero-stride keys all hash identically; the first insert wins, the rest dup.
        let mut set = CutKeySet::new(0);
        assert!(set.insert(&[]));
        assert!(!set.insert(&[]));
    }

    /// The body maintained through push/pop transactions must always equal the
    /// backward closure of the same (inputs, outputs) choice.
    #[test]
    fn transactional_body_matches_the_backward_closure() {
        // a, c inputs; n = a + c; x = n << 1; y = n - c; z = x ^ y
        let mut b = DfgBuilder::new("engine");
        let a = b.input("a");
        let c = b.input("c");
        let nn = b.node(Operation::Add, &[a, c]);
        let x = b.node(Operation::Shl, &[nn]);
        let y = b.node(Operation::Sub, &[nn, c]);
        let z = b.node(Operation::Xor, &[x, y]);
        let ctx = EnumContext::new(b.build().unwrap());
        let constraints = Constraints::new(4, 2).unwrap();
        let mut state = SearchState::new(&ctx, &constraints, &EngineOptions::default());

        let expect = |state: &SearchState, inputs: &[NodeId], outputs: &[NodeId]| {
            let set = DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), inputs.iter().copied());
            let closure = cone(ctx.rooted(), &set, outputs);
            assert_eq!(
                state.body(),
                &closure,
                "inputs {inputs:?} outputs {outputs:?}"
            );
        };

        state.push_output(z);
        // No inputs chosen: the closure reaches the forbidden external inputs, which
        // enter the body as truncation boundaries.
        assert!(state.forbidden_in_body > 0);
        state.push_input(a);
        state.push_input(c);
        expect(&state, &[a, c], &[z]);
        assert_eq!(state.forbidden_in_body, 0);

        // Adding n as input retracts n (and nothing else reaches z only through n —
        // x and y survive via their own support).
        state.push_input(nn);
        expect(&state, &[a, c, nn], &[z]);
        state.pop_input();
        expect(&state, &[a, c], &[z]);

        // A second output extends the body; popping it restores the previous state.
        state.push_output(y);
        expect(&state, &[a, c], &[z, y]);
        state.pop_output();
        expect(&state, &[a, c], &[z]);

        // Full unwind leaves an empty body.
        state.pop_input();
        state.pop_input();
        state.pop_output();
        assert!(state.body().is_empty());
        assert_eq!(state.forbidden_in_body, 0);
    }

    #[test]
    fn retraction_cascades_through_dependent_vertices() {
        // a -> m -> p -> q; choosing q as output pulls in the whole chain, then
        // choosing m as input must retract p's ancestors... i.e. only m (p and q keep
        // support from q), while choosing p as input retracts nothing above it but p.
        let mut b = DfgBuilder::new("cascade");
        let a = b.input("a");
        let m = b.node(Operation::Not, &[a]);
        let p = b.node(Operation::Shl, &[m]);
        let q = b.node(Operation::Add, &[p]);
        let ctx = EnumContext::new(b.build().unwrap());
        let constraints = Constraints::new(4, 2).unwrap();
        let mut state = SearchState::new(&ctx, &constraints, &EngineOptions::default());

        state.push_output(q);
        assert!(state.body().contains(m) && state.body().contains(a));
        state.push_input(m);
        // m's removal cascades upwards: a (and the source) lose their only support.
        assert!(!state.body().contains(m));
        assert!(!state.body().contains(a));
        assert!(state.body().contains(p) && state.body().contains(q));
        assert_eq!(state.forbidden_in_body, 0, "a and the source retracted");
        state.pop_input();
        assert!(state.body().contains(a), "undo restores the cascade");
        state.pop_output();
        assert!(state.body().is_empty());
    }

    /// `Send` audit: batch drivers (the `ise` CLI) shard blocks across worker threads,
    /// each owning its context and search state. Everything the engine touches must
    /// therefore be `Send` (and the shared read-only inputs `Sync`); this is a
    /// compile-time assertion, so any future `Rc`/raw-pointer regression fails here.
    #[test]
    fn search_state_and_friends_are_send() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<SearchState<'_>>();
        assert_send::<EnumContext>();
        assert_send::<Enumeration>();
        assert_send::<Cut>();
        assert_send::<CutKeySet>();
        assert_sync::<EnumContext>();
        assert_sync::<ise_graph::Dfg>();
        assert_sync::<Constraints>();
    }

    #[test]
    fn budget_is_enforced_by_try_enter() {
        let mut bld = DfgBuilder::new("budget");
        let a = bld.input("a");
        let _x = bld.node(Operation::Not, &[a]);
        let ctx = EnumContext::new(bld.build().unwrap());
        let constraints = Constraints::new(2, 1).unwrap();
        let options = EngineOptions {
            max_search_nodes: Some(2),
        };
        let mut state = SearchState::new(&ctx, &constraints, &options);
        assert!(state.try_enter());
        assert!(state.try_enter());
        assert!(!state.try_enter(), "third step exceeds the budget");
        assert!(state.out_of_budget());
        assert_eq!(state.stats.search_nodes, 2);
    }
}
