//! Per-phase self-time attribution for the search engine.
//!
//! The engine's recursion interleaves four instrumented activities — dominator
//! computations, `PICK-OUTPUT`, `PICK-INPUTS`, and candidate de-duplication /
//! validation — inside one call tree. [`PhaseClock`] attributes *self time* to
//! whichever phase is current: entering a phase charges the elapsed interval
//! to the previous one, so nested phases never double-count.
//!
//! Disabled-path cost is the whole design: when no registry is attached the
//! clock stays disabled and every [`PhaseClock::enter`] / [`PhaseClock::restore`]
//! reduces to a single predictable branch. Accumulated nanoseconds live in a
//! plain array and are flushed to the [`ise_obs::MetricsRegistry`] once per run (or
//! per parallel task), never per event.

use std::time::Instant;

/// Phase indices used by the engine and the incremental enumerator.
pub(crate) mod phase {
    /// Generic search driving (the residue not covered by a specific phase).
    pub const SEARCH: u8 = 0;
    /// Dominator computations: the cone completions pass of `PICK-INPUTS` and
    /// the one open-set sweep of a `PICK-OUTPUT` call. The per-candidate lookups
    /// into that sweep stay in `PICK_OUTPUT`: clocking an `O(1)` lookup would cost
    /// more than the lookup.
    pub const DOMINATORS: u8 = 1;
    /// `PICK-OUTPUT` of Figure 3 (admissibility, output prunings and the
    /// per-candidate dominance lookups).
    pub const PICK_OUTPUT: u8 = 2;
    /// `PICK-INPUTS` of Figure 3 (completion windows and seed growth).
    pub const PICK_INPUTS: u8 = 3;
    /// `CHECK-CUT`: packed-key de-duplication and candidate validation.
    pub const DEDUP: u8 = 4;
    /// Number of phases.
    pub const COUNT: usize = 5;
    /// Defines the per-phase metric names, indexed by phase, from the phases'
    /// Prometheus label values: the names are spelled out at compile time, so a
    /// flush formats nothing.
    macro_rules! metric_tables {
        ($($label:literal),* $(,)?) => {
            /// The self-time series of each phase.
            pub const NS_METRICS: [&str; COUNT] =
                [$(concat!("ise_engine_phase_ns_total{phase=\"", $label, "\"}")),*];
            /// The entry-count series of each phase.
            pub const ENTRY_METRICS: [&str; COUNT] =
                [$(concat!("ise_engine_phase_entries_total{phase=\"", $label, "\"}")),*];
        };
    }
    metric_tables!(
        "search",
        "dominators",
        "pick_output",
        "pick_inputs",
        "dedup"
    );
}

/// A self-time stopwatch over the engine phases. Created disabled (the common
/// case); [`PhaseClock::enable`] arms it when a registry is attached.
pub(crate) struct PhaseClock {
    enabled: bool,
    current: u8,
    last: Instant,
    /// Accumulated self-time per phase, nanoseconds.
    ns: [u64; phase::COUNT],
    /// Number of `enter` transitions into each phase.
    entries: [u64; phase::COUNT],
}

impl PhaseClock {
    /// A disarmed clock whose transitions are single-branch no-ops.
    pub fn disabled() -> Self {
        PhaseClock {
            enabled: false,
            current: phase::SEARCH,
            last: Instant::now(),
            ns: [0; phase::COUNT],
            entries: [0; phase::COUNT],
        }
    }

    /// Arms the clock and restarts the epoch at the call instant.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.last = Instant::now();
    }

    /// Switches to `phase`, charging the elapsed interval to the previous
    /// phase. Returns the previous phase for [`PhaseClock::restore`].
    #[inline]
    pub fn enter(&mut self, phase: u8) -> u8 {
        if !self.enabled {
            return self.current;
        }
        let prev = self.current;
        self.tick(phase);
        self.entries[phase as usize] += 1;
        prev
    }

    /// Returns to a phase previously yielded by [`PhaseClock::enter`],
    /// charging the elapsed interval to the phase being left.
    #[inline]
    pub fn restore(&mut self, phase: u8) {
        if !self.enabled {
            return;
        }
        self.tick(phase);
    }

    fn tick(&mut self, phase: u8) {
        let now = Instant::now();
        self.ns[self.current as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.current = phase;
    }

    /// Charges the trailing interval to the current phase and returns the
    /// per-phase `(self_ns, entries)` totals. Call once, at run end.
    pub fn finalize(&mut self) -> ([u64; phase::COUNT], [u64; phase::COUNT]) {
        if self.enabled {
            let current = self.current;
            self.tick(current);
        }
        (self.ns, self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_carry_the_phase_labels() {
        assert_eq!(
            phase::NS_METRICS[phase::DOMINATORS as usize],
            "ise_engine_phase_ns_total{phase=\"dominators\"}"
        );
        assert_eq!(
            phase::ENTRY_METRICS[phase::DEDUP as usize],
            "ise_engine_phase_entries_total{phase=\"dedup\"}"
        );
    }

    #[test]
    fn disabled_clock_accumulates_nothing() {
        let mut clock = PhaseClock::disabled();
        let prev = clock.enter(phase::DEDUP);
        assert_eq!(prev, phase::SEARCH);
        clock.restore(prev);
        let (ns, entries) = clock.finalize();
        assert_eq!(ns, [0; phase::COUNT]);
        assert_eq!(entries, [0; phase::COUNT]);
    }

    #[test]
    fn nested_phases_attribute_self_time_once() {
        let mut clock = PhaseClock::disabled();
        clock.enable();
        let outer = clock.enter(phase::PICK_OUTPUT);
        let inner = clock.enter(phase::DOMINATORS);
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.restore(inner);
        clock.restore(outer);
        let (ns, entries) = clock.finalize();
        assert_eq!(entries[phase::PICK_OUTPUT as usize], 1);
        assert_eq!(entries[phase::DOMINATORS as usize], 1);
        assert!(ns[phase::DOMINATORS as usize] >= 1_000_000);
        // The sleep happened inside DOMINATORS; PICK_OUTPUT keeps only its
        // (tiny) self time.
        assert!(ns[phase::PICK_OUTPUT as usize] < ns[phase::DOMINATORS as usize]);
    }
}
