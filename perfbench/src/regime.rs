//! The three regimes a synchronous MW run passes through, defined only from
//! how many nodes have decided before a slot (the public `StepView`'s
//! `newly_done`, summed):
//!
//! - `race`: no node has decided yet. Every node is still competing at
//!   level 0 (the "listen phase" of older notes is over after a few dozen
//!   slots; the rest of this stretch is the counter race).
//! - `contention`: at least one node has decided, fewer than 99% have.
//! - `tail`: at least 99% of the nodes have decided.

use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    Race = 0,
    Contention = 1,
    Tail = 2,
}

impl Regime {
    pub const ALL: [Regime; 3] = [Regime::Race, Regime::Contention, Regime::Tail];

    pub fn name(self) -> &'static str {
        match self {
            Regime::Race => "race",
            Regime::Contention => "contention",
            Regime::Tail => "tail",
        }
    }
}

/// Classifies slots by the number of nodes decided before each one.
#[derive(Debug, Clone)]
pub struct RegimeTracker {
    tail_at: usize,
    done: usize,
}

impl RegimeTracker {
    pub fn new(n: usize) -> Self {
        // ceil(0.99 n) in integers.
        RegimeTracker {
            tail_at: (99 * n).div_ceil(100),
            done: 0,
        }
    }

    /// The regime of the next slot.
    pub fn current(&self) -> Regime {
        if self.done == 0 {
            Regime::Race
        } else if self.done < self.tail_at {
            Regime::Contention
        } else {
            Regime::Tail
        }
    }

    /// Accounts one executed slot in which `newly_done` nodes decided and
    /// returns the regime that slot belonged to.
    pub fn advance(&mut self, newly_done: usize) -> Regime {
        let r = self.current();
        self.done += newly_done;
        r
    }
}

/// Slots spent in each regime for a run whose slot `i` saw `newly_done[i]`
/// decisions.
pub fn regime_slots(n: usize, newly_done: &[usize]) -> [u64; 3] {
    let mut t = RegimeTracker::new(n);
    let mut slots = [0u64; 3];
    for &d in newly_done {
        slots[t.advance(d) as usize] += 1;
    }
    slots
}

/// Wall-clock throughput per regime, from one `Instant` read per slot.
///
/// A slot is timed from the end of the slot before it, so the first slot,
/// whose start lies inside the run call's set-up, is counted but not timed.
#[derive(Debug, Clone)]
pub struct RegimeClock {
    tracker: RegimeTracker,
    last: Option<Instant>,
    seen: u64,
    all_slots: [u64; 3],
    timed_slots: [u64; 3],
    secs: [f64; 3],
    window: Option<Window>,
}

/// A fixed range of slot indices timed on its own.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: u64,
    pub end: u64,
    pub slots: u64,
    pub secs: f64,
    /// Slots of the window by regime.
    pub regimes: [u64; 3],
}

impl RegimeClock {
    pub fn new(n: usize) -> Self {
        RegimeClock {
            tracker: RegimeTracker::new(n),
            last: None,
            seen: 0,
            all_slots: [0; 3],
            timed_slots: [0; 3],
            secs: [0.0; 3],
            window: None,
        }
    }

    /// A clock that also times slots `start..end` as one window.
    pub fn with_window(n: usize, start: u64, end: u64) -> Self {
        let mut c = Self::new(n);
        c.window = Some(Window {
            start,
            end,
            slots: 0,
            secs: 0.0,
            regimes: [0; 3],
        });
        c
    }

    /// Call once at the end of every slot.
    pub fn tick(&mut self, newly_done: usize) {
        let now = Instant::now();
        let r = self.tracker.advance(newly_done) as usize;
        let seen = self.seen;
        let dt = self.last.map(|last| (now - last).as_secs_f64());
        self.all_slots[r] += 1;
        if let Some(dt) = dt {
            self.timed_slots[r] += 1;
            self.secs[r] += dt;
        }
        if let Some(w) = self
            .window
            .as_mut()
            .filter(|w| (w.start..w.end).contains(&seen))
        {
            w.regimes[r] += 1;
            if let Some(dt) = dt {
                w.slots += 1;
                w.secs += dt;
            }
        }
        self.last = Some(now);
        self.seen += 1;
    }

    /// Slots per second in regime `r`, if any slot of it was timed.
    pub fn rate(&self, r: Regime) -> Option<f64> {
        let i = r as usize;
        (self.timed_slots[i] > 0 && self.secs[i] > 0.0)
            .then(|| self.timed_slots[i] as f64 / self.secs[i])
    }

    /// Slots per second over the window, if it was reached.
    pub fn window_rate(&self) -> Option<f64> {
        self.window
            .filter(|w| w.slots > 0 && w.secs > 0.0)
            .map(|w| w.slots as f64 / w.secs)
    }

    pub fn window(&self) -> Option<Window> {
        self.window
    }

    /// Every slot seen, by regime.
    pub fn regime_slots(&self) -> [u64; 3] {
        self.all_slots
    }

    /// The regime of the next slot.
    pub fn current(&self) -> Regime {
        self.tracker.current()
    }

    /// Whether the next slot is a steady-state one: inside the window when
    /// the clock has one, else in contention.
    pub fn next_is_steady(&self) -> bool {
        match self.window {
            Some(w) => (w.start..w.end).contains(&self.seen),
            None => self.current() == Regime::Contention,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_checked_done_series() {
        // n = 200: the tail starts once ceil(198.0) = 198 nodes decided.
        let mut series = vec![0usize; 5]; // slots 0..5: race
        series.push(1); // slot 5: first decision, still race
        series.extend([50, 50, 50, 46]); // slots 6..10: contention, done = 197
        series.push(1); // slot 10: contention (197 before), done = 198
        series.extend([0, 1, 0, 1]); // slots 11..15: tail
        assert_eq!(regime_slots(200, &series), [6, 5, 4]);
    }

    #[test]
    fn tail_threshold_rounds_up() {
        assert_eq!(RegimeTracker::new(2048).tail_at, 2028);
        assert_eq!(RegimeTracker::new(512).tail_at, 507);
        assert_eq!(RegimeTracker::new(100).tail_at, 99);
    }

    #[test]
    fn clock_counts_every_slot_but_times_from_the_second() {
        let mut c = RegimeClock::new(4);
        for d in [0, 0, 1, 2, 1] {
            c.tick(d);
        }
        // before each slot: 0,0,0,1,3 decided; tail_at = 4.
        assert_eq!(c.regime_slots(), [3, 2, 0]);
        assert!(c.rate(Regime::Tail).is_none());
        assert!(c.rate(Regime::Race).is_some());
    }

    #[test]
    fn window_covers_its_slot_range() {
        let mut c = RegimeClock::with_window(4, 2, 4);
        for d in [0, 1, 0, 0, 0] {
            c.tick(d);
        }
        let w = c.window().unwrap();
        assert_eq!((w.slots, w.regimes), (2, [0, 2, 0]));
        assert!(c.window_rate().is_some());
    }
}
