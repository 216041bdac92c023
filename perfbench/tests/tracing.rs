//! Tests of the benchmark's own tracing code: the forwarding model wrapper,
//! that wrapping does not change a run, and the regime boundaries.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use perfbench::api::{
    self, InterferenceModel, NodeId, Pool, ReceptionTable, ResolverStats, RunSummary, TxDelta,
    UnitDiskGraph,
};
use perfbench::check::Digest;
use perfbench::regime::{regime_slots, RegimeTracker};
use perfbench::trace::{SpanLog, TracedModel, RESOLVE, ROOT};

/// A model that records which trait method was called on it.
#[derive(Default)]
struct Mock {
    calls: RefCell<Vec<&'static str>>,
}

const STATS: ResolverStats = ResolverStats {
    fast_path_hits: 7,
    exact_fallbacks: 3,
    cells_scanned: 11,
    delta_started: 2,
    delta_stopped: 1,
    epoch_rebuilds: 5,
    full_rebuilds: 0,
};

impl InterferenceModel for Mock {
    fn resolve(&self, _: &UnitDiskGraph, _: &[NodeId]) -> ReceptionTable {
        self.calls.borrow_mut().push("resolve");
        ReceptionTable::default()
    }

    fn resolve_delta(&self, _: &UnitDiskGraph, _: &[NodeId], _: TxDelta<'_>) -> ReceptionTable {
        self.calls.borrow_mut().push("resolve_delta");
        ReceptionTable::default()
    }

    fn resolve_delta_into(
        &self,
        _: &UnitDiskGraph,
        _: &[NodeId],
        _: TxDelta<'_>,
        _: &mut ReceptionTable,
    ) {
        self.calls.borrow_mut().push("resolve_delta_into");
    }

    fn name(&self) -> &'static str {
        "mock"
    }

    fn resolver_stats(&self) -> Option<ResolverStats> {
        self.calls.borrow_mut().push("resolver_stats");
        Some(STATS)
    }

    fn set_pool(&mut self, _: &Pool) {
        self.calls.borrow_mut().push("set_pool");
    }
}

#[test]
fn wrapper_forwards_every_method_and_spans_each_resolve() {
    let log = SpanLog::new(Instant::now(), 16);
    let mut model = TracedModel::new(Mock::default(), Rc::clone(&log));
    let g = api::unit_disk_graph(vec![api::Point::new(0.0, 0.0), api::Point::new(0.5, 0.0)]);
    let delta = TxDelta {
        started: &[0],
        stopped: &[],
    };
    let mut table = ReceptionTable::default();
    model.resolve(&g, &[0]);
    model.resolve_delta(&g, &[0], delta);
    model.resolve_delta_into(&g, &[0], delta, &mut table);
    assert_eq!(model.resolver_stats(), Some(STATS));
    model.set_pool(&api::pool(1));
    assert_eq!(model.name(), "mock");
    assert_eq!(
        *model.inner().calls.borrow(),
        [
            "resolve",
            "resolve_delta",
            "resolve_delta_into",
            "resolver_stats",
            "set_pool"
        ]
    );
    let spans = log.take();
    assert_eq!(spans.len(), 3);
    assert!(spans
        .iter()
        .all(|s| s.name == RESOLVE && s.parent == ROOT && s.end_ns >= s.start_ns));
}

#[test]
fn spans_nest_under_the_open_span() {
    let log = SpanLog::new(Instant::now(), 4);
    let outer = log.open("outer");
    log.scope("inner", || ());
    log.close(outer);
    log.scope("next", || ());
    let spans = log.take();
    let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, [ROOT, outer, ROOT]);
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
}

fn tiny_instance(n: usize, seed: u64) -> api::Instance {
    api::instance(api::unit_disk_graph(api::place(n, seed)))
}

#[test]
fn wrapping_the_model_does_not_change_the_run() {
    let seed = 5;
    let inst = tiny_instance(40, seed);
    let out = api::run_observed(&inst, api::fast_model(&inst), seed, None, |_, _| {});
    let untraced = RunSummary::of_outcome(&out);

    let log = SpanLog::new(Instant::now(), 1 << 16);
    let model = TracedModel::new(api::fast_model(&inst), Rc::clone(&log));
    let mut sim = api::new_simulator(&inst, model, seed);
    let cap = api::slot_cap(&inst, seed, None);
    let mut steps = 0;
    while steps < cap && !api::is_done(&sim) {
        assert!(api::step_observed(&mut sim, |_, _| {}));
        steps += 1;
    }
    let traced = RunSummary::of_simulator(&sim);
    assert!(api::is_done(&sim));
    assert_eq!(traced, untraced);
    assert_eq!(Digest::of(&traced), Digest::of(&untraced));
    // One resolve span per executed slot.
    let resolves = log.take().iter().filter(|s| s.name == RESOLVE).count();
    assert_eq!(resolves as u64, traced.slots);
}

#[test]
fn regimes_match_a_hand_checked_done_series() {
    // A 100-node run, whose tail starts once ceil(99.0) = 99 nodes decided.
    // Read off the run and checked by hand: 17 nodes decide in slot 3915,
    // the 99th in slot 12848 and the last in slot 14046, the final slot.
    // So race = slots 0..=3915 (3916), contention = 3916..=12848 (8933)
    // and tail = 12849..=14046 (1198).
    let seed = 3;
    let inst = tiny_instance(100, seed);
    let mut series = Vec::new();
    api::run_observed(&inst, api::fast_model(&inst), seed, None, |_, view| {
        series.push(api::facts(view).newly_done);
    });
    let mut done = 0;
    let decided: Vec<(usize, usize)> = series
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d > 0)
        .map(|(slot, &d)| {
            done += d;
            (slot, done)
        })
        .collect();
    assert_eq!(series.len(), 14047);
    assert_eq!(decided.first(), Some(&(3915, 17)));
    assert!(decided.contains(&(12848, 99)));
    assert_eq!(decided.last(), Some(&(14046, 100)));
    assert_eq!(regime_slots(100, &series), [3916, 8933, 1198]);
    // The race ends exactly where the counter threshold says it can.
    assert_eq!(api::first_decision_slot(&inst), 3916);

    let mut t = RegimeTracker::new(100);
    let regimes: Vec<u8> = series.iter().map(|&d| t.advance(d) as u8).collect();
    assert_eq!((regimes[3915], regimes[3916]), (0, 1));
    assert_eq!((regimes[12848], regimes[12849]), (1, 2));
}
