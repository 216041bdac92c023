//! Property-based tests for the simulation engine's invariants.

use proptest::prelude::*;
use sinr_geometry::{NodeId, Point, UnitDiskGraph};
use sinr_model::{GraphModel, IdealModel, SinrConfig, SinrModel};
use sinr_radiosim::{Action, NodeCtx, Protocol, Simulator, SlotRng, WakeupSchedule};

/// A protocol that transmits with a per-node probability and records
/// everything it hears.
#[derive(Debug, Clone)]
struct Chatter {
    p: f64,
    rounds: u64,
    acted: u64,
    heard: Vec<(u64, NodeId)>,
}

impl Protocol for Chatter {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, ctx: &NodeCtx, rng: &mut R) -> Action<u64> {
        self.acted += 1;
        if rng.chance(self.p) {
            Action::Transmit(ctx.global_slot)
        } else {
            Action::Listen
        }
    }
    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, u64)]) {
        for &(s, slot_stamp) in received {
            // Messages carry the slot they were sent in; delivery must be
            // same-slot.
            assert_eq!(slot_stamp, ctx.global_slot);
            self.heard.push((ctx.global_slot, s));
        }
    }
    fn is_done(&self) -> bool {
        self.acted >= self.rounds
    }
}

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..4.0f64, 0.0..4.0f64).prop_map(|(x, y)| Point::new(x, y)),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn engine_invariants_hold_for_random_runs(
        pts in arb_points(),
        seed in 0u64..500,
        p in 0.05..0.9f64,
        model_pick in 0usize..3,
        window in 1u64..30,
    ) {
        let cfg = SinrConfig::default_unit();
        let graph = UnitDiskGraph::new(pts, cfg.r_t());
        let n = graph.len();
        let rounds = 25u64;
        let mk = |_: NodeId| Chatter { p, rounds, acted: 0, heard: Vec::new() };
        let schedule = WakeupSchedule::UniformRandom { window };

        let run_once = || {
            let mut sim: Simulator<Chatter, Box<dyn sinr_model::InterferenceModel>> =
                Simulator::new(
                    graph.clone(),
                    match model_pick {
                        0 => Box::new(SinrModel::new(cfg)),
                        1 => Box::new(GraphModel::new()),
                        _ => Box::new(IdealModel::new()),
                    },
                    schedule,
                    seed,
                    mk,
                );
            let outcome = sim.run(10_000);
            (outcome, sim)
        };

        let (outcome, sim) = run_once();
        prop_assert!(outcome.all_done);
        let stats = sim.stats();

        // 1. Activity partition: every awake slot is tx or listen.
        for v in 0..n {
            let awake = outcome.slots.saturating_sub(stats.wake_slot[v]);
            prop_assert_eq!(stats.tx_slots[v] + stats.listen_slots[v], awake);
        }
        // 2. Aggregates match per-node counters.
        prop_assert_eq!(stats.transmissions, stats.tx_slots.iter().sum::<u64>());
        // 3. Channel-load histogram covers every slot exactly once.
        prop_assert_eq!(stats.concurrent_tx().iter().sum::<u64>(), outcome.slots);
        // 4. Receptions only from adjacent senders, never self.
        for v in 0..n {
            for &(_, s) in &sim.node(v).heard {
                prop_assert!(s != v);
                prop_assert!(graph.are_adjacent(v, s));
            }
        }
        // 5. Total receptions match.
        let total_heard: usize = (0..n).map(|v| sim.node(v).heard.len()).sum();
        prop_assert_eq!(stats.receptions, total_heard as u64);

        // 6. Determinism: a second run is identical.
        let (outcome2, sim2) = run_once();
        prop_assert_eq!(outcome, outcome2);
        prop_assert_eq!(stats, sim2.stats());
        for v in 0..n {
            prop_assert_eq!(&sim.node(v).heard, &sim2.node(v).heard);
        }
    }

    /// SoA-vs-AoS differential: the fused engine reads activity and done
    /// bits from its packed `NodeFlags` column, while the phased engine
    /// (forced by an enabled recorder) queries the protocol live. Both
    /// must produce byte-identical outcomes, stats, and inbox histories —
    /// including runs that interleave the two paths mid-flight, which
    /// exercises the ACTIVE-column rebuild on every fused re-entry.
    #[test]
    fn fused_flag_column_matches_phased_live_queries(
        pts in arb_points(),
        seed in 0u64..500,
        p in 0.05..0.9f64,
        rounds in 1u64..20,
        stride in 1u64..8,
    ) {
        let cfg = SinrConfig::default_unit();
        let graph = UnitDiskGraph::new(pts, cfg.r_t());
        let n = graph.len();
        let mk_sim = || {
            Simulator::new(
                graph.clone(),
                SinrModel::new(cfg),
                WakeupSchedule::UniformRandom { window: 10 },
                seed,
                |_| Quieting { p, rounds, acted: 0, heard: Vec::new() },
            )
        };

        // Baseline: pure fused run (flags column drives everything).
        let mut fused = mk_sim();
        let fused_out = fused.run(5_000);
        prop_assert!(fused_out.all_done);

        // Pure phased run: an enabled recorder forces the phased
        // sequential loops, which bypass the flags column.
        let mut phased = mk_sim();
        let mut rec = sinr_obs::FullRecorder::new();
        let phased_out = phased.run_recorded(5_000, &mut rec, |_, _, _| {});

        // Interleaved run: alternate fused and phased segments so the
        // flags column goes stale and must be rebuilt.
        let mut mixed = mk_sim();
        let mut mixed_rec = sinr_obs::FullRecorder::new();
        let mut mixed_slots = 0u64;
        while !mixed.all_done() && mixed_slots < 5_000 {
            if (mixed_slots / stride).is_multiple_of(2) {
                mixed.step();
            } else {
                mixed.step_recorded(&mut mixed_rec);
            }
            mixed_slots += 1;
        }

        prop_assert_eq!(fused_out, phased_out);
        prop_assert_eq!(mixed_slots, fused_out.slots);
        prop_assert_eq!(fused.stats(), phased.stats());
        prop_assert_eq!(fused.stats(), mixed.stats());
        for v in 0..n {
            prop_assert_eq!(&fused.node(v).heard, &phased.node(v).heard);
            prop_assert_eq!(&fused.node(v).heard, &mixed.node(v).heard);
        }
    }
}

/// Like [`Chatter`], but deactivates for good once done: its terminal
/// state is silent, so the engine's activity gates (live `is_active()`
/// on the phased path, the cached ACTIVE flag bit on the fused path)
/// actually discriminate between nodes mid-run.
#[derive(Debug, Clone)]
struct Quieting {
    p: f64,
    rounds: u64,
    acted: u64,
    heard: Vec<(u64, NodeId)>,
}

impl Protocol for Quieting {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, ctx: &NodeCtx, rng: &mut R) -> Action<u64> {
        self.acted += 1;
        if rng.chance(self.p) {
            Action::Transmit(ctx.global_slot)
        } else {
            Action::Listen
        }
    }
    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, u64)]) {
        for &(s, slot_stamp) in received {
            assert_eq!(slot_stamp, ctx.global_slot);
            self.heard.push((ctx.global_slot, s));
        }
    }
    fn is_done(&self) -> bool {
        self.acted >= self.rounds
    }
    fn is_active(&self) -> bool {
        self.acted < self.rounds
    }
    fn empty_end_slot_is_noop(&self) -> bool {
        // `end_slot` only appends receptions, so an empty inbox really is
        // a no-op in every state — this opts the differential test into
        // the fused engine's idle-skip path, which the phased baseline
        // never takes.
        true
    }
}

/// Counts `end_slot` calls and flips its idle report mid-run, so the
/// fused engine's skip decision is directly observable: with nothing
/// ever transmitted, the callback must run exactly while the protocol
/// reports it as meaningful, and on the phased path every slot.
#[derive(Debug)]
struct IdleAware {
    rounds: u64,
    acted: u64,
    end_calls: u64,
}

impl Protocol for IdleAware {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, _ctx: &NodeCtx, _rng: &mut R) -> Action<u64> {
        self.acted += 1;
        Action::Listen
    }
    fn end_slot(&mut self, _ctx: &NodeCtx, _received: &[(NodeId, u64)]) {
        self.end_calls += 1;
    }
    fn is_done(&self) -> bool {
        self.acted >= self.rounds
    }
    fn empty_end_slot_is_noop(&self) -> bool {
        self.acted > 4
    }
}

#[test]
fn idle_skip_elides_exactly_the_reported_noops() {
    let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
    let cfg = SinrConfig::default_unit();
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let mk = |_: NodeId| IdleAware {
        rounds: 20,
        acted: 0,
        end_calls: 0,
    };

    // Fused path: `end_slot` runs only while the idle report is false —
    // the action pass refreshes the cached bit after `begin_slot`, so the
    // flip after the 5th action (acted > 4) takes effect the same slot.
    let mut fused = Simulator::new(
        graph.clone(),
        IdealModel::new(),
        WakeupSchedule::Synchronous,
        9,
        mk,
    );
    let fused_out = fused.run(100);
    assert!(fused_out.all_done);
    assert_eq!(fused_out.slots, 20);
    for v in 0..graph.len() {
        assert_eq!(fused.node(v).end_calls, 4, "node {v}");
    }

    // Phased path (forced by an enabled recorder): every slot calls
    // `end_slot`, idle report or not — same outcome, full call count.
    let mut phased = Simulator::new(
        graph.clone(),
        IdealModel::new(),
        WakeupSchedule::Synchronous,
        9,
        mk,
    );
    let mut rec = sinr_obs::FullRecorder::new();
    let phased_out = phased.run_recorded(100, &mut rec, |_, _, _| {});
    assert_eq!(fused_out, phased_out);
    for v in 0..graph.len() {
        assert_eq!(phased.node(v).end_calls, 20, "node {v}");
    }
}
