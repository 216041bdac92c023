//! The one file that calls into the simulator's API.
//!
//! Every other module of the benchmark reaches the simulator through the
//! names and functions defined here, so when the MW entry points or the
//! engine's recorder plumbing change, only this file has to follow. The one
//! exception is `trace::TracedModel`, the benchmark's own forwarding
//! `InterferenceModel`, which follows that trait.

use sinr_coloring::mw::{
    run_mw, run_mw_observed, run_mw_recorded, MwConfig, MwOutcome, MwProbeConfig, MwProbes,
};
use sinr_coloring::params::MwParams;
use sinr_geometry::placement;
use sinr_model::SinrConfig;
use sinr_obs::alloc::AllocSnapshot;
use sinr_obs::{alloc, keys};
use sinr_radiosim::WakeupSchedule;

pub use sinr_coloring::mw::MwNode;
pub use sinr_geometry::{NodeId, Point, UnitDiskGraph};
pub use sinr_model::{
    FastSinrModel, InterferenceModel, ReceptionTable, ResolverStats, SinrModel, TxDelta,
};
pub use sinr_obs::alloc::CountingAlloc;
use sinr_obs::{Histogram, ObsEvent, SpanRecord};

pub use sinr_obs::{FullRecorder, Recorder};
pub use sinr_pool::Pool;
pub use sinr_radiosim::{Simulator, StepView};

/// Expected degree of every workload's uniform placement.
const DEGREE: f64 = 12.0;

/// One benchmark instance: the inputs a user hands the simulator.
pub struct Instance {
    pub cfg: SinrConfig,
    pub graph: UnitDiskGraph,
    pub params: MwParams,
}

/// Uniform placement of `n` nodes at expected degree [`DEGREE`].
pub fn place(n: usize, seed: u64) -> Vec<Point> {
    let cfg = SinrConfig::default_unit();
    placement::uniform_with_expected_degree(n, cfg.r_t(), DEGREE, seed)
}

/// The unit-disk graph of `points`.
pub fn unit_disk_graph(points: Vec<Point>) -> UnitDiskGraph {
    UnitDiskGraph::new(points, SinrConfig::default_unit().r_t())
}

/// Practical MW parameters sized for `graph`, bundled into an instance.
pub fn instance(graph: UnitDiskGraph) -> Instance {
    let cfg = SinrConfig::default_unit();
    let params = MwParams::practical(&cfg, graph.len().max(2), graph.max_degree());
    Instance { cfg, graph, params }
}

/// The density-aware fast resolver (`FastSinrModel::auto`) for `inst`.
pub fn fast_model(inst: &Instance) -> FastSinrModel {
    FastSinrModel::auto(inst.cfg, &inst.graph)
}

/// The naive reference resolver the fast one must match bit for bit.
pub fn naive_model(inst: &Instance) -> SinrModel {
    SinrModel::new(inst.cfg)
}

fn config(inst: &Instance, seed: u64, cap: Option<u64>) -> MwConfig {
    let cfg = MwConfig::new(inst.params).with_seed(seed);
    match cap {
        Some(c) => cfg.with_max_slots(c),
        None => cfg,
    }
}

/// Slots until the first node can decide under synchronous wake-up: the
/// level-0 listen phase plus the counter threshold `⌈σΔ ln n⌉`.
pub fn first_decision_slot(inst: &Instance) -> u64 {
    let p = &inst.params;
    p.listen_slots() + u64::try_from(p.counter_threshold()).unwrap_or(0)
}

/// The slot cap a run of `inst` gets: `cap`, or `MwConfig`'s default.
pub fn slot_cap(inst: &Instance, seed: u64, cap: Option<u64>) -> u64 {
    config(inst, seed, cap).slot_cap()
}

/// `run_mw_observed` with synchronous wake-up, single thread.
pub fn run_observed<M, F>(
    inst: &Instance,
    model: M,
    seed: u64,
    cap: Option<u64>,
    observe: F,
) -> MwOutcome
where
    M: InterferenceModel,
    F: FnMut(&Simulator<MwNode, M>, &StepView),
{
    run_mw_observed(
        &inst.graph,
        model,
        &config(inst, seed, cap),
        WakeupSchedule::Synchronous,
        observe,
    )
}

/// `run_mw`: the plain run the recorded one is compared against.
pub fn run_plain<M: InterferenceModel>(inst: &Instance, model: M, seed: u64) -> MwOutcome {
    run_mw(
        &inst.graph,
        model,
        &config(inst, seed, None),
        WakeupSchedule::Synchronous,
    )
}

/// The probe configuration of the sweep: every MW probe on, Theorem-1
/// independence sweep every slot.
fn probe_config() -> MwProbeConfig {
    MwProbeConfig::default().with_thm1_stride(1)
}

/// `run_mw_recorded` with [`probe_config`].
pub fn run_recorded<M: InterferenceModel>(
    inst: &Instance,
    model: M,
    seed: u64,
    rec: &mut dyn Recorder,
) -> MwOutcome {
    run_mw_recorded(
        &inst.graph,
        model,
        &config(inst, seed, None),
        WakeupSchedule::Synchronous,
        probe_config(),
        rec,
    )
}

/// The simulator exactly as the `run_mw*` entry points construct it.
pub fn new_simulator<M: InterferenceModel>(
    inst: &Instance,
    model: M,
    seed: u64,
) -> Simulator<MwNode, M> {
    if let Err(e) = inst.params.validate() {
        panic!("invalid MW parameters: {e}");
    }
    let params = inst.params;
    let graph = &inst.graph;
    Simulator::new(
        graph.clone(),
        model,
        WakeupSchedule::Synchronous,
        seed,
        |id| {
            let mut node = MwNode::new(id, params);
            node.reserve(graph.degree(id));
            node
        },
    )
}

/// Advances `sim` by one slot and hands the slot's view to `observe`;
/// returns `false`, executing nothing, once every node is done.
pub fn step_observed<M, F>(sim: &mut Simulator<MwNode, M>, observe: F) -> bool
where
    M: InterferenceModel,
    F: FnMut(&Simulator<MwNode, M>, &StepView),
{
    sim.run_observed(1, observe).slots == 1
}

/// Like [`step_observed`], streaming the slot's events into `rec`.
pub fn step_recorded<M, F>(
    sim: &mut Simulator<MwNode, M>,
    rec: &mut dyn Recorder,
    observe: F,
) -> bool
where
    M: InterferenceModel,
    F: FnMut(&Simulator<MwNode, M>, &StepView, &mut dyn Recorder),
{
    sim.run_recorded(1, rec, observe).slots == 1
}

/// Closes a recorded run the way `run_mw_recorded` does.
pub fn finish_recorded<M: InterferenceModel>(
    sim: &Simulator<MwNode, M>,
    probes: &mut MwProbes,
    rec: &mut dyn Recorder,
) {
    probes.finalize(sim, rec);
    sim.export_metrics(rec);
}

/// What a finished (or capped) run left behind, from either entry path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    pub slots: u64,
    pub transmissions: u64,
    pub receptions: u64,
    pub colors: Vec<Option<usize>>,
    pub max_latency: Option<u64>,
}

impl RunSummary {
    pub fn of_outcome(out: &MwOutcome) -> Self {
        RunSummary {
            slots: out.slots,
            transmissions: out.transmissions,
            receptions: out.receptions,
            colors: out.node_reports.iter().map(|r| r.color).collect(),
            max_latency: out.max_latency,
        }
    }

    pub fn of_simulator<M: InterferenceModel>(sim: &Simulator<MwNode, M>) -> Self {
        RunSummary {
            slots: sim.current_slot(),
            transmissions: sim.stats().transmissions,
            receptions: sim.stats().receptions,
            colors: sim.nodes().iter().map(MwNode::color).collect(),
            max_latency: sim.stats().max_decision_latency(),
        }
    }
}

/// Some pair of neighbors that both decided the same color, if any.
pub fn same_color_neighbors(
    graph: &UnitDiskGraph,
    colors: &[Option<usize>],
) -> Option<(NodeId, NodeId)> {
    graph
        .edges()
        .find(|&(u, v)| colors[u].is_some() && colors[u] == colors[v])
}

/// Edges of the unit-disk graph.
pub fn edge_count(graph: &UnitDiskGraph) -> usize {
    graph.edge_count()
}

/// Sum of every paper-claim probe's violation counter in `rec`.
pub fn probe_violations(rec: &FullRecorder) -> u64 {
    let reg = rec.registry();
    [
        keys::PROBE_THM1_VIOLATIONS,
        keys::PROBE_LEMMA4_VIOLATIONS,
        keys::PROBE_LEMMA6_VIOLATIONS,
        keys::PROBE_LEMMA7_VIOLATIONS,
    ]
    .iter()
    .map(|k| reg.counter(k).unwrap_or(0))
    .sum()
}

/// Bytes of per-node engine state the slot loop walks (one `MwNode` each).
pub fn node_bytes() -> usize {
    std::mem::size_of::<MwNode>()
}

/// The calling thread's allocation counters.
pub fn alloc_snapshot() -> AllocSnapshot {
    alloc::snapshot()
}

/// Process-wide heap high-water mark in bytes.
pub fn heap_peak() -> u64 {
    alloc::heap_peak()
}

/// Per-slot facts the benchmark reads from a `StepView`.
#[derive(Debug, Clone, Copy)]
pub struct SlotFacts {
    pub newly_done: usize,
    pub transmitters: usize,
}

pub fn facts(view: &StepView) -> SlotFacts {
    SlotFacts {
        newly_done: view.newly_done.len(),
        transmitters: view.transmitters.len(),
    }
}

/// Whether the naive model grants exactly the receptions the run's model
/// granted in the slot `view` describes.
pub fn naive_agrees(naive: &SinrModel, inst: &Instance, view: &StepView) -> bool {
    naive.resolve(&inst.graph, view.transmitters) == *view.receptions
}

/// The resolver's cumulative counters (zero for models without them).
pub fn resolver_stats<M: InterferenceModel>(sim: &Simulator<MwNode, M>) -> ResolverStats {
    sim.model().resolver_stats().unwrap_or_default()
}

/// Fast-path hits ÷ candidates, 0 when there were no candidates.
pub fn hit_rate(s: &ResolverStats) -> f64 {
    s.hit_rate().unwrap_or(0.0)
}

/// Whether every node of `sim` has decided.
pub fn is_done<M: InterferenceModel>(sim: &Simulator<MwNode, M>) -> bool {
    sim.all_done()
}

/// Adds `b` into `a`, counter by counter.
pub fn stats_add(a: &mut ResolverStats, b: &ResolverStats) {
    a.merge(b);
}

/// Counter-wise `a - b`.
pub fn stats_delta(a: &ResolverStats, b: &ResolverStats) -> ResolverStats {
    ResolverStats {
        fast_path_hits: a.fast_path_hits - b.fast_path_hits,
        exact_fallbacks: a.exact_fallbacks - b.exact_fallbacks,
        cells_scanned: a.cells_scanned - b.cells_scanned,
        delta_started: a.delta_started - b.delta_started,
        delta_stopped: a.delta_stopped - b.delta_stopped,
        epoch_rebuilds: a.epoch_rebuilds - b.epoch_rebuilds,
        full_rebuilds: a.full_rebuilds - b.full_rebuilds,
    }
}

/// Probes for a run of `inst` under [`probe_config`].
pub fn probes(inst: &Instance) -> MwProbes {
    MwProbes::new(inst.graph.len(), &inst.params, probe_config())
}

/// The per-slot probe hook `run_mw_recorded` installs.
pub fn observe_probes<M: InterferenceModel>(
    probes: &mut MwProbes,
    sim: &Simulator<MwNode, M>,
    view: &StepView,
    rec: &mut dyn Recorder,
) {
    probes.observe(sim, view, rec);
}

/// A recorder with the default ring capacity, as users create it.
pub fn full_recorder() -> FullRecorder {
    FullRecorder::new()
}

/// A recorder that forwards everything to a [`FullRecorder`] and, at the
/// end of each slot, hands `on_slot` the number of nodes that decided in
/// it (the engine's `Done` events).
pub struct SlotHookRecorder<F: FnMut(usize)> {
    pub inner: FullRecorder,
    done: usize,
    on_slot: F,
}

impl<F: FnMut(usize)> SlotHookRecorder<F> {
    pub fn new(on_slot: F) -> Self {
        SlotHookRecorder {
            inner: full_recorder(),
            done: 0,
            on_slot,
        }
    }
}

impl<F: FnMut(usize)> Recorder for SlotHookRecorder<F> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn event(&mut self, slot: u64, event: &ObsEvent) {
        if matches!(event, ObsEvent::Done { .. }) {
            self.done += 1;
        }
        self.inner.event(slot, event);
    }

    fn counter_add(&mut self, key: &'static str, delta: u64) {
        self.inner.counter_add(key, delta);
    }

    fn gauge_set(&mut self, key: &'static str, value: f64) {
        self.inner.gauge_set(key, value);
    }

    fn observe(&mut self, key: &'static str, value: u64) {
        self.inner.observe(key, value);
    }

    fn histogram_merge(&mut self, key: &'static str, hist: &Histogram) {
        self.inner.histogram_merge(key, hist);
    }

    fn span(&mut self, span: &SpanRecord) {
        self.inner.span(span);
    }

    fn series_tick(&mut self, slot: u64) {
        self.inner.series_tick(slot);
        (self.on_slot)(std::mem::take(&mut self.done));
    }
}

/// Events the recorder accepted and dropped (ring overflow).
pub fn recorder_events(rec: &FullRecorder) -> (u64, u64) {
    (rec.events_recorded(), rec.events_dropped())
}

/// A pool of `threads` workers.
pub fn pool(threads: usize) -> Pool {
    Pool::new(threads)
}

/// `Pool::par_seeds` over `seeds`.
pub fn par_seeds<T: Send>(
    pool: &Pool,
    seeds: std::ops::Range<u64>,
    f: impl Fn(u64) -> T + Sync,
) -> Vec<T> {
    pool.par_seeds(seeds, f)
}
