//! The traced run: the workload's runs rebuilt from public pieces, with a
//! span around every call into a layer, split into per-layer metrics.
//!
//! Each traced instance is also run untraced, so the digests can be
//! compared (the tracing must not change the run) and the tracing overhead
//! measured.

use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use crate::api::{self, Instance, MwNode, ResolverStats, RunSummary, Simulator, StepView};
use crate::check::{self, Digest};
use crate::regime::{Regime, RegimeTracker};
use crate::report::{median, quantile, Metrics};
use crate::trace::{chrome_trace, Span, SpanLog, TracedModel, RESOLVE, ROOT};
use crate::workloads::{
    cap, instance_seed, observed_run, setup, size, sweep_run, workers, Tally, STEADY,
    STEADY_WINDOW, SWEEP, SWEEP_N, SWEEP_SEEDS_PER_WORKER,
};

pub const PLACEMENT: &str = "geometry.placement";
pub const UDG: &str = "geometry.udg_build";
pub const PARAMS: &str = "core.params";
pub const MODEL: &str = "sinr.model";
pub const SIM_SETUP: &str = "radiosim.setup";
pub const RUN: &str = "run";
pub const STEP: &str = "radiosim.step";
pub const PROBE: &str = "obs.probe";

/// Contention-regime slots replayed through the naive model per instance.
pub const AUDIT_SLOTS: u64 = 8;
/// One audited slot every this many contention slots.
pub const AUDIT_STRIDE: u64 = 97;

const NO_BUCKET: u8 = u8::MAX;

/// Per-slot bookkeeping done in the traced run's observer.
struct SlotLog<'a> {
    inst: &'a Instance,
    naive: api::SinrModel,
    tracker: RegimeTracker,
    /// On steady-16k only the timed window counts as contention; the warm
    /// margin before it is in no bucket.
    window: Option<Range<u64>>,
    slot: u64,
    buckets: Vec<u8>,
    regime_slots: [u64; 3],
    tx: [u64; 3],
    prev_stats: ResolverStats,
    bucket_stats: [ResolverStats; 3],
    contention_seen: u64,
    audits: u64,
    audit_mismatches: u64,
}

impl<'a> SlotLog<'a> {
    fn new(inst: &'a Instance, n: usize, window: Option<Range<u64>>) -> Self {
        SlotLog {
            inst,
            naive: api::naive_model(inst),
            tracker: RegimeTracker::new(n),
            window,
            slot: 0,
            buckets: Vec::with_capacity(1 << 17),
            regime_slots: [0; 3],
            tx: [0; 3],
            prev_stats: ResolverStats::default(),
            bucket_stats: [ResolverStats::default(); 3],
            contention_seen: 0,
            audits: 0,
            audit_mismatches: 0,
        }
    }

    fn bucket(&self, r: Regime) -> Option<Regime> {
        match (&self.window, r) {
            (Some(w), Regime::Contention) if !w.contains(&self.slot) => None,
            _ => Some(r),
        }
    }

    fn on_slot<M: api::InterferenceModel>(&mut self, sim: &Simulator<MwNode, M>, view: &StepView) {
        let f = api::facts(view);
        let r = self.tracker.advance(f.newly_done);
        self.regime_slots[r as usize] += 1;
        let bucket = self.bucket(r);
        let stats = api::resolver_stats(sim);
        if let Some(b) = bucket {
            let i = b as usize;
            self.tx[i] += f.transmitters as u64;
            api::stats_add(
                &mut self.bucket_stats[i],
                &api::stats_delta(&stats, &self.prev_stats),
            );
            if b == Regime::Contention {
                if self.contention_seen.is_multiple_of(AUDIT_STRIDE) && self.audits < AUDIT_SLOTS {
                    self.audits += 1;
                    if !api::naive_agrees(&self.naive, self.inst, view) {
                        self.audit_mismatches += 1;
                    }
                }
                self.contention_seen += 1;
            }
        }
        self.prev_stats = stats;
        self.buckets.push(bucket.map_or(NO_BUCKET, |b| b as u8));
        self.slot += 1;
    }
}

/// The per-layer ledger of one or more traced instances.
#[derive(Debug, Default)]
pub struct Ledger {
    pub instances: u64,
    pub placement_s: f64,
    pub udg_s: f64,
    pub sim_setup_s: f64,
    pub edges: u64,
    pub bucket_slots: [u64; 3],
    pub step_s: [f64; 3],
    pub resolve_s: [f64; 3],
    pub slot_us: [Vec<f64>; 3],
    pub tx: [u64; 3],
    pub step_total_s: f64,
    pub resolve_total_s: f64,
    pub probe_s: f64,
    pub bucket_stats: [ResolverStats; 3],
    pub stats: ResolverStats,
    pub regime_slots: [u64; 3],
    pub audits: u64,
    pub audit_mismatches: u64,
    pub slots: u64,
    pub transmissions: u64,
    pub receptions: u64,
    pub colors_used: u64,
    pub max_latency: u64,
    pub done: u64,
    pub setup_allocs: u64,
    pub setup_bytes: u64,
    pub events: (u64, u64),
    pub probe_violations: u64,
}

impl Ledger {
    fn merge(&mut self, o: Ledger) {
        self.instances += o.instances;
        self.placement_s += o.placement_s;
        self.udg_s += o.udg_s;
        self.sim_setup_s += o.sim_setup_s;
        self.edges += o.edges;
        for i in 0..3 {
            self.bucket_slots[i] += o.bucket_slots[i];
            self.step_s[i] += o.step_s[i];
            self.resolve_s[i] += o.resolve_s[i];
            self.slot_us[i].extend_from_slice(&o.slot_us[i]);
            self.tx[i] += o.tx[i];
            api::stats_add(&mut self.bucket_stats[i], &o.bucket_stats[i]);
            self.regime_slots[i] += o.regime_slots[i];
        }
        self.step_total_s += o.step_total_s;
        self.resolve_total_s += o.resolve_total_s;
        self.probe_s += o.probe_s;
        api::stats_add(&mut self.stats, &o.stats);
        self.audits += o.audits;
        self.audit_mismatches += o.audit_mismatches;
        self.slots += o.slots;
        self.transmissions += o.transmissions;
        self.receptions += o.receptions;
        self.colors_used = self.colors_used.max(o.colors_used);
        self.max_latency = self.max_latency.max(o.max_latency);
        self.done += o.done;
        self.setup_allocs += o.setup_allocs;
        self.setup_bytes += o.setup_bytes;
        self.events.0 += o.events.0;
        self.events.1 += o.events.1;
        self.probe_violations += o.probe_violations;
    }
}

/// One traced instance: its ledger, spans, digest and wall time.
pub struct TracedInstance {
    pub ledger: Ledger,
    pub spans: Vec<Span>,
    pub summary: RunSummary,
    pub wall_s: f64,
}

/// Runs instance `s` of `workload` from public pieces with every layer
/// call inside a span. Sweep instances run probed and recorded.
pub fn traced_instance(workload: &str, s: u64, epoch: Instant) -> TracedInstance {
    let n = size(workload);
    let probed = workload == SWEEP;
    let log = SpanLog::new(epoch, 3 << 16);
    let t = Instant::now();
    let a0 = api::alloc_snapshot();
    let setup_span = log.open("setup");
    let points = log.scope(PLACEMENT, || api::place(n, s));
    let graph = log.scope(UDG, || api::unit_disk_graph(points));
    let inst = log.scope(PARAMS, || api::instance(graph));
    let model = log.scope(MODEL, || api::fast_model(&inst));
    let model = TracedModel::new(model, Rc::clone(&log));
    let mut sim = log.scope(SIM_SETUP, || api::new_simulator(&inst, model, s));
    log.close(setup_span);
    let a1 = api::alloc_snapshot();

    let slot_cap = api::slot_cap(&inst, s, cap(workload, &inst));
    let window = cap(workload, &inst).map(|c| c - STEADY_WINDOW..c);
    let mut slots = SlotLog::new(&inst, n, window);
    let mut events = (0, 0);
    let mut probe_violations = 0;
    let run_span = log.open(RUN);
    if probed {
        let mut rec = api::full_recorder();
        let mut probes = api::probes(&inst);
        while slots.slot < slot_cap && !api::is_done(&sim) {
            let step = log.open(STEP);
            api::step_recorded(&mut sim, &mut rec, |sim, view, rec| {
                log.close(step);
                log.scope(PROBE, || api::observe_probes(&mut probes, sim, view, rec));
                slots.on_slot(sim, view);
            });
        }
        api::finish_recorded(&sim, &mut probes, &mut rec);
        events = api::recorder_events(&rec);
        probe_violations = api::probe_violations(&rec);
    } else {
        while slots.slot < slot_cap && !api::is_done(&sim) {
            let step = log.open(STEP);
            api::step_observed(&mut sim, |sim, view| {
                log.close(step);
                slots.on_slot(sim, view);
            });
        }
    }
    log.close(run_span);
    let wall_s = t.elapsed().as_secs_f64();

    let summary = RunSummary::of_simulator(&sim);
    let digest = Digest::of(&summary);
    let spans = log.take();
    let mut ledger = Ledger {
        instances: 1,
        edges: api::edge_count(&inst.graph) as u64,
        stats: api::resolver_stats(&sim),
        bucket_stats: slots.bucket_stats,
        regime_slots: slots.regime_slots,
        tx: slots.tx,
        audits: slots.audits,
        audit_mismatches: slots.audit_mismatches,
        slots: summary.slots,
        transmissions: summary.transmissions,
        receptions: summary.receptions,
        colors_used: digest.colors_used,
        max_latency: summary.max_latency.unwrap_or(0),
        done: digest.done,
        setup_allocs: a1.allocs - a0.allocs,
        setup_bytes: a1.bytes_allocated - a0.bytes_allocated,
        events,
        probe_violations,
        ..Ledger::default()
    };
    fold_spans(&mut ledger, &spans, &slots.buckets);
    TracedInstance {
        ledger,
        spans,
        summary,
        wall_s,
    }
}

/// Splits span time into the ledger: slot `i` is the `i`-th step span,
/// its resolve time the resolve spans under it; engine time is the rest.
fn fold_spans(l: &mut Ledger, spans: &[Span], buckets: &[u8]) {
    let mut step_id = ROOT;
    let mut slot = 0usize;
    let mut step_ns = 0u64;
    let mut resolve_ns = 0u64;
    let flush = |l: &mut Ledger, slot: usize, step_ns: u64, resolve_ns: u64| {
        let (step, resolve) = (step_ns as f64 * 1e-9, resolve_ns as f64 * 1e-9);
        l.step_total_s += step;
        l.resolve_total_s += resolve;
        if let Some(&b) = buckets.get(slot).filter(|&&b| b != NO_BUCKET) {
            let i = b as usize;
            l.bucket_slots[i] += 1;
            l.step_s[i] += step;
            l.resolve_s[i] += resolve;
            l.slot_us[i].push(step * 1e6);
        }
    };
    for (id, s) in spans.iter().enumerate() {
        match s.name {
            STEP => {
                if step_id != ROOT {
                    flush(l, slot, step_ns, resolve_ns);
                    slot += 1;
                }
                step_id = id as u32;
                step_ns = s.end_ns - s.start_ns;
                resolve_ns = 0;
            }
            RESOLVE if s.parent == step_id => resolve_ns += s.end_ns - s.start_ns,
            PLACEMENT => l.placement_s += s.secs(),
            UDG => l.udg_s += s.secs(),
            SIM_SETUP => l.sim_setup_s += s.secs(),
            PROBE => l.probe_s += s.secs(),
            _ => {}
        }
    }
    if step_id != ROOT {
        flush(l, slot, step_ns, resolve_ns);
    }
}

/// Checks a traced instance against the digest of its untraced run.
fn traced_errors(tr: &TracedInstance, untraced: &Digest) -> Vec<String> {
    let mut errors = Vec::new();
    let digest = Digest::of(&tr.summary);
    if digest != *untraced {
        errors.push(format!("traced run differs: {digest}"));
    }
    if tr.ledger.audit_mismatches > 0 {
        errors.push(format!(
            "{} audited slots differ from the naive model",
            tr.ledger.audit_mismatches
        ));
    }
    if tr.ledger.probe_violations > 0 {
        errors.push(format!("{} probe violations", tr.ledger.probe_violations));
    }
    errors
}

/// The traced measurement of `workload`: per-layer metrics plus the
/// tally of every check made on the way.
pub fn traced(workload: &str, seed: u64) -> (Tally, Metrics) {
    let n = size(workload);
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    let mut threads = Vec::new();
    let (untraced_wall, traced_wall, tail_rate, steady_allocs);
    let (mut pool_busy, mut pool_eff, mut over_plain) = (0.0, 0.0, 0.0);
    if workload == SWEEP {
        let pool = api::pool(workers());
        let seeds = 0..SWEEP_SEEDS_PER_WORKER * workers() as u64;
        let plain = api::par_seeds(&pool, seeds.clone(), |k| {
            let s = instance_seed(seed, k);
            let (inst, model, _) = setup(SWEEP_N, s);
            let t = Instant::now();
            api::run_plain(&inst, model, s);
            t.elapsed().as_secs_f64()
        });
        let untraced = || {
            let t = Instant::now();
            let runs = api::par_seeds(&pool, seeds.clone(), |k| sweep_run(instance_seed(seed, k)));
            (runs, t.elapsed().as_secs_f64())
        };
        let (recorded, before) = untraced();
        let t = Instant::now();
        let traced_runs = api::par_seeds(&pool, seeds.clone(), |k| {
            traced_instance(SWEEP, instance_seed(seed, k), epoch)
        });
        traced_wall = t.elapsed().as_secs_f64();
        let (_, after) = untraced();
        untraced_wall = (before + after) / 2.0;
        pool_busy = recorded.iter().map(|r| r.total_s).sum();
        pool_eff = pool_busy / (workers() as f64 * before);
        over_plain = recorded.iter().map(|r| r.run_s).sum::<f64>() / plain.iter().sum::<f64>();
        let tails: Vec<f64> = recorded
            .iter()
            .filter_map(|r| r.rates[Regime::Tail as usize])
            .collect();
        tail_rate = median(&tails);
        steady_allocs = recorded.iter().map(|r| r.steady_allocs).sum();
        for (r, tr) in recorded.iter().zip(traced_runs) {
            let mut errors = r.errors.clone();
            errors.extend(traced_errors(&tr, &r.digest));
            tally.record(SWEEP, r.seed, &r.digest, &errors);
            threads.push(tr.spans);
            ledger.merge(tr.ledger);
        }
    } else {
        let s = instance_seed(seed, 0);
        let untraced = || {
            let t = Instant::now();
            let (inst, model, _) = setup(n, s);
            let run = observed_run(workload, &inst, model, s);
            (inst, run, t.elapsed().as_secs_f64())
        };
        let (inst, run, before) = untraced();
        let tr = traced_instance(workload, s, epoch);
        traced_wall = tr.wall_s;
        let (_, _, after) = untraced();
        untraced_wall = (before + after) / 2.0;
        let (digest, mut errors) =
            check::check_run(workload, s, &inst.graph, &run.summary, workload != STEADY);
        errors.extend(traced_errors(&tr, &digest));
        tally.record(workload, s, &digest, &errors);
        tail_rate = run.meter.clock.rate(Regime::Tail).unwrap_or(0.0);
        steady_allocs = run.meter.steady_allocs;
        threads.push(tr.spans);
        ledger.merge(tr.ledger);
    }
    write_trace(workload, seed, &threads);

    let mut m = Metrics::default();
    let l = &ledger;
    let per_instance = 1.0 / l.instances.max(1) as f64;
    m.add("geometry.placement_s", l.placement_s * per_instance, "s");
    m.add("geometry.udg_build_s", l.udg_s * per_instance, "s");
    m.add("geometry.edges", l.edges as f64 * per_instance, "count");
    m.add("sinr.resolve_s", l.resolve_total_s * per_instance, "s");
    for r in Regime::ALL {
        let i = r as usize;
        let slots = l.bucket_slots[i].max(1) as f64;
        m.add(
            format!("sinr.resolve_us_per_slot.{}", r.name()),
            l.resolve_s[i] * 1e6 / slots,
            "us",
        );
        m.add(
            format!("sinr.hit_rate.{}", r.name()),
            api::hit_rate(&l.bucket_stats[i]),
            "fraction",
        );
        m.add(
            format!("sinr.tx_per_slot.{}", r.name()),
            l.tx[i] as f64 / slots,
            "count",
        );
    }
    let st = &l.stats;
    m.add(
        "sinr.candidates",
        (st.fast_path_hits + st.exact_fallbacks) as f64 * per_instance,
        "count",
    );
    m.add(
        "sinr.exact_fallbacks",
        st.exact_fallbacks as f64 * per_instance,
        "count",
    );
    m.add(
        "sinr.cells_scanned",
        st.cells_scanned as f64 * per_instance,
        "count",
    );
    m.add(
        "sinr.delta_started",
        st.delta_started as f64 * per_instance,
        "count",
    );
    m.add(
        "sinr.delta_stopped",
        st.delta_stopped as f64 * per_instance,
        "count",
    );
    m.add(
        "sinr.epoch_rebuilds",
        st.epoch_rebuilds as f64 * per_instance,
        "count",
    );
    m.add(
        "sinr.full_rebuilds",
        st.full_rebuilds as f64 * per_instance,
        "count",
    );
    m.add("sinr.naive_audit_slots", l.audits as f64, "count");
    m.add("radiosim.setup_s", l.sim_setup_s * per_instance, "s");
    m.add(
        "radiosim.engine_s",
        (l.step_total_s - l.resolve_total_s) * per_instance,
        "s",
    );
    for r in Regime::ALL {
        let i = r as usize;
        let node_slots = (n as f64 * l.bucket_slots[i] as f64).max(1.0);
        m.add(
            format!("radiosim.ns_per_node_slot.{}", r.name()),
            (l.step_s[i] - l.resolve_s[i]) * 1e9 / node_slots,
            "ns",
        );
        m.add(
            format!("radiosim.slot_us.p50.{}", r.name()),
            quantile(&l.slot_us[i], 0.5),
            "us",
        );
        m.add(
            format!("radiosim.slot_us.p99.{}", r.name()),
            quantile(&l.slot_us[i], 0.99),
            "us",
        );
    }
    m.add(
        "radiosim.transmissions",
        l.transmissions as f64 * per_instance,
        "count",
    );
    m.add(
        "radiosim.receptions",
        l.receptions as f64 * per_instance,
        "count",
    );
    m.add(
        "radiosim.bytes_per_slot",
        (api::node_bytes() * n) as f64,
        "B/slot-computed",
    );
    m.add("core.slots", l.slots as f64 * per_instance, "slots");
    for r in Regime::ALL {
        m.add(
            format!("core.regime_slots.{}", r.name()),
            l.regime_slots[r as usize] as f64 * per_instance,
            "slots",
        );
    }
    m.add("core.colors_used", l.colors_used as f64, "count");
    m.add("core.max_latency_slots", l.max_latency as f64, "slots");
    m.add("core.done", l.done as f64 * per_instance, "count");
    m.add("tail_slots_per_s", tail_rate, "slots/s");
    m.add("obs.probe_s", l.probe_s * per_instance, "s");
    m.add("obs.recorded_over_plain", over_plain, "ratio");
    m.add(
        "obs.events_recorded",
        l.events.0 as f64 * per_instance,
        "count",
    );
    m.add(
        "obs.events_dropped",
        l.events.1 as f64 * per_instance,
        "count",
    );
    m.add("obs.probe_violations", l.probe_violations as f64, "count");
    m.add(
        "alloc.setup_allocs",
        l.setup_allocs as f64 * per_instance,
        "count",
    );
    m.add(
        "alloc.setup_bytes",
        l.setup_bytes as f64 * per_instance,
        "B",
    );
    m.add("alloc.steady_allocs", steady_allocs as f64, "count");
    m.add("pool.busy_s", pool_busy, "s");
    m.add("pool.efficiency", pool_eff, "fraction");
    m.add("trace.overhead", traced_wall / untraced_wall, "ratio");
    m.add(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "fraction",
    );
    (tally, m)
}

/// Writes the spans as a Chrome trace next to the benchmark's sources.
fn write_trace(workload: &str, seed: u64, threads: &[Vec<Span>]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, chrome_trace(threads)));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
