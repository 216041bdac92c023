//! The three workloads and their end-to-end measurement (tracing off).
//!
//! - `mw-full-2k`: complete colorings at n = 2048 on one thread. The only
//!   size where a full run is cheap enough to repeat; it covers all three
//!   regimes with the node array in L2.
//! - `mw-steady-16k`: one run at n = 16384 on one thread, capped past the
//!   race and into steady contention, where the 2.9 MB node array is
//!   beyond L2 and resolve dominates the slot.
//! - `sweep-probed-512`: complete probed, recorded colorings at n = 512
//!   fanned out over the machine's cores with `Pool::par_seeds`. The
//!   resolver grid is off at this size, so resolver changes should not
//!   move it.

use std::time::{Duration, Instant};

use crate::api::{self, Instance, RunSummary};
use crate::check::{self, Digest};
use crate::regime::{Regime, RegimeClock};
use crate::report::{median, Metrics};

pub const FULL: &str = "mw-full-2k";
pub const STEADY: &str = "mw-steady-16k";
pub const SWEEP: &str = "sweep-probed-512";
pub const NAMES: [&str; 3] = [FULL, STEADY, SWEEP];

pub const FULL_N: usize = 2048;
pub const STEADY_N: usize = 16384;
pub const SWEEP_N: usize = 512;

/// The steady-16k run is capped [`STEADY_WARM`] + [`STEADY_WINDOW`] slots
/// after the earliest slot a node can decide (the listen phase plus the
/// counter threshold, 12k to 15k slots depending on the instance's Δ).
/// The warm margin covers the climb from ~60 to ~280 transmitters per
/// slot; the timed window is the last `STEADY_WINDOW` slots.
pub const STEADY_WARM: u64 = 1_500;
pub const STEADY_WINDOW: u64 = 3_000;

/// Set-ups of the run's first instance timed back to back on the main
/// thread before the measured loop; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// Seeds each sweep worker runs per `par_seeds` batch.
pub const SWEEP_SEEDS_PER_WORKER: u64 = 2;

/// The workload's `n`.
pub fn size(workload: &str) -> usize {
    match workload {
        FULL => FULL_N,
        STEADY => STEADY_N,
        _ => SWEEP_N,
    }
}

/// The slot cap of the workload's runs on `inst` (`None`: `MwConfig`'s
/// default, which only a livelocked run reaches).
pub fn cap(workload: &str, inst: &Instance) -> Option<u64> {
    (workload == STEADY).then(|| api::first_decision_slot(inst) + STEADY_WARM + STEADY_WINDOW)
}

/// Instance seed `j` of a run with `--seed seed`.
pub fn instance_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(j)
}

/// Workers of the sweep's pool: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Builds instance `seed` of size `n` the way a user does (placement,
/// UDG, parameters, resolver) and returns its wall time in seconds.
pub fn setup(n: usize, seed: u64) -> (Instance, api::FastSinrModel, f64) {
    let t = Instant::now();
    let inst = api::instance(api::unit_disk_graph(api::place(n, seed)));
    let model = api::fast_model(&inst);
    (inst, model, t.elapsed().as_secs_f64())
}

/// Wall times of [`SETUP_REPS`] set-ups of instance `seed`.
pub fn setup_samples(n: usize, seed: u64) -> Vec<f64> {
    (0..SETUP_REPS).map(|_| setup(n, seed).2).collect()
}

/// What every measured run reports besides its metrics.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked instance, printing its digest and any failure.
    pub fn record(&mut self, workload: &str, seed: u64, digest: &Digest, errors: &[String]) {
        self.attempted += 1;
        eprintln!("{workload} seed {seed}: {digest}");
        if !errors.is_empty() {
            self.failed += 1;
            for e in errors {
                eprintln!("{workload} seed {seed}: FAILED: {e}");
            }
        }
    }
}

/// Per-slot measurement of an untraced run: the regime clock, plus the
/// allocations made in steady slots (contention, or the timed window on
/// steady-16k).
pub struct SlotMeter {
    pub clock: RegimeClock,
    pub steady_allocs: u64,
    prev_allocs: u64,
}

impl SlotMeter {
    pub fn new(clock: RegimeClock) -> Self {
        SlotMeter {
            clock,
            steady_allocs: 0,
            prev_allocs: api::alloc_snapshot().allocs,
        }
    }

    /// Call at the end of every slot with the nodes that decided in it.
    pub fn slot(&mut self, newly_done: usize) {
        let steady = self.clock.next_is_steady();
        self.clock.tick(newly_done);
        let allocs = api::alloc_snapshot().allocs;
        if steady {
            self.steady_allocs += allocs - self.prev_allocs;
        }
        self.prev_allocs = allocs;
    }
}

/// One untraced run of a single-thread workload: the `run_mw_observed`
/// call with a [`SlotMeter`] in its observer.
pub struct ObservedRun {
    pub summary: RunSummary,
    pub meter: SlotMeter,
    pub run_s: f64,
}

pub fn observed_run(
    workload: &str,
    inst: &Instance,
    model: api::FastSinrModel,
    seed: u64,
) -> ObservedRun {
    let n = size(workload);
    let cap = cap(workload, inst);
    let mut meter = SlotMeter::new(match cap {
        Some(c) => RegimeClock::with_window(n, c - STEADY_WINDOW, c),
        None => RegimeClock::new(n),
    });
    let t = Instant::now();
    let out = api::run_observed(inst, model, seed, cap, |_, view| {
        meter.slot(api::facts(view).newly_done)
    });
    let run_s = t.elapsed().as_secs_f64();
    ObservedRun {
        summary: RunSummary::of_outcome(&out),
        meter,
        run_s,
    }
}

/// The end-to-end result of one benchmark run.
pub struct E2e {
    pub tally: Tally,
    pub metrics: Metrics,
}

fn push_rate(rates: &mut [Vec<f64>; 3], r: Regime, v: Option<f64>) {
    if let Some(v) = v {
        rates[r as usize].push(v);
    }
}

/// Complete (or, on steady-16k, capped) single-thread colorings of
/// successive instances until `seconds` have passed; at least one.
pub fn single_thread(workload: &str, seed: u64, seconds: f64) -> E2e {
    let n = size(workload);
    let mut tally = Tally::default();
    let setups = setup_samples(n, instance_seed(seed, 0));
    let mut runs = Vec::new();
    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut wall = 0.0;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut j = 0;
    while j == 0 || start.elapsed() < budget {
        let s = instance_seed(seed, j);
        let t = Instant::now();
        let (inst, model, _) = setup(n, s);
        let run = observed_run(workload, &inst, model, s);
        wall += t.elapsed().as_secs_f64();
        runs.push(run.run_s);
        push_rate(&mut rates, Regime::Race, run.meter.clock.rate(Regime::Race));
        if workload == STEADY {
            push_rate(
                &mut rates,
                Regime::Contention,
                run.meter.clock.window_rate(),
            );
        } else {
            push_rate(
                &mut rates,
                Regime::Contention,
                run.meter.clock.rate(Regime::Contention),
            );
        }
        let (digest, mut errors) =
            check::check_run(workload, s, &inst.graph, &run.summary, workload != STEADY);
        if let Some(w) = run.meter.clock.window() {
            if w.regimes[Regime::Contention as usize] != STEADY_WINDOW {
                errors.push(format!(
                    "steady window is not all contention: {:?}",
                    w.regimes
                ));
            }
        }
        eprintln!(
            "{workload} seed {s}: regime slots {:?}, first decision possible at {}",
            run.meter.clock.regime_slots(),
            api::first_decision_slot(&inst)
        );
        tally.record(workload, s, &digest, &errors);
        j += 1;
    }
    let mut m = Metrics::default();
    m.add("setup_s", median(&setups), "s");
    m.add("coloring_s", median(&runs), "s");
    m.add("race_slots_per_s", median(&rates[0]), "slots/s");
    m.add("contention_slots_per_s", median(&rates[1]), "slots/s");
    m.add("colorings_per_s", runs.len() as f64 / wall, "1/s");
    m.add("heap_peak_mb", api::heap_peak() as f64 / 1e6, "MB");
    E2e { tally, metrics: m }
}

/// One probed, recorded sweep coloring, run on a pool worker.
pub struct SweepRun {
    pub seed: u64,
    pub run_s: f64,
    pub total_s: f64,
    pub digest: Digest,
    pub errors: Vec<String>,
    pub rates: [Option<f64>; 3],
    pub steady_allocs: u64,
}

/// Set-up plus `run_mw_recorded` of sweep instance `s`, checked.
pub fn sweep_run(s: u64) -> SweepRun {
    let t = Instant::now();
    let (inst, model, _) = setup(SWEEP_N, s);
    let mut meter = SlotMeter::new(RegimeClock::new(SWEEP_N));
    let mut rec = api::SlotHookRecorder::new(|done| meter.slot(done));
    let tr = Instant::now();
    let out = api::run_recorded(&inst, model, s, &mut rec);
    let run_s = tr.elapsed().as_secs_f64();
    let violations = api::probe_violations(&rec.inner);
    drop(rec);
    let (digest, mut errors) =
        check::check_run(SWEEP, s, &inst.graph, &RunSummary::of_outcome(&out), true);
    if violations > 0 {
        errors.push(format!("{violations} probe violations"));
    }
    SweepRun {
        seed: s,
        run_s,
        total_s: t.elapsed().as_secs_f64(),
        digest,
        errors,
        rates: Regime::ALL.map(|r| meter.clock.rate(r)),
        steady_allocs: meter.steady_allocs,
    }
}

/// Batches of probed colorings over the pool until `seconds` have passed;
/// at least one batch.
pub fn sweep(seed: u64, seconds: f64) -> E2e {
    let pool = api::pool(workers());
    let batch = SWEEP_SEEDS_PER_WORKER * workers() as u64;
    let mut tally = Tally::default();
    let setups = setup_samples(SWEEP_N, instance_seed(seed, 0));
    let mut runs = Vec::new();
    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut wall = 0.0;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut next = 0;
    while next == 0 || start.elapsed() < budget {
        let t = Instant::now();
        let batch_runs = api::par_seeds(&pool, next..next + batch, |k| {
            sweep_run(instance_seed(seed, k))
        });
        wall += t.elapsed().as_secs_f64();
        for r in batch_runs {
            runs.push(r.run_s);
            for (i, rate) in r.rates.iter().enumerate() {
                if let Some(v) = rate {
                    rates[i].push(*v);
                }
            }
            tally.record(SWEEP, r.seed, &r.digest, &r.errors);
        }
        next += batch;
    }
    let mut m = Metrics::default();
    m.add("setup_s", median(&setups), "s");
    m.add("coloring_s", median(&runs), "s");
    m.add("race_slots_per_s", median(&rates[0]), "slots/s");
    m.add("contention_slots_per_s", median(&rates[1]), "slots/s");
    m.add("colorings_per_s", runs.len() as f64 / wall, "1/s");
    m.add("heap_peak_mb", api::heap_peak() as f64 / 1e6, "MB");
    E2e { tally, metrics: m }
}

/// The untraced measurement of `workload`.
pub fn e2e(workload: &str, seed: u64, seconds: f64) -> E2e {
    if workload == SWEEP {
        sweep(seed, seconds)
    } else {
        single_thread(workload, seed, seconds)
    }
}
