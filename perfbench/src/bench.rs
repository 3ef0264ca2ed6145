//! The run loop: repeated rounds of set-up and replay, the output check,
//! and the metrics of the timed and the traced run.
//!
//! A round runs the calibration kernel ([`crate::calib`]), sets up
//! [`SETUP_REPEATS`] times — generate the workload's traces, build the
//! cold BS_k table and every cell's engine or cluster — keeps the last
//! set-up, and replays each cell once, running the kernel again after
//! each replay. Rounds repeat until the run's time is spent. Every time
//! is CPU time scaled to the reference host speed by the kernel run next
//! to it; the timed run reports, per cell, the median over rounds.
//!
//! The traced run rotates three round modes — the timed configuration,
//! the same with the registry toggled, and a traced round with a fresh
//! registry per cell plus the benchmark's own spans — and reports the
//! per-layer numbers from the fastest traced replay of each cell.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant as WallInstant;

use vod_obs::metrics::{PHASE_ADMISSION, PHASE_CYCLE_PLAN, PHASE_SERVICE, PHASE_TABLE_BUILD};
use vod_obs::{MetricsRegistry, MetricsSnapshot};

use crate::calib::{kernel_ns, REFERENCE_NS};
use crate::expected::{self, Counters};
use crate::host::cpu_ns;
use crate::span::{Layer, NoTrace, Span, SpanLog, Tracer, ROOT};
use crate::stats::{median, nearest_rank, ratio};
use crate::workload::{build, replay, Built, Kind, Outcome, Plan};

/// Never start another round past this many seconds, whatever
/// `--seconds` says, so a run ends well inside 180 s.
const HARD_CAP_S: f64 = 120.0;

/// Set-ups per round. Set-up takes under a millisecond to a few, so one
/// sample per round would make its median hostage to a single page
/// fault.
const SETUP_REPEATS: usize = 10;

/// Bits per MiB.
const MIB: f64 = 8.0 * 1024.0 * 1024.0;

/// One reported number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// How one round is observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// The timed run's configuration.
    Timed,
    /// The timed configuration with the registry toggled.
    RegistryToggled,
    /// A fresh registry per cell plus the benchmark's spans.
    Traced,
}

const LAYERS: usize = 10;

fn slot(layer: Layer) -> usize {
    match layer {
        Layer::Pass => 0,
        Layer::Setup => 1,
        Layer::WorkloadGen => 2,
        Layer::TableBuild => 3,
        Layer::SimBuild => 4,
        Layer::SimAdvance => 5,
        Layer::SimOffer => 6,
        Layer::SimFinish => 7,
        Layer::ClusterBuild => 8,
        Layer::ChaosRun => 9,
    }
}

/// Host nanoseconds spent in each layer, and calls made into it.
#[derive(Clone, Copy, Debug, Default)]
struct LayerTimes {
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl LayerTimes {
    fn of(spans: &[Span]) -> Self {
        let mut t = LayerTimes::default();
        for s in spans {
            t.ns[slot(s.layer)] += s.dur_ns();
            t.calls[slot(s.layer)] += 1;
        }
        t
    }
    fn ns(&self, layer: Layer) -> f64 {
        self.ns[slot(layer)] as f64
    }
    fn calls(&self, layer: Layer) -> f64 {
        self.calls[slot(layer)] as f64
    }
    fn add(&mut self, other: &LayerTimes) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }
}

/// The fastest traced replay of one cell.
struct TracedPass {
    /// Scaled replay nanoseconds.
    ns: f64,
    spans: Range<usize>,
    layers: LayerTimes,
    registry: MetricsSnapshot,
}

/// Everything kept about one cell across rounds.
#[derive(Default)]
struct CellLog {
    /// The first pass's outcome; every later pass must equal it.
    reference: Option<Outcome>,
    /// Replays made, and how many failed the output check.
    replays: u64,
    failed: u64,
    /// Scaled replay nanoseconds ([`scaled`]) per round, by mode.
    timed_ns: Vec<f64>,
    toggled_ns: Vec<f64>,
    traced_ns: Vec<f64>,
    best_traced: Option<TracedPass>,
}

/// A finished run: the check's verdict and the numbers to report.
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Replays made.
    pub attempted: u64,
    /// Replays whose output check failed.
    pub failed: u64,
    /// The first failure, if any.
    pub failure: Option<String>,
    /// The metrics of the result line, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<SpanLog>,
    /// The spans worth writing out: the kept set-up and each cell's
    /// fastest traced replay.
    pub kept_spans: Vec<Range<usize>>,
}

/// Runs `kind` at `seed` for about `seconds`, traced or not.
///
/// # Errors
///
/// Returns a message when the recorded counters or the resident memory
/// cannot be read.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let plan = Plan::new(kind, seed);
    let mut cells: Vec<CellLog> = plan.cells.iter().map(|_| CellLog::default()).collect();
    let modes: &[Mode] = if traced {
        &[Mode::Timed, Mode::RegistryToggled, Mode::Traced]
    } else {
        &[Mode::Timed]
    };
    let min_rounds = modes.len().max(2);
    let mut log = SpanLog::new();
    let mut setup_ns: Vec<f64> = Vec::new();
    let mut calib_ns: Vec<f64> = Vec::new();
    let mut traced_setup: Option<(u64, LayerTimes, Range<usize>)> = None;
    let mut rss_after_timed_round = None;
    let mut failure: Option<String> = None;
    let mut next_trace = 0u32;

    let start = WallInstant::now();
    let mut rounds = 0usize;
    loop {
        let mode = modes[rounds % modes.len()];
        let registry = match mode {
            Mode::Timed => kind.timed_with_registry(),
            Mode::RegistryToggled => !kind.timed_with_registry(),
            Mode::Traced => true,
        };
        let round = if mode == Mode::Traced {
            round(&plan, registry, &mut log, &mut next_trace)
        } else {
            round(&plan, registry, &mut NoTrace, &mut next_trace)
        };
        match mode {
            Mode::Timed => setup_ns.extend(
                round
                    .setup_ns
                    .iter()
                    .map(|&ns| scaled(ns, round.setup_cal_ns)),
            ),
            Mode::Traced => {
                let last = *round.setup_ns.last().expect("a round sets up");
                if traced_setup.as_ref().is_none_or(|(ns, ..)| last < *ns) {
                    let layers = LayerTimes::of(&log.spans()[round.setup_spans.clone()]);
                    traced_setup = Some((last, layers, round.setup_spans.clone()));
                }
            }
            Mode::RegistryToggled => {}
        }
        calib_ns.push(round.setup_cal_ns);
        for (ci, pass) in round.passes.into_iter().enumerate() {
            calib_ns.push(pass.cal_ns);
            let cell = &mut cells[ci];
            let verdict = pass.outcome.check().and_then(|()| match &cell.reference {
                Some(r) if *r != pass.outcome => {
                    Err("a repeat replay differs from the first".to_owned())
                }
                _ => Ok(()),
            });
            cell.replays += 1;
            if let Err(e) = verdict {
                cell.failed += 1;
                failure.get_or_insert_with(|| format!("{}: {e}", plan.cells[ci].label));
            }
            let ns = scaled(pass.ns, pass.cal_ns);
            match mode {
                Mode::Timed => cell.timed_ns.push(ns),
                Mode::RegistryToggled => cell.toggled_ns.push(ns),
                Mode::Traced => {
                    cell.traced_ns.push(ns);
                    if cell.best_traced.as_ref().is_none_or(|b| ns < b.ns) {
                        cell.best_traced = Some(TracedPass {
                            ns,
                            spans: pass.spans.clone(),
                            layers: LayerTimes::of(&log.spans()[pass.spans.clone()]),
                            registry: pass
                                .registry
                                .expect("traced rounds attach a registry")
                                .snapshot(),
                        });
                    }
                }
            }
            cell.reference.get_or_insert(pass.outcome);
        }
        if traced && rss_after_timed_round.is_none() {
            rss_after_timed_round = Some(crate::host::peak_rss_mib()?);
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / rounds as f64;
        if (rounds >= min_rounds && elapsed + per_round > seconds)
            || elapsed + per_round > HARD_CAP_S
        {
            break;
        }
    }

    for (cell, log) in plan.cells.iter().zip(&mut cells) {
        let out = log.reference.as_ref().expect("every cell ran");
        if let Some(want) = expected::lookup(kind.name(), seed, &cell.label)? {
            let got = Counters::of(out);
            if got != want {
                // Every replay of the cell equals the first, so all are wrong.
                log.failed = log.replays;
                failure.get_or_insert_with(|| {
                    format!(
                        "{}: counters {got:?} differ from the recorded {want:?}",
                        cell.label
                    )
                });
            }
        }
    }

    let attempted = cells.iter().map(|c| c.replays).sum();
    let failed = cells.iter().map(|c| c.failed).sum::<u64>();
    let outcomes: Vec<&Outcome> = cells
        .iter()
        .map(|c| c.reference.as_ref().expect("every cell ran"))
        .collect();
    let quality = Quality::of(&outcomes);
    // Per cell the median over rounds, summed over cells.
    let typical =
        |pick: fn(&CellLog) -> &Vec<f64>| -> f64 { cells.iter().map(|c| median(pick(c))).sum() };
    let host_ns = typical(|c| &c.timed_ns);
    let calib_ns = median(&calib_ns);
    let mut notes = vec![
        format!(
            "rounds {rounds}, timed replays per cell {}, cells {}, set-ups per round {SETUP_REPEATS}",
            cells[0].timed_ns.len(),
            cells.len()
        ),
        "open loop: arrivals are generated ahead of time in simulated time, \
         so generator lateness is 0 by construction"
            .to_owned(),
        format!(
            "calibration kernel: median {} ms CPU against a reference {} ms; \
             times are CPU time scaled by reference / kernel",
            calib_ns / 1e6,
            REFERENCE_NS / 1e6
        ),
    ];
    let mut kept_spans = Vec::new();
    let metrics = if traced {
        let toggled_ns = typical(|c| &c.toggled_ns);
        let traced_ns = typical(|c| &c.traced_ns);
        let (attached, detached) = if kind.timed_with_registry() {
            (host_ns, toggled_ns)
        } else {
            (toggled_ns, host_ns)
        };
        notes.push(format!(
            "scaled host seconds: untraced {}, registry toggled {}, traced {}",
            host_ns / 1e9,
            toggled_ns / 1e9,
            traced_ns / 1e9
        ));
        let (_, setup, setup_spans) = traced_setup.expect("traced runs make a traced round");
        kept_spans.push(setup_spans);
        kept_spans.extend(cells.iter().map(|c| {
            let best = c.best_traced.as_ref();
            best.expect("traced runs make a traced round").spans.clone()
        }));
        let mut metrics = layer_metrics(
            &outcomes,
            &cells,
            &setup,
            host_ns,
            traced_ns,
            ratio(attached - detached, detached),
        );
        metrics.extend(quality.layer_metrics());
        metrics.push(m(
            "host.rss_mib",
            rss_after_timed_round.expect("a round ran"),
            "MiB",
        ));
        metrics.push(m("host.calib_ns", calib_ns, "ns"));
        metrics
    } else {
        let setup_s = median(&setup_ns) / 1e9;
        let host_s = host_ns / 1e9;
        let rss = crate::host::peak_rss_mib()?;
        notes.push(
            "all ten end-to-end metrics (the result line carries the gated ones):".to_owned(),
        );
        for x in quality.all_end_to_end(setup_s, host_s, rss) {
            notes.push(format!("  {:<22} {:>24} {}", x.name, x.value, x.unit));
        }
        notes.push(format!(
            "  initial-latency samples {}, {} beyond p99",
            quality.il_samples,
            quality.beyond_p99()
        ));
        vec![
            m("setup_s", setup_s, "s"),
            m("host_s", host_s, "s"),
            m("requests_per_host_s", ratio(quality.offered, host_s), "1/s"),
            m("served_frac", 1.0 - quality.refused_frac(), "ratio"),
            m("peak_buffer_mib", quality.peak_bits / MIB, "MiB"),
        ]
    };
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        failure,
        metrics,
        notes,
        spans: traced.then_some(log),
        kept_spans,
    })
}

/// The modelled service quality of one round: a pure function of the
/// seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Quality {
    /// Requests offered, over every cell.
    pub offered: f64,
    /// Rejected plus chaos-dropped.
    pub refused: f64,
    /// Fig. 5 deferrals.
    pub deferred: f64,
    /// Buffer underflows.
    pub underflows: f64,
    /// Admitted requests with an initial-latency sample.
    pub il_samples: usize,
    /// Median initial latency, s.
    pub il_p50_s: f64,
    /// 99th-percentile initial latency, s.
    pub il_p99_s: f64,
    /// Mean over cells of each replay's peak buffer memory, bits.
    pub peak_bits: f64,
}

impl Quality {
    /// The quality of a round's outcomes.
    #[must_use]
    pub fn of(outcomes: &[&Outcome]) -> Self {
        let mut il: Vec<f64> = outcomes
            .iter()
            .flat_map(|o| o.latencies.iter().copied())
            .collect();
        il.sort_by(f64::total_cmp);
        Quality {
            offered: totals(outcomes, |o| o.offered),
            refused: totals(outcomes, |o| o.rejected + o.dropped),
            deferred: totals(outcomes, |o| o.deferred),
            underflows: totals(outcomes, |o| o.underflows),
            il_samples: il.len(),
            il_p50_s: nearest_rank(&il, 0.50),
            il_p99_s: nearest_rank(&il, 0.99),
            peak_bits: outcomes.iter().map(|o| o.peak_bits).sum::<f64>() / outcomes.len() as f64,
        }
    }

    /// `(rejected + dropped) / offered`.
    #[must_use]
    pub fn refused_frac(&self) -> f64 {
        ratio(self.refused, self.offered)
    }

    /// Samples strictly beyond the p99 rank.
    #[must_use]
    pub fn beyond_p99(&self) -> usize {
        let rank = (0.99 * self.il_samples as f64).ceil() as usize;
        self.il_samples - rank.min(self.il_samples)
    }

    /// The ten end-to-end metrics the benchmark was specified with.
    fn all_end_to_end(&self, setup_s: f64, host_s: f64, rss_mib: f64) -> Vec<Metric> {
        vec![
            m("setup_s", setup_s, "s"),
            m("host_s", host_s, "s"),
            m("requests_per_host_s", ratio(self.offered, host_s), "1/s"),
            m("host_rss_mib", rss_mib, "MiB"),
            m("il_p50_s", self.il_p50_s, "s"),
            m("il_p99_s", self.il_p99_s, "s"),
            m("refused_frac", self.refused_frac(), "ratio"),
            m("deferred_frac", ratio(self.deferred, self.offered), "ratio"),
            m("peak_buffer_mib", self.peak_bits / MIB, "MiB"),
            m("underflows", self.underflows, "count"),
        ]
    }

    /// The quality numbers the result line of the timed run does not
    /// carry, for the traced run's result line.
    fn layer_metrics(&self) -> Vec<Metric> {
        vec![
            m("quality.il_p50_s", self.il_p50_s, "s"),
            m("quality.il_p99_s", self.il_p99_s, "s"),
            m("quality.il_samples", self.il_samples as f64, "count"),
            m("quality.refused_frac", self.refused_frac(), "ratio"),
            m(
                "quality.deferred_frac",
                ratio(self.deferred, self.offered),
                "ratio",
            ),
        ]
    }
}

/// One replay's results.
struct PassResult {
    outcome: Outcome,
    ns: u64,
    /// Mean CPU ns of the calibration kernel run just before and just
    /// after the replay.
    cal_ns: f64,
    registry: Option<Arc<MetricsRegistry>>,
    spans: Range<usize>,
}

/// One round's results.
struct RoundResult {
    /// Every set-up's host nanoseconds; the last one was kept.
    setup_ns: Vec<u64>,
    /// CPU ns of the calibration kernel run just before the set-ups.
    setup_cal_ns: f64,
    /// The kept set-up's spans.
    setup_spans: Range<usize>,
    passes: Vec<PassResult>,
}

type Setup = (
    Vec<vod_workload::Workload>,
    Vec<(Built, Option<Arc<MetricsRegistry>>)>,
);

/// One set-up: everything before the first arrival is offered.
fn set_up<T: Tracer>(plan: &Plan, registry: bool, tr: &mut T, trace: u32) -> (Setup, u64) {
    let t0 = cpu_ns();
    let root = tr.open(Layer::Setup, ROOT, trace);
    let traces = plan.generate(tr, root, trace);
    plan.build_tables(tr, root, trace);
    let built = plan
        .cells
        .iter()
        .map(|c| build(c, registry, tr, root, trace))
        .collect();
    tr.close(root);
    ((traces, built), cpu_ns() - t0)
}

fn round<T: Tracer>(plan: &Plan, registry: bool, tr: &mut T, next_trace: &mut u32) -> RoundResult {
    let mut cal_ns = kernel_ns() as f64;
    let setup_cal_ns = cal_ns;
    let mut setup_ns = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let (discarded, ns) = set_up(plan, registry, &mut NoTrace, 0);
        drop(discarded);
        setup_ns.push(ns);
    }
    let setup_trace = *next_trace;
    *next_trace += 1;
    let first = tr.recorded();
    let ((traces, built), ns) = set_up(plan, registry, tr, setup_trace);
    setup_ns.push(ns);
    let setup_spans = first..tr.recorded();

    let mut passes = Vec::with_capacity(built.len());
    for (cell, (b, reg)) in plan.cells.iter().zip(built) {
        let trace = *next_trace;
        *next_trace += 1;
        let first = tr.recorded();
        let root = tr.open(Layer::Pass, ROOT, trace);
        let (outcome, ns) = replay(b, &traces[cell.trace].arrivals, tr, root, trace);
        tr.close(root);
        let before = cal_ns;
        cal_ns = kernel_ns() as f64;
        passes.push(PassResult {
            outcome,
            ns,
            cal_ns: (before + cal_ns) / 2.0,
            registry: reg,
            spans: first..tr.recorded(),
        });
    }
    RoundResult {
        setup_ns,
        setup_cal_ns,
        setup_spans,
        passes,
    }
}

/// `cpu_ns` of work scaled to the reference host speed, given the CPU
/// ns the calibration kernel took next to it.
fn scaled(cpu_ns: u64, kernel_ns: f64) -> f64 {
    cpu_ns as f64 * REFERENCE_NS / kernel_ns
}

fn totals(outcomes: &[&Outcome], f: fn(&Outcome) -> u64) -> f64 {
    outcomes.iter().map(|o| f(o) as f64).sum()
}

/// `(count, ns)` of one registry phase, summed over snapshots.
fn phase(snaps: &[&MetricsSnapshot], name: &str) -> (f64, f64) {
    snaps
        .iter()
        .filter_map(|s| s.histogram(name))
        .fold((0.0, 0.0), |(c, ns), h| {
            (c + h.count as f64, ns + h.sum * 1e9)
        })
}

fn layer_metrics(
    outcomes: &[&Outcome],
    cells: &[CellLog],
    setup: &LayerTimes,
    untraced_ns: f64,
    traced_ns: f64,
    registry_overhead_frac: f64,
) -> Vec<Metric> {
    let mut pass = LayerTimes::default();
    let mut snaps = Vec::new();
    for c in cells {
        let b = c
            .best_traced
            .as_ref()
            .expect("traced runs make a traced round");
        pass.add(&b.layers);
        snaps.push(&b.registry);
    }
    let offered = totals(outcomes, |o| o.offered);
    let admitted = totals(outcomes, |o| o.admitted);
    let deferred = totals(outcomes, |o| o.deferred);
    let cycles = totals(outcomes, |o| o.cycles);
    let services = totals(outcomes, |o| o.services);
    let (service_n, service_ns) = phase(&snaps, PHASE_SERVICE);
    let (plan_n, plan_ns) = phase(&snaps, PHASE_CYCLE_PLAN);
    let (adm_n, adm_ns) = phase(&snaps, PHASE_ADMISSION);
    let (table_n, table_ns) = phase(&snaps, PHASE_TABLE_BUILD);
    let engine_phases_ns = service_ns + plan_ns + adm_ns;
    let sim_ns = pass.ns(Layer::SimAdvance) + pass.ns(Layer::SimOffer) + pass.ns(Layer::SimFinish);
    let chaos_ns = pass.ns(Layer::ChaosRun);
    // A layer that does not run on this workload reports 0.
    let minus_phases = |ns: f64| if ns > 0.0 { ns - engine_phases_ns } else { 0.0 };
    let cluster = |f: fn(&crate::workload::ClusterCounts) -> f64| -> f64 {
        outcomes
            .iter()
            .filter_map(|o| o.cluster.as_ref())
            .map(f)
            .sum()
    };
    let chaos = |f: fn(&vod_chaos::ChaosSummary) -> f64| -> f64 {
        outcomes
            .iter()
            .filter_map(|o| o.chaos.as_ref())
            .map(f)
            .sum()
    };
    let days = outcomes.iter().filter(|o| o.cluster.is_some()).count() as f64;
    let dispatched = cluster(|c| c.dispatched as f64);
    let redirected = cluster(|c| c.redirected as f64);
    let overflow = cluster(|c| c.overflow_queued as f64);
    let interrupted = chaos(|c| c.interrupted as f64);
    vec![
        m("workload.gen_ns", setup.ns(Layer::WorkloadGen), "ns"),
        m("workload.arrivals", offered, "count"),
        m("sim.build_ns", setup.ns(Layer::SimBuild), "ns"),
        m("sim.advance_calls", pass.calls(Layer::SimAdvance), "count"),
        m("sim.advance_ns", pass.ns(Layer::SimAdvance), "ns"),
        m("sim.offer_calls", pass.calls(Layer::SimOffer), "count"),
        m("sim.offer_ns", pass.ns(Layer::SimOffer), "ns"),
        m("sim.finish_ns", pass.ns(Layer::SimFinish), "ns"),
        m("sim.self_ns", minus_phases(sim_ns), "ns"),
        m(
            "sim.host_ns_per_service",
            ratio(untraced_ns, services),
            "ns",
        ),
        m("sim.cycles", cycles, "count"),
        m("sim.services", services, "count"),
        m("sim.services_per_cycle", ratio(services, cycles), "ratio"),
        m(
            "sim.underflows",
            totals(outcomes, |o| o.underflows),
            "count",
        ),
        m(
            "sim.peak_buffer_bits",
            outcomes.iter().map(|o| o.peak_bits).sum::<f64>() / outcomes.len() as f64,
            "bit",
        ),
        m("sim.service_count", service_n, "count"),
        m("sim.service_ns", service_ns, "ns"),
        m("sched.cycle_plan_count", plan_n, "count"),
        m("sched.cycle_plan_ns", plan_ns, "ns"),
        m("core.admission_count", adm_n, "count"),
        m("core.admission_ns", adm_ns, "ns"),
        m(
            "core.table_build_count",
            table_n + setup.calls(Layer::TableBuild),
            "count",
        ),
        m(
            "core.table_build_ns",
            table_ns + setup.ns(Layer::TableBuild),
            "ns",
        ),
        m("core.admitted", admitted, "count"),
        m("core.deferred", deferred, "count"),
        m("core.rejected", totals(outcomes, |o| o.rejected), "count"),
        m("core.admit_ratio", ratio(admitted, offered), "ratio"),
        m("core.deferral_ratio", ratio(deferred, offered), "ratio"),
        m("cluster.build_ns", setup.ns(Layer::ClusterBuild), "ns"),
        m("cluster.dispatched", dispatched, "count"),
        m("cluster.redirected", redirected, "count"),
        m("cluster.overflow_queued", overflow, "count"),
        m(
            "cluster.redirect_ratio",
            ratio(redirected, dispatched),
            "ratio",
        ),
        m(
            "cluster.overflow_ratio",
            ratio(overflow, dispatched),
            "ratio",
        ),
        m(
            "cluster.imbalance_ratio",
            ratio(cluster(|c| c.imbalance_ratio), days),
            "ratio",
        ),
        m("chaos.run_ns", chaos_ns, "ns"),
        m("chaos.remainder_ns", minus_phases(chaos_ns), "ns"),
        m("chaos.faults", chaos(|c| c.faults_injected as f64), "count"),
        m("chaos.interrupted", interrupted, "count"),
        m("chaos.migrated", chaos(|c| c.migrated as f64), "count"),
        m("chaos.parked", chaos(|c| c.parked as f64), "count"),
        m("chaos.dropped", chaos(|c| c.dropped as f64), "count"),
        m(
            "chaos.rereplicated",
            chaos(|c| c.rereplicated as f64),
            "count",
        ),
        m(
            "chaos.cold_rebuilds",
            chaos(|c| c.cold_rebuilds as f64),
            "count",
        ),
        m(
            "chaos.recovery_ratio",
            ratio(chaos(|c| (c.migrated + c.rereplicated) as f64), interrupted),
            "ratio",
        ),
        m(
            "chaos.availability",
            ratio(chaos(|c| c.availability), days),
            "ratio",
        ),
        m(
            "obs.registry_overhead_frac",
            registry_overhead_frac,
            "ratio",
        ),
        m(
            "bench.layer_coverage_frac",
            ratio(sim_ns + chaos_ns, pass.ns(Layer::Pass)),
            "ratio",
        ),
        m(
            "bench.tracing_overhead_frac",
            ratio(traced_ns - untraced_ns, untraced_ns),
            "ratio",
        ),
    ]
}
