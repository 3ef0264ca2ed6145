//! The four benchmark workloads, built from a seed, and one replay of
//! one cell through the program's public functions.

use std::sync::Arc;

use vod_chaos::{
    run_chaos_on, ChaosConfig, ChaosSummary, FailoverPolicy, Fault, FaultEvent, FaultSchedule,
    RecoveryPolicy, RejoinMode,
};
use vod_cluster::{Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_core::memory::min_memory_static;
use vod_core::{SchemeKind, SizeTable, SystemParams};
use vod_obs::{Metrics, MetricsRegistry, Obs};
use vod_sched::SchedulingMethod;
use vod_sim::{DiskEngine, DiskRunStats, EngineConfig};
use vod_types::{Instant, Seconds};
use vod_workload::{
    generate, multi_movie, with_vcr_actions, Arrival, MultiMovieConfig, VcrConfig, Workload,
    WorkloadConfig,
};

use crate::host::cpu_ns;
use crate::span::{Layer, Tracer};

/// Expected arrivals of the paper's single-disk day (§5).
const PAPER_DAY_ARRIVALS: f64 = 1440.0;
/// VCR actions per viewing hour on `vcr_churn`.
const VCR_ACTIONS_PER_HOUR: f64 = 30.0;
/// Nodes of the `cluster_failover` cluster.
const CLUSTER_NODES: usize = 8;
/// Catalog size of the `cluster_failover` day.
const CLUSTER_MOVIES: usize = 64;
/// Expected arrivals per node on the `cluster_failover` day.
const CLUSTER_ARRIVALS_PER_NODE: f64 = 240.0;
/// Simulated horizon of the `cluster_failover` day, in hours.
const CLUSTER_HOURS: f64 = 6.0;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's §5 single-disk day under the dynamic scheme.
    PaperDayDynamic,
    /// The same traces and methods under the static scheme (Eq. 5).
    PaperDayStatic,
    /// Dynamic Round-Robin days at θ = 1 with a high VCR-action rate.
    VcrChurn,
    /// 8-node cluster days with a crash, a disk degrade, a cold rejoin
    /// and re-replication, run through `vod_chaos`.
    ClusterFailover,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 4] = [
        Kind::PaperDayDynamic,
        Kind::PaperDayStatic,
        Kind::VcrChurn,
        Kind::ClusterFailover,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperDayDynamic => "paper_day_dynamic",
            Kind::PaperDayStatic => "paper_day_static",
            Kind::VcrChurn => "vcr_churn",
            Kind::ClusterFailover => "cluster_failover",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the timed run attaches a metrics registry. Only the
    /// cluster day does, because an operator runs chaos with Prometheus
    /// attached; the single-disk days run detached.
    #[must_use]
    pub fn timed_with_registry(self) -> bool {
        self == Kind::ClusterFailover
    }
}

/// What one cell replays.
#[derive(Clone, Debug)]
pub enum CellSpec {
    /// One engine over one trace, driven by `advance_to`/`offer`/`finish`.
    Disk(EngineConfig),
    /// One chaos episode over the cluster trace.
    Chaos(Box<ChaosConfig>),
}

/// One cell of a workload: replayed once per round.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Stable label, also the key of the recorded counters.
    pub label: String,
    /// Index of the trace the cell replays.
    pub trace: usize,
    /// What the cell replays.
    pub spec: CellSpec,
}

/// How to generate one trace.
#[derive(Clone, Debug)]
enum TraceSpec {
    PaperDay(WorkloadConfig),
    Vcr(WorkloadConfig, VcrConfig),
    Cluster(MultiMovieConfig),
}

/// A workload at one seed: its traces and cells. A pure function of
/// `(kind, seed)`.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// The workload seed.
    pub seed: u64,
    traces: Vec<TraceSpec>,
    /// The cells, in replay order.
    pub cells: Vec<Cell>,
}

/// The θ values of the paper-day workloads.
const PAPER_THETAS: [f64; 2] = [0.0, 0.5];

/// VCR days replayed per round. How many requests the VCR actions add
/// varies by a tenth between seeds, and the replay's cost with it; two
/// days average that down.
const VCR_DAYS: usize = 2;

/// Cluster days replayed per round. One day's latency tail, peak memory
/// and service cycles (its replay cost) depend strongly on where the
/// seed puts the burst relative to the faults; four days average that
/// down.
const CLUSTER_DAYS: usize = 4;

fn method_tag(m: SchedulingMethod) -> &'static str {
    match m {
        SchedulingMethod::RoundRobin => "rr",
        SchedulingMethod::Sweep => "sweep",
        SchedulingMethod::Gss { .. } => "gss",
    }
}

impl Plan {
    /// Builds the plan of `kind` at `seed`. Each cell of the paper days
    /// replays its own trace, so one round pools six independent days;
    /// the static and dynamic workloads replay the same six traces.
    #[must_use]
    pub fn new(kind: Kind, seed: u64) -> Plan {
        let mut traces = Vec::new();
        let mut cells = Vec::new();
        match kind {
            Kind::PaperDayDynamic | Kind::PaperDayStatic => {
                let scheme = if kind == Kind::PaperDayDynamic {
                    SchemeKind::Dynamic
                } else {
                    SchemeKind::Static
                };
                for theta in PAPER_THETAS {
                    for method in SchedulingMethod::paper_methods() {
                        cells.push(Cell {
                            label: format!("{}/theta{theta}", method_tag(method)),
                            trace: traces.len(),
                            spec: CellSpec::Disk(EngineConfig::paper(method, scheme)),
                        });
                        traces.push(TraceSpec::PaperDay(WorkloadConfig::paper_single_disk(
                            theta,
                            PAPER_DAY_ARRIVALS,
                        )));
                    }
                }
            }
            Kind::VcrChurn => {
                for day in 0..VCR_DAYS {
                    cells.push(Cell {
                        label: format!("rr/theta1/vcr30/day{day}"),
                        trace: day,
                        spec: CellSpec::Disk(EngineConfig::paper(
                            SchedulingMethod::RoundRobin,
                            SchemeKind::Dynamic,
                        )),
                    });
                    traces.push(TraceSpec::Vcr(
                        WorkloadConfig::paper_single_disk(1.0, PAPER_DAY_ARRIVALS),
                        VcrConfig {
                            actions_per_hour: VCR_ACTIONS_PER_HOUR,
                            min_segment: Seconds::from_secs(1.0),
                        },
                    ));
                }
            }
            Kind::ClusterFailover => {
                let mut wl = MultiMovieConfig::paper_cluster(
                    CLUSTER_MOVIES,
                    0.271,
                    CLUSTER_ARRIVALS_PER_NODE * CLUSTER_NODES as f64,
                );
                wl.duration = Seconds::from_hours(CLUSTER_HOURS);
                wl.peak = Seconds::from_hours(CLUSTER_HOURS / 2.0);
                // A peaked day: the burst pushes nodes below their hard
                // N cap, so deferral and overflow redirection run too.
                wl.profile_theta = 0.4;
                for day in 0..CLUSTER_DAYS {
                    cells.push(Cell {
                        label: format!("chaos/day{day}"),
                        trace: day,
                        spec: CellSpec::Chaos(Box::new(failover_config(trace_seed(
                            seed,
                            day,
                            CLUSTER_DAYS,
                        )))),
                    });
                    traces.push(TraceSpec::Cluster(wl.clone()));
                }
            }
        }
        Plan {
            kind,
            seed,
            traces,
            cells,
        }
    }

    /// Generates every trace of the plan, one `WorkloadGen` span each.
    ///
    /// # Panics
    ///
    /// Panics if a pinned workload configuration fails to validate (a
    /// bug in this file).
    pub fn generate<T: Tracer>(&self, tr: &mut T, parent: u32, trace: u32) -> Vec<Workload> {
        let n = self.traces.len();
        self.traces
            .iter()
            .enumerate()
            .map(|(j, spec)| {
                let seed = trace_seed(self.seed, j, n);
                let s = tr.open(Layer::WorkloadGen, parent, trace);
                let wl = match spec {
                    TraceSpec::PaperDay(cfg) => generate(cfg, seed),
                    TraceSpec::Vcr(cfg, vcr) => {
                        generate(cfg, seed).and_then(|base| with_vcr_actions(&base, *vcr, seed))
                    }
                    TraceSpec::Cluster(cfg) => multi_movie(cfg, seed),
                }
                .expect("pinned workload configurations validate");
                tr.close(s);
                wl
            })
            .collect()
    }

    /// Builds the cold BS_k table of every dynamic-scheme parameter set
    /// the plan uses, one `TableBuild` span each. The engines themselves
    /// take the table from the process-wide cache, so without this a
    /// repeated set-up would only ever time a cache hit.
    pub fn build_tables<T: Tracer>(&self, tr: &mut T, parent: u32, trace: u32) {
        let mut built: Vec<&SystemParams> = Vec::new();
        for cell in &self.cells {
            let cfg = match &cell.spec {
                CellSpec::Disk(cfg) => cfg,
                CellSpec::Chaos(chaos) => &chaos.cluster.engine,
            };
            if cfg.scheme != SchemeKind::Dynamic || built.contains(&&cfg.params) {
                continue;
            }
            built.push(&cfg.params);
            let s = tr.open(Layer::TableBuild, parent, trace);
            std::hint::black_box(SizeTable::build(&cfg.params));
            tr.close(s);
        }
    }
}

/// The seed of trace `j` of `n`: distinct for every `(seed, j)`, and the
/// workload seed itself when the plan has a single trace.
fn trace_seed(seed: u64, j: usize, n: usize) -> u64 {
    seed.wrapping_mul(n as u64).wrapping_add(j as u64)
}

/// The `cluster_failover` episode: dynamic Round-Robin engines with two
/// disks and the static-minimum memory budget, a 64-movie Zipf(0.271)
/// catalog with the top 16 movies on 2 replicas, least-loaded dispatch;
/// a disk degrade before the peak, a crash at the peak under Migrate
/// failover, a cold rejoin after it, and re-replication armed.
fn failover_config(seed: u64) -> ChaosConfig {
    let mut engine = EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
    engine.memory_budget = Some(min_memory_static(
        &engine.params,
        engine.params.max_requests(),
    ));
    engine.disks = 2;
    let hours = |h: f64| Instant::from_secs(h * 3600.0);
    let schedule = FaultSchedule::from_events(vec![
        FaultEvent {
            at: hours(CLUSTER_HOURS * 0.3),
            node: 3,
            fault: Fault::DiskDegrade {
                disk: 1,
                factor: 4.0,
            },
        },
        FaultEvent {
            at: hours(CLUSTER_HOURS * 0.5),
            node: 0,
            fault: Fault::NodeCrash,
        },
        FaultEvent {
            at: hours(CLUSTER_HOURS * 0.75),
            node: 0,
            fault: Fault::NodeRejoin {
                mode: Some(RejoinMode::Cold),
            },
        },
    ]);
    ChaosConfig {
        cluster: ClusterConfig {
            nodes: CLUSTER_NODES,
            engine,
            movies: CLUSTER_MOVIES,
            movie_theta: 0.271,
            placement: PlacementPolicy::ReplicatedHot {
                replicas: 2,
                hot_movies: CLUSTER_MOVIES / 4,
            },
            dispatch: DispatchPolicy::LeastLoaded,
            seed,
        },
        schedule,
        failover: FailoverPolicy::Migrate,
        recovery: RecoveryPolicy::Cold,
        reseed_after: Some(Seconds::from_secs(CLUSTER_HOURS * 3600.0 * 0.1)),
    }
}

/// A cell built and ready to replay.
pub enum Built {
    /// A single-disk engine.
    Disk(Box<DiskEngine>),
    /// A cluster with its chaos episode.
    Chaos(Box<Cluster>, Box<ChaosConfig>),
}

/// Builds `cell` with its own observer: a fresh registry when
/// `registry` is set, detached otherwise. Returns the registry too.
///
/// # Panics
///
/// Panics if a pinned configuration fails to validate.
pub fn build<T: Tracer>(
    cell: &Cell,
    registry: bool,
    tr: &mut T,
    parent: u32,
    trace: u32,
) -> (Built, Option<Arc<MetricsRegistry>>) {
    let reg = registry.then(|| Arc::new(MetricsRegistry::new()));
    let obs = match &reg {
        Some(r) => Obs::null().with_metrics(Metrics::new(Arc::clone(r))),
        None => Obs::null(),
    };
    let built = match &cell.spec {
        CellSpec::Disk(cfg) => {
            let s = tr.open(Layer::SimBuild, parent, trace);
            let engine = DiskEngine::with_observer(cfg.clone(), obs)
                .expect("pinned engine configurations validate");
            tr.close(s);
            Built::Disk(Box::new(engine))
        }
        CellSpec::Chaos(cfg) => {
            let s = tr.open(Layer::ClusterBuild, parent, trace);
            let cluster = Cluster::with_observer(cfg.cluster.clone(), obs)
                .expect("pinned cluster configuration validates");
            tr.close(s);
            Built::Chaos(Box::new(cluster), cfg.clone())
        }
    };
    (built, reg)
}

/// Replays `arrivals` through `engine` with the stepped driver: for each
/// arrival, `advance_to` its instant then `offer` it; `finish` at the
/// end. This is the call sequence `DiskEngine::run` makes internally.
pub fn replay_disk<T: Tracer>(
    mut engine: DiskEngine,
    arrivals: &[Arrival],
    tr: &mut T,
    parent: u32,
    trace: u32,
) -> DiskRunStats {
    for a in arrivals {
        let s = tr.open(Layer::SimAdvance, parent, trace);
        engine.advance_to(a.at);
        tr.close(s);
        let s = tr.open(Layer::SimOffer, parent, trace);
        engine.offer(a);
        tr.close(s);
    }
    let s = tr.open(Layer::SimFinish, parent, trace);
    let stats = engine.finish();
    tr.close(s);
    stats
}

/// Cluster front-end counters of one chaos pass.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterCounts {
    /// Arrivals dispatched.
    pub dispatched: u64,
    /// Arrivals accepted by a non-primary replica.
    pub redirected: u64,
    /// Arrivals parked in the cluster-wide overflow FIFO.
    pub overflow_queued: u64,
    /// Busiest node's admissions over the mean.
    pub imbalance_ratio: f64,
}

/// Everything one pass produced that the benchmark reads. Every field is
/// a pure function of the cell and its trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Requests offered (trace length).
    pub offered: u64,
    /// Requests admitted into service.
    pub admitted: u64,
    /// Fig. 5 deferrals.
    pub deferred: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Interrupted streams dropped by failover, plus parked entries
    /// still unplaceable at the end (chaos only).
    pub dropped: u64,
    /// Service cycles.
    pub cycles: u64,
    /// Stream services.
    pub services: u64,
    /// Buffer underflows.
    pub underflows: u64,
    /// Peak buffer-pool memory in bits (summed over nodes).
    pub peak_bits: f64,
    /// Initial latency of every admitted request, in seconds.
    pub latencies: Vec<f64>,
    /// Cluster counters (chaos only).
    pub cluster: Option<ClusterCounts>,
    /// Chaos accounting (chaos only).
    pub chaos: Option<ChaosSummary>,
}

fn latencies(stats: &DiskRunStats) -> impl Iterator<Item = f64> + '_ {
    stats.il_samples.iter().map(|s| s.latency.as_secs_f64())
}

/// Replays one built cell over its trace; returns the outcome and the
/// CPU nanoseconds ([`cpu_ns`]) of the replay alone.
pub fn replay<T: Tracer>(
    built: Built,
    arrivals: &[Arrival],
    tr: &mut T,
    parent: u32,
    trace: u32,
) -> (Outcome, u64) {
    let offered = arrivals.len() as u64;
    let t0 = cpu_ns();
    match built {
        Built::Disk(engine) => {
            let stats = replay_disk(*engine, arrivals, tr, parent, trace);
            let ns = cpu_ns() - t0;
            let out = Outcome {
                offered,
                admitted: stats.admitted,
                deferred: stats.deferrals,
                rejected: stats.rejected,
                dropped: 0,
                cycles: stats.cycles,
                services: stats.services,
                underflows: stats.underflows,
                peak_bits: stats.peak_memory.as_f64(),
                latencies: latencies(&stats).collect(),
                cluster: None,
                chaos: None,
            };
            (out, ns)
        }
        Built::Chaos(cluster, cfg) => {
            let s = tr.open(Layer::ChaosRun, parent, trace);
            let report = run_chaos_on(*cluster, &cfg, arrivals, 1);
            tr.close(s);
            let ns = cpu_ns() - t0;
            let c = &report.cluster;
            let out = Outcome {
                offered,
                admitted: c.admitted(),
                deferred: c.deferrals(),
                rejected: c.rejected(),
                dropped: report.summary.dropped + report.summary.unplaceable,
                cycles: c.cycles(),
                services: c.services(),
                underflows: c.underflows(),
                peak_bits: c.peak_memory_bits(),
                latencies: c.nodes.iter().flat_map(|n| latencies(&n.stats)).collect(),
                cluster: Some(ClusterCounts {
                    dispatched: c.dispatched,
                    redirected: c.redirected,
                    overflow_queued: c.overflow_queued,
                    imbalance_ratio: c.imbalance_ratio(),
                }),
                chaos: Some(report.summary),
            };
            (out, ns)
        }
    }
}

impl Outcome {
    /// The per-pass output check: zero underflows, and the conservation
    /// laws of the pass's layer.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated law.
    pub fn check(&self) -> Result<(), String> {
        if self.underflows != 0 {
            return Err(format!("{} buffer underflows", self.underflows));
        }
        match &self.chaos {
            None => {
                if self.admitted + self.rejected != self.offered {
                    return Err(format!(
                        "admitted {} + rejected {} != offered {}",
                        self.admitted, self.rejected, self.offered
                    ));
                }
            }
            Some(ch) => {
                if ch.interrupted != ch.migrated + ch.parked + ch.dropped {
                    return Err(format!(
                        "interrupted {} != migrated {} + parked {} + dropped {}",
                        ch.interrupted, ch.migrated, ch.parked, ch.dropped
                    ));
                }
                if ch.rereplicated > ch.parked {
                    return Err(format!(
                        "rereplicated {} > parked {}",
                        ch.rereplicated, ch.parked
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{NoTrace, SpanLog, ROOT};

    #[test]
    fn static_and_dynamic_paper_days_replay_the_same_six_traces() {
        let dynamic = Plan::new(Kind::PaperDayDynamic, 4);
        let stat = Plan::new(Kind::PaperDayStatic, 4);
        let a = dynamic.generate(&mut NoTrace, ROOT, 0);
        let b = stat.generate(&mut NoTrace, ROOT, 0);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrivals, y.arrivals);
        }
        assert_ne!(a[0].arrivals, a[1].arrivals, "each cell has its own day");
        let cells: Vec<usize> = dynamic.cells.iter().map(|c| c.trace).collect();
        assert_eq!(cells, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_chaos_replay_is_the_same_with_a_registry_and_spans() {
        let mut wl =
            MultiMovieConfig::paper_cluster(CLUSTER_MOVIES, 0.271, 60.0 * CLUSTER_NODES as f64);
        wl.duration = Seconds::from_hours(CLUSTER_HOURS);
        wl.peak = Seconds::from_hours(CLUSTER_HOURS / 2.0);
        let arrivals = multi_movie(&wl, 3).expect("valid config").arrivals;
        let cell = Cell {
            label: "chaos/test".to_owned(),
            trace: 0,
            spec: CellSpec::Chaos(Box::new(failover_config(3))),
        };

        let (built, reg) = build(&cell, false, &mut NoTrace, ROOT, 0);
        assert!(reg.is_none());
        let (plain, _) = replay(built, &arrivals, &mut NoTrace, ROOT, 0);

        let mut log = SpanLog::new();
        let (built, reg) = build(&cell, true, &mut log, ROOT, 0);
        let (traced, _) = replay(built, &arrivals, &mut log, ROOT, 0);
        let snap = reg.expect("registry attached").snapshot();

        assert_eq!(plain, traced);
        plain.check().expect("conservation holds");
        let summary = plain.chaos.as_ref().expect("a chaos pass");
        assert_eq!(summary.faults_injected, 3);
        assert_eq!(summary.cold_rebuilds, 1);
        assert!(snap.histogram(vod_obs::metrics::PHASE_SERVICE).is_some());
        assert!(log.spans().iter().any(|s| s.layer == Layer::ChaosRun));
    }
}
