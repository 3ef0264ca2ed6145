//! The benchmark's timing boundaries never change what is simulated.
//!
//! The benchmark drives each engine with `advance_to`/`offer`/`finish`
//! so it can time the calls; these tests pin that the stepped driver
//! reproduces `DiskEngine::run` exactly, with and without a registry
//! and spans, and that a recorded seed passes the output check.

use std::sync::Arc;

use vod_core::SchemeKind;
use vod_obs::{Metrics, MetricsRegistry, Obs};
use vod_perfbench::bench;
use vod_perfbench::span::{Layer, NoTrace, SpanLog, ROOT};
use vod_perfbench::workload::{replay_disk, Kind};
use vod_sched::SchedulingMethod;
use vod_sim::{DiskEngine, EngineConfig};
use vod_types::Seconds;
use vod_workload::{generate, with_vcr_actions, Arrival, VcrConfig, WorkloadConfig};

/// A 3-hour day peaking at hour 1, busy enough to reject at the peak,
/// optionally rewritten with VCR actions.
fn short_trace(seed: u64, vcr: bool) -> Vec<Arrival> {
    let mut cfg = WorkloadConfig::paper_single_disk(0.0, 240.0);
    cfg.duration = Seconds::from_hours(3.0);
    cfg.peak = Seconds::from_hours(1.0);
    let base = generate(&cfg, seed).expect("valid workload config");
    if vcr {
        let vcr_cfg = VcrConfig {
            actions_per_hour: 30.0,
            min_segment: Seconds::from_secs(1.0),
        };
        with_vcr_actions(&base, vcr_cfg, seed)
            .expect("valid VCR config")
            .arrivals
    } else {
        base.arrivals
    }
}

fn engine(cfg: &EngineConfig, registry: bool) -> DiskEngine {
    let obs = if registry {
        Obs::null().with_metrics(Metrics::new(Arc::new(MetricsRegistry::new())))
    } else {
        Obs::null()
    };
    DiskEngine::with_observer(cfg.clone(), obs).expect("paper config validates")
}

#[test]
fn stepped_driver_reproduces_run_for_every_scheme() {
    let schemes = [
        SchemeKind::Static,
        SchemeKind::StaticMaxUse,
        SchemeKind::NaiveDynamic,
        SchemeKind::Dynamic,
    ];
    for vcr in [false, true] {
        let arrivals = short_trace(7, vcr);
        for scheme in schemes {
            for method in SchedulingMethod::paper_methods() {
                let cfg = EngineConfig::paper(method, scheme);
                let want = engine(&cfg, false).run(&arrivals);
                assert!(want.rejected > 0 || vcr, "the short day must saturate");

                let stepped = replay_disk(engine(&cfg, false), &arrivals, &mut NoTrace, ROOT, 0);
                assert_eq!(stepped, want, "{scheme:?}/{} vcr={vcr}", method.label());

                let mut log = SpanLog::new();
                let traced = replay_disk(engine(&cfg, true), &arrivals, &mut log, ROOT, 0);
                assert_eq!(traced, want, "{scheme:?}/{} traced", method.label());
                let count = |layer| log.spans().iter().filter(|s| s.layer == layer).count();
                assert_eq!(count(Layer::SimAdvance), arrivals.len());
                assert_eq!(count(Layer::SimOffer), arrivals.len());
                assert_eq!(count(Layer::SimFinish), 1);
            }
        }
    }
}

#[test]
fn a_recorded_seed_passes_the_output_check_twice_with_equal_quality() {
    let run = || bench::run(Kind::VcrChurn, 1, 0.0, false).expect("run completes");
    let (a, b) = (run(), run());
    assert!(a.correct, "{:?}", a.failure);
    assert!(b.correct, "{:?}", b.failure);
    let modelled = |r: &bench::Report| -> Vec<(&str, u64)> {
        r.metrics
            .iter()
            .filter(|m| ["served_frac", "peak_buffer_mib"].contains(&m.name))
            .map(|m| (m.name, m.value.to_bits()))
            .collect()
    };
    assert_eq!(modelled(&a).len(), 2);
    assert_eq!(modelled(&a), modelled(&b));
}
