//! Throughput of the simulators: buffer-level engine runs (one simulated
//! hour, per scheme × method) and the admission-level capacity simulator.
//! These time the code paths every figure regeneration exercises.
//!
//! The `admission_bound` and `cycle_plan` groups microbenchmark the
//! incremental hot-path structures at n ∈ {10, 100, 1000}: the counting
//! multiset behind the O(1) Assumption-1/2 admission bound, the
//! generational slab behind the stream store, and the short-circuiting
//! order repair behind the per-cycle position sort. The `estimator`
//! group sets the incremental `k_log` sliding-window maximum against the
//! O(len) two-pointer sweep it replaced. (A real controller
//! tops out at the paper's N = 79 concurrent streams, so the scaling
//! points above that drive the structures directly — the same code the
//! engine runs, minus the simulation around it.)

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vod_core::estimator::sweep_k_log;
use vod_core::{AdmissionController, ArrivalLog, MinMultiset, SchemeKind, SizeTable, SystemParams};
use vod_sched::SchedulingMethod;
use vod_sim::{CapacityConfig, CapacitySim, DiskEngine, EngineConfig, Slab};
use vod_types::{Bits, Instant, RequestId, Seconds};
use vod_workload::{generate, Workload, WorkloadConfig};

fn one_hour_workload(seed: u64) -> Workload {
    let mut cfg = WorkloadConfig::paper_single_disk(1.0, 40.0);
    cfg.duration = Seconds::from_hours(1.0);
    cfg.peak = Seconds::from_minutes(30.0);
    generate(&cfg, seed).expect("valid workload")
}

fn bench_engine(c: &mut Criterion) {
    let workload = one_hour_workload(1);
    let mut group = c.benchmark_group("disk_engine_1h");
    group.sample_size(10);
    for scheme in [SchemeKind::Static, SchemeKind::Dynamic] {
        for method in SchedulingMethod::paper_methods() {
            group.bench_function(format!("{}_{}", scheme.label(), method.label()), |b| {
                b.iter(|| {
                    let engine = DiskEngine::new(EngineConfig::paper(method, scheme))
                        .expect("valid engine config");
                    black_box(engine.run(&workload.arrivals))
                })
            });
        }
    }
    group.finish();
}

fn bench_capacity_sim(c: &mut Criterion) {
    let mut cfg = WorkloadConfig::paper_ten_disk(0.5, 5_000.0);
    cfg.duration = Seconds::from_hours(6.0);
    cfg.peak = Seconds::from_hours(2.0);
    let workload = generate(&cfg, 2).expect("valid workload");
    let mut group = c.benchmark_group("capacity_sim_10disk");
    group.sample_size(20);
    for scheme in [SchemeKind::Static, SchemeKind::Dynamic] {
        group.bench_function(scheme.label(), |b| {
            let sim = CapacitySim::new(CapacityConfig {
                params: SystemParams::paper_defaults(SchedulingMethod::RoundRobin),
                scheme,
                disks: 10,
                total_memory: Bits::from_gigabytes(4.0),
                t_log: Seconds::from_minutes(40.0),
            })
            .expect("valid capacity config");
            b.iter(|| black_box(sim.run(&workload)))
        });
    }
    group.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    let cfg = WorkloadConfig::paper_single_disk(0.0, 1440.0);
    c.bench_function("workload_generate_24h", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(generate(&cfg, seed).expect("valid workload"))
        })
    });
}

/// The admission-bound query path: one allocate-shaped update (remove
/// old bound, insert new) followed by the min query, against a multiset
/// holding `n` outstanding `(n_i + k_i)` bounds.
fn bench_admission_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_bound");
    for n in [10usize, 100, 1000] {
        let mut agg = MinMultiset::new();
        for i in 0..n {
            // Bound values cluster the way real allocations do: n + k
            // with k small relative to n.
            agg.insert(n + i % 7);
        }
        let mut i = 0usize;
        group.bench_function(format!("multiset_update_query/{n}"), |b| {
            b.iter(|| {
                let old = n + i % 7;
                let new = n + (i + 1) % 7;
                agg.remove(old);
                agg.insert(new);
                i += 1;
                black_box(agg.min())
            })
        });
    }
    // The full controller at paper load: every active stream holds an
    // allocation, then the bound is queried the way `plan_cycle_start`
    // queries it.
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let n = params.max_requests();
    let mut ctl =
        AdmissionController::new(params, Seconds::from_minutes(40.0)).expect("valid params");
    let period = Seconds::from_secs(2.0);
    for i in 0..u64::try_from(n).expect("small n") {
        let id = RequestId::new(i);
        ctl.note_arrival(Instant::from_secs(i as f64 * 0.05));
        if ctl.can_admit() {
            ctl.admit(id).expect("under bound");
            let _ = ctl.allocate(id, Instant::from_secs(i as f64 * 0.05 + 0.01), period);
        }
    }
    group.bench_function(format!("controller_full_load/{n}"), |b| {
        b.iter(|| black_box(ctl.admission_bound()))
    });
    group.finish();
}

/// The cycle-planning data layer: slab access churn (the per-service
/// lookup pattern) and order repair (the already-sorted check plus the
/// stable `total_cmp` fallback after a positional perturbation).
fn bench_cycle_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle_plan");
    for n in [10usize, 100, 1000] {
        let mut slab: Slab<u64> = Slab::new();
        let slots: Vec<_> = (0..n as u64).map(|v| slab.insert(v)).collect();
        group.bench_function(format!("slab_scan/{n}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &s in &slots {
                    acc = acc.wrapping_add(*slab.get(s).expect("live"));
                }
                black_box(acc)
            })
        });
        group.bench_function(format!("slab_churn/{n}"), |b| {
            let mut cursor = 0usize;
            b.iter(|| {
                let mut local = slab.clone();
                let victim = slots[cursor % n];
                cursor += 1;
                local.remove(victim);
                black_box(local.insert(u64::MAX))
            })
        });
        // Order repair: ranks are stable across cycles, so the common
        // case is one O(n) sortedness check; the fallback is a stable
        // sort over the scratch pairs.
        let sorted: Vec<(f64, usize)> = (0..n).map(|i| (i as f64, i)).collect();
        group.bench_function(format!("order_repair_sorted/{n}"), |b| {
            b.iter(|| black_box(sorted.windows(2).all(|w| w[0].0 <= w[1].0)))
        });
        group.bench_function(format!("order_repair_resort/{n}"), |b| {
            b.iter(|| {
                let mut scratch = sorted.clone();
                // One newcomer bubbled in out of position.
                scratch[n / 2].0 = -1.0;
                if !scratch.windows(2).all(|w| w[0].0 <= w[1].0) {
                    scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
                }
                black_box(scratch.len())
            })
        });
    }
    group.finish();
}

/// The idle engine's next-interesting-time computation (DESIGN §11): a
/// peek at the departure/deferral-due heap head plus a min over the
/// three event candidates. This is the whole per-jump cost the
/// fast-forward path pays in place of a hop-by-hop idle scan, measured
/// against the heap population it peeks over.
fn bench_fast_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("fast_forward");
    for n in [10usize, 100, 1000] {
        // Same shape as the engine's due heap: (due instant, id, slot)
        // min-heap via `Reverse`. The horizon only ever *peeks*.
        let heap: BinaryHeap<Reverse<(Instant, u64, usize)>> = (0..n)
            .map(|i| Reverse((Instant::from_secs(10.0 + i as f64 * 0.37), i as u64, i)))
            .collect();
        let next_arrival = Instant::from_secs(42.0);
        let deferral_slot = Instant::from_secs(17.5);
        group.bench_function(format!("next_event_horizon/{n}"), |b| {
            b.iter(|| {
                let mut horizon = black_box(next_arrival);
                if let Some(&Reverse((due, _, _))) = heap.peek() {
                    horizon = horizon.min(due);
                }
                horizon = horizon.min(black_box(deferral_slot));
                black_box(horizon)
            })
        });
    }
    group.finish();
}

/// The shared BS_k table cache's hit path: n nodes of a cluster cell
/// booting with identical `SystemParams` resolve n `Arc` clones of one
/// memoized table instead of n `O(N²)` builds. n = 1000 models repeated
/// engine construction across a whole bench matrix.
fn bench_table_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_cache");
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    // Prime the process-wide memo so every measured call is a hit.
    let primed = SizeTable::shared(&params);
    black_box(primed.max_requests());
    for n in [10usize, 100, 1000] {
        group.bench_function(format!("n_node_startup/{n}"), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for _ in 0..n {
                    total += black_box(SizeTable::shared(&params)).max_requests();
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

/// The Fig. 5 `k_log` query over `len` retained arrivals. Each
/// iteration records one arrival, queries at its instant (which prunes
/// the oldest) and moves on to the next of three periods: every query
/// sees a changed retained set and a changed period. `sweep` rescans
/// the log each time; `incremental` is `ArrivalLog`.
fn bench_estimator(c: &mut Criterion) {
    const GAP_S: f64 = 0.5;
    // Jittered arrivals, still increasing, so window counts vary.
    let at = |i: usize| Instant::from_secs(i as f64 * GAP_S + (i * 7 % 5) as f64 * 0.09);
    let periods = [2.0, 3.5, 5.0].map(Seconds::from_secs);
    let mut group = c.benchmark_group("estimator/k_log");
    for len in [100usize, 1_000, 5_000] {
        let t_log = Seconds::from_secs(len as f64 * GAP_S);
        group.bench_function(format!("sweep/{len}"), |b| {
            let mut log: VecDeque<Instant> = (0..len).map(at).collect();
            let mut i = len;
            b.iter(|| {
                let now = at(i);
                log.push_back(now);
                while log.front().is_some_and(|&a| a < now - t_log) {
                    log.pop_front();
                }
                i += 1;
                black_box(sweep_k_log(log.make_contiguous(), periods[i % 3]))
            })
        });
        group.bench_function(format!("incremental/{len}"), |b| {
            let mut log = ArrivalLog::new(t_log);
            for j in 0..len {
                log.record(at(j));
            }
            let mut i = len;
            b.iter(|| {
                let now = at(i);
                log.record(now);
                i += 1;
                black_box(log.k_log(now, periods[i % 3]))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_capacity_sim,
    bench_workload_generation,
    bench_admission_bound,
    bench_cycle_plan,
    bench_fast_forward,
    bench_table_cache,
    bench_estimator
);
criterion_main!(benches);
