//! Property tests on the `k_log` estimator: the incremental sliding-window
//! maximum answers exactly what the O(len) two-pointer sweep over the
//! retained arrivals answers, under arbitrary interleavings of records
//! and queries.

use proptest::prelude::*;
use vod_core::ArrivalLog;
use vod_types::{Instant, Seconds};

/// Periods reused across queries. There are more of them than the log
/// keeps window states for, so cycling through the pool both reuses and
/// evicts states.
const POOL: [f64; 11] = [0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 8.0, 13.0];

#[derive(Debug, Clone, Copy)]
enum Period {
    /// `POOL[i % POOL.len()]`.
    Pool(u8),
    /// A period no earlier query is likely to have used.
    Fresh(f64),
    /// Zero or negative: the log must answer 0.
    NonPositive(f64),
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Record at `clock + tenths/10` s. A negative offset can land
    /// before the last record, which the log clamps.
    Record(i16),
    /// Record the last recorded instant again.
    Repeat,
    /// Record `count` arrivals `step_ms` apart, starting at the clock.
    Burst(u8, u8),
    /// Advance the clock by `tenths/10` s (pruning), then query.
    Query(u16, Period),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // The stub `prop_oneof!` picks uniformly, so a repeated arm weighs
    // pool periods and plain records up.
    let period = || {
        prop_oneof![
            (0u8..=255).prop_map(Period::Pool),
            (0u8..=255).prop_map(Period::Pool),
            (0.01f64..20.0).prop_map(Period::Fresh),
            prop_oneof![Just(0.0), -20.0f64..0.0].prop_map(Period::NonPositive),
        ]
    };
    prop::collection::vec(
        prop_oneof![
            (0u8..100).prop_map(|t| Op::Record(i16::from(t) - 50)),
            (0u8..100).prop_map(|t| Op::Record(i16::from(t) - 50)),
            Just(Op::Repeat),
            (1u8..40, 0u8..50).prop_map(|(n, step)| Op::Burst(n, step)),
            (0u16..100, period()).prop_map(|(adv, p)| Op::Query(adv, p)),
            (0u16..100, period()).prop_map(|(adv, p)| Op::Query(adv, p)),
        ],
        0..300,
    )
}

/// The reference: a plain list with the log's clamping and pruning rules
/// and the original two-pointer sweep.
struct Model {
    t_log: Seconds,
    arrivals: Vec<Instant>,
}

impl Model {
    fn record(&mut self, at: Instant) {
        let at = match self.arrivals.last() {
            Some(&last) if at < last => last,
            _ => at,
        };
        self.arrivals.push(at);
    }

    fn k_log(&mut self, now: Instant, period: Seconds) -> usize {
        let horizon = now - self.t_log;
        let keep = self.arrivals.iter().position(|&a| a >= horizon);
        self.arrivals.drain(..keep.unwrap_or(self.arrivals.len()));
        if self.arrivals.is_empty() || period <= Seconds::ZERO {
            return 0;
        }
        let times = &self.arrivals;
        let mut best = 0usize;
        let mut j = 0usize;
        for i in 0..times.len() {
            if j < i {
                j = i;
            }
            while j < times.len() && times[j] - times[i] < period {
                j += 1;
            }
            best = best.max(j - i);
        }
        best
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_k_log_equals_the_sweep(ops in ops(), t_log in 2.0f64..60.0) {
        let t_log = Seconds::from_secs(t_log);
        let mut log = ArrivalLog::new(t_log);
        let mut model = Model { t_log, arrivals: Vec::new() };
        let mut clock = 0.0f64;
        let mut last = Instant::ZERO;
        for op in ops {
            match op {
                Op::Record(tenths) => {
                    let at = Instant::from_secs(clock + f64::from(tenths) / 10.0);
                    log.record(at);
                    model.record(at);
                    last = last.max(at);
                }
                Op::Repeat => {
                    log.record(last);
                    model.record(last);
                }
                Op::Burst(count, step_ms) => {
                    for i in 0..count {
                        let at = Instant::from_secs(
                            clock + f64::from(i) * f64::from(step_ms) / 1000.0,
                        );
                        log.record(at);
                        model.record(at);
                        last = last.max(at);
                    }
                }
                Op::Query(tenths, period) => {
                    clock += f64::from(tenths) / 10.0;
                    let period = Seconds::from_secs(match period {
                        Period::Pool(i) => POOL[usize::from(i) % POOL.len()],
                        Period::Fresh(p) | Period::NonPositive(p) => p,
                    });
                    let now = Instant::from_secs(clock);
                    let want = model.k_log(now, period);
                    prop_assert_eq!(log.k_log(now, period), want, "now {:?} period {:?}", now, period);
                    prop_assert_eq!(log.len(), model.arrivals.len());
                }
            }
        }
    }
}
