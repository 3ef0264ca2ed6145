//! Estimating the number of additional requests (`k_log`, Fig. 5 / Table 1).
//!
//! *Additional requests* at a buffer-allocation time are the user requests
//! that arrive within one service period from that time (Fig. 2). The
//! dynamic scheme estimates how many to expect from recent history:
//! `k_log` is the **maximum** number of arrivals observed in any
//! service-period-long window during the last `T_log` (Table 1), and the
//! estimate used for sizing is `k_log + α` (clamped by Assumption 2 at the
//! admission controller).
//!
//! §5.1 studies the choice of `T_log` (Fig. 7): the paper settles on
//! 40 minutes for Round-Robin and 20 minutes for Sweep\*/GSS\*.
//!
//! # Incremental sliding-window maximum
//!
//! Fig. 5 re-estimates `k_log` at every buffer allocation, so the query
//! sits on the hot path. The densest window starts at an arrival, and a
//! window `[aᵢ, aᵢ + period)` anchored at arrival `aᵢ` only gains members
//! until the first arrival at or past `aᵢ + period` *closes* it; from then
//! on its count is final. Pruning drops whole anchors from the front. So
//! for each period the log keeps:
//!
//! * `open` — the oldest anchor whose window is still open. Every later
//!   anchor is open too, and the oldest holds the most arrivals, so the
//!   open windows contribute `len − open`;
//! * `closed` — a monotone deque of `(anchor, final count)` for the closed
//!   windows, counts strictly decreasing front to back, so its front is the
//!   largest count still retained.
//!
//! `k_log` is the larger of the two. A period's state catches up lazily at
//! query time: each new arrival closes the windows it reaches past, each
//! pruned anchor costs at most one deque pop, so records, prune pops and
//! queries are amortized O(1) for a period already seen. Most queries
//! repeat the last period with no arrival since and the anchor holding
//! the last answer still retained; they return that answer without
//! touching the deques. A period seen for the first time is built in one
//! O(len) pass by the same catch-up, from an empty state.
//!
//! Every comparison is the two-pointer sweep's own test `aⱼ − aᵢ <
//! period` on the same `f64`s. Because rounded subtraction is monotone,
//! that test passes for every pair the sweep counts and fails for every
//! pair it stops at, so the incremental answer is bit-identical to the
//! O(len) sweep ([`sweep_k_log`]), which debug builds re-run on every
//! query as a shadow check.

use std::collections::VecDeque;

use vod_types::{Instant, Seconds};

/// How many periods keep their window state, least recently used evicted
/// first. The service period moves with the stream count, but it keeps
/// returning to a few recent values: on the perfbench `vcr_churn` days,
/// 95.5% (seed 3) and 95.3% (seed 7) of period changes came back to one
/// of the 8 most recently used periods, against 77% for 4.
const PERIOD_SLOTS: usize = 8;

/// A sliding log of request arrival times, answering "what is the largest
/// number of arrivals in any window of length `period` within the last
/// `T_log`?".
#[derive(Clone, Debug)]
pub struct ArrivalLog {
    t_log: Seconds,
    arrivals: VecDeque<Instant>,
    /// Arrivals pruned so far: the absolute index of `arrivals[0]`.
    /// Window states name anchors by absolute index, so pruning never
    /// renumbers them.
    pruned: usize,
    /// Window state of the most recently used periods, most recent first:
    /// empty until the first query, then [`PERIOD_SLOTS`] long. A slot
    /// never used has period 0, which no query matches.
    windows: Vec<Windows>,
}

/// The incremental sliding-window maximum for one period.
#[derive(Clone, Debug, Default)]
struct Windows {
    period: Seconds,
    /// Absolute index one past the last arrival folded in.
    synced: usize,
    /// Absolute index of the oldest anchor whose window is still open.
    open: usize,
    /// `(anchor, final count)` of closed windows: anchors ascending,
    /// counts strictly decreasing.
    closed: VecDeque<(usize, usize)>,
    /// The last answer and the newest anchor whose window holds it. The
    /// answer stands until an arrival is folded in or that anchor is
    /// pruned.
    best: usize,
    best_anchor: usize,
}

impl Windows {
    /// Forgets everything and starts over for `period`, keeping the
    /// deque's buffer.
    fn reset(&mut self, period: Seconds, pruned: usize) {
        self.period = period;
        self.synced = pruned;
        self.open = pruned;
        self.closed.clear();
    }

    /// Folds in the arrivals recorded and pruned since the last call and
    /// returns the largest window count over the retained anchors.
    #[inline(never)]
    fn max_count(&mut self, arrivals: &VecDeque<Instant>, pruned: usize) -> usize {
        let end = pruned + arrivals.len();
        // Anchors pruned since the last call take their windows with them.
        self.open = self.open.max(pruned);
        while self
            .closed
            .front()
            .is_some_and(|&(anchor, _)| anchor < pruned)
        {
            self.closed.pop_front();
        }
        for n in self.synced.max(pruned)..end {
            let at = arrivals[n - pruned];
            while self.open < n {
                if at - arrivals[self.open - pruned] < self.period {
                    break;
                }
                let count = n - self.open;
                while self.closed.back().is_some_and(|&(_, c)| c <= count) {
                    self.closed.pop_back();
                }
                self.closed.push_back((self.open, count));
                self.open += 1;
            }
        }
        self.synced = end;
        (self.best, self.best_anchor) = match self.closed.front() {
            Some(&(anchor, count)) if count > end - self.open => (count, anchor),
            _ => (end - self.open, self.open),
        };
        self.best
    }
}

impl ArrivalLog {
    /// Creates a log with retention horizon `t_log`. Allocates nothing.
    #[must_use]
    pub fn new(t_log: Seconds) -> Self {
        ArrivalLog {
            t_log,
            arrivals: VecDeque::new(),
            pruned: 0,
            windows: Vec::new(),
        }
    }

    /// The retention horizon `T_log`.
    #[must_use]
    pub fn t_log(&self) -> Seconds {
        self.t_log
    }

    /// Records an arrival. Arrivals must be recorded in nondecreasing
    /// time order (they come from a single clock); out-of-order records
    /// are clamped up to maintain the invariant.
    pub fn record(&mut self, at: Instant) {
        let at = match self.arrivals.back() {
            Some(&last) if at < last => last,
            _ => at,
        };
        self.arrivals.push_back(at);
    }

    /// `k_log`: the maximum number of arrivals in any window of length
    /// `period` that starts within the retained horizon `[now − T_log,
    /// now]`. Also prunes entries older than the horizon.
    ///
    /// Windows are anchored at arrivals and half-open `[aᵢ, aᵢ + T)`, so
    /// the anchoring arrival counts itself: the estimate is one higher
    /// than a strict reading of the paper's `(t, t + T]` definition of
    /// additional requests. This is deliberate — it errs conservative
    /// (slightly larger buffers, never smaller), and the workload
    /// calibration in EXPERIMENTS.md is done with this convention.
    ///
    /// Returns 0 when no arrivals are retained or `period` is not
    /// positive.
    pub fn k_log(&mut self, now: Instant, period: Seconds) -> usize {
        self.prune(now);
        // False for a NaN period too, where the sweep counts nothing.
        let positive = period > Seconds::ZERO;
        if !positive || self.arrivals.is_empty() {
            return 0;
        }
        let end = self.pruned + self.arrivals.len();
        let k = match self.windows.first() {
            // The common query: the same period as the last one, no
            // arrival since, and the anchor holding the last answer still
            // retained.
            Some(last)
                if last.period == period
                    && last.synced == end
                    && self.pruned <= last.best_anchor =>
            {
                last.best
            }
            // `promote` and `max_count` stay out of line, so the common
            // query above compiles to a short path without their frame.
            _ => {
                self.promote(period);
                self.windows[0].max_count(&self.arrivals, self.pruned)
            }
        };
        debug_assert_eq!(
            k,
            sweep_k_log(self.arrivals.make_contiguous(), period),
            "incremental k_log diverged from the two-pointer sweep"
        );
        k
    }

    /// Number of retained arrivals (after the last prune).
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when no arrivals are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    fn prune(&mut self, now: Instant) {
        let horizon = now - self.t_log;
        while self.arrivals.front().is_some_and(|&front| front < horizon) {
            self.arrivals.pop_front();
            self.pruned += 1;
        }
    }

    /// Moves the window state for `period` to the front of the recency
    /// order. An unseen period takes over the least recently used slot,
    /// keeping its buffers.
    #[inline(never)]
    fn promote(&mut self, period: Seconds) {
        if self.windows.is_empty() {
            self.windows.resize_with(PERIOD_SLOTS, Windows::default);
        }
        let slot = match self.windows.iter().position(|w| w.period == period) {
            Some(slot) => slot,
            None => {
                self.windows[PERIOD_SLOTS - 1].reset(period, self.pruned);
                PERIOD_SLOTS - 1
            }
        };
        self.windows[..=slot].rotate_right(1);
    }
}

/// The O(len) reference for [`ArrivalLog::k_log`]: the largest number of
/// arrivals in a half-open window `[aᵢ, aᵢ + period)` anchored at any of
/// `times` (nondecreasing), by a two-pointer sweep. Returns 0 for an empty
/// slice or a non-positive period.
#[must_use]
pub fn sweep_k_log(times: &[Instant], period: Seconds) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> Instant {
        Instant::from_secs(secs)
    }

    fn log_with(arrivals: &[f64], t_log_min: f64) -> ArrivalLog {
        let mut log = ArrivalLog::new(Seconds::from_minutes(t_log_min));
        for &a in arrivals {
            log.record(t(a));
        }
        log
    }

    #[test]
    fn empty_log_estimates_zero() {
        let mut log = ArrivalLog::new(Seconds::from_minutes(40.0));
        assert_eq!(log.k_log(t(100.0), Seconds::from_secs(10.0)), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn counts_burst_within_one_period() {
        // 3 arrivals within 5 s, then a lone one much later.
        let mut log = log_with(&[10.0, 12.0, 14.0, 200.0], 40.0);
        assert_eq!(log.k_log(t(210.0), Seconds::from_secs(10.0)), 3);
    }

    #[test]
    fn window_is_half_open() {
        // Arrivals exactly `period` apart are in different windows.
        let mut log = log_with(&[0.0, 10.0, 20.0], 40.0);
        assert_eq!(log.k_log(t(25.0), Seconds::from_secs(10.0)), 1);
        assert_eq!(log.k_log(t(25.0), Seconds::from_secs(10.1)), 2);
    }

    #[test]
    fn prunes_beyond_t_log() {
        let mut log = log_with(&[0.0, 1.0, 2.0], 1.0); // T_log = 1 min
                                                       // At t = 100 s, everything is older than 60 s and pruned.
        assert_eq!(log.k_log(t(100.0), Seconds::from_secs(10.0)), 0);
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn longer_t_log_retains_bigger_bursts() {
        // A big burst 30 min ago: visible with T_log = 40 min, invisible
        // with T_log = 10 min. This is the Fig. 7 trade-off.
        let burst = [0.0, 1.0, 2.0, 3.0, 4.0];
        let now = t(30.0 * 60.0);
        let period = Seconds::from_secs(30.0);

        let mut long = log_with(&burst, 40.0);
        long.record(now - Seconds::from_secs(1.0));
        assert_eq!(long.k_log(now, period), 5);

        let mut short = log_with(&burst, 10.0);
        short.record(now - Seconds::from_secs(1.0));
        assert_eq!(short.k_log(now, period), 1);
    }

    #[test]
    fn longer_period_never_decreases_k_log() {
        let mut log = log_with(&[3.0, 9.0, 14.0, 15.0, 33.0, 50.0], 40.0);
        let now = t(60.0);
        let mut prev = 0;
        for p in 1..=60 {
            let k = log.k_log(now, Seconds::from_secs(f64::from(p)));
            assert!(k >= prev, "k_log not monotone in period at {p}s");
            prev = k;
        }
        assert_eq!(prev, 6);
    }

    #[test]
    fn incremental_k_log_matches_fresh_log() {
        // Interleave records, repeated queries (cached window state), and
        // queries that force pruning; every answer must match a fresh
        // log's.
        let arrivals = [3.0, 9.0, 14.0, 15.0, 33.0, 50.0, 70.0, 70.0, 90.0];
        let mut live = ArrivalLog::new(Seconds::from_secs(45.0));
        // Queries use a monotone clock so the fresh log's single prune
        // reaches the same horizon as the live log's prune history.
        let mut clock = 0.0f64;
        for (i, &a) in arrivals.iter().enumerate() {
            live.record(t(a));
            for q in 0..4 {
                clock = clock.max(a + f64::from(q) * 7.0);
                let now = t(clock);
                let period = Seconds::from_secs(if q % 2 == 0 { 10.0 } else { 25.0 });
                let mut fresh = ArrivalLog::new(Seconds::from_secs(45.0));
                for &b in &arrivals[..=i] {
                    fresh.record(t(b));
                }
                let want = fresh.k_log(now, period);
                assert_eq!(live.k_log(now, period), want, "at={a} q={q}");
            }
        }
    }

    #[test]
    fn evicted_period_is_rebuilt_exactly() {
        // Cycle through more periods than there are slots, so every
        // query after the first lap rebuilds an evicted state.
        let arrivals = [1.0, 2.0, 2.5, 4.0, 9.0, 9.5, 10.0, 10.2].map(t);
        let mut log = ArrivalLog::new(Seconds::from_minutes(40.0));
        for &a in &arrivals {
            log.record(a);
        }
        for lap in 0..3 {
            for p in 1..=PERIOD_SLOTS + 3 {
                let period = Seconds::from_secs(0.5 * p as f64);
                let want = sweep_k_log(&arrivals, period);
                assert_eq!(log.k_log(t(11.0), period), want, "lap {lap} period {p}");
            }
        }
        assert!(log.windows.iter().all(|w| w.period > Seconds::ZERO));
    }

    #[test]
    fn non_positive_and_nan_periods_estimate_zero() {
        let mut log = log_with(&[1.0, 2.0], 40.0);
        for period in [0.0, -1.0, f64::NAN] {
            assert_eq!(log.k_log(t(3.0), Seconds::from_secs(period)), 0);
        }
        assert!(log.windows.iter().all(|w| w.period == Seconds::ZERO));
    }

    #[test]
    fn out_of_order_records_are_clamped() {
        let mut log = ArrivalLog::new(Seconds::from_minutes(40.0));
        log.record(t(10.0));
        log.record(t(5.0)); // clamped to 10.0
        assert_eq!(log.k_log(t(11.0), Seconds::from_secs(1.0)), 2);
    }
}
