//! Statistics recorders: bucketed time series, busy-time trackers, rate
//! meters, and scalar summaries.

use crate::SimTime;

/// A time series that accumulates samples into fixed-width time buckets.
///
/// Figure 10 in the paper reports compute/network utilization averaged over
/// 1 K-cycle windows; `TimeSeries` reproduces that bucketing.
///
/// ```
/// use ace_simcore::{SimTime, TimeSeries};
/// let mut ts = TimeSeries::new(1000);
/// ts.add(SimTime::from_cycles(100), 1.0);
/// ts.add(SimTime::from_cycles(900), 1.0);
/// ts.add(SimTime::from_cycles(1500), 4.0);
/// assert_eq!(ts.bucket_totals(), vec![2.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket_cycles: u64,
    buckets: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_cycles` is zero.
    pub fn new(bucket_cycles: u64) -> Self {
        assert!(bucket_cycles > 0, "bucket width must be positive");
        TimeSeries {
            bucket_cycles,
            buckets: Vec::new(),
        }
    }

    /// Bucket width in cycles.
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// Adds `value` to the bucket containing time `at`.
    pub fn add(&mut self, at: SimTime, value: f64) {
        let idx = (at.cycles() / self.bucket_cycles) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += value;
    }

    /// Spreads `value` uniformly over the interval `[start, end)`, crediting
    /// each bucket in proportion to its overlap with the interval.
    ///
    /// A zero-width interval carries no time and therefore contributes
    /// nothing. The final segment receives `value` minus everything already
    /// credited, so the per-bucket contributions sum to `value` *exactly*
    /// instead of drifting by f64 rounding.
    pub fn add_interval(&mut self, start: SimTime, end: SimTime, value: f64) {
        if end <= start {
            return;
        }
        let total = (end - start) as f64;
        let mut emitted = 0.0;
        let mut cursor = start.cycles();
        while cursor < end.cycles() {
            let bucket_end = (cursor / self.bucket_cycles + 1) * self.bucket_cycles;
            let seg_end = bucket_end.min(end.cycles());
            let credit = if seg_end == end.cycles() {
                // Last segment: close the books exactly.
                value - emitted
            } else {
                value * ((seg_end - cursor) as f64 / total)
            };
            emitted += credit;
            self.add(SimTime::from_cycles(cursor), credit);
            cursor = seg_end;
        }
    }

    /// Credits each bucket overlapping `[start, end)` with its overlap
    /// width in cycles — the busy-time accounting used by link-utilization
    /// meters. Equivalent to `add_interval(start, end, (end - start) as
    /// f64)` but with pure integer segment arithmetic on the hot path.
    pub fn add_busy(&mut self, start: SimTime, end: SimTime) {
        let mut cursor = BucketCursor::default();
        self.add_busy_at(&mut cursor, start, end);
    }

    /// Like [`add_busy`](TimeSeries::add_busy), but caches the last bucket
    /// written in `cur`. For a near-monotone interval stream (e.g. one
    /// FIFO link's grants, whose starts never move backwards by more than
    /// the sub-cycle rounding of the previous end) the common same-bucket
    /// case then needs no division at all, which matters when this runs
    /// once per simulated message. The cursor is purely a cache: any
    /// stream stays correct, a miss just pays the division.
    pub fn add_busy_at(&mut self, cur: &mut BucketCursor, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        let mut s = start.cycles();
        let e = end.cycles();
        while s < e {
            if s >= cur.end || s + self.bucket_cycles < cur.end {
                // Outside the cached bucket (or cold cursor): locate the
                // bucket by division once.
                cur.idx = s / self.bucket_cycles;
                cur.end = (cur.idx + 1) * self.bucket_cycles;
            }
            if cur.idx as usize >= self.buckets.len() {
                self.buckets.resize(cur.idx as usize + 1, 0.0);
            }
            let seg = e.min(cur.end);
            self.buckets[cur.idx as usize] += (seg - s) as f64;
            if seg == cur.end {
                // Roll to the next bucket without dividing.
                cur.idx += 1;
                cur.end += self.bucket_cycles;
            }
            s = seg;
        }
    }

    /// Per-bucket totals, one entry per bucket from time zero.
    pub fn bucket_totals(&self) -> Vec<f64> {
        self.buckets.clone()
    }

    /// Per-bucket averages assuming `value` entries are per-cycle rates.
    pub fn bucket_means(&self) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|v| v / self.bucket_cycles as f64)
            .collect()
    }

    /// Number of buckets recorded.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Sum across all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }
}

/// Remembers the last [`TimeSeries`] bucket written by one monotone
/// interval stream, so consecutive writes into the same bucket skip the
/// index division (see [`TimeSeries::add_busy_at`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BucketCursor {
    /// Cached bucket index.
    idx: u64,
    /// Exclusive cycle bound of the cached bucket (0 = cold).
    end: u64,
}

/// Tracks the busy fraction of a resource by accumulating disjoint busy
/// intervals. Overlapping intervals are merged at insertion cost O(1) by
/// clamping to the furthest end seen, so it is exact for the FIFO servers
/// whose busy intervals never overlap.
#[derive(Debug, Clone, Default)]
pub struct UtilizationTracker {
    busy: u64,
    frontier: SimTime,
    last_end: SimTime,
}

impl UtilizationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval `[start, end)`. Portions overlapping earlier
    /// intervals are not double-counted.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        let start = start.max(self.frontier);
        if end > start {
            self.busy += end - start;
            self.frontier = end;
        }
        self.last_end = self.last_end.max(end);
    }

    /// Total busy cycles recorded.
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }

    /// End of the latest interval seen.
    pub fn horizon(&self) -> SimTime {
        self.last_end
    }

    /// Busy fraction over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.cycles() == 0 {
            return 0.0;
        }
        (self.busy as f64 / horizon.cycles() as f64).min(1.0)
    }
}

/// Measures achieved throughput: bytes moved over an observation window.
#[derive(Debug, Clone, Default)]
pub struct RateMeter {
    bytes: u64,
    first: Option<SimTime>,
    last: SimTime,
}

impl RateMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` completing at time `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        self.bytes += bytes;
        if self.first.is_none() {
            self.first = Some(at);
        }
        self.last = self.last.max(at);
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Achieved bytes/cycle over `[0, end-of-window]`.
    pub fn rate(&self) -> f64 {
        if self.last.cycles() == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.last.cycles() as f64
    }

    /// End of the observation window.
    pub fn window_end(&self) -> SimTime {
        self.last
    }
}

/// Running scalar summary: count, mean, min, max.
///
/// ```
/// use ace_simcore::Summary;
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] { s.add(v); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum sample.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "empty summary has no min");
        self.min
    }

    /// Maximum sample.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "empty summary has no max");
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeseries_buckets_samples() {
        let mut ts = TimeSeries::new(10);
        ts.add(SimTime::from_cycles(0), 1.0);
        ts.add(SimTime::from_cycles(9), 1.0);
        ts.add(SimTime::from_cycles(10), 5.0);
        assert_eq!(ts.bucket_totals(), vec![2.0, 5.0]);
        assert_eq!(ts.total(), 7.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn timeseries_interval_split_proportionally() {
        let mut ts = TimeSeries::new(10);
        // Interval [5, 25) = 20 cycles: 5 in bucket 0, 10 in bucket 1, 5 in bucket 2.
        ts.add_interval(SimTime::from_cycles(5), SimTime::from_cycles(25), 20.0);
        let t = ts.bucket_totals();
        assert_eq!(t, vec![5.0, 10.0, 5.0]);
    }

    #[test]
    fn timeseries_degenerate_interval_contributes_nothing() {
        // A zero-width interval carries no time: crediting the full value
        // to `[start, start)` would invent mass out of nothing.
        let mut ts = TimeSeries::new(10);
        ts.add_interval(SimTime::from_cycles(3), SimTime::from_cycles(3), 2.0);
        assert!(ts.is_empty());
        ts.add_interval(SimTime::from_cycles(9), SimTime::from_cycles(3), 2.0);
        assert!(ts.is_empty());
    }

    #[test]
    fn timeseries_interval_mass_is_conserved_exactly() {
        // The per-bucket contributions must sum to the value *exactly* —
        // awkward widths whose per-segment fractions are not representable
        // in binary would otherwise drift by f64 rounding.
        let mut ts = TimeSeries::new(7);
        let value = 0.1 + 0.2; // deliberately non-representable
        ts.add_interval(SimTime::from_cycles(3), SimTime::from_cycles(46), value);
        assert_eq!(ts.total(), value, "residual must close the books");
        let mut ts = TimeSeries::new(1000);
        let mut expected = 0.0;
        for i in 0..100u64 {
            let v = 1.0 / (i + 3) as f64;
            ts.add_interval(
                SimTime::from_cycles(i * 137),
                SimTime::from_cycles(i * 137 + 2501),
                v,
            );
            expected += v;
        }
        assert!(
            (ts.total() - expected).abs() < 1e-12 * expected,
            "accumulated drift: {} vs {}",
            ts.total(),
            expected
        );
    }

    #[test]
    fn timeseries_add_busy_matches_add_interval() {
        let mut a = TimeSeries::new(10);
        let mut b = TimeSeries::new(10);
        for (s, e) in [(5u64, 25u64), (25, 26), (99, 131), (7, 7)] {
            a.add_busy(SimTime::from_cycles(s), SimTime::from_cycles(e));
            b.add_interval(
                SimTime::from_cycles(s),
                SimTime::from_cycles(e),
                e.saturating_sub(s) as f64,
            );
        }
        assert_eq!(a.bucket_totals(), b.bucket_totals());
    }

    #[test]
    fn timeseries_means_divide_by_width() {
        let mut ts = TimeSeries::new(4);
        ts.add(SimTime::from_cycles(0), 2.0);
        assert_eq!(ts.bucket_means(), vec![0.5]);
    }

    #[test]
    fn utilization_tracker_merges_overlap() {
        let mut u = UtilizationTracker::new();
        u.record(SimTime::from_cycles(0), SimTime::from_cycles(10));
        u.record(SimTime::from_cycles(5), SimTime::from_cycles(15));
        assert_eq!(u.busy_cycles(), 15);
        assert!((u.utilization(SimTime::from_cycles(30)) - 0.5).abs() < 1e-9);
        assert_eq!(u.horizon(), SimTime::from_cycles(15));
    }

    #[test]
    fn utilization_tracker_ignores_contained_intervals() {
        let mut u = UtilizationTracker::new();
        u.record(SimTime::from_cycles(0), SimTime::from_cycles(100));
        u.record(SimTime::from_cycles(10), SimTime::from_cycles(20));
        assert_eq!(u.busy_cycles(), 100);
    }

    #[test]
    fn rate_meter_reports_throughput() {
        let mut m = RateMeter::new();
        m.record(SimTime::from_cycles(50), 100);
        m.record(SimTime::from_cycles(100), 100);
        assert_eq!(m.bytes(), 200);
        assert!((m.rate() - 2.0).abs() < 1e-9);
        assert_eq!(m.window_end(), SimTime::from_cycles(100));
    }

    #[test]
    fn empty_rate_meter_is_zero() {
        let m = RateMeter::new();
        assert_eq!(m.rate(), 0.0);
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        s.add(3.0);
        s.add(-1.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 1.0);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn empty_summary_mean_is_zero() {
        assert_eq!(Summary::new().mean(), 0.0);
    }
}
