//! Named atomic counters and fixed-bin histograms.
//!
//! A [`MetricsRegistry`] is built once with a fixed schema (registration
//! order is the schema), updated with relaxed atomics from whichever
//! thread runs the cell, and read out as a plain-data
//! [`RegistrySnapshot`]. Snapshots merge by summation, which commutes —
//! the experiment engine merges per-cell snapshots in cell order, so the
//! merged telemetry of an N-thread grid is identical to a 1-thread grid.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bin histogram over `[lo, hi]` with under/overflow bins.
///
/// Bin `i` covers `[lo + i·w, lo + (i+1)·w)` for width `w = (hi−lo)/n`;
/// the top edge `hi` is inclusive in the last bin (so a duty of exactly
/// 1.0 lands in the top bin, not in overflow). Non-finite values count as
/// overflow.
#[derive(Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Box<[AtomicU64]>,
    underflow: AtomicU64,
    overflow: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or the range is empty/non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad histogram range");
        Histogram {
            lo,
            hi,
            bins: (0..bins).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, value: f64) {
        if !value.is_finite() || value > self.hi {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else if value < self.lo {
            self.underflow.fetch_add(1, Ordering::Relaxed);
        } else {
            let n = self.bins.len();
            let frac = (value - self.lo) / (self.hi - self.lo);
            let idx = ((frac * n as f64) as usize).min(n - 1);
            self.bins[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            lo: self.lo,
            hi: self.hi,
            bins: self.bins.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            underflow: self.underflow.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data histogram state: bin counts plus the range geometry.
#[derive(Clone, PartialEq, Debug)]
pub struct HistogramSnapshot {
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Upper (inclusive) edge of the last bin.
    pub hi: f64,
    /// In-range bin counts.
    pub bins: Vec<u64>,
    /// Values below `lo`.
    pub underflow: u64,
    /// Values above `hi` (and non-finite values).
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// Total recorded values, including under/overflow.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Midpoint of bin `i`.
    pub fn bin_mid(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Approximate `p`-quantile (`0.0..=1.0`) as a bin midpoint;
    /// underflow counts as `lo`, overflow as `hi`. `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        for (i, &b) in self.bins.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(self.bin_mid(i));
            }
        }
        Some(self.hi)
    }

    /// Adds another snapshot's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "histogram geometry mismatch"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

/// A fixed-schema set of named counters and histograms.
///
/// Names are `&'static str`; registration order defines iteration and
/// snapshot order, so snapshots from registries built by the same
/// constructor always line up.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, Counter)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry; chain [`with_counter`](Self::with_counter) /
    /// [`with_histogram`](Self::with_histogram) to build the schema.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds a counter to the schema.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name.
    pub fn with_counter(mut self, name: &'static str) -> MetricsRegistry {
        assert!(
            self.counters.iter().all(|(n, _)| *n != name),
            "duplicate counter {name:?}"
        );
        self.counters.push((name, Counter::new()));
        self
    }

    /// Adds a histogram to the schema.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or bad geometry.
    pub fn with_histogram(
        mut self,
        name: &'static str,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> MetricsRegistry {
        assert!(
            self.histograms.iter().all(|(n, _)| *n != name),
            "duplicate histogram {name:?}"
        );
        self.histograms.push((name, Histogram::new(lo, hi, bins)));
        self
    }

    /// The counter registered as `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such counter exists.
    pub fn counter(&self, name: &str) -> &Counter {
        &self
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no counter {name:?}"))
            .1
    }

    /// Index of the histogram registered as `name`, for O(1) hot-loop
    /// access via [`histogram_at`](Self::histogram_at).
    ///
    /// # Panics
    ///
    /// Panics if no such histogram exists.
    pub fn histogram_index(&self, name: &str) -> usize {
        self.histograms
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no histogram {name:?}"))
    }

    /// The histogram at a [`histogram_index`](Self::histogram_index).
    pub fn histogram_at(&self, index: usize) -> &Histogram {
        &self.histograms[index].1
    }

    /// The histogram registered as `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such histogram exists.
    pub fn histogram(&self, name: &str) -> &Histogram {
        self.histogram_at(self.histogram_index(name))
    }

    /// A plain-data copy of every metric, in registration order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self.counters.iter().map(|(n, c)| (*n, c.get())).collect(),
            histograms: self.histograms.iter().map(|(n, h)| (*n, h.snapshot())).collect(),
        }
    }
}

/// Plain-data registry state; merges by summation, deterministically.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` per counter, in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, state)` per histogram, in registration order.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// The value of counter `name`, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    /// The snapshot of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Adds another snapshot's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the schemas differ.
    pub fn merge_from(&mut self, other: &RegistrySnapshot) {
        assert_eq!(self.counters.len(), other.counters.len(), "counter schema mismatch");
        for ((an, av), (bn, bv)) in self.counters.iter_mut().zip(&other.counters) {
            assert_eq!(*an, *bn, "counter schema mismatch");
            *av += bv;
        }
        assert_eq!(self.histograms.len(), other.histograms.len(), "histogram schema mismatch");
        for ((an, ah), (bn, bh)) in self.histograms.iter_mut().zip(&other.histograms) {
            assert_eq!(*an, *bn, "histogram schema mismatch");
            ah.merge_from(bh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new()
            .with_counter("cycles")
            .with_counter("samples")
            .with_histogram("temp", 100.0, 120.0, 20)
    }

    #[test]
    fn counters_accumulate() {
        let r = registry();
        r.counter("cycles").add(10);
        r.counter("cycles").add(1);
        assert_eq!(r.counter("cycles").get(), 11);
        assert_eq!(r.counter("samples").get(), 0);
    }

    #[test]
    fn histogram_bins_values_with_inclusive_top_edge() {
        let h = Histogram::new(0.0, 1.0, 8);
        h.record(0.0); // bin 0
        h.record(0.99); // bin 7
        h.record(1.0); // top edge: bin 7, not overflow
        h.record(1.01); // overflow
        h.record(-0.1); // underflow
        h.record(f64::NAN); // overflow
        let s = h.snapshot();
        assert_eq!(s.bins[0], 1);
        assert_eq!(s.bins[7], 2);
        assert_eq!(s.overflow, 2);
        assert_eq!(s.underflow, 1);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn quantiles_walk_the_bins() {
        let h = Histogram::new(0.0, 10.0, 10);
        for _ in 0..90 {
            h.record(1.5);
        }
        for _ in 0..10 {
            h.record(8.5);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(1.5));
        assert_eq!(s.quantile(0.95), Some(8.5));
        assert_eq!(Histogram::new(0.0, 1.0, 2).snapshot().quantile(0.5), None);
    }

    #[test]
    fn snapshots_merge_by_summation() {
        let a = registry();
        let b = registry();
        a.counter("cycles").add(5);
        b.counter("cycles").add(7);
        a.histogram("temp").record(105.0);
        b.histogram("temp").record(105.0);
        b.histogram("temp").record(119.9);
        let mut m = a.snapshot();
        m.merge_from(&b.snapshot());
        assert_eq!(m.counter("cycles"), 12);
        assert_eq!(m.histogram("temp").unwrap().count(), 3);
        // Merge order does not matter.
        let mut m2 = b.snapshot();
        m2.merge_from(&a.snapshot());
        assert_eq!(m, m2);
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn mismatched_schemas_refuse_to_merge() {
        let mut a = registry().snapshot();
        let b = MetricsRegistry::new().with_counter("other").snapshot();
        a.merge_from(&b);
    }

    #[test]
    #[should_panic(expected = "duplicate counter")]
    fn duplicate_names_rejected() {
        let _ = MetricsRegistry::new().with_counter("x").with_counter("x");
    }
}
