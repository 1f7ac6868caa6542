//! Tracing and statistics collection.
//!
//! The tracer records an append-only log of simulation events (optionally
//! disabled for large runs) and a set of named counters / gauges / time
//! series that experiments read back after the run.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// One record in the trace log.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Virtual time at which the record was emitted.
    pub time: SimTime,
    /// Component that emitted the record (process name or subsystem).
    pub source: String,
    /// Free-form description.
    pub message: String,
}

/// Statistics and trace sink shared by all processes of a simulation.
#[derive(Debug, Default)]
pub struct Tracer {
    records: Vec<TraceRecord>,
    log_enabled: bool,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, Vec<(SimTime, f64)>>,
}

impl Tracer {
    /// Create a tracer. `log_enabled` controls whether free-form records are
    /// retained (counters and series are always collected).
    pub fn new(log_enabled: bool) -> Self {
        Self {
            log_enabled,
            ..Default::default()
        }
    }

    /// Append a free-form record (no-op when logging is disabled).
    pub fn log(&mut self, time: SimTime, source: impl Into<String>, message: impl Into<String>) {
        if self.log_enabled {
            self.records.push(TraceRecord {
                time,
                source: source.into(),
                message: message.into(),
            });
        }
    }

    /// All retained records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Increment a named counter by `by`.
    pub fn add(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Read a counter (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a named gauge to a value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Read a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Append a point to a named time series.
    pub fn sample(&mut self, name: &str, time: SimTime, value: f64) {
        self.series
            .entry(name.to_string())
            .or_default()
            .push((time, value));
    }

    /// Read a time series.
    pub fn series(&self, name: &str) -> &[(SimTime, f64)] {
        self.series.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Tracer::new(false);
        t.add("msgs", 2);
        t.add("msgs", 3);
        assert_eq!(t.counter("msgs"), 5);
        assert_eq!(t.counter("absent"), 0);
    }

    #[test]
    fn log_respects_enable_flag() {
        let mut off = Tracer::new(false);
        off.log(SimTime::ZERO, "a", "hello");
        assert!(off.records().is_empty());

        let mut on = Tracer::new(true);
        on.log(SimTime::ZERO, "a", "hello");
        assert_eq!(on.records().len(), 1);
        assert_eq!(on.records()[0].message, "hello");
    }

    #[test]
    fn gauges_and_series() {
        let mut t = Tracer::new(false);
        t.set_gauge("cwnd", 10.0);
        assert_eq!(t.gauge("cwnd"), Some(10.0));
        t.sample("residual", SimTime::from_nanos(1), 0.5);
        t.sample("residual", SimTime::from_nanos(2), 0.25);
        assert_eq!(t.series("residual").len(), 2);
        assert_eq!(t.series("nothing").len(), 0);
    }
}
