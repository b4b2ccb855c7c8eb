//! Accumulates per-layer samples of traced operations into the
//! per-layer metrics.

use std::collections::BTreeMap;

/// Keys starting with `_` are inputs to derived metrics, not metrics.
const HITS: &str = "_artifact_hits";
const LOOKUPS: &str = "_artifact_lookups";
const TRACED_MS: &str = "_traced_ms";
const UNTRACED_MS: &str = "_untraced_ms";

/// Per-layer sums over a number of operations, plus gauges kept as
/// their maximum.
#[derive(Debug, Default, Clone)]
pub struct LayerAcc {
    sums: BTreeMap<&'static str, f64>,
    peaks: BTreeMap<&'static str, f64>,
    ops: u64,
}

impl LayerAcc {
    /// Adds `v` to the layer metric `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    /// Raises the gauge `key` to at least `v`.
    pub fn peak(&mut self, key: &'static str, v: f64) {
        let p = self.peaks.entry(key).or_default();
        *p = p.max(v);
    }

    /// Counts one finished operation.
    pub fn end_op(&mut self) {
        self.ops += 1;
    }

    /// Records artifact-store lookups and how many of them hit.
    pub fn lookups(&mut self, hits: u64, lookups: u64) {
        self.add(HITS, hits as f64);
        self.add(LOOKUPS, lookups as f64);
    }

    /// Records one operation's wall time untraced and traced.
    pub fn overhead(&mut self, untraced_ms: f64, traced_ms: f64) {
        self.add(UNTRACED_MS, untraced_ms);
        self.add(TRACED_MS, traced_ms);
    }

    /// One operation whose layers are each part's per-operation mean:
    /// every part weighs the same however many operations it holds.
    #[must_use]
    pub fn mean_of(parts: &[LayerAcc]) -> LayerAcc {
        let mut out = LayerAcc::default();
        for part in parts.iter().filter(|p| p.ops > 0) {
            for (&k, &v) in &part.sums {
                out.add(k, v / part.ops as f64);
            }
            for (&k, &v) in &part.peaks {
                out.peak(k, v);
            }
            out.ops += 1;
        }
        out
    }

    /// The per-layer metrics: means per operation, gauges at their peak,
    /// and the derived rates and ratios.
    #[must_use]
    pub fn finish(&self) -> Vec<(&'static str, f64)> {
        let ops = self.ops.max(1) as f64;
        let mean = |k: &str| self.sums.get(k).map_or(0.0, |v| v / ops);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut out: Vec<(&'static str, f64)> = self
            .sums
            .keys()
            .filter(|k| !k.starts_with('_'))
            .map(|&k| (k, mean(k)))
            .collect();
        out.extend(self.peaks.iter().map(|(&k, &v)| (k, v)));
        if self.sums.contains_key("sat.solve_ms") {
            let search_ms = (mean("sat.solve_ms") - mean("sat.preprocess_ms")).max(0.0);
            out.push(("sat.search_ms", search_ms));
            out.push((
                "sat.props_per_s",
                ratio(mean("sat.propagations"), search_ms / 1e3),
            ));
            out.push((
                "sat.conflicts_per_s",
                ratio(mean("sat.conflicts"), search_ms / 1e3),
            ));
        }
        if self.sums.contains_key(LOOKUPS) {
            out.push(("artifact.hit_ratio", ratio(mean(HITS), mean(LOOKUPS))));
        }
        if self.sums.contains_key(UNTRACED_MS) {
            out.push((
                "trace_overhead_ratio",
                ratio(mean(TRACED_MS), mean(UNTRACED_MS)),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_peaks_and_derived_metrics() {
        let mut a = LayerAcc::default();
        a.add("sat.solve_ms", 30.0);
        a.add("sat.preprocess_ms", 10.0);
        a.add("sat.conflicts", 400.0);
        a.peak("sat.arena_peak_bytes", 5.0);
        a.overhead(10.0, 11.0);
        a.end_op();
        a.add("sat.solve_ms", 10.0);
        a.peak("sat.arena_peak_bytes", 3.0);
        a.overhead(10.0, 11.0);
        a.end_op();
        let m: BTreeMap<_, _> = a.finish().into_iter().collect();
        assert_eq!(m["sat.solve_ms"], 20.0);
        assert_eq!(m["sat.search_ms"], 15.0);
        assert_eq!(m["sat.conflicts_per_s"], 200.0 / 0.015);
        assert_eq!(m["sat.arena_peak_bytes"], 5.0);
        assert!((m["trace_overhead_ratio"] - 1.1).abs() < 1e-12);
        assert!(!m.contains_key("_traced_ms"));
    }

    #[test]
    fn mean_of_weighs_parts_equally() {
        let mut a = LayerAcc::default();
        a.add("tsys.replay_ms", 2.0);
        a.end_op();
        let mut b = LayerAcc::default();
        for _ in 0..3 {
            b.add("tsys.replay_ms", 4.0);
            b.end_op();
        }
        let m = LayerAcc::mean_of(&[a, b]).finish();
        assert_eq!(m, vec![("tsys.replay_ms", 3.0)]);
    }
}
