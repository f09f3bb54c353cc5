//! Readings of the program's own metrics registry, taken between windows.

use hanayo_metrics::{Series, SeriesValue};

/// One snapshot of every series.
pub struct Reading(Vec<Series>);

impl Reading {
    pub fn take() -> Reading {
        Reading(hanayo_metrics::snapshot().series)
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = &'a SeriesValue> + 'a {
        self.0
            .iter()
            .filter(move |s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|s| &s.value)
    }

    /// Sum of the counter series named `name` whose labels include `labels`.
    fn counter(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.matching(name, labels)
            .map(|v| match v {
                SeriesValue::Counter(c) => *c as f64,
                _ => 0.0,
            })
            .sum()
    }

    /// `(sum, count)` of the histogram series matching `name` and `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> (f64, f64) {
        self.matching(name, labels).fold((0.0, 0.0), |(s, n), v| match v {
            SeriesValue::Histogram { sum, count, .. } => (s + *sum as f64, n + *count as f64),
            _ => (s, n),
        })
    }

    /// The gauge series named `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.matching(name, &[])
            .map(|v| match v {
                SeriesValue::Gauge(g) => *g,
                _ => 0.0,
            })
            .next()
            .unwrap_or(0.0)
    }
}

/// Counter growth between two readings.
pub fn delta(before: &Reading, after: &Reading, name: &str, labels: &[(&str, &str)]) -> f64 {
    after.counter(name, labels) - before.counter(name, labels)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Hit ratio of one tuner cache between two readings.
fn hit_ratio(before: &Reading, after: &Reading, cache: &str) -> f64 {
    let labels = [("cache", cache)];
    let hits = delta(before, after, "hanayo_tuner_cache_hits_total", &labels);
    let misses = delta(before, after, "hanayo_tuner_cache_misses_total", &labels);
    ratio(hits, hits + misses)
}

/// The sim and tuner counters both planner workloads report, per
/// operation (`ops`).
pub fn planner_layers(
    before: &Reading,
    after: &Reading,
    ops: f64,
    layers: &mut std::collections::BTreeMap<String, f64>,
) {
    let d = |name: &str, labels: &[(&str, &str)]| delta(before, after, name, labels);
    let runs = d("hanayo_sim_runs_total", &[]);
    let candidates = d("hanayo_tuner_candidates_total", &[]);
    let compiled_misses = d("hanayo_tuner_cache_misses_total", &[("cache", "compiled")]);
    for (name, value) in [
        ("sim.runs", ratio(runs, ops)),
        ("sim.events_per_run", ratio(d("hanayo_sim_events_total", &[]), runs)),
        ("sim.stalls_per_run", ratio(d("hanayo_sim_rendezvous_stalls_total", &[]), runs)),
        ("tuner.static_prunes", ratio(d("hanayo_tuner_static_prunes_total", &[]), ops)),
        (
            "tuner.oom_share",
            ratio(d("hanayo_tuner_candidates_total", &[("outcome", "oom")]), candidates),
        ),
        ("sim.runs_per_lowering", ratio(runs, compiled_misses)),
    ] {
        layers.insert(name.to_string(), value);
    }
    for cache in ["schedules", "costs", "peaks", "compiled"] {
        layers.insert(format!("tuner.hit_ratio.{cache}"), hit_ratio(before, after, cache));
    }
}
