//! Exact statistics over raw samples, the metric catalogue with its
//! layer → end-to-end → workload map, and the report the command prints.

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
/// Exact: the value returned is one of the samples. `0.0` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of a set of measurements (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nanosecond samples → sorted microsecond-resolution percentile source.
pub fn sorted(mut ns: Vec<u64>) -> Vec<u64> {
    ns.sort_unstable();
    ns
}

pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// Static description of a metric: what it measures, which end-to-end
/// metric it should move, and on which workload that shows.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub workload: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> Spec {
    Spec { name, unit, moves, workload }
}

/// End-to-end metrics, measured on the untraced run of every workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", "-", "all"),
    spec("throughput_rps", "1/s", "-", "all"),
    spec("latency_p50_us", "us", "-", "all"),
    spec("ok_pct", "%", "-", "all"),
    spec("answered_pct", "%", "-", "all"),
    spec("ex_pct", "%", "-", "all"),
    spec("db_r1_pct", "%", "-", "all"),
    spec("publish_ms", "ms", "-", "all"),
    spec("peak_rss_mb", "MiB", "-", "all"),
];

/// Per-layer metrics of the traced run. Layers a workload does not reach
/// report 0. `moves`/`workload` is the map later changes name their claim
/// and their "no change" prediction from.
pub const PER_LAYER: &[Spec] = &[
    // http: the edge, client socket included (client latency − dispatcher).
    spec("http.self_us.p50", "us", "latency_p50_us", "ask-hot (flat on ask-cold)"),
    spec("http.self_us.p99", "us", "tail (ungated)", "ask-hot"),
    spec("http.requests", "count", "ok_pct", "all"),
    spec("http.shed", "count", "ok_pct", "all"),
    // serve: queue wait + micro-batch flush + fan-out, and the cache.
    spec("serve.miss_self_us.p50", "us", "latency_p50_us, throughput_rps", "ask-cold"),
    spec("serve.miss_self_us.p99", "us", "tail (ungated)", "ask-cold"),
    spec("serve.hit_us.p50", "us", "latency_p50_us", "ask-hot"),
    spec("serve.cache_hit_pct", "%", "throughput_rps", "route-publish"),
    spec("serve.mean_batch", "count", "throughput_rps", "route-publish, ask-cold"),
    spec("serve.computed", "count", "throughput_rps", "route-publish"),
    // core: routing.
    spec(
        "core.route_us.p50",
        "us",
        "latency_p50_us, throughput_rps",
        "ask-cold (no change on ask-hot)",
    ),
    spec("core.route_us.p99", "us", "tail (ungated)", "ask-cold"),
    spec("core.candidates", "count", "latency_p50_us", "ask-cold"),
    spec("core.tier_route_us.p50", "us", "latency_p50_us", "route-publish"),
    spec("core.tier_route_us.p99", "us", "throughput_rps", "route-publish"),
    spec("core.shard_scatter_us", "us", "latency_p50_us", "route-publish"),
    spec("core.calibrate_us", "us", "latency_p50_us", "route-publish"),
    spec("core.first_route_after_publish_ms", "ms", "throughput_rps, publish_ms", "route-publish"),
    // the facade's candidate/repair loop, nl2sql and sqlengine.
    spec("ask.loop_us.p50", "us", "latency_p50_us", "ask-cold (<=5% today)"),
    spec("nl2sql.gen_us.p50", "us", "latency_p50_us", "ask-cold (<=5% today)"),
    spec("sqlengine.exec_us.p50", "us", "latency_p50_us", "ask-cold (<=5% today)"),
    spec("ask.attempts_per_q", "count", "latency_p50_us", "ask-cold"),
    spec("ask.fallback_pct", "%", "latency_p50_us, answered_pct", "ask-cold"),
    spec("sqlengine.exec_ok_pct", "%", "answered_pct, ex_pct", "ask-cold"),
    // set-up and persist.
    spec("setup.corpus_s", "s", "setup_s", "all"),
    spec("setup.graph_s", "s", "setup_s", "all"),
    spec("setup.questioner_s", "s", "setup_s", "all"),
    spec("setup.synth_s", "s", "setup_s", "all"),
    spec("setup.train_s", "s", "setup_s", "all"),
    spec("setup.extend_s", "s", "setup_s", "route-publish"),
    spec("persist.save_ms", "ms", "setup_s", "all"),
    spec("persist.bundle_kib", "KiB", "setup_s, publish_ms", "all"),
    spec("persist.load_ms", "ms", "setup_s, publish_ms", "all"),
    // the trace itself.
    spec("trace.overhead_pct", "%", "-", "all"),
    spec("trace.requests", "count", "-", "all"),
    spec("trace.untiled", "count", "-", "all (must be 0)"),
];

/// Everything one run found out.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness and workload-sanity violations; any entry fails the run.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Printed with the end-to-end table but not part of the result line:
    /// figures too noisy on a shared host to carry a regression bound.
    pub ungated: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Set a metric by catalogue name (the unit comes from the catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        let list = if END_TO_END.iter().any(|s| s.name == name) {
            &mut self.end_to_end
        } else {
            assert!(
                PER_LAYER.iter().any(|s| s.name == name),
                "metric {name} is not in the catalogue"
            );
            &mut self.per_layer
        };
        let value = if value.is_finite() { value } else { 0.0 };
        match list.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => list.push(Metric { name, value }),
        }
    }

    fn value(list: &[Metric], name: &str) -> f64 {
        list.iter().find(|m| m.name == name).map(|m| m.value).unwrap_or(0.0)
    }

    /// Human-readable tables on stdout, then the one-line JSON result last.
    pub fn print(&self, workload: &str, traced: bool) {
        println!("== servebench {workload}: end to end (untraced run) ==");
        for spec in END_TO_END {
            println!(
                "{:<24} {:>14.3} {}",
                spec.name,
                Self::value(&self.end_to_end, spec.name),
                spec.unit
            );
        }
        for (name, unit, value) in &self.ungated {
            println!("{name:<24} {value:>14.3} {unit} (not gated)");
        }
        if traced {
            println!("== servebench {workload}: per layer (traced run) ==");
            println!("{:<36} {:>14}  {:<6} {:<32} shows on", "metric", "value", "unit", "moves");
            for spec in PER_LAYER {
                println!(
                    "{:<36} {:>14.3}  {:<6} {:<32} {}",
                    spec.name,
                    Self::value(&self.per_layer, spec.name),
                    spec.unit,
                    spec.moves,
                    spec.workload
                );
            }
        }
        println!(
            "requests attempted {}, failed {}, checks {}",
            self.attempted,
            self.failed,
            if self.problems.is_empty() { "passed" } else { "FAILED" }
        );
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let (list, specs) =
            if traced { (&self.per_layer, PER_LAYER) } else { (&self.end_to_end, END_TO_END) };
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    json_number(Self::value(list, s.name)),
                    s.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7], 50.0), 7.0);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
