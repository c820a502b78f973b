//! What the workloads share: rendered questions, the timed phase, counter
//! deltas, body checks, and filling the report.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use dbcopilot::http::{wire, HttpServer, ServerStats};
use serde::Value;

use crate::analysis;
use crate::load::{self, Conn, ConnLog, Item, Sample, NO_BODY};
use crate::metrics::{self, median, pct, percentile, sorted, us, Report};
use crate::setup::StageTimes;
use crate::trace::{self, Keys, Span};

/// Load connections (and load threads): the machine's two cores.
pub const CONNS: usize = 2;
/// The untraced measurement is this many timed phases. Each runs on a
/// freshly set-up system behind a freshly started server, and end-to-end
/// timings are medians over the phases. The set-ups between phases spread
/// them over the run's wall time, so a stretch of host contention or one
/// server instance's scheduling luck rarely sets a run's figures.
pub const PHASES: usize = 3;

/// Stand the system up and time one untraced phase on it, [`PHASES`]
/// times, then (with `trace`) one traced phase on the last system.
/// `pass(system, phase, traced)` runs one phase. Returns the last system,
/// the median set-up stage times, the untraced phases and the traced one.
pub fn phased<S>(
    set_up: fn() -> (S, StageTimes),
    pass: impl Fn(&S, u64, bool) -> Pass,
    trace: bool,
) -> (S, StageTimes, Vec<Pass>, Option<Pass>) {
    let mut times = Vec::with_capacity(PHASES);
    let mut phases = Vec::with_capacity(PHASES);
    let mut system = None;
    for k in 0..PHASES as u64 {
        // Drop the previous system first so set-ups do not stack memory.
        drop(system.take());
        let (s, t) = set_up();
        times.push(t);
        phases.push(pass(&s, k, false));
        system = Some(s);
    }
    let system = system.expect("at least one phase");
    let traced = trace.then(|| pass(&system, PHASES as u64, true));
    (system, StageTimes::median_of(&times), phases, traced)
}
/// Publishes timed after an `/ask` run, for `publish_ms`.
const ASK_PUBLISHES: usize = 21;
/// Untimed publishes before those: the first publishes on a fresh server
/// pay one-off allocator growth that later ones do not.
const ASK_WARM_PUBLISHES: usize = 5;
/// Problems listed per check before the rest are only counted.
const SHOWN_PROBLEMS: usize = 5;

/// A workload's question list, rendered once before any timing.
pub struct Questions {
    pub texts: Vec<String>,
    pub requests: Vec<Vec<u8>>,
    pub keys: Keys,
}

impl Questions {
    pub fn new(texts: Vec<String>, path: &str) -> Questions {
        let requests =
            texts.iter().map(|q| load::render_post(path, &wire::question_body(q))).collect();
        let keys = Arc::new(texts.iter().enumerate().map(|(i, q)| (q.clone(), i as u32)).collect());
        Questions { texts, requests, keys }
    }

    pub fn len(&self) -> usize {
        self.texts.len()
    }
}

/// Serving counters of one service front, from `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub batches: u64,
    pub computed: u64,
    pub generation: u64,
}

fn counters(addr: SocketAddr) -> HashMap<String, ServiceCounters> {
    let (status, body) = load::get(addr, "/stats").expect("GET /stats answers");
    assert_eq!(status, 200, "GET /stats failed: {body}");
    let v: Value = serde_json::from_str(&body).expect("/stats is JSON");
    let n = |v: &Value, k: &str| match v.get(k) {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) => *n as u64,
        _ => 0,
    };
    let mut out = HashMap::new();
    if let Some(Value::Object(services)) = v.get("services") {
        for (name, s) in services {
            out.insert(
                name.clone(),
                ServiceCounters {
                    cache_hits: n(s, "cache_hits"),
                    cache_misses: n(s, "cache_misses"),
                    batches: n(s, "batches"),
                    computed: n(s, "computed"),
                    generation: n(s, "generation"),
                },
            );
        }
    }
    out
}

/// One timed phase and what surrounds it.
pub struct Pass {
    pub logs: Vec<ConnLog>,
    pub elapsed_s: f64,
    /// Peak RSS of the process when the timed phase started, MiB.
    pub peak_rss_mb: f64,
    pub spans: Vec<Span>,
    before: HashMap<String, ServiceCounters>,
    after: HashMap<String, ServiceCounters>,
    server_before: ServerStats,
    server_after: ServerStats,
    /// `/admin/publish` round trips, ms.
    pub publish_ms: Vec<f64>,
}

impl Pass {
    pub fn samples(&self) -> impl Iterator<Item = (usize, &Sample)> {
        self.logs.iter().enumerate().flat_map(|(c, l)| l.samples.iter().map(move |s| (c, s)))
    }

    /// Question indices that got at least one request.
    pub fn served(&self) -> BTreeSet<u32> {
        self.samples()
            .filter_map(|(_, s)| match s.item {
                Item::Question(q) => Some(q),
                Item::Publish(_) => None,
            })
            .collect()
    }

    fn question_latencies(&self) -> Vec<u64> {
        self.samples()
            .filter(|(_, s)| matches!(s.item, Item::Question(_)))
            .map(|(_, s)| s.latency_ns())
            .collect()
    }

    /// Completed question requests per second of the timed phase. A phase
    /// with publishes counts whole publish cycles only (from the first
    /// publish to the last), so where the deadline cuts a cycle does not
    /// move the figure.
    pub fn throughput_rps(&self) -> f64 {
        let publishes: Vec<u64> = self
            .samples()
            .filter(|(_, s)| matches!(s.item, Item::Publish(_)))
            .map(|(_, s)| s.start_ns)
            .collect();
        let questions = self.samples().filter(|(_, s)| matches!(s.item, Item::Question(_)));
        match (publishes.iter().min(), publishes.iter().max()) {
            (Some(&from), Some(&to)) if publishes.len() >= 3 => {
                let n = questions.filter(|(_, s)| from <= s.end_ns && s.end_ns < to).count();
                n as f64 * 1e9 / (to - from) as f64
            }
            _ => questions.count() as f64 / self.elapsed_s,
        }
    }

    /// Counter deltas of one service front over the timed phase, with the
    /// generation at its end.
    pub fn delta(&self, service: &str) -> ServiceCounters {
        let b = self.before.get(service).copied().unwrap_or_default();
        let a = self.after.get(service).copied().unwrap_or_default();
        ServiceCounters {
            cache_hits: a.cache_hits - b.cache_hits,
            cache_misses: a.cache_misses - b.cache_misses,
            batches: a.batches - b.batches,
            computed: a.computed - b.computed,
            generation: a.generation,
        }
    }
}

/// Send every request once on one connection, outside the timed phase.
pub fn warm(addr: SocketAddr, requests: &[Vec<u8>]) {
    let mut conn = Conn::connect(addr).expect("warm-up connection");
    let mut body = Vec::new();
    for r in requests {
        conn.exchange(r, &mut body).expect("warm-up request answered");
    }
}

/// Run the closed loop for `seconds` against `server`, reading counters
/// before and after.
pub fn timed<'a>(
    server: &HttpServer,
    seconds: f64,
    traced: bool,
    next: &(dyn Fn(usize, u64) -> Option<Item> + Sync),
    render: &(dyn Fn(Item) -> &'a [u8] + Sync),
) -> Pass {
    let addr = server.addr();
    let before = counters(addr);
    let server_before = server.stats();
    // Spans recorded during warm-up are not part of the run.
    drop(trace::drain());
    let peak_rss_mb = metrics::peak_rss_mb();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let logs = load::closed_loop(addr, CONNS, deadline, next, render).expect("load connections");
    let elapsed_s = start.elapsed().as_secs_f64();
    let spans = if traced { trace::drain() } else { Vec::new() };
    let server_after = server.stats();
    let after = counters(addr);
    Pass {
        logs,
        elapsed_s,
        peak_rss_mb,
        spans,
        before,
        after,
        server_before,
        server_after,
        publish_ms: Vec::new(),
    }
}

/// Time `POST /admin/publish` round trips after an `/ask` run.
pub fn publish_round_trips(addr: SocketAddr) -> Vec<f64> {
    let mut conn = Conn::connect(addr).expect("publish connection");
    let request = load::render_post("/admin/publish", "{}");
    let mut body = Vec::new();
    let mut times = (0..ASK_WARM_PUBLISHES + ASK_PUBLISHES).map(|_| {
        let start = Instant::now();
        let status = conn.exchange(&request, &mut body).expect("publish answered");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(status, 200, "publish failed: {}", String::from_utf8_lossy(&body));
        ms
    });
    times.by_ref().take(ASK_WARM_PUBLISHES).for_each(drop);
    times.collect()
}

/// Check every sample's `(status, body)` against the references the
/// closure allows for it. Counts attempted and failed into `report`.
pub fn check_bodies<'r>(
    report: &mut Report,
    pass: &Pass,
    expected: impl Fn(u32, &Sample) -> Vec<&'r (u16, Vec<u8>)>,
) {
    for (c, s) in pass.samples() {
        let Item::Question(q) = s.item else { continue };
        report.attempted += 1;
        let body = pass.logs[c].body(s);
        let ok = s.body != NO_BODY
            && expected(q, s).iter().any(|(status, reference)| {
                *status == s.status && body == Some(reference.as_slice())
            });
        if !ok {
            report.failed += 1;
            if report.failed as usize <= SHOWN_PROBLEMS {
                report.problems.push(format!(
                    "question {q}: served {} {:?} differs from the reference",
                    s.status,
                    body.map(|b| String::from_utf8_lossy(&b[..b.len().min(160)]).into_owned())
                ));
            }
        }
    }
}

/// Fold one phase's check results into the run's report. Untraced phases
/// count toward `attempted`/`failed`; a traced phase's failures are
/// reported as problems (either fails the run).
pub fn merge_checks(report: &mut Report, checked: Report, label: &str) {
    report.problems.extend(checked.problems.into_iter().map(|p| format!("{label}{p}")));
    if label.is_empty() {
        report.attempted += checked.attempted;
        report.failed += checked.failed;
    } else if checked.failed > 0 {
        report.problems.push(format!("{label}{} responses failed", checked.failed));
    }
}

/// Answer quality over a set of questions, against gold.
pub struct Quality {
    pub answered_pct: f64,
    pub ex_pct: f64,
    pub db_r1_pct: f64,
}

impl Quality {
    pub fn new(answered: u64, ex: u64, r1: u64, of: u64) -> Quality {
        Quality { answered_pct: pct(answered, of), ex_pct: pct(ex, of), db_r1_pct: pct(r1, of) }
    }
}

/// End-to-end metrics over the untraced phases: per-phase throughput and
/// exact percentiles from raw samples, then the median over phases.
pub fn fill_end_to_end(report: &mut Report, phases: &[Pass], setup: &StageTimes, quality: Quality) {
    let per_phase = |f: &dyn Fn(&Pass) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let latency = |p: &Pass, q: f64| us(percentile(&sorted(p.question_latencies()), q));
    report.set("setup_s", setup.total_s);
    report.set("throughput_rps", per_phase(&Pass::throughput_rps));
    report.set("latency_p50_us", per_phase(&|p| latency(p, 50.0)));
    // Tails are shown but not gated: host contention moves ask-cold's p95
    // and p99 by up to ~70% while its median moves ~10%.
    report.ungated.push(("latency_p95_us", "us", per_phase(&|p| latency(p, 95.0))));
    report.ungated.push(("latency_p99_us", "us", per_phase(&|p| latency(p, 99.0))));
    let ok = report.attempted.saturating_sub(report.failed);
    report.set("ok_pct", pct(ok, report.attempted));
    report.set("answered_pct", quality.answered_pct);
    report.set("ex_pct", quality.ex_pct);
    report.set("db_r1_pct", quality.db_r1_pct);
    let publishes: Vec<f64> = phases.iter().flat_map(|p| p.publish_ms.iter().copied()).collect();
    report.set("publish_ms", median(&publishes));
    // Read before the load generator's per-request samples exist, so the
    // figure is the deployment's: set-up, server start and warm-up.
    report.set("peak_rss_mb", phases[0].peak_rss_mb);
}

/// Per-layer metrics from the traced pass; spans are written under the
/// benchmark's `traces/` directory.
pub fn fill_per_layer(
    report: &mut Report,
    phases: &[Pass],
    traced: &Pass,
    setup: &StageTimes,
    service: &str,
    seed: u64,
    workload: &str,
) {
    let joined = analysis::join(&traced.logs, traced.spans.clone());
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/traces"))
        .join(format!("{workload}-seed{seed}.tsv"));
    if let Err(e) = analysis::write_spans(&path, &joined) {
        eprintln!("servebench: could not write {}: {e}", path.display());
    }
    let l = analysis::layers(&joined);
    let attempted = traced.samples().filter(|(_, s)| s.body != NO_BODY).count() as u64;
    if joined.untiled > 0 || (joined.requests.len() as u64) < attempted {
        report.problems.push(format!(
            "traced run: {} of {} requests lack a span or do not tile",
            joined.untiled,
            joined.requests.len()
        ));
    }
    report.set("http.self_us.p50", l.http_self_p50_us);
    report.set("http.self_us.p99", l.http_self_p99_us);
    report.set(
        "http.requests",
        (traced.server_after.requests - traced.server_before.requests) as f64,
    );
    report.set("http.shed", (traced.server_after.shed - traced.server_before.shed) as f64);
    let d = traced.delta(service);
    report.set("serve.miss_self_us.p50", l.serve_miss_self_p50_us);
    report.set("serve.miss_self_us.p99", l.serve_miss_self_p99_us);
    report.set("serve.hit_us.p50", l.serve_hit_p50_us);
    report.set("serve.cache_hit_pct", pct(d.cache_hits, d.cache_hits + d.cache_misses));
    report.set(
        "serve.mean_batch",
        if d.batches == 0 { 0.0 } else { d.computed as f64 / d.batches as f64 },
    );
    report.set("serve.computed", d.computed as f64);
    report.set("core.route_us.p50", l.core_route_p50_us);
    report.set("core.route_us.p99", l.core_route_p99_us);
    report.set("core.candidates", l.core_candidates);
    report.set("core.tier_route_us.p50", l.tier_route_p50_us);
    report.set("core.tier_route_us.p99", l.tier_route_p99_us);
    report.set("core.shard_scatter_us", 0.0);
    report.set("core.calibrate_us", 0.0);
    report.set("core.first_route_after_publish_ms", l.first_route_after_publish_ms);
    report.set("ask.loop_us.p50", l.ask_loop_p50_us);
    report.set("nl2sql.gen_us.p50", l.gen_p50_us);
    report.set("sqlengine.exec_us.p50", l.exec_p50_us);
    report.set("ask.attempts_per_q", l.attempts_per_q);
    report.set("ask.fallback_pct", l.fallback_pct);
    report.set("sqlengine.exec_ok_pct", l.exec_ok_pct);
    report.set("setup.corpus_s", setup.corpus_s);
    report.set("setup.graph_s", setup.graph_s);
    report.set("setup.questioner_s", setup.questioner_s);
    report.set("setup.synth_s", setup.synth_s);
    report.set("setup.train_s", setup.train_s);
    report.set("setup.extend_s", setup.extend_s);
    report.set("persist.save_ms", setup.save_ms);
    report.set("persist.bundle_kib", setup.bundle_kib);
    report.set("persist.load_ms", setup.load_ms);
    let base = median(&phases.iter().map(Pass::throughput_rps).collect::<Vec<_>>());
    report.set("trace.overhead_pct", (base - traced.throughput_rps()) / base * 100.0);
    report.set("trace.requests", joined.requests.len() as f64);
    report.set("trace.untiled", joined.untiled as f64);
}
