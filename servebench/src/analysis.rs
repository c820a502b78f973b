//! Joining the traced run: client samples and server-side spans become one
//! trace per request, whose layer self times tile the client latency.
//!
//! The server sees only question text, so requests are identified from
//! outside: a keep-alive connection is served by one connection thread for
//! its whole life, and a closed-loop client has one request in flight, so
//! the k-th `Dispatcher` span of a connection thread belongs to the k-th
//! request of the client connection that thread serves. Inner spans
//! (routing, the ask loop, the tier) are attached to the requests whose
//! dispatcher span contains them and that asked the same question.

use std::collections::HashMap;
use std::io::Write;

use crate::load::{ConnLog, Item, NO_BODY};
use crate::metrics::{percentile, sorted, us};
use crate::trace::{AskWork, Layer, Payload, Span};

/// One request, every layer's time.
#[derive(Debug, Clone, Default)]
pub struct RequestTrace {
    pub id: u64,
    pub conn: usize,
    pub start_ns: u64,
    pub key: u32,
    pub publish: bool,
    pub client_ns: u64,
    /// The dispatcher span (edge → serve).
    pub serve_ns: u64,
    /// Inner work attributed to this request: `route_schemata`, the ask
    /// loop, the tier route, the bundle load.
    pub core_ns: u64,
    pub loop_ns: u64,
    pub tier_ns: u64,
    pub load_ns: u64,
    pub miss: bool,
}

impl RequestTrace {
    pub fn http_self_ns(&self) -> u64 {
        self.client_ns - self.serve_ns
    }

    pub fn inner_ns(&self) -> u64 {
        self.core_ns + self.loop_ns + self.tier_ns + self.load_ns
    }

    pub fn serve_self_ns(&self) -> u64 {
        self.serve_ns - self.inner_ns()
    }
}

/// The joined trace of one run.
pub struct Joined {
    pub requests: Vec<RequestTrace>,
    /// Requests lacking a span, or whose spans do not nest.
    pub untiled: u64,
    /// Spans with their request id (`u64::MAX`: attributed to none).
    pub spans: Vec<(u64, Span)>,
}

/// Leading requests compared when pairing a connection thread with a
/// client connection.
const LEAD: usize = 32;

fn within(inner: &Span, start: u64, end: u64) -> bool {
    start <= inner.start_ns && inner.end_ns <= end
}

pub fn join(logs: &[ConnLog], spans: Vec<Span>) -> Joined {
    // Client requests with ids; transport failures carry no server span.
    let mut requests: Vec<RequestTrace> = Vec::new();
    let mut bounds: Vec<(u64, u64)> = Vec::new();
    let mut by_conn: Vec<Vec<usize>> = vec![Vec::new(); logs.len()];
    for (c, log) in logs.iter().enumerate() {
        for s in &log.samples {
            if s.body == NO_BODY {
                continue;
            }
            let (key, publish) = match s.item {
                Item::Question(q) => (q, false),
                Item::Publish(_) => (u32::MAX, true),
            };
            by_conn[c].push(requests.len());
            bounds.push((s.start_ns, s.end_ns));
            requests.push(RequestTrace {
                id: requests.len() as u64,
                conn: c,
                start_ns: s.start_ns,
                key,
                publish,
                client_ns: s.latency_ns(),
                ..RequestTrace::default()
            });
        }
    }
    let mut owner: Vec<u64> = vec![u64::MAX; spans.len()];
    let mut serve_bounds: Vec<Option<(u64, u64)>> = vec![None; requests.len()];

    // Dispatcher spans, per connection thread, in order.
    let mut threads: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if matches!(s.layer, Layer::Serve | Layer::Publish) {
            threads.entry(s.thread).or_default().push(i);
        }
    }
    // Each connection thread serves one client connection: the one whose
    // leading requests contain its leading spans, question for question.
    let mut taken = vec![false; logs.len()];
    let matches = |si: usize, r: usize| {
        let s = &spans[si];
        let req = &requests[r];
        (s.layer == Layer::Publish) == req.publish
            && (req.publish || s.key == req.key)
            && within(s, bounds[r].0, bounds[r].1)
    };
    let mut threads: Vec<&Vec<usize>> = threads.values().collect();
    threads.sort_by_key(|list| spans[list[0]].start_ns);
    let mut paired: Vec<(usize, usize)> = Vec::new();
    for list in threads {
        let lead = list.len().min(LEAD);
        let Some(conn) = (0..logs.len()).find(|&c| {
            !taken[c]
                && by_conn[c].len() >= lead
                && (0..lead).all(|k| matches(list[k], by_conn[c][k]))
        }) else {
            continue;
        };
        taken[conn] = true;
        paired.extend(
            list.iter()
                .zip(&by_conn[conn])
                .filter(|&(&si, &r)| matches(si, r))
                .map(|(&si, &r)| (si, r)),
        );
    }
    for (si, r) in paired {
        let s = &spans[si];
        requests[r].serve_ns = s.ns();
        serve_bounds[r] = Some((s.start_ns, s.end_ns));
        owner[si] = r as u64;
    }

    // Inner spans: same question (or a publish), inside the dispatcher span.
    let mut by_key: HashMap<u32, Vec<usize>> = HashMap::new();
    for (r, req) in requests.iter().enumerate() {
        by_key.entry(req.key).or_default().push(r);
    }
    let publishes: Vec<usize> = (0..requests.len()).filter(|&r| requests[r].publish).collect();
    let mut core_seen = vec![0u32; requests.len()];
    let mut loop_seen = vec![0u32; requests.len()];
    for (i, s) in spans.iter().enumerate() {
        if matches!(s.layer, Layer::Serve | Layer::Publish) {
            continue;
        }
        let candidates: &[usize] = match s.layer {
            Layer::Load => &publishes,
            _ => by_key.get(&s.key).map(Vec::as_slice).unwrap_or(&[]),
        };
        for &r in candidates {
            let Some((start, end)) = serve_bounds[r] else { continue };
            if !within(s, start, end) {
                continue;
            }
            let req = &mut requests[r];
            match s.layer {
                Layer::CoreRoute => {
                    req.core_ns = s.ns();
                    core_seen[r] += 1;
                }
                Layer::AskLoop => {
                    req.loop_ns = s.ns();
                    loop_seen[r] += 1;
                }
                Layer::TierRoute => req.tier_ns = s.ns(),
                Layer::Load => req.load_ns = s.ns(),
                Layer::Serve | Layer::Publish => {}
            }
            req.miss = !req.publish;
            owner[i] = r as u64;
        }
    }

    let untiled = (0..requests.len())
        .filter(|&r| {
            let req = &requests[r];
            serve_bounds[r].is_none()
                || core_seen[r] != loop_seen[r]
                || core_seen[r] > 1
                || req.serve_ns > req.client_ns
                || req.inner_ns() > req.serve_ns
        })
        .count() as u64;
    let spans = owner.into_iter().zip(spans).collect();
    Joined { requests, untiled, spans }
}

/// Self-time percentiles and counts over one joined trace.
#[derive(Debug, Default)]
pub struct Layers {
    pub http_self_p50_us: f64,
    pub http_self_p99_us: f64,
    pub serve_miss_self_p50_us: f64,
    pub serve_miss_self_p99_us: f64,
    pub serve_hit_p50_us: f64,
    pub core_route_p50_us: f64,
    pub core_route_p99_us: f64,
    pub core_candidates: f64,
    pub tier_route_p50_us: f64,
    pub tier_route_p99_us: f64,
    pub first_route_after_publish_ms: f64,
    pub ask_loop_p50_us: f64,
    pub gen_p50_us: f64,
    pub exec_p50_us: f64,
    pub attempts_per_q: f64,
    pub fallback_pct: f64,
    pub exec_ok_pct: f64,
}

pub fn layers(joined: &Joined) -> Layers {
    let questions: Vec<&RequestTrace> =
        joined.requests.iter().filter(|r| !r.publish && r.serve_ns > 0).collect();
    let p = |ns: Vec<u64>, q: f64| us(percentile(&sorted(ns), q));
    let http: Vec<u64> = questions.iter().map(|r| r.http_self_ns()).collect();
    let miss: Vec<u64> = questions.iter().filter(|r| r.miss).map(|r| r.serve_self_ns()).collect();
    let hit: Vec<u64> = questions.iter().filter(|r| !r.miss).map(|r| r.serve_ns).collect();

    let of = |layer: Layer| joined.spans.iter().filter(move |(_, s)| s.layer == layer);
    let route: Vec<u64> = of(Layer::CoreRoute).map(|(_, s)| s.ns()).collect();
    let candidates: Vec<u32> = of(Layer::CoreRoute)
        .filter_map(|(_, s)| match s.payload {
            Payload::Candidates(n) => Some(n),
            _ => None,
        })
        .collect();
    let tier: Vec<u64> = of(Layer::TierRoute).map(|(_, s)| s.ns()).collect();
    let first: Vec<f64> = of(Layer::TierRoute)
        .filter(|(_, s)| matches!(s.payload, Payload::Route { generation, first: true } if generation > 1))
        .map(|(_, s)| s.ns() as f64 / 1e6)
        .collect();
    let asks: Vec<(u64, AskWork)> = of(Layer::AskLoop)
        .filter_map(|(_, s)| match s.payload {
            Payload::Ask(w) => Some((s.ns(), w)),
            _ => None,
        })
        .collect();
    let answered: Vec<&AskWork> = asks.iter().map(|(_, w)| w).filter(|w| w.answered).collect();
    let executions: u64 = asks.iter().map(|(_, w)| w.executions as u64).sum();
    let ok: u64 = asks.iter().map(|(_, w)| w.executions_ok as u64).sum();
    let mean = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };

    Layers {
        http_self_p50_us: p(http.clone(), 50.0),
        http_self_p99_us: p(http, 99.0),
        serve_miss_self_p50_us: p(miss.clone(), 50.0),
        serve_miss_self_p99_us: p(miss, 99.0),
        serve_hit_p50_us: p(hit, 50.0),
        core_route_p50_us: p(route.clone(), 50.0),
        core_route_p99_us: p(route, 99.0),
        core_candidates: mean(candidates.iter().map(|&n| n as f64).sum(), candidates.len()),
        tier_route_p50_us: p(tier.clone(), 50.0),
        tier_route_p99_us: p(tier, 99.0),
        first_route_after_publish_ms: crate::metrics::median(&first),
        ask_loop_p50_us: p(asks.iter().map(|(ns, _)| *ns).collect(), 50.0),
        gen_p50_us: p(answered.iter().map(|w| w.generate_ns).collect(), 50.0),
        exec_p50_us: p(answered.iter().map(|w| w.execute_ns).collect(), 50.0),
        attempts_per_q: mean(asks.iter().map(|(_, w)| w.attempts as f64).sum(), asks.len()),
        fallback_pct: crate::metrics::pct(
            answered.iter().filter(|w| w.recovered).count() as u64,
            answered.len() as u64,
        ),
        exec_ok_pct: crate::metrics::pct(ok, executions),
    }
}

/// Write every span, with its request id, as tab-separated lines.
pub fn write_spans(path: &std::path::Path, joined: &Joined) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tlayer\tthread\tquestion\tstart_ns\tend_ns")?;
    for r in &joined.requests {
        let key = if r.publish { u32::MAX } else { r.key };
        let end = r.start_ns + r.client_ns;
        writeln!(out, "{}\tClient\tconn{}\t{key}\t{}\t{end}", r.id, r.conn, r.start_ns)?;
    }
    for (request, s) in &joined.spans {
        let request = if *request == u64::MAX { "-".to_string() } else { request.to_string() };
        writeln!(
            out,
            "{request}\t{:?}\t{}\t{}\t{}\t{}",
            s.layer, s.thread, s.key, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
