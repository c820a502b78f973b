//! `route-publish`: `POST /route` against a 4-shard `ShardedRouter` tier
//! behind `RouterService`, while connection 0 hot-swaps pre-built `SHRD`
//! bundles through `POST /admin/publish` on a request-count schedule.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dbcopilot::core::{load_sharded_router_bytes, DbcRouter, ShardedRouter};
use dbcopilot::eval::Scale;
use dbcopilot::graph::{QuerySchema, SchemaGraph};
use dbcopilot::http::{wire, HttpConfig, HttpServer, ServiceApp};
use dbcopilot::retrieval::{RoutingResult, SchemaRouter};
use dbcopilot::serve::{
    AskError, AskOptions, AskReport, AskService, QueryPipeline, RouterService, RoutingError,
    ScoredCandidate, ServiceConfig,
};
use dbcopilot::sqlengine::{compare_to_gold_prepared, execute_prepared, PreparedDb};
use dbcopilot::synth::Instance;
use dbcopilot::DbCopilot;

use dbcopilot::runtime::split_seed;

use crate::common::{self, Pass, Questions};
use crate::load::{self, now_ns, Item, NO_BODY};
use crate::metrics::{median, Report};
use crate::setup::{self, TierSystem};
use crate::trace::{self, Keys, TracedDispatcher, TracedRouter};

/// Questions in the read pool.
const POOL: usize = 64;
/// Seed of the read pool (the pool defines the workload; `--seed` draws
/// the request sequence over it).
const POOL_SEED: u64 = 0x5eed_0a0e;
/// Connection 0 publishes on every `PUBLISH_EVERY`-th of its requests.
const PUBLISH_EVERY: u64 = 1000;
/// Publishes made before the clock starts, on both connection threads: a
/// fresh server's first publishes pay one-off allocator growth that later
/// ones do not. Two whole rotations of the bundles, so the timed phase
/// starts on the start bundle and generation numbering within it keeps
/// `bundle_of_generation`.
const WARM_PUBLISHES: u64 = 2 * (setup::HELD_OUT as u64 + 1);
/// Questions sampled for the single-threaded scatter/calibrate split.
const SPLIT_SAMPLE: usize = 64;

/// The route deployment's `/ask` front: this deployment serves routes
/// only, so every question is answered with a routing error. The run
/// checks it is never called.
struct RoutesOnly;

impl QueryPipeline for RoutesOnly {
    fn ask_with(&self, question: &str, _: &AskOptions) -> Result<AskReport, AskError> {
        Err(AskError::Routing(RoutingError { question: question.to_string() }))
    }
}

/// Bundle published by the k-th publish (0-based): +1, +2, +3, +4 held-out
/// databases, then back to the start tier, and around again.
fn bundle_of_publish(k: u64, bundles: usize) -> usize {
    ((k + 1) % bundles as u64) as usize
}

/// Bundle a generation serves (generation 1 is the start tier).
fn bundle_of_generation(generation: u64, bundles: usize) -> usize {
    ((generation - 1) % bundles as u64) as usize
}

fn serve(system: &TierSystem, keys: Option<Keys>) -> HttpServer {
    let bundles = Arc::clone(&system.bundles);
    let load = move |spec: &serde::Value| -> Result<ShardedRouter, String> {
        let at = match spec.get("bundle") {
            Some(serde::Value::UInt(n)) => *n as usize,
            Some(serde::Value::Int(n)) if *n >= 0 => *n as usize,
            _ => return Err("publish spec needs a \"bundle\" index".into()),
        };
        let bytes = bundles.get(at).ok_or("no such bundle")?.clone();
        load_sharded_router_bytes(bytes).map_err(|e| e.to_string())
    };
    let start = load_sharded_router_bytes(system.bundles[0].clone()).expect("start bundle loads");
    let ask = AskService::from_pipeline(RoutesOnly, AskOptions::new(), ServiceConfig::default());
    let cfg = HttpConfig::new().workers(common::CONNS);
    match keys {
        None => {
            let route = RouterService::from_router(start, ServiceConfig::default());
            let app =
                ServiceApp::new(ask, route).with_publisher(move |spec| load(spec).map(Arc::new));
            HttpServer::bind("127.0.0.1:0", app, cfg)
        }
        Some(keys) => {
            let generation = AtomicU32::new(1);
            let wrap_keys = Arc::clone(&keys);
            let route = RouterService::from_router(
                TracedRouter::new(start, 1, Arc::clone(&keys)),
                ServiceConfig::default(),
            );
            let app = ServiceApp::new(ask, route).with_publisher(move |spec| {
                let t0 = now_ns();
                let tier = load(spec)?;
                trace::record_load(t0, now_ns());
                let g = generation.fetch_add(1, Ordering::Relaxed) + 1;
                Ok(Arc::new(TracedRouter::new(tier, g, Arc::clone(&wrap_keys))))
            });
            HttpServer::bind("127.0.0.1:0", TracedDispatcher { inner: app, keys }, cfg)
        }
    }
    .expect("bind the HTTP edge on an ephemeral port")
}

fn pass(system: &TierSystem, qs: &Questions, seed: u64, seconds: f64, traced: bool) -> Pass {
    let server = serve(system, traced.then(|| Arc::clone(&qs.keys)));
    let n = system.bundles.len();
    let publishes: Vec<Vec<u8>> = (0..n)
        .map(|b| load::render_post("/admin/publish", &format!("{{\"bundle\":{b}}}")))
        .collect();
    warm_publishes(server.addr(), &publishes, &qs.requests[0]);
    // The timed phase starts hot: shards decoded, the pool cached.
    common::warm(server.addr(), &qs.requests);
    let next = |conn: usize, seq: u64| -> Option<Item> {
        if conn == 0 && seq % PUBLISH_EVERY == PUBLISH_EVERY - 1 {
            Some(Item::Publish(bundle_of_publish(seq / PUBLISH_EVERY, n) as u32))
        } else {
            Some(Item::Question(load::skewed(qs.len(), seed, conn, seq) as u32))
        }
    };
    let mut pass = common::timed(&server, seconds, traced, &next, &|item| match item {
        Item::Question(q) => qs.requests[q as usize].as_slice(),
        Item::Publish(b) => publishes[b as usize].as_slice(),
    });
    pass.publish_ms = publish_samples(&pass).iter().map(|s| s.latency_ns() as f64 / 1e6).collect();
    server.shutdown();
    pass
}

/// [`WARM_PUBLISHES`] publishes, split over two connections held open
/// together so that both connection threads publish; a route after each
/// publish decodes the new generation's shards.
fn warm_publishes(addr: std::net::SocketAddr, publishes: &[Vec<u8>], route: &[u8]) {
    let mut conns: Vec<load::Conn> = (0..common::CONNS)
        .map(|_| load::Conn::connect(addr).expect("warm-up connection"))
        .collect();
    let mut body = Vec::new();
    for k in 0..WARM_PUBLISHES {
        let conn = &mut conns[(k * common::CONNS as u64 / WARM_PUBLISHES) as usize];
        let bundle = bundle_of_publish(k, publishes.len());
        assert_eq!(conn.exchange(&publishes[bundle], &mut body).expect("warm-up publish"), 200);
        conn.exchange(route, &mut body).expect("warm-up route");
    }
}

fn publish_samples(pass: &Pass) -> Vec<load::Sample> {
    pass.logs[0].samples.iter().filter(|s| matches!(s.item, Item::Publish(_))).copied().collect()
}

/// Generations, counted from the timed phase's start, that may have served
/// a request spanning `[start, end]`: generation `k + 2` becomes current
/// inside timed publish `k` and stays current until publish `k + 1` returns.
fn generations(publishes: &[load::Sample], start: u64, end: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for g in 1..=publishes.len() as u64 + 1 {
        let from = if g == 1 { 0 } else { publishes[g as usize - 2].start_ns };
        let to = publishes.get(g as usize - 1).map_or(u64::MAX, |p| p.end_ns);
        if from <= end && start <= to {
            out.push(g);
        }
    }
    out
}

/// Publish responses and the final generation against the schedule.
fn check_schedule(report: &mut Report, pass: &Pass) {
    let publishes = publish_samples(pass);
    report.attempted += publishes.len() as u64;
    for (k, p) in publishes.iter().enumerate() {
        let want = wire_generation(k as u64 + 2 + WARM_PUBLISHES);
        let body = pass.logs[0].body(p);
        if p.body == NO_BODY || p.status != 200 || body != Some(want.as_bytes()) {
            report.failed += 1;
            report.problems.push(format!(
                "publish {k} answered {} {:?}, want 200 {want}",
                p.status,
                body.map(String::from_utf8_lossy)
            ));
        }
    }
    let scheduled = publishes.len() as u64 + 1 + WARM_PUBLISHES;
    let observed = pass.delta("route").generation;
    if observed != scheduled {
        report.problems.push(format!(
            "route-publish observed {observed} generations; the schedule made {scheduled}"
        ));
    }
    if publishes.is_empty() {
        report.problems.push("route-publish made no publish while timed".to_string());
    }
    let ask = pass.delta("ask");
    if ask.cache_hits + ask.cache_misses != 0 {
        report.problems.push("route-publish reached the /ask front".to_string());
    }
}

fn wire_generation(g: u64) -> String {
    format!("{{\"generation\":{g}}}")
}

type Reference = (RoutingResult, (u16, Vec<u8>));

/// Direct routes on every bundle of the rotation, for every pool question.
fn references(system: &TierSystem, qs: &Questions) -> HashMap<(usize, u32), Reference> {
    let top_tables = ServiceConfig::default().top_tables;
    let mut out = HashMap::new();
    let all: Vec<u32> = (0..qs.len() as u32).collect();
    for (b, bytes) in system.bundles.iter().enumerate() {
        let tier = load_sharded_router_bytes(bytes.clone()).expect("bundle loads");
        let routed = dbcopilot::runtime::pooled_map(&all, |_, &q| {
            let text = &qs.texts[q as usize];
            let r = tier.route(text, top_tables);
            let (status, body) = wire::route_response(text, &r);
            (r, (status, body.into_bytes()))
        });
        out.extend(all.iter().map(|&q| (b, q)).zip(routed));
    }
    out
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let databases = setup::SERVED_DATABASES + setup::HELD_OUT;
    let instances = setup::draw_questions(databases, POOL * 8, POOL_SEED, POOL);
    let qs = Questions::new(instances.iter().map(|i| i.question.clone()).collect(), "/route");

    let phase_seconds = seconds / common::PHASES as f64;
    let (system, setup_times, phases, traced) = common::phased(
        setup::tier_system,
        |system, k, traced| pass(system, &qs, split_seed(seed, k), phase_seconds, traced),
        trace,
    );
    let n = system.bundles.len();
    let all: Vec<(&str, &Pass)> =
        phases.iter().map(|p| ("", p)).chain(traced.iter().map(|t| ("traced run: ", t))).collect();

    // Correctness, outside every timed phase: each served body against a
    // direct route on a generation current during the request.
    let reference = references(&system, &qs);
    let mut report = Report::default();
    for (label, p) in &all {
        let mut checked = Report::default();
        let publishes = publish_samples(p);
        common::check_bodies(&mut checked, p, |q, s| {
            generations(&publishes, s.start_ns, s.end_ns)
                .into_iter()
                .filter_map(|g| reference.get(&(bundle_of_generation(g, n), q)).map(|r| &r.1))
                .collect()
        });
        check_schedule(&mut checked, p);
        common::merge_checks(&mut report, checked, label);
    }

    let quality = quality(&system, &instances, &reference);
    common::fill_end_to_end(&mut report, &phases, &setup_times, quality);
    if let Some(t) = &traced {
        common::fill_per_layer(
            &mut report,
            &phases,
            t,
            &setup_times,
            "route",
            seed,
            "route-publish",
        );
        let (scatter, calibrate) = scatter_calibrate(&system, &qs);
        report.set("core.shard_scatter_us", scatter);
        report.set("core.calibrate_us", calibrate);
    }
    report
}

/// `(answered_pct, ex_pct, db_r1_pct)` of the tier's routes over the pool,
/// on every bundle of the publish rotation. Answered and EX feed each route's top-3
/// databases, with their routed tables, to the SQL stage
/// (`DbCopilot::ask_candidates`, the pipeline's candidate loop).
fn quality(
    system: &TierSystem,
    instances: &[Instance],
    reference: &HashMap<(usize, u32), Reference>,
) -> common::Quality {
    let corpus = &system.corpus;
    // `ask_candidates` does not route; the router here only completes the
    // pipeline's parts.
    let router =
        DbcRouter::untrained(SchemaGraph::build(&corpus.collection), Scale::quick().router);
    let copilot = DbCopilot::from_parts(
        router,
        Scale::quick().llm,
        corpus.collection.clone(),
        corpus.store.clone(),
    );
    let opts = AskOptions::new();
    let mut prepared: HashMap<&str, PreparedDb> = HashMap::new();
    let (mut answered, mut ex, mut r1, mut of) = (0u64, 0u64, 0u64, 0u64);
    for b in 0..system.bundles.len() {
        for (q, inst) in instances.iter().enumerate() {
            let (routing, _) = &reference[&(b, q as u32)];
            of += 1;
            let gold_db = inst.schema.database.as_str();
            if routing.databases.first().map(|(d, _)| d.as_str()) == Some(gold_db) {
                r1 += 1;
            }
            let candidates: Vec<ScoredCandidate> = routing
                .databases
                .iter()
                .take(opts.top_k)
                .map(|(db, score)| {
                    let tables =
                        routing.tables.iter().filter(|t| t.0 == *db).map(|t| t.1.clone()).collect();
                    ScoredCandidate { schema: QuerySchema::new(db.clone(), tables), logp: *score }
                })
                .collect();
            let Ok(report) = copilot.ask_candidates(&inst.question, candidates, &opts) else {
                continue;
            };
            answered += 1;
            let Some(db) = corpus.store.database(gold_db) else { continue };
            let pdb = prepared.entry(gold_db).or_insert_with(|| PreparedDb::prepare(db));
            if let Ok(gold) = execute_prepared(pdb, &inst.sql) {
                if compare_to_gold_prepared(pdb, &gold, &report.answer.sql).is_match() {
                    ex += 1;
                }
            }
        }
    }
    common::Quality::new(answered, ex, r1, of)
}

/// Single-threaded split of a tier route, on the full tier (last bundle):
/// `(Σ shard-router routes, Σ route_shard − Σ shard-router routes)` per
/// question, medians in µs. The second term is the per-shard score
/// calibration (and per-shard sort) that `route_shard` adds.
fn scatter_calibrate(system: &TierSystem, qs: &Questions) -> (f64, f64) {
    let top_tables = ServiceConfig::default().top_tables;
    let last = system.bundles.len() - 1;
    let tier = load_sharded_router_bytes(system.bundles[last].clone()).expect("bundle loads");
    let sample: Vec<&String> = qs.texts.iter().take(SPLIT_SAMPLE).collect();
    // Decode every shard and compute calibration backgrounds first.
    let _ = tier.route(sample[0], top_tables);
    dbcopilot::runtime::with_thread_count(1, || {
        let mut scatter = Vec::with_capacity(sample.len());
        let mut calibrate = Vec::with_capacity(sample.len());
        for q in &sample {
            let (mut raw, mut shard) = (0f64, 0f64);
            for s in 0..tier.num_shards() {
                let Some(router) = tier.shard_router(s) else { continue };
                let t = Instant::now();
                std::hint::black_box(router.route(q, top_tables));
                raw += t.elapsed().as_secs_f64();
                let t = Instant::now();
                std::hint::black_box(tier.route_shard(s, q, top_tables));
                shard += t.elapsed().as_secs_f64();
            }
            scatter.push(raw * 1e6);
            calibrate.push((shard - raw) * 1e6);
        }
        (median(&scatter), median(&calibrate))
    })
}
