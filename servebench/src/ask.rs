//! `ask-cold` and `ask-hot`: `POST /ask` against the full stack,
//! `HttpServer` → `ServiceApp` → `AskService` → `DbCopilot`.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dbcopilot::core::load_router_slice;
use dbcopilot::http::{wire, HttpConfig, HttpServer, ServiceApp};
use dbcopilot::runtime::split_seed;
use dbcopilot::serve::{AskError, AskOptions, AskReport, AskService, RouterService, ServiceConfig};
use dbcopilot::sqlengine::{compare_to_gold_prepared, execute_prepared, PreparedDb};
use dbcopilot::synth::Instance;
use dbcopilot::DbCopilot;

use crate::common::{self, Pass, Questions};
use crate::load::{self, Item};
use crate::metrics::Report;
use crate::setup::{self, AskSystem};
use crate::trace::{Keys, TracedDispatcher, TracedPipeline};

/// Which `/ask` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct questions, each sent once: the cache never hits.
    Cold,
    /// A warmed 256-question pool under skewed reads: the cache always hits.
    Hot,
}

/// Questions in the hot pool.
const HOT_POOL: usize = 256;
/// Instances drawn for the cold workload; after de-duplication this leaves
/// several times what one timed phase can ask.
const COLD_DRAW: usize = 60_000;
/// Seed of the hot pool: the pool is part of the workload's definition;
/// `--seed` draws the request sequence over it.
const HOT_POOL_SEED: u64 = 0x5eed_0256;

fn questions(kind: Kind, seed: u64) -> Vec<Instance> {
    let n = setup::SERVED_DATABASES;
    match kind {
        Kind::Cold => setup::draw_questions(n, COLD_DRAW, split_seed(seed, 1), usize::MAX),
        Kind::Hot => setup::draw_questions(n, HOT_POOL * 8, HOT_POOL_SEED, HOT_POOL),
    }
}

fn serve(system: &AskSystem, keys: Option<Keys>) -> HttpServer {
    let bundle = Arc::clone(&system.bundle);
    let router = load_router_slice(&bundle).expect("router bundle loads");
    let route = RouterService::from_router(router, ServiceConfig::default());
    let cfg = HttpConfig::new().workers(common::CONNS);
    let publisher =
        move |_: &serde::Value| load_router_slice(&bundle).map(Arc::new).map_err(|e| e.to_string());
    let opts = AskOptions::new();
    match keys {
        None => {
            let ask = AskService::new(Arc::clone(&system.copilot), opts, ServiceConfig::default());
            let app = ServiceApp::new(ask, route).with_publisher(publisher);
            HttpServer::bind("127.0.0.1:0", app, cfg)
        }
        Some(keys) => {
            let pipeline =
                TracedPipeline { copilot: Arc::clone(&system.copilot), keys: Arc::clone(&keys) };
            let ask = AskService::from_pipeline(pipeline, opts, ServiceConfig::default());
            let app = ServiceApp::new(ask, route).with_publisher(publisher);
            HttpServer::bind("127.0.0.1:0", TracedDispatcher { inner: app, keys }, cfg)
        }
    }
    .expect("bind the HTTP edge on an ephemeral port")
}

/// One timed phase on a fresh server (empty cache).
fn pass(
    kind: Kind,
    system: &AskSystem,
    qs: &Questions,
    cursor: &AtomicUsize,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Pass {
    let server = serve(system, traced.then(|| Arc::clone(&qs.keys)));
    let addr = server.addr();
    if kind == Kind::Hot {
        // Fill the cache with the whole pool before the clock starts.
        common::warm(addr, &qs.requests);
    }
    let next = |conn: usize, seq: u64| -> Option<Item> {
        match kind {
            Kind::Cold => {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                (at < qs.len()).then_some(Item::Question(at as u32))
            }
            Kind::Hot => Some(Item::Question(load::skewed(qs.len(), seed, conn, seq) as u32)),
        }
    };
    let mut pass = common::timed(&server, seconds, traced, &next, &|item| match item {
        Item::Question(q) => qs.requests[q as usize].as_slice(),
        Item::Publish(_) => &[],
    });
    pass.publish_ms = common::publish_round_trips(addr);
    server.shutdown();
    pass
}

/// Run one `/ask` workload and report it.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Report {
    let instances = questions(kind, seed);
    let qs = Questions::new(instances.iter().map(|i| i.question.clone()).collect(), "/ask");

    // Cold questions are consumed across phases: none is ever asked twice.
    let cursor = AtomicUsize::new(0);
    let phase_seconds = seconds / common::PHASES as f64;
    let (system, setup_times, phases, traced) = common::phased(
        setup::ask_system,
        |system, k, traced| {
            let seed = split_seed(seed, k);
            pass(kind, system, &qs, &cursor, seed, phase_seconds, traced)
        },
        trace,
    );
    let all: Vec<(&str, &Pass)> =
        phases.iter().map(|p| ("", p)).chain(traced.iter().map(|t| ("traced run: ", t))).collect();

    // Correctness, outside every timed phase: each served body against the
    // wire rendering of a direct `DbCopilot::ask_with`.
    let served: BTreeSet<u32> = all.iter().flat_map(|(_, p)| p.served()).collect();
    let served: Vec<u32> = served.into_iter().collect();
    let reference = references(&system.copilot, &qs.texts, &served);
    let mut report = Report::default();
    for (label, p) in &all {
        let mut checked = Report::default();
        common::check_bodies(&mut checked, p, |q, _| vec![&reference[&q].1]);
        common::merge_checks(&mut report, checked, label);
    }

    // Workload sanity: the workload still exercises its layer.
    for (label, p) in &all {
        let d = p.delta("ask");
        match kind {
            Kind::Cold if d.cache_hits != 0 => report.problems.push(format!(
                "{label}ask-cold served {} cache hits; it must serve none",
                d.cache_hits
            )),
            Kind::Hot => {
                let lookups = d.cache_hits + d.cache_misses;
                if lookups == 0 || d.cache_hits * 100 < lookups * 99 {
                    report.problems.push(format!(
                        "{label}ask-hot hit the cache on {} of {lookups} lookups; it must hit on >= 99%",
                        d.cache_hits
                    ));
                }
                if d.computed != 0 {
                    report.problems.push(format!(
                        "{label}ask-hot computed {} pipeline runs while timed; it must compute none",
                        d.computed
                    ));
                }
            }
            _ => {}
        }
    }
    if kind == Kind::Cold && cursor.load(Ordering::Relaxed) >= qs.len() {
        report.problems.push(format!(
            "ask-cold ran out of its {} distinct questions before the deadline",
            qs.len()
        ));
    }

    // Quality against gold over the distinct questions the untraced phases asked.
    let asked: BTreeSet<u32> = phases.iter().flat_map(Pass::served).collect();
    let asked: Vec<u32> = asked.into_iter().collect();
    let quality = quality(&system, &instances, &asked, &reference);

    common::fill_end_to_end(&mut report, &phases, &setup_times, quality);
    if let Some(t) = &traced {
        common::fill_per_layer(&mut report, &phases, t, &setup_times, "ask", seed, kind_name(kind));
    }
    report
}

pub fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Cold => "ask-cold",
        Kind::Hot => "ask-hot",
    }
}

/// A direct ask's outcome and its wire rendering `(status, body)`.
type Reference = (Result<AskReport, AskError>, (u16, Vec<u8>));

/// The reference of every served question.
fn references(
    copilot: &Arc<DbCopilot>,
    texts: &[String],
    served: &[u32],
) -> HashMap<u32, Reference> {
    let opts = AskOptions::new();
    let outcomes = dbcopilot::runtime::pooled_map(served, |_, &q| {
        let outcome = copilot.ask_with(&texts[q as usize], &opts);
        let (status, body) = wire::ask_response(&outcome);
        (outcome, (status, body.into_bytes()))
    });
    served.iter().copied().zip(outcomes).collect()
}

/// `(answered_pct, ex_pct, db_r1_pct)` over the given questions.
fn quality(
    system: &AskSystem,
    instances: &[Instance],
    asked: &[u32],
    reference: &HashMap<u32, Reference>,
) -> common::Quality {
    let mut prepared: HashMap<&str, PreparedDb> = HashMap::new();
    let (mut answered, mut ex, mut r1) = (0u64, 0u64, 0u64);
    for &q in asked {
        let inst = &instances[q as usize];
        let gold_db = inst.schema.database.as_str();
        let top = match &reference[&q].0 {
            Ok(report) => report.candidates.first().map(|c| c.schema.database.clone()),
            Err(_) => system
                .copilot
                .router
                .route_schemata(&inst.question)
                .first()
                .map(|d| d.schema.database.clone()),
        };
        if top.as_deref() == Some(gold_db) {
            r1 += 1;
        }
        let Ok(report) = &reference[&q].0 else { continue };
        answered += 1;
        let Some(db) = system.store.database(gold_db) else { continue };
        let pdb = prepared.entry(gold_db).or_insert_with(|| PreparedDb::prepare(db));
        if let Ok(gold) = execute_prepared(pdb, &inst.sql) {
            if compare_to_gold_prepared(pdb, &gold, &report.answer.sql).is_match() {
                ex += 1;
            }
        }
    }
    common::Quality::new(answered, ex, r1, asked.len() as u64)
}
