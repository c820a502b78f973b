//! Standing the system up: the quick-scale Spider-like corpus, the trained
//! router (or 4-shard tier plus its held-out extensions), and the persisted
//! bundles the serving fronts load. Every stage is timed; a run stands the
//! system up once per timed phase and reports medians.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use dbcopilot::core::{
    load_router_slice, load_sharded_router_bytes, router_to_vec, sharded_router_to_vec,
    synthesize_training_data, DbcRouter, SerializationMode, ShardedRouter,
};
use dbcopilot::eval::Scale;
use dbcopilot::graph::{
    augment_graph_with_joinable, joinable::DEFAULT_JACCARD_THRESHOLD, SchemaGraph,
};
use dbcopilot::serve::normalize_question;
use dbcopilot::sqlengine::{Collection, Store};
use dbcopilot::synth::{
    build_spider_like, generate_collection, generate_instances_for, questioner_pairs, Corpus,
    CorpusSizes, GenConfig, Instance, Lexicon, Questioner, QuestionerConfig, TEST_STYLE,
};
use dbcopilot::DbCopilot;

use crate::metrics::median;

/// Databases served by the ask deployment and at the tier's start.
pub const SERVED_DATABASES: usize = 16;
/// Databases held out of the tier's start and published one by one.
pub const HELD_OUT: usize = 4;
/// Shards of the routing tier.
pub const SHARDS: usize = 4;
/// `ShardedRouter::extend` budget per held-out database.
const EXTEND_PAIRS: usize = 48;
const EXTEND_EPOCHS: usize = 2;

/// Seconds (or ms / KiB where named) spent in each set-up stage.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    pub total_s: f64,
    pub corpus_s: f64,
    pub graph_s: f64,
    pub questioner_s: f64,
    pub synth_s: f64,
    pub train_s: f64,
    pub extend_s: f64,
    /// Mean per bundle.
    pub save_ms: f64,
    pub bundle_kib: f64,
    pub load_ms: f64,
}

impl StageTimes {
    /// Stage-wise medians over repeated set-ups.
    pub fn median_of(all: &[StageTimes]) -> StageTimes {
        let m = |f: fn(&StageTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        StageTimes {
            total_s: m(|t| t.total_s),
            corpus_s: m(|t| t.corpus_s),
            graph_s: m(|t| t.graph_s),
            questioner_s: m(|t| t.questioner_s),
            synth_s: m(|t| t.synth_s),
            train_s: m(|t| t.train_s),
            extend_s: m(|t| t.extend_s),
            save_ms: m(|t| t.save_ms),
            bundle_kib: m(|t| t.bundle_kib),
            load_ms: m(|t| t.load_ms),
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn sizes(num_databases: usize) -> CorpusSizes {
    let quick = Scale::quick();
    CorpusSizes { num_databases, ..quick.spider }
}

/// Workload questions with gold SQL over every database of the
/// `num_databases` corpus: `draw` instances from the corpus generator
/// (same generator, same seed as the served corpus), kept while distinct
/// under the cache's normalized key, at most `limit` of them.
pub fn draw_questions(num_databases: usize, draw: usize, seed: u64, limit: usize) -> Vec<Instance> {
    let mut cfg = GenConfig::spider_like(Scale::quick().seed);
    cfg.num_databases = num_databases;
    let gc = generate_collection(&cfg);
    let dbs: Vec<String> = gc.collection.databases.keys().cloned().collect();
    let mut seen = BTreeSet::new();
    generate_instances_for(&gc, &Lexicon::new(), draw, TEST_STYLE, seed, &dbs)
        .into_iter()
        .filter(|i| seen.insert(normalize_question(&i.question)))
        .take(limit)
        .collect()
}

fn graph_of(collection: &Collection, store: &Store) -> SchemaGraph {
    let mut graph = SchemaGraph::build(collection);
    augment_graph_with_joinable(&mut graph, store, DEFAULT_JACCARD_THRESHOLD);
    graph
}

/// The `/ask` deployment: the pipeline over 16 databases, plus the saved
/// router bundle its routing front (and its publisher) load.
pub struct AskSystem {
    pub copilot: Arc<DbCopilot>,
    pub store: Store,
    pub bundle: Arc<Vec<u8>>,
}

/// Stand the ask deployment up once.
pub fn ask_system() -> (AskSystem, StageTimes) {
    let scale = Scale::quick();
    let mut t = StageTimes::default();
    let all = Instant::now();

    let s = Instant::now();
    let corpus = build_spider_like(&sizes(SERVED_DATABASES), scale.seed);
    t.corpus_s = secs(s);

    let s = Instant::now();
    let graph = graph_of(&corpus.collection, &corpus.store);
    t.graph_s = secs(s);

    let s = Instant::now();
    let questioner = Questioner::train(&questioner_pairs(&corpus), &QuestionerConfig::default());
    t.questioner_s = secs(s);

    let s = Instant::now();
    let examples = synthesize_training_data(
        &graph,
        &corpus.meta,
        &questioner,
        scale.synth_pairs,
        scale.seed.wrapping_add(31),
    );
    t.synth_s = secs(s);

    let s = Instant::now();
    let (router, _) =
        DbcRouter::fit(graph, &examples, scale.router.clone(), SerializationMode::Dfs);
    t.train_s = secs(s);

    let s = Instant::now();
    let bundle = router_to_vec(&router).expect("trained router serializes");
    t.save_ms = secs(s) * 1e3;
    t.bundle_kib = bundle.len() as f64 / 1024.0;

    // The pipeline serves the router as loaded from its bundle, the way a
    // deployment starts from a persisted artifact.
    let s = Instant::now();
    let served = load_router_slice(&bundle).expect("saved router loads");
    t.load_ms = secs(s) * 1e3;
    drop(router);

    let copilot = DbCopilot::from_parts(
        served,
        scale.llm.clone(),
        corpus.collection.clone(),
        corpus.store.clone(),
    )
    .into_shared();
    t.total_s = secs(all);
    (AskSystem { copilot, store: corpus.store, bundle: Arc::new(bundle) }, t)
}

/// The `/route` deployment: a 4-shard tier over 16 of 20 databases, and
/// one persisted `SHRD` bundle per generation (start, then +1 held-out
/// database each).
pub struct TierSystem {
    pub corpus: Corpus,
    /// `bundles[k]` serves the start databases plus the first `k` held out.
    pub bundles: Arc<Vec<Vec<u8>>>,
}

/// Stand the routing tier up once.
pub fn tier_system() -> (TierSystem, StageTimes) {
    let scale = Scale::quick();
    let mut t = StageTimes::default();
    let all = Instant::now();

    let s = Instant::now();
    let corpus = build_spider_like(&sizes(SERVED_DATABASES + HELD_OUT), scale.seed);
    t.corpus_s = secs(s);
    let held_out = held_out_databases(&corpus);
    let collection_with = |extra: usize| {
        let mut c = Collection::new();
        for (name, db) in &corpus.collection.databases {
            let held = held_out.iter().position(|h| h == name);
            if held.is_none_or(|k| k < extra) {
                c.add_database(db.clone());
            }
        }
        c
    };
    let start_collection = collection_with(0);

    let s = Instant::now();
    let graph = graph_of(&start_collection, &corpus.store);
    t.graph_s = secs(s);

    let s = Instant::now();
    let questioner = Questioner::train(&questioner_pairs(&corpus), &QuestionerConfig::default());
    t.questioner_s = secs(s);

    let s = Instant::now();
    let examples = synthesize_training_data(
        &graph,
        &corpus.meta,
        &questioner,
        scale.synth_pairs,
        scale.seed.wrapping_add(31),
    );
    t.synth_s = secs(s);

    let s = Instant::now();
    let (tier, _) = ShardedRouter::fit(
        &start_collection,
        &examples,
        scale.router.clone(),
        SerializationMode::Dfs,
        SHARDS,
    );
    t.train_s = secs(s);

    let s = Instant::now();
    let mut tiers = vec![tier];
    for k in 1..=HELD_OUT {
        let grown = collection_with(k);
        let (next, _) = tiers[k - 1]
            .extend(&grown, &corpus.meta, &questioner, EXTEND_PAIRS, EXTEND_EPOCHS)
            .expect("shard-local extend");
        tiers.push(next);
    }
    t.extend_s = secs(s);

    let s = Instant::now();
    let bundles: Vec<Vec<u8>> =
        tiers.iter().map(|r| sharded_router_to_vec(r).expect("tier serializes")).collect();
    t.save_ms = secs(s) * 1e3 / bundles.len() as f64;
    t.bundle_kib =
        bundles.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0 / bundles.len() as f64;
    drop(tiers);

    // What a server start pays: framing checks now, shard decode on the
    // first route.
    let s = Instant::now();
    let start = load_sharded_router_bytes(bundles[0].clone()).expect("start bundle loads");
    t.load_ms = secs(s) * 1e3;
    drop(start);

    t.total_s = secs(all);
    (TierSystem { corpus, bundles: Arc::new(bundles) }, t)
}

/// Every fifth database by name: spread over both the train and the test
/// side of the corpus split.
pub fn held_out_databases(corpus: &Corpus) -> Vec<String> {
    corpus.collection.databases.keys().skip(4).step_by(5).take(HELD_OUT).cloned().collect()
}
