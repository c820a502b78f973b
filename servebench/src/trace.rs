//! The traced run's recorder and the wrappers that feed it.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer through its public functions: a wrapper [`Dispatcher`] (the
//! edge → serve boundary), a wrapper [`QueryPipeline`] (serve → core →
//! ask loop) and a wrapper [`SchemaRouter`] (serve → sharded tier). Spans
//! are kept in memory — one buffer per recording thread — and joined to
//! the client's samples after the run, which gives every span of one
//! request the same request id.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dbcopilot::http::Dispatcher;
use dbcopilot::retrieval::{RoutingResult, SchemaRouter, ShardCounters};
use dbcopilot::serve::{
    AskError, AskOptions, AskOutcome, AskReport, AttemptOutcome, QueryPipeline, ScoredCandidate,
    ServiceStats,
};
use dbcopilot::DbCopilot;
use serde::Value;

use crate::load::now_ns;

/// Which boundary a span was taken at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Dispatcher::ask` / `Dispatcher::route` on the connection thread.
    Serve,
    /// `Dispatcher::publish`.
    Publish,
    /// `DbcRouter::route_schemata` inside the traced pipeline.
    CoreRoute,
    /// `DbCopilot::ask_candidates` inside the traced pipeline.
    AskLoop,
    /// `ShardedRouter::route` inside the traced router.
    TierRoute,
    /// Bundle decode inside the publisher.
    Load,
}

/// What the ask loop did for one question.
#[derive(Debug, Clone, Copy, Default)]
pub struct AskWork {
    pub answered: bool,
    pub recovered: bool,
    pub attempts: u32,
    pub executions: u32,
    pub executions_ok: u32,
    /// `StageTimings` of the report (answered questions only).
    pub generate_ns: u64,
    pub execute_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub enum Payload {
    None,
    Candidates(u32),
    Ask(AskWork),
    /// Router generation and whether this was its first route.
    Route {
        generation: u32,
        first: bool,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Question index (`u32::MAX` when the text is not a workload question).
    pub key: u32,
    /// Recording thread.
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub payload: Payload,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

fn registry() -> &'static Mutex<Vec<Buffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: (u32, Buffer) = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        let mut all = registry().lock().expect("trace registry poisoned");
        all.push(Arc::clone(&buffer));
        ((all.len() - 1) as u32, buffer)
    };
}

fn record(layer: Layer, key: u32, start_ns: u64, end_ns: u64, payload: Payload) {
    LOCAL.with(|(thread, buffer)| {
        buffer.lock().expect("trace buffer poisoned").push(Span {
            layer,
            key,
            thread: *thread,
            start_ns,
            end_ns,
            payload,
        })
    });
}

/// Take every span recorded so far, from every thread.
pub fn drain() -> Vec<Span> {
    let all = registry().lock().expect("trace registry poisoned");
    let mut out = Vec::new();
    for buffer in all.iter() {
        out.append(&mut buffer.lock().expect("trace buffer poisoned"));
    }
    out.sort_by_key(|s| s.start_ns);
    out
}

/// Question text → workload index, shared by the wrappers.
pub type Keys = Arc<HashMap<String, u32>>;

fn key_of(keys: &Keys, question: &str) -> u32 {
    keys.get(question).copied().unwrap_or(u32::MAX)
}

/// Times the edge → serve boundary.
pub struct TracedDispatcher<D> {
    pub inner: D,
    pub keys: Keys,
}

impl<D: Dispatcher> Dispatcher for TracedDispatcher<D> {
    fn ask(&self, question: &str) -> Arc<AskOutcome> {
        let start = now_ns();
        let out = self.inner.ask(question);
        record(Layer::Serve, key_of(&self.keys, question), start, now_ns(), Payload::None);
        out
    }

    fn route(&self, question: &str) -> Option<Arc<RoutingResult>> {
        let start = now_ns();
        let out = self.inner.route(question);
        record(Layer::Serve, key_of(&self.keys, question), start, now_ns(), Payload::None);
        out
    }

    fn stats(&self) -> Vec<(&'static str, ServiceStats)> {
        self.inner.stats()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn publish(&self, spec: &Value) -> Result<u64, String> {
        let start = now_ns();
        let out = self.inner.publish(spec);
        record(Layer::Publish, u32::MAX, start, now_ns(), Payload::None);
        out
    }
}

/// `DbCopilot::ask_with` split in two so routing and the candidate loop are
/// timed apart: `route_schemata`, then `ask_candidates` on the top-k.
pub struct TracedPipeline {
    pub copilot: Arc<DbCopilot>,
    pub keys: Keys,
}

impl QueryPipeline for TracedPipeline {
    fn ask_with(&self, question: &str, opts: &AskOptions) -> Result<AskReport, AskError> {
        let key = key_of(&self.keys, question);
        let start = now_ns();
        let decoded = self.copilot.router.route_schemata(question);
        let routed = now_ns();
        let found = decoded.len() as u32;
        let candidates: Vec<ScoredCandidate> = decoded
            .into_iter()
            .take(opts.top_k.max(1))
            .map(|d| ScoredCandidate { schema: d.schema, logp: d.logp })
            .collect();
        let out = self.copilot.ask_candidates(question, candidates, opts);
        let end = now_ns();
        record(Layer::CoreRoute, key, start, routed, Payload::Candidates(found));
        record(Layer::AskLoop, key, routed, end, Payload::Ask(ask_work(&out)));
        out
    }
}

fn ask_work(out: &AskOutcome) -> AskWork {
    let count = |attempts: &[dbcopilot::serve::SqlAttempt]| {
        let executions =
            attempts.iter().filter(|a| !matches!(a.outcome, AttemptOutcome::NoSql)).count();
        let ok =
            attempts.iter().filter(|a| matches!(a.outcome, AttemptOutcome::Success { .. })).count();
        (attempts.len() as u32, executions as u32, ok as u32)
    };
    match out {
        Ok(report) => {
            let (attempts, executions, executions_ok) = count(&report.attempts);
            AskWork {
                answered: true,
                recovered: report.recovered(),
                attempts,
                executions,
                executions_ok,
                generate_ns: report.timings.generate.as_nanos() as u64,
                execute_ns: report.timings.execute.as_nanos() as u64,
            }
        }
        Err(AskError::Execution(e)) => {
            let (attempts, executions, executions_ok) = count(&e.attempts);
            AskWork { attempts, executions, executions_ok, ..AskWork::default() }
        }
        Err(_) => AskWork::default(),
    }
}

/// Times the serve → sharded tier boundary for one published generation.
pub struct TracedRouter<R> {
    pub inner: R,
    pub generation: u32,
    pub keys: Keys,
    pub first: AtomicBool,
}

impl<R> TracedRouter<R> {
    pub fn new(inner: R, generation: u32, keys: Keys) -> Self {
        TracedRouter { inner, generation, keys, first: AtomicBool::new(true) }
    }
}

impl<R: SchemaRouter> SchemaRouter for TracedRouter<R> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        let start = now_ns();
        let out = self.inner.route(question, top_tables);
        let end = now_ns();
        let first = self.first.swap(false, Ordering::Relaxed);
        let payload = Payload::Route { generation: self.generation, first };
        record(Layer::TierRoute, key_of(&self.keys, question), start, end, payload);
        out
    }

    fn shard_counters(&self) -> Vec<ShardCounters> {
        self.inner.shard_counters()
    }
}

/// Record a bundle decode inside the publisher.
pub fn record_load(start_ns: u64, end_ns: u64) {
    record(Layer::Load, u32::MAX, start_ns, end_ns, Payload::None);
}
