//! `servebench` — one benchmark for the served DBCopilot stack.
//!
//! Stands up the real `HttpServer` → `ServiceApp` → `AskService` /
//! `RouterService` → `DbCopilot` / `ShardedRouter` stack on the quick-scale
//! Spider-like corpus and drives one closed-loop workload over two
//! keep-alive connections:
//!
//! * `ask-cold` — `POST /ask`, every question distinct: routing, the ask
//!   loop, nl2sql and sqlengine run for every request;
//! * `ask-hot` — `POST /ask`, skewed reads over a warmed 256-question pool:
//!   every request is a cache hit;
//! * `route-publish` — `POST /route` on a 4-shard tier while connection 0
//!   hot-swaps bundles through `POST /admin/publish`.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload ask-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! End-to-end metrics come from three untraced timed phases, each on a
//! freshly set-up system and server; `--trace 1` adds a traced phase whose
//! per-layer table replaces them in the JSON line. Every served body is
//! checked after the timed phases; any mismatch or workload-sanity failure
//! makes the exit code 1.

mod analysis;
mod ask;
mod common;
mod load;
mod metrics;
mod route;
mod setup;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required (ask-cold, ask-hot, route-publish)")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("servebench: {why}");
            return ExitCode::from(2);
        }
    };
    // Start the shared clock before any server thread records a span.
    load::now_ns();
    let report = match args.workload.as_str() {
        "ask-cold" => ask::run(ask::Kind::Cold, args.seed, args.seconds, args.trace),
        "ask-hot" => ask::run(ask::Kind::Hot, args.seed, args.seconds, args.trace),
        "route-publish" => route::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("servebench: unknown workload {other:?} (ask-cold, ask-hot, route-publish)");
            return ExitCode::from(2);
        }
    };
    report.print(&args.workload, args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
