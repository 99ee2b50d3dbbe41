//! `coevo-replay`: the reference pipelines of the benchmark in `perfbench/`.
//!
//! Each study mode calls the workspace crates' public functions in the order
//! the `coevo` binary calls them, one project after another on one thread,
//! and writes what the program prints, so `run.py` can compare the two byte
//! for byte. With `--trace` every call runs inside a span (see [`trace`]),
//! and span totals, counters and per-layer self times go to standard output
//! as one JSON object.
//!
//! ```text
//! coevo-replay paper  --corpus DIR --store DIR --out FILE [--trace]
//! coevo-replay stream --shards DIR --out FILE [--trace]
//! coevo-replay serve  --warm FILE --requests FILE --store DIR --out FILE --inproc FILE [--trace]
//! coevo-replay engine-paper  --corpus DIR --store DIR
//! coevo-replay engine-stream --shards DIR
//! ```
//!
//! The study modes report their own wall time as `replay.wall_ms`, traced or
//! not, so the cost of tracing is the difference of two runs. The two
//! `engine-*` modes time one `StudyRunner` call configured as `coevo study`
//! configures it, which splits a study's wall time into the engine and the
//! command line around it.

mod section7;
mod serve;
mod study;
mod trace;

use coevo_diff::MatchPolicy;
use coevo_engine::allocs::CountingAlloc;
use coevo_engine::{Source, StudyConfig, StudyRunner};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc<std::alloc::System> = CountingAlloc(std::alloc::System);

/// Worker threads of every engine call, as `coevo study --workers 2`.
const WORKERS: usize = 2;
/// The streamed workload's resident cap, as `--max-resident 500`.
const MAX_RESIDENT: usize = 500;

type Res<T> = Result<T, String>;

thread_local! {
    static COUNTERS: RefCell<BTreeMap<&'static str, u64>> = const { RefCell::new(BTreeMap::new()) };
}

/// Add `n` to the counter `name` while spans are being recorded.
fn count(name: &'static str, n: u64) {
    if trace::enabled() {
        COUNTERS.with(|c| *c.borrow_mut().entry(name).or_default() += n);
    }
}

/// Raise the counter `name` to at least `n` while spans are being recorded.
fn count_max(name: &'static str, n: u64) {
    if trace::enabled() {
        COUNTERS.with(|c| {
            let mut c = c.borrow_mut();
            let v = c.entry(name).or_default();
            *v = (*v).max(n);
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("coevo-replay: {e}");
        std::process::exit(1);
    }
}

struct Args {
    mode: String,
    flags: BTreeMap<String, String>,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Res<Self> {
        let mode = args.first().ok_or("missing mode")?.clone();
        let mut flags = BTreeMap::new();
        let mut trace = false;
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            if a == "--trace" {
                trace = true;
                continue;
            }
            let key = a.strip_prefix("--").ok_or_else(|| format!("unexpected argument {a}"))?;
            let value = rest.next().ok_or_else(|| format!("{a} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Self { mode, flags, trace })
    }

    fn path(&self, key: &str) -> Res<PathBuf> {
        self.flags.get(key).map(PathBuf::from).ok_or_else(|| format!("missing --{key}"))
    }
}

fn run(args: &[String]) -> Res<()> {
    let a = Args::parse(args)?;
    let mut extra = BTreeMap::new();
    match a.mode.as_str() {
        "paper" => {
            trace::set_enabled(a.trace);
            let t = Instant::now();
            let text = study::paper(&a.path("corpus")?, &a.path("store")?)?;
            extra.insert("replay.wall_ms".into(), t.elapsed().as_secs_f64() * 1e3);
            write(&a.path("out")?, &text)?;
        }
        "stream" => {
            trace::set_enabled(a.trace);
            let t = Instant::now();
            let text = study::stream(&a.path("shards")?)?;
            extra.insert("replay.wall_ms".into(), t.elapsed().as_secs_f64() * 1e3);
            write(&a.path("out")?, &text)?;
        }
        "serve" => {
            let (text, inproc, wall_ms) = serve::serve(
                &a.path("warm")?,
                &a.path("requests")?,
                &a.path("store")?,
                a.trace,
            )?;
            extra.insert("replay.wall_ms".into(), wall_ms);
            write(&a.path("out")?, &text)?;
            let lines: String = inproc.iter().map(|ms| format!("{ms}\n")).collect();
            write(&a.path("inproc")?, &lines)?;
            let s = trace::summary();
            extra.insert(
                "engine.incremental_ingest.median_us".into(),
                median(s.durations("engine.incremental_ingest")) * 1e3,
            );
            extra.insert(
                "engine.incremental_results.median_ms".into(),
                median(s.durations("engine.incremental_results")),
            );
        }
        "engine-paper" => {
            let runner = StudyRunner::new(StudyConfig::default())
                .with_workers(WORKERS)
                .with_store(a.path("store")?);
            let t = Instant::now();
            let report =
                runner.run(Source::OnDisk(a.path("corpus")?)).map_err(|e| e.to_string())?;
            extra.insert("engine.run_s".into(), t.elapsed().as_secs_f64());
            if !report.failures.is_empty() {
                return Err(format!("{} project(s) failed", report.failures.len()));
            }
        }
        "engine-stream" => {
            let runner = StudyRunner::new(StudyConfig::default())
                .with_match_policy(MatchPolicy::rename_detection())
                .with_workers(WORKERS)
                .with_max_resident(MAX_RESIDENT);
            let t = Instant::now();
            let report = runner
                .run_streamed(Source::Sharded(a.path("shards")?))
                .map_err(|e| e.to_string())?;
            extra.insert("engine.run_s".into(), t.elapsed().as_secs_f64());
            if !report.failures.is_empty() {
                return Err(format!("{} project(s) failed", report.failures.len()));
            }
        }
        other => return Err(format!("unknown mode {other}")),
    }
    print_json(&metrics(extra));
    Ok(())
}

fn write(path: &Path, text: &str) -> Res<()> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Res<String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Span totals (`<name>.calls`, `<name>.total_ms`, `<name>.self_ms`),
/// per-layer self times (`layer.<layer>`) and counters, plus `extra`.
fn metrics(extra: BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let s = trace::summary();
    let mut m = BTreeMap::new();
    for (name, (calls, total, own)) in &s.by_name {
        m.insert(format!("{name}.calls"), *calls as f64);
        m.insert(format!("{name}.total_ms"), *total);
        m.insert(format!("{name}.self_ms"), *own);
    }
    for (layer, ms) in &s.layer_self_ms {
        m.insert(format!("layer.{layer}"), *ms);
    }
    COUNTERS.with(|c| {
        for (k, v) in c.borrow().iter() {
            m.insert(k.to_string(), *v as f64);
        }
    });
    m.extend(extra);
    m
}

fn print_json(m: &BTreeMap<String, f64>) {
    let fields: Vec<String> =
        m.iter().filter(|(_, v)| v.is_finite()).map(|(k, v)| format!("{k:?}: {v}")).collect();
    println!("{{{}}}", fields.join(", "));
}
