"""The three workloads, each as an end-to-end run (`--trace 0`) and a traced
run (`--trace 1`). A run returns a dict of metric name -> value."""

import math
import os
import random
import shutil
import statistics
import time

import corpus
import serveload

# Worker threads of every study and of the engine calls the replay times.
WORKERS = 2
# Each set-up runs from nothing this many times; setup_s is the median.
SETUP_REPEATS = 5
# paper-rerun: share of the 195 projects touched before each re-run.
TOUCH_SHARE = 0.10
# stream-5k: corpus size and shard size (= the resident cap).
STREAM_PROJECTS = 5000
STREAM_SHARD = 500
# serve-mixed: offered load of the open loop, per connection, in requests/s.
# `capacity.py` measured the daemon sustaining 464 requests/s of this mix
# (2 cores, x86_64). An open loop at a tenth of that keeps the state lock
# busy a tenth of the time, so nine in ten requests find it free and every
# p50 reads service time, not queueing; at half, every other request would
# queue behind a ~13 ms summary and the p50s would sit on that edge.
SUSTAINED_RATE = 464.0
LOAD_SHARE = 0.10
WRITER_RATE = 0.4 * LOAD_SHARE * SUSTAINED_RATE
READER_RATE = 0.6 * LOAD_SHARE * SUSTAINED_RATE
# Batch workloads: the serve latencies come from a run of the same open
# loop against a daemon holding a small corpus (4 projects per taxon), for
# at most this many seconds (about 110 ingests and 70 summaries).
PROBE_PER_TAXON = 4
PROBE_SECONDS = 6
# serve-mixed: batch studies of the daemon's final event set; study_s is
# their median.
RECOMPUTE_REPEATS = 7
# Traced runs: the layers' self times must add up to the traced wall time
# within this share; the rest is reported as unattributed.
RECONCILE_TOLERANCE = 0.05
# Layers, named after the workspace crates, whose self time is reported.
LAYERS = ["corpus", "vcs", "ddl", "diff", "heartbeat", "core", "stats", "store",
          "report", "cli", "engine", "serve"]
# Per-layer metric -> span whose inclusive time it reports.
SPAN_METRICS = {
    "corpus.load_ms": "corpus.load",
    "corpus.shard_read_ms": "corpus.shard_read",
    "vcs.parse_log_ms": "vcs.parse_log",
    "ddl.parse_ms": "ddl.parse",
    "heartbeat.ms": "heartbeat",
    "core.measure_ms": "core.measure",
    "core.figures_ms": "core.figures",
    "core.section7_ms": "core.section7",
    "stats.fisher_ms": "stats.fisher",
    "stats.kendall_ms": "stats.kendall",
    "stats.shapiro_ms": "stats.shapiro",
    "stats.kruskal_ms": "stats.kruskal",
    "stats.mann_whitney_ms": "stats.mann_whitney",
    "stats.chi2_ms": "stats.chi2",
    "store.get_ms": "store.get",
    "store.put_ms": "store.put",
    "report.render_ms": "report.render",
    "cli.rename_walk_ms": "cli.rename_walk",
}
# Per-layer counters the replay reports under the metric's own name.
COUNTERS = ["corpus.shard_bytes", "ddl.versions_parsed", "ddl.cache_hits", "ddl.allocs",
            "diff.tables_diffed", "diff.fingerprint_elided", "diff.renames_matched",
            "stats.fisher_exact_calls", "stats.fisher_mc_calls", "stats.kendall_n",
            "store.hits", "store.misses", "store.bytes_written"]


def percentile(values, q):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(q / 100.0 * len(v)) - 1)]


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Toucher:
    """Seeded rounds of touches on a share of an on-disk corpus."""

    def __init__(self, corpus_dir, seed):
        self.dirs = corpus.project_dirs(corpus_dir)
        self.rng = random.Random(seed)
        self.k = max(1, round(TOUCH_SHARE * len(self.dirs)))
        self.serial = 0

    def round(self):
        for d in self.rng.sample(self.dirs, self.k):
            self.serial += 1
            corpus.touch(d, self.serial)


def study(b, *args):
    return b.run([b.coevo, "study", "--workers", WORKERS, *args])


def generate(b, out, per_taxon=None):
    """The calibrated paper corpus (its own fixed seed, so Section 7 does the
    same work on every run); the benchmark seed drives touches and traffic."""
    args = [b.coevo, "generate", out]
    if per_taxon:
        args += ["--per-taxon", per_taxon]
    b.run(args)


# ---------------------------------------------------------------------------
# serve traffic

def latency_metrics(b, records):
    """End-to-end serve metrics of one open-loop run."""
    b.attempted += len(records)
    b.failed += sum(1 for r in records if not r[4])
    lat = {"ingest": [], "query": [], "summary": []}
    for kind, scheduled, _, received, _, _ in records:
        lat["query" if kind in ("project", "taxa") else kind].append((received - scheduled) * 1e3)
    m = {}
    for name, values in lat.items():
        m[f"{name}_p50_ms"] = percentile(values, 50)
        m[f"{name}_p99_ms"] = percentile(values, 99)
    return m


def serve_probe(b):
    """The serve latencies of a batch workload: the serve-mixed open loop
    against a daemon warmed with a 24-project corpus, without a store."""
    probe = b.path("probe")
    generate(b, probe, PROBE_PER_TAXON)
    projects = corpus.load_projects(probe)
    daemon = serveload.Daemon(b.coevo, log_path=b.path("probe.log"))
    try:
        b.check(not serveload.warm(daemon, projects), "probe warm-up ingest failed")
        plans, _ = serveload.schedule(projects, b.seed, min(b.seconds, PROBE_SECONDS),
                                      WRITER_RATE, READER_RATE)
        records = serveload.open_loop(daemon, plans)
        daemon.shutdown()
    except BaseException:
        daemon.kill()
        raise
    return latency_metrics(b, records)


def serve_setup(b, tag):
    """Generate the paper corpus, start a daemon with a snapshot store and
    warm it over the wire. Returns (corpus dir, projects, daemon, seconds)."""
    start = time.perf_counter()
    corpus_dir = b.path(f"serve-corpus-{tag}")
    generate(b, corpus_dir)
    projects = corpus.load_projects(corpus_dir)
    daemon = serveload.Daemon(b.coevo, b.path(f"serve-store-{tag}"), b.path(f"serve-{tag}.log"))
    try:
        b.check(not serveload.warm(daemon, projects), "serve warm-up ingest failed")
    except BaseException:
        daemon.kill()
        raise
    return corpus_dir, projects, daemon, time.perf_counter() - start


def serve_session(b):
    """Set up (repeatedly), run the open loop, take the final summary and
    stop the daemon."""
    times = []
    for tag in range(SETUP_REPEATS):
        corpus_dir, projects, daemon, took = serve_setup(b, tag)
        times.append(took)
        if tag < SETUP_REPEATS - 1:
            daemon.shutdown()
    try:
        plans, appended = serveload.schedule(projects, b.seed, b.seconds, WRITER_RATE, READER_RATE)
        records = serveload.open_loop(daemon, plans)
        final = serveload.request(daemon, {"cmd": "summary"})
        rss = daemon.peak_rss_mb()
        daemon.shutdown()
    except BaseException:
        daemon.kill()
        raise
    b.inputs.update(projects=len(projects), corpus_bytes=dir_bytes(corpus_dir),
                    offered_rate=WRITER_RATE + READER_RATE, requests=len(records),
                    appended_events=sum(len(e) for e in appended.values()))
    return corpus_dir, projects, records, appended, final, rss, statistics.median(times)


def batch_recompute(b, corpus_dir, projects, appended, final, repeats):
    """Write the daemon's final event set in the loader layout, study it in
    batch and check the daemon's last summary against it; returns the
    study wall times."""
    batch = b.path("batch")
    shutil.copytree(corpus_dir, batch)
    dirs = {p.name: os.path.join(batch, os.path.basename(p.dir)) for p in projects}
    for serial, name in enumerate(sorted(appended)):
        corpus.append_events(dirs[name], appended[name], serial)
    walls, out = [], None
    for _ in range(repeats):
        wall, _, out = study(b, "--from", batch)
        walls.append(wall)
        b.attempted += 1
    expected = f"studying {len(projects)} projects\n{final.get('report')}\n"
    b.check(final.get("ok") and out == expected,
            "serve-mixed: the final summary differs from a batch study of the same events")
    return walls


# ---------------------------------------------------------------------------
# end-to-end runs (--trace 0)

def paper_setup(b, tag):
    start = time.perf_counter()
    corpus_dir, store = b.path(f"paper-{tag}"), b.path(f"store-{tag}")
    generate(b, corpus_dir)
    study(b, "--from", corpus_dir, "--store", store)
    return corpus_dir, store, time.perf_counter() - start


def paper_rerun(b):
    times = []
    for tag in range(SETUP_REPEATS):
        corpus_dir, store, took = paper_setup(b, tag)
        times.append(took)
    touch = Toucher(corpus_dir, b.seed)
    walls, rss, out = [], [], None
    while sum(walls) < b.seconds or len(walls) < 3:
        touch.round()
        wall, mb, out = study(b, "--from", corpus_dir, "--store", store)
        walls.append(wall)
        rss.append(mb)
        b.attempted += 1
    _, _, reference = study(b, "--from", corpus_dir)
    b.check(out == reference, "paper-rerun: the store-backed study differs from a store-less one")
    b.check(out.startswith(f"studying {len(touch.dirs)} projects\n") and "warning:" not in out,
            "paper-rerun: projects were skipped")
    b.inputs.update(projects=len(touch.dirs), corpus_bytes=dir_bytes(corpus_dir),
                    touched_per_run=touch.k, study_runs=len(walls))
    m = {"setup_s": statistics.median(times), "study_s": statistics.median(walls),
         "peak_rss_mb": statistics.median(rss)}
    m.update(serve_probe(b))
    return m


def stream_setup(b, tag):
    start = time.perf_counter()
    shards = b.path(f"shards-{tag}")
    b.run([b.coevo, "corpus", "gen", "--projects", STREAM_PROJECTS, "--shard-size",
           STREAM_SHARD, "--seed", b.seed, "--out", shards])
    return shards, time.perf_counter() - start


def stream_study(b, shards):
    return study(b, "--shards", shards, "--max-resident", STREAM_SHARD, "--renames")


def stream_5k(b):
    shards, setup_s = stream_setup(b, 0)
    walls, rss, out = [], [], None
    while sum(walls) < b.seconds or not walls:
        wall, mb, out = stream_study(b, shards)
        walls.append(wall)
        rss.append(mb)
        b.attempted += 1
    reference = b.path("stream-reference.txt")
    b.replay("stream", "--shards", shards, "--out", reference)
    with open(reference, encoding="utf-8") as f:
        b.check(out == f.read(), "stream-5k: the study differs from the reference pipeline")
    b.inputs.update(projects=STREAM_PROJECTS, shards=STREAM_PROJECTS // STREAM_SHARD,
                    corpus_bytes=dir_bytes(shards), study_runs=len(walls))
    m = {"setup_s": setup_s, "study_s": statistics.median(walls),
         "peak_rss_mb": statistics.median(rss)}
    m.update(serve_probe(b))
    return m


def serve_mixed(b):
    corpus_dir, projects, records, appended, final, rss, setup_s = serve_session(b)
    m = {"setup_s": setup_s, "peak_rss_mb": rss}
    m.update(latency_metrics(b, records))
    m["study_s"] = statistics.median(
        batch_recompute(b, corpus_dir, projects, appended, final, RECOMPUTE_REPEATS))
    return m


# ---------------------------------------------------------------------------
# traced runs (--trace 1)

def layer_metrics(b, rep):
    """Per-layer metrics from a traced replay, with the reconciliation."""
    def span(name):
        return rep.get(f"{name}.total_ms", 0.0)

    probes = sum(v for k, v in rep.items() if k.startswith("probe.") and k.endswith(".total_ms"))
    roots = sum(v for k, v in rep.items() if k.startswith("replay.") and k.endswith(".total_ms"))
    wall = roots - probes
    m = {name: span(s) for name, s in SPAN_METRICS.items()}
    m.update({name: rep.get(name, 0.0) for name in COUNTERS})
    m["diff.history_ms"] = span("diff.history") + span("diff.walk_history")
    # Rename scoring: the rename-aware diff minus the by-name diff of the
    # same versions. Raw, so timing noise around a small cost shows.
    by_name = span("probe.diff_by_name")
    m["diff.rename_ms"] = span("diff.history") - by_name if by_name else 0.0
    layers = {layer: rep.get(f"layer.{layer}", 0.0) for layer in LAYERS}
    m.update({f"self.{layer}_ms": v for layer, v in layers.items()})
    m["trace.wall_ms"] = wall
    m["trace.unattributed_ms"] = rep.get("layer.replay", 0.0)
    b.check(wall > 0 and abs(wall - sum(layers.values())) <= RECONCILE_TOLERANCE * wall,
            f"layer self times ({sum(layers.values()):.1f} ms) do not reconcile with the "
            f"traced wall time ({wall:.1f} ms) within {RECONCILE_TOLERANCE:.0%}")
    return m


def trace_overhead_s(traced, untraced):
    """What tracing costs: the traced replay's wall time minus that of the
    same replay untraced."""
    return (traced["replay.wall_ms"] - untraced["replay.wall_ms"]) / 1e3


def paper_trace(b):
    corpus_dir, store, _ = paper_setup(b, 0)
    touch = Toucher(corpus_dir, b.seed)
    studies, engine = [], []
    for _ in range(3):
        touch.round()
        studies.append(study(b, "--from", corpus_dir, "--store", store)[0])
        touch.round()
        rep = b.replay("engine-paper", "--corpus", corpus_dir, "--store", store)
        engine.append(rep["engine.run_s"])
    b.attempted += 6
    out = b.path("paper-replay.txt")
    # Each replay follows its own touch round, so both recompute a tenth.
    touch.round()
    untraced = b.replay("paper", "--corpus", corpus_dir, "--store", store, "--out", out)
    touch.round()
    rep = b.replay("paper", "--corpus", corpus_dir, "--store", store, "--out", out, "--trace")
    _, _, reference = study(b, "--from", corpus_dir)
    with open(out, encoding="utf-8") as f:
        b.check(f.read() == reference, "paper-rerun: the replay differs from the study")
    b.check(rep.get("store.hits", 0) == len(touch.dirs) - touch.k,
            "paper-rerun: the replay's store digests are out of step with the engine's")
    b.inputs.update(projects=len(touch.dirs), corpus_bytes=dir_bytes(corpus_dir),
                    touched_per_run=touch.k)
    m = layer_metrics(b, rep)
    study_s, engine_s = statistics.median(studies), statistics.median(engine)
    m.update({"engine.run_s": engine_s, "cli.self_s": study_s - engine_s,
              "trace.overhead_s": trace_overhead_s(rep, untraced)})
    return m


def stream_trace(b):
    shards, _ = stream_setup(b, 0)
    study_s, _, out = stream_study(b, shards)
    engine_s = b.replay("engine-stream", "--shards", shards)["engine.run_s"]
    b.attempted += 2
    replay_out = b.path("stream-replay.txt")
    untraced = b.replay("stream", "--shards", shards, "--out", replay_out)
    rep = b.replay("stream", "--shards", shards, "--out", replay_out, "--trace")
    with open(replay_out, encoding="utf-8") as f:
        b.check(out == f.read(), "stream-5k: the study differs from the reference pipeline")
    b.inputs.update(projects=STREAM_PROJECTS, shards=STREAM_PROJECTS // STREAM_SHARD,
                    corpus_bytes=dir_bytes(shards))
    m = layer_metrics(b, rep)
    m.update({"engine.run_s": engine_s, "cli.self_s": study_s - engine_s,
              "trace.overhead_s": trace_overhead_s(rep, untraced)})
    return m


def serve_trace(b):
    corpus_dir, projects, records, appended, final, _, _ = serve_session(b)
    b.attempted += len(records)
    b.failed += sum(1 for r in records if not r[4])
    batch_recompute(b, corpus_dir, projects, appended, final, 1)
    # The daemon takes requests in arrival order; replay them in send order.
    timed = sorted(records, key=lambda r: r[2])
    warm, requests = b.path("warm.jsonl"), b.path("requests.jsonl")
    with open(warm, "w", encoding="utf-8") as f:
        f.writelines(serveload.warm_lines(projects))
    with open(requests, "w", encoding="utf-8") as f:
        f.writelines(r[5] for r in timed)
    reports = {}
    for traced in (False, True):
        out, inproc = b.path(f"serve-replay-{traced}.txt"), b.path(f"inproc-{traced}.txt")
        store = b.path(f"replay-store-{traced}")
        args = ["serve", "--warm", warm, "--requests", requests, "--store", store,
                "--out", out, "--inproc", inproc] + (["--trace"] if traced else [])
        reports[traced] = b.replay(*args)
        with open(out, encoding="utf-8") as f:
            b.check(f.read() == final.get("report"),
                    "serve-mixed: the replayed summary differs from the daemon's")
    # The in-process times of the untraced replay, so tracing is not
    # counted as daemon work.
    with open(b.path("inproc-False.txt"), encoding="utf-8") as f:
        inproc_ms = [float(x) for x in f.read().split()]
    rep = reports[True]
    m = layer_metrics(b, rep)
    overhead = [(r[3] - r[1]) * 1e3 - ms for r, ms in zip(timed, inproc_ms)]
    late = [(r[2] - r[1]) * 1e3 for r in records]
    m.update({
        "engine.incremental_ingest_us": rep.get("engine.incremental_ingest.median_us", 0.0),
        "engine.incremental_results_ms": rep.get("engine.incremental_results.median_ms", 0.0),
        "serve.overhead_ms": statistics.median(overhead),
        "loadgen.late_p99_ms": percentile(late, 99),
        "trace.overhead_s": trace_overhead_s(rep, reports[False]),
    })
    return m


WORKLOADS = {
    "paper-rerun": (paper_rerun, paper_trace),
    "stream-5k": (stream_5k, stream_trace),
    "serve-mixed": (serve_mixed, serve_trace),
}
