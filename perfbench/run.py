#!/usr/bin/env python3
"""The coevo benchmark: three workloads driven from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a coevo checkout. It builds `coevo` and the replay
program (`perfbench/replay`) into $CARGO_TARGET_DIR (default `.bench_build`),
makes the workload's inputs from the seed under `.bench_work/`, measures for
about S seconds, checks the program's output, prints the metrics one per
line, and prints one JSON object as the last line of standard output:
the end-to-end metrics with `--trace 0`, the per-layer split with
`--trace 1`. It exits 1 without that line when the checkout cannot be built
or a step fails, and with `"correct": false` when an output check fails.

Workloads, metrics and the layer table: perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKERS, WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


class Bench:
    """One run's context: binaries, work directory, seed, counters."""

    def __init__(self, args, coevo, replay, work):
        self.seed = args.seed
        self.seconds = args.seconds
        self.coevo = coevo
        self.replay_bin = replay
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.inputs = {}

    def path(self, name):
        return os.path.join(self.work, name)

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def run(self, args):
        """Run a child to completion; returns (wall s, peak RSS MB, stdout)."""
        out_path, err_path = self.path("child.out"), self.path("child.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in args], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as f:
                tail = f.read()[-2000:]
            raise BenchError(f"{' '.join(map(str, args))} exited {proc.returncode}: {tail}")
        with open(out_path, encoding="utf-8") as f:
            return wall, usage.ru_maxrss / 1024.0, f.read()

    def replay(self, *args):
        _, _, text = self.run([self.replay_bin, *args])
        return json.loads(text.strip().splitlines()[-1])


def build(root):
    """Build `coevo` and the replay program; returns their paths."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "coevo-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(HERE, "replay", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed:\n{done.stdout[-3000:]}")
    release = os.path.join(target, "release")
    return os.path.join(release, "coevo"), os.path.join(release, "coevo-replay")


def stamp(root, args, inputs):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "workers": WORKERS,
            "commit": out(["git", "rev-parse", "HEAD"]), "rustc": out(["rustc", "-V"]),
            "machine": platform.machine(), "inputs": inputs}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "cli")) and os.path.isfile(spec_path)):
        print("run.py: run from the root of a coevo checkout", file=sys.stderr)
        return 1
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        coevo, replay = build(root)
        os.makedirs(work)
        b = Bench(args, coevo, replay, work)
        measured = WORKLOADS[args.workload][args.trace](b)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        # A layer a workload does not pass through reads 0.
        measured = {m["name"]: measured.get(m["name"], 0.0) for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"run.py: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print("stamp " + json.dumps(stamp(root, args, b.inputs)))
    for m in wanted:
        print(f"{m['name']:32} {measured[m['name']]:>14.6g} {m['unit']}")
    print(f"{'ops_failed_frac':32} {b.failed / max(1, b.attempted):>14.6g} 1")
    # Measured but without a bound (see perfbench/README.md): printed only.
    names = {m["name"] for m in wanted}
    for name in sorted(set(measured) - names):
        print(f"{name:32} {measured[name]:>14.6g} {name.rsplit('_', 1)[-1]} (not bounded)")
    for problem in b.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not b.problems,
        "attempted": max(1, b.attempted),
        "failed": b.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not b.problems else 1


if __name__ == "__main__":
    sys.exit(main())
