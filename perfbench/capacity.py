#!/usr/bin/env python3
"""The request rate `coevo serve` sustains for the serve-mixed traffic mix.

    python3 perfbench/capacity.py [--seed N] [--requests N]

Run it from the root of a coevo checkout. It builds `coevo` as run.py does,
warms a daemon with the paper corpus over the wire as serve-mixed's set-up
does, sends N requests of the serve-mixed mix (writer and reader requests
in their 10:15 ratio, in schedule order) on one connection, each as soon as
the reply to the one before has arrived, and prints the requests per
second the daemon sustained and each kind's service time. One state lock
serializes every request, so one connection finds the daemon's capacity.
serve-mixed offers a fixed fraction of this rate (see `workloads.py`).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import serveload  # noqa: E402
from run import BenchError, build  # noqa: E402
from workloads import READER_RATE, WRITER_RATE, percentile  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--requests", type=int, default=2000)
    args = p.parse_args()

    root = os.getcwd()
    work = os.path.join(root, ".bench_work", f"capacity-{os.getpid()}")
    try:
        coevo, _ = build(root)
        os.makedirs(work)
        corpus_dir = os.path.join(work, "corpus")
        subprocess.run([coevo, "generate", corpus_dir], check=True, stdout=subprocess.DEVNULL)
        projects = corpus.load_projects(corpus_dir)
        daemon = serveload.Daemon(coevo, os.path.join(work, "store"))
        try:
            if serveload.warm(daemon, projects):
                raise BenchError("warm-up ingest failed")
            seconds = args.requests / (WRITER_RATE + READER_RATE)
            plans, _ = serveload.schedule(projects, args.seed, seconds, WRITER_RATE, READER_RATE)
            took, served = serveload.closed_loop(daemon, plans)
            daemon.shutdown()
        except BaseException:
            daemon.kill()
            raise
    except BenchError as e:
        print(f"capacity.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"sustained {len(served) / took:.1f} requests/s over {len(served)} requests "
          f"({took:.2f} s closed loop, one connection)")
    for kind in ("ingest", "project", "taxa", "summary"):
        ms = [s * 1e3 for k, s in served if k == kind]
        if ms:
            print(f"  {kind:8} n={len(ms):5}  p50 {percentile(ms, 50):8.3f} ms  "
                  f"p99 {percentile(ms, 99):8.3f} ms  mean {sum(ms) / len(ms):8.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
