"""Drive `coevo serve` over TCP: start the daemon, warm it with a corpus, and
run an open-loop mix of one-month `ingest` appends (writer connection) and
`project` / `taxa` / `summary` queries (reader connection).

Request lines go out at their scheduled times, whether or not earlier
replies have arrived, and reply lines are paired with requests in order on
each connection. A request's latency runs from its scheduled send time to
its reply, so a stall shows up in every request queued behind it; how late
the sender itself ran is reported separately.
"""

import collections
import json
import math
import os
import random
import selectors
import socket
import subprocess
import threading
import time

# The traffic mix is synthetic; no measured daemon traffic backs it.
# Share of reader requests per kind; the rest are `project` lookups.
TAXA_SHARE = 0.25
SUMMARY_SHARE = 0.25
# Share of one-month appends that carry a new DDL version, so the daemon's
# parse and diff run.
DDL_SHARE = 0.25
# The open loop polls instead of sleeping this long before each send and
# after it while the reply is due.
SPIN_S = 0.001


def _hwm_kib(pid):
    """Peak resident set (VmHWM) of a running process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc status")


class Daemon:
    """A `coevo serve` child listening on a kernel-assigned port."""

    def __init__(self, coevo, store=None, log_path=os.devnull):
        args = [coevo, "serve", "--addr", "127.0.0.1:0"]
        if store:
            args += ["--store", store]
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        first = self.proc.stdout.readline().split()
        if not first or ":" not in first[-1]:
            self.kill()
            raise RuntimeError("coevo serve did not report its address")
        host, port = first[-1].rsplit(":", 1)
        self.addr = (host, int(port))

    def connect(self):
        s = socket.create_connection(self.addr, timeout=120)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return s

    def peak_rss_mb(self):
        return _hwm_kib(self.proc.pid) / 1024.0

    def shutdown(self):
        with self.connect() as s:
            s.sendall(b'{"cmd":"shutdown"}\n')
            s.makefile("r", encoding="utf-8").readline()
        code = self.proc.wait(timeout=60)
        self._log.close()
        if code != 0:
            raise RuntimeError(f"coevo serve exited with {code}")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def pipelined(sock, lines):
    """Send request lines back to back and collect the reply lines; replies
    are read on a second thread so neither side's socket buffer can fill."""
    replies = []
    reader = sock.makefile("r", encoding="utf-8")

    def receive():
        for _ in lines:
            replies.append(reader.readline())

    t = threading.Thread(target=receive)
    t.start()
    for line in lines:
        sock.sendall(line.encode("utf-8"))
    t.join()
    return replies


def warm_lines(projects):
    """Every project's full history as one `ingest` each, then a `summary`,
    which fills the daemon's Fisher memo before anything is timed."""
    return [json.dumps(p.ingest_request()) + "\n" for p in projects] + ['{"cmd":"summary"}\n']


def warm(daemon, projects):
    """Send the warm-up lines; returns the failed replies."""
    lines = warm_lines(projects)
    with daemon.connect() as s:
        replies = pipelined(s, lines)
    return [r for r in replies if not r.startswith('{"ok":true')]


def request(daemon, req):
    with daemon.connect() as s:
        return json.loads(pipelined(s, [json.dumps(req) + "\n"])[0])


class Writer:
    """One-month appends after each project's history: a few commits and,
    now and then, a DDL version that adds a table so parse and diff run.

    Appends go only to projects whose lag-test flags no append can change
    (`Project.lag_flags_fixed`), so Section 7's Fisher tables stay as the
    warm-up left them and every `summary` finds its Fisher p-values in the
    daemon's memo: summary latency is one mode, not a mix of memo hits and
    ~400 ms recomputes that depends on which appends a seed drew."""

    def __init__(self, projects, rng):
        self.rng = rng
        self.targets = [p for p in projects if p.lag_flags_fixed()]
        if not self.targets:
            raise ValueError("no project with fixed lag-test flags to append to")
        self.month = {p.name: p.last_month() for p in self.targets}
        self.ddl = {p.name: p.versions[-1][1] for p in self.targets}
        self.tables = 0
        self.appended = {}  # name -> events in append order

    def next_request(self):
        rng = self.rng
        p = rng.choice(self.targets)
        y, m = self.month[p.name]
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
        self.month[p.name] = (y, m)
        days = sorted(rng.sample(range(1, 29), rng.randint(2, 8)))
        events = [
            {"kind": "commit", "date": f"{y:04d}-{m:02d}-{d:02d} 10:00:00 +0000",
             "files": rng.randint(1, 9)}
            for d in days
        ]
        if rng.random() < DDL_SHARE:
            self.tables += 1
            t = self.tables
            self.ddl[p.name] += f"\nCREATE TABLE bench_t{t} (id INT, note_{t} VARCHAR(40));\n"
            events.append({"kind": "ddl", "date": f"{y:04d}-{m:02d}-{days[-1]:02d} 12:00:00 +0000",
                           "ddl": self.ddl[p.name]})
        self.appended.setdefault(p.name, []).extend(events)
        return "ingest", {"cmd": "ingest", "project": p.name,
                          "dialect": p.manifest["dialect"], "events": events}


def reader_request(projects, rng):
    x = rng.random()
    if x < TAXA_SHARE:
        return "taxa", {"cmd": "taxa"}
    if x < TAXA_SHARE + SUMMARY_SHARE:
        return "summary", {"cmd": "summary"}
    return "project", {"cmd": "project", "project": rng.choice(projects).name}


def schedule(projects, seed, seconds, writer_rate, reader_rate):
    """The seeded open-loop schedule: per connection, a list of
    `(offset_s, kind, line)` at a fixed interval."""
    rng = random.Random(seed)
    writer = Writer(projects, rng)
    w = []
    for i in range(int(seconds * writer_rate)):
        kind, req = writer.next_request()
        w.append((i / writer_rate, kind, json.dumps(req) + "\n"))
    r = []
    for i in range(int(seconds * reader_rate)):
        kind, req = reader_request(projects, rng)
        r.append((0.5 / reader_rate + i / reader_rate, kind, json.dumps(req) + "\n"))
    return [w, r], writer.appended


def read_reply(sock, buf):
    """One reply line from `sock`; returns `(line, rest of buf)`. The daemon
    writes each reply in two segments; acknowledge at once so the second is
    not held back for the kernel's delayed-ACK timer."""
    while b"\n" not in buf:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("coevo serve closed the connection")
        buf += chunk
    return buf.split(b"\n", 1)


def closed_loop(daemon, plans):
    """Send every request of `plans` in schedule order on one connection,
    each as soon as the reply to the one before has arrived. Returns
    `(seconds, [(kind, service_s)])`: the daemon's sustained rate for this
    mix is the request count over the seconds, since one state lock
    serializes all requests whatever the number of connections."""
    merged = sorted((offset, kind, line) for plan in plans for offset, kind, line in plan)
    took, buf = [], b""
    with daemon.connect() as sock:
        start = time.perf_counter()
        for _, kind, line in merged:
            t = time.perf_counter()
            sock.sendall(line.encode("utf-8"))
            _, buf = read_reply(sock, buf)
            took.append((kind, time.perf_counter() - t))
        return time.perf_counter() - start, took


def open_loop(daemon, plans):
    """Run each plan on its own connection; returns one record per request:
    `(kind, scheduled, sent, received, ok, line)` in seconds from start.

    One thread sends every request at its scheduled time and reads every
    reply as it arrives. It polls instead of sleeping for the last
    `SPIN_S` before a send and while a reply is due, so neither the send
    nor the reply's timestamp waits for an idle CPU to wake; without that,
    wake-up delays of 0.1 ms or more, which vary with the machine's load,
    made up most of a sub-millisecond latency."""
    socks = [daemon.connect() for _ in plans]
    sel = selectors.DefaultSelector()
    for ci, sock in enumerate(socks):
        sel.register(sock, selectors.EVENT_READ, ci)
    sends = sorted((offset, ci, i) for ci, plan in enumerate(plans)
                   for i, (offset, _, _) in enumerate(plan))
    results = [[None] * len(p) for p in plans]
    sent = [[0.0] * len(p) for p in plans]
    waiting = [collections.deque() for _ in plans]
    bufs = [b""] * len(plans)
    start = time.perf_counter() + 0.05

    def receive(timeout):
        for key, _ in sel.select(timeout):
            ci, sock = key.data, key.fileobj
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            chunk = sock.recv(1 << 16)
            got = time.perf_counter() - start
            if not chunk:
                raise ConnectionError("coevo serve closed the connection")
            bufs[ci] += chunk
            while b"\n" in bufs[ci]:
                reply, bufs[ci] = bufs[ci].split(b"\n", 1)
                i = waiting[ci].popleft()
                offset, kind, line = plans[ci][i]
                results[ci][i] = (kind, offset, sent[ci][i], got,
                                  reply.startswith(b'{"ok":true'), line)

    n = 0
    while n < len(sends) or any(waiting):
        now = time.perf_counter()
        due = start + sends[n][0] if n < len(sends) else math.inf
        if due <= now:
            _, ci, i = sends[n]
            sent[ci][i] = time.perf_counter() - start
            socks[ci].sendall(plans[ci][i][2].encode("utf-8"))
            waiting[ci].append(i)
            n += 1
            continue
        replying = any(w and now - start - sent[ci][w[0]] < SPIN_S
                       for ci, w in enumerate(waiting))
        if replying or due - now <= SPIN_S:
            receive(0)
        else:
            receive(min(due - now - SPIN_S, 1.0))
    sel.close()
    for s in socks:
        s.close()
    return [rec for per in results for rec in per]
