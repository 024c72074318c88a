#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload table1|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds `repro` and the
tracer (`perfbench/tracer`) with cargo, runs the workload for S seconds
through the user-facing `repro` binary, checks every output, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json. With `--trace 1` the same work is replayed in-process by
the tracer, with spans around each layer's public calls, and the metrics
are the per-layer ones. Spans are written to
`<target dir>/perfbench/spans-<workload>.jsonl` when the run ends.
NOTES.md explains the workloads, metrics and checks.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected")
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
REPRO = os.path.join(TARGET, "release", "repro")
TRACER = os.path.join(TARGET, "release", "perfbench-tracer")
WORK = os.path.join(TARGET, "perfbench")

# table1: `repro` arguments, the scale the tracer replays, and the
# warm-up run that set-up repeats. The tiny variant is for the self-test.
TABLE1 = {"args": ["table1", "--procs", "32"], "scale": 1.0,
          "warm": ["table1", "--procs", "32", "--scale", "0.1"]}
TABLE1_TINY = {"args": ["table1", "--procs", "32", "--scale", "0.1"], "scale": 0.1,
               "warm": ["table1", "--procs", "32", "--scale", "0.05"]}
TABLE1_CELLS = 28
# A traced cell fails when its layer spans cover less of its wall time.
MIN_SPAN_COVERAGE = 0.95
# Set-up runs per measurement; setup_s is their median.
CLI_SETUP_REPEATS = 9
SERVE_SETUP_REPEATS = 5

SUITE = ["vpenta", "lu", "stencil", "adi", "erlebacher", "swm256", "tomcatv"]
# serve-mixed traffic, drawn in blocks of ten jobs: 7 resubmits of the
# hot set (warmed during set-up), 2 new sweeps (one with race_check) and
# 1 explain, in seeded order. New sweeps take scale_milli values of their
# benchmark from NEW_SCALES without replacement, so each is a store miss;
# explains go through EXPLAIN_POOL in seeded rounds, so each key misses
# once and then hits. Blocks keep the mix the same on every seed.
HOT = [("sweep", None, 100, 32), ("sweep", "lu", 200, 32), ("sweep", "stencil", 200, 32),
       ("sweep", "adi", 200, 32), ("sweep", "tomcatv", 200, 32)]
BLOCK = ["hot"] * 7 + ["new"] * 2 + ["explain"]
NEW_SCALES = range(40, 240)
NEW_POOL = [(b, m) for b in SUITE for m in NEW_SCALES]
NEW_PROCS = 16
EXPLAIN_POOL = [(b, m) for b in SUITE for m in (60, 120)]
EXPLAIN_PROCS = 8
CLIENTS = 2
# Polls back off from 1 ms to 10 ms, so a long job costs few requests.
POLL_S = (0.001, 1.5, 0.010)
JOB_TIMEOUT_S = 60.0
RSS_PERIOD_S = 0.05


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(f"error: {msg}")
    sys.exit(2)


def quantile(values, q):
    """Linear-interpolation quantile (q in [0, 1])."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# ------------------------------------------------------------- build --

def build():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "serve"))):
        fail(f"{ROOT} is not a source checkout of this repository (no Cargo.toml / crates/serve)")
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "dct-serve", "--bin", "repro"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 os.path.join(HERE, "tracer", "Cargo.toml")]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if r.returncode != 0:
            sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
            fail(f"build failed: {' '.join(cmd)}")


def fresh_dir(name):
    d = os.path.join(WORK, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def run_proc(args, cwd):
    """Run a process to completion: (wall seconds, exit status, stdout, peak RSS in MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    return wall, p.returncode, out.decode(errors="replace"), ru.ru_maxrss / 1024.0


# ------------------------------------------------------------ table1 --

def expected_path(tiny, suffix):
    return os.path.join(EXPECTED, f"table1{'.tiny' if tiny else ''}.{suffix}")


def load_expected(tiny, suffix):
    path = expected_path(tiny, suffix)
    if not os.path.isfile(path):
        fail(f"missing pinned file {path} (make it with perfbench/pin.py)")
    with open(path) as f:
        return f.read()


def failed_cells(out, expected):
    """Cells whose output differs from the pinned stdout. A table1 row
    holds four cells; any other difference fails every cell."""
    if out == expected:
        return 0
    a, b = out.splitlines(), expected.splitlines()
    if len(a) != len(b) or a[:2] != b[:2]:
        return TABLE1_CELLS
    return min(TABLE1_CELLS, 4 * sum(1 for x, y in zip(a, b) if x != y))


def table1_workload(seconds, tiny):
    spec = TABLE1_TINY if tiny else TABLE1
    expected = load_expected(tiny, "stdout")
    work = fresh_dir("table1")
    # Set-up: page the binary in and let lazy start-up finish, a few times.
    setups = []
    for _ in range(CLI_SETUP_REPEATS):
        t0 = time.perf_counter()
        _, code, _, _ = run_proc([REPRO] + spec["warm"], work)
        if code != 0:
            fail(f"warm-up run exited {code}")
        setups.append(time.perf_counter() - t0)
    walls, rss = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while len(walls) < 3 or time.perf_counter() - t_start + statistics.median(walls) <= seconds:
        wall, code, out, peak = run_proc([REPRO] + spec["args"], work)
        walls.append(wall)
        rss.append(peak)
        attempted += TABLE1_CELLS
        failed += TABLE1_CELLS if code != 0 else failed_cells(out, expected)
    log(f"table1: {len(walls)} runs, walls {' '.join(f'{w:.3f}' for w in walls)}")
    # A job here is one `repro` run. A run has fewer than twenty of them,
    # so no percentile above the median has ten samples beyond it: the
    # job percentiles both report the median.
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(rss),
        "job_p50_ms": wall * 1e3,
        "job_p95_ms": wall * 1e3,
        "jobs_per_s": 1.0 / wall,
    }
    return attempted, failed, metrics


def log_self_time(traced):
    """Where the traced wall time went: self time per span name."""
    top = sorted(traced["self_ms"].items(), key=lambda kv: -kv[1])
    log("self time ms: " + ", ".join(f"{k} {v:.1f}" for k, v in top))


def table1_traced(tiny):
    """One untraced `repro` run, then the tracer's replay of its cells."""
    spec = TABLE1_TINY if tiny else TABLE1
    expected = json.loads(load_expected(tiny, "cells.json"))["cells"]
    work = fresh_dir("table1")
    wall, code, out, _ = run_proc([REPRO] + spec["args"], work)
    attempted = TABLE1_CELLS
    failed = TABLE1_CELLS if code != 0 else failed_cells(out, load_expected(tiny, "stdout"))
    spans = os.path.join(WORK, "spans-table1.jsonl")
    r = subprocess.run([TRACER, "cells", "--scale", str(spec["scale"]), "--spans", spans],
                       cwd=work, stdout=subprocess.PIPE)
    if r.returncode != 0:
        fail(f"tracer exited {r.returncode}")
    traced = json.loads(r.stdout)
    log_self_time(traced)
    attempted += len(expected)
    for got, want in zip(traced["cells"], expected):
        if not all(got.get(k) == want[k] for k in ("bench", "kind", "procs", "cycles", "checksum_bits")):
            log(f"traced cell differs from pinned: {got} vs {want}")
            failed += 1
        elif got["coverage"] < MIN_SPAN_COVERAGE:
            log(f"layer spans cover only {got['coverage']:.3f} of traced cell {got}")
            failed += 1
    failed += abs(len(expected) - len(traced["cells"]))
    layers = traced["layers"]
    layers["trace.overhead_frac"] = traced["wall_s"] / wall - 1.0
    return attempted, failed, layers


# ------------------------------------------------------- serve-mixed --

class Server:
    """`repro serve` with its default flags, in a fresh working directory
    (so a fresh store under results/cache)."""

    def __init__(self, cwd):
        self.cwd = cwd
        self.log = open(os.path.join(cwd, "serve.log"), "wb")
        self.proc = subprocess.Popen([REPRO, "serve"], cwd=cwd, stdout=subprocess.PIPE, stderr=self.log)
        line = self.proc.stdout.readline().decode()
        if "listening on http://127.0.0.1:" not in line:
            self.stop()
            fail(f"serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def request(self, method, path, body=None):
        c = http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)
        try:
            c.request(method, path, body=body, headers={"Content-Type": "application/json"} if body else {})
            r = c.getresponse()
            return r.status, r.read().decode(errors="replace")
        finally:
            c.close()

    def rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def sample_rss(self, stop, samples):
        """Sample the resident set every RSS_PERIOD_S until `stop` is set."""
        while not stop.wait(RSS_PERIOD_S):
            samples.append(self.rss_mb())

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request("POST", "/api/shutdown")
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def request_key(req):
    what, bench, milli, procs = req[:4]
    return f"{what} {bench or 'suite'} {milli} {procs}"


def scale_text(milli):
    """How `repro` prints scale_milli / 1000 (Rust's shortest f64 form)."""
    return str(milli // 1000) if milli % 1000 == 0 else repr(milli / 1000)


class Traffic:
    """The seeded request stream, shared by the clients in draw order."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.scales = {b: self.rng.sample(list(NEW_SCALES), len(NEW_SCALES)) for b in SUITE}
        self.queues = {"block": [], "hot": [], "bench": [], "explain": [], "race": []}
        self.lock = threading.Lock()

    def draw(self, name, refill):
        """Next item of a queue that is refilled with a shuffled `refill`."""
        q = self.queues[name]
        if not q:
            q.extend(refill)
            self.rng.shuffle(q)
        return q.pop()

    def next(self):
        with self.lock:
            cls = self.draw("block", BLOCK)
            if cls == "new":
                bench = self.draw("bench", SUITE)
                if self.scales[bench]:
                    race = self.draw("race", [False, True])
                    return ("sweep", bench, self.scales[bench].pop(), NEW_PROCS, race, "new")
                cls = "hot"
            if cls == "explain":
                bench, milli = self.draw("explain", EXPLAIN_POOL)
                return ("explain", bench, milli, EXPLAIN_PROCS, False, "explain")
            return self.draw("hot", HOT) + (False, "hot")


def do_request(srv, req, spans):
    """Run one job to completion. Returns (ok, body, info). `spans`, when
    a list, receives (route, start, end) client-side spans."""
    what, bench, milli, procs, race = req[:5]
    info = {"polls": 0, "queue_wait_s": None}

    def call(route, method, path, body=None):
        t0 = time.perf_counter()
        st, text = srv.request(method, path, body)
        if spans is not None:
            spans.append((route, t0, time.perf_counter()))
        return st, text

    if what == "explain":
        st, body = call("http.explain", "GET", f"/api/explain/{bench}?scale_milli={milli}&procs={procs}")
        return st == 200, body, info
    spec = {"scale_milli": milli, "procs": procs}
    if bench:
        spec["bench"] = bench
    if race:
        spec["race_check"] = True
    # Compact JSON: the server's field matcher expects `"key":value`.
    st, body = call("http.sweep_post", "POST", "/api/sweep", json.dumps(spec, separators=(",", ":")))
    if st != 200:
        return False, body, info
    posted = time.perf_counter()
    job = json.loads(body)
    if job.get("cells") != (4 if bench else 4 * len(SUITE)):
        log(f"job echo mismatch for {spec}: {body.strip()}")
        return False, body, info
    deadline = posted + JOB_TIMEOUT_S
    pause = POLL_S[0]
    while True:
        st, status = call("http.job_poll", "GET", f"/api/job/{job['job']}")
        info["polls"] += 1
        if st != 200:
            return False, status, info
        if info["queue_wait_s"] is None and '"phase":"queued"' not in status:
            info["queue_wait_s"] = time.perf_counter() - posted
        if '"state":"done"' in status:
            break
        if time.perf_counter() > deadline:
            return False, "timeout", info
        time.sleep(pause)
        pause = min(pause * POLL_S[1], POLL_S[2])
    st, table = call("http.table_get", "GET", f"/api/job/{job['job']}/table")
    header = f"Sweep at {procs} processors, scale {scale_text(milli)} "
    if st != 200 or not table.startswith(header):
        log(f"table for {spec} does not echo the request: {table[:80]!r}")
        return False, table, info
    return True, table, info


def closed_loop(srv, traffic, digests, seconds, max_jobs, spans):
    """Clients each send their next request when the previous completes.
    Returns a list of (latency s, ok, req, info, end time)."""
    results = []
    lock = threading.Lock()
    t_end = time.perf_counter() + seconds
    issued = [0]

    def client():
        while True:
            with lock:
                if time.perf_counter() >= t_end or (max_jobs and issued[0] >= max_jobs):
                    return
                issued[0] += 1
            req = traffic.next()
            job_spans = [] if spans is not None else None
            t0 = time.perf_counter()
            try:
                ok, body, info = do_request(srv, req, job_spans)
            except Exception as e:  # any client-side error fails the job
                ok, body, info = False, str(e), {"polls": 0, "queue_wait_s": None}
            t1 = time.perf_counter()
            want = digests.get(request_key(req))
            if ok and want != hashlib.sha256(body.encode()).hexdigest():
                log(f"body for {request_key(req)} differs from the pinned one")
                ok = False
            with lock:
                results.append((t1 - t0, ok, req, info, t1))
                if spans is not None:
                    spans.append((("serve.job", t0, t1), job_spans))

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def start_warm_server(name, k, digests):
    """Set-up: a server on a fresh store, listening, with the hot set warm.
    Returns the server, the set-up time and how many hot-set jobs failed."""
    t0 = time.perf_counter()
    srv = Server(fresh_dir(f"{name}-{k}"))
    failed = 0
    for req in HOT:
        ok, body, _ = do_request(srv, req + (False,), None)
        if not ok or digests.get(request_key(req)) != hashlib.sha256(body.encode()).hexdigest():
            log(f"hot-set job {request_key(req)} failed or differs from the pinned body")
            failed += 1
    return srv, time.perf_counter() - t0, failed


def load_digests():
    with open(os.path.join(EXPECTED, "serve.json")) as f:
        return json.load(f)


def serve_metrics(results, window):
    lat = [r[0] for r in results]
    ends = sorted(r[4] for r in results)
    # wall_s: host time to complete `window` jobs of the mix, median over
    # consecutive windows of the closed loop.
    windows = [ends[i + window - 1] - ends[i - 1] for i in range(1, len(ends) - window + 1, window)]
    busy = ends[-1] - min(r[4] - r[0] for r in results)
    log(f"  {window}-job windows s: " + " ".join(f"{w:.2f}" for w in windows))
    return {
        "wall_s": statistics.median(windows) if windows else busy,
        "job_p50_ms": quantile(lat, 0.5) * 1e3,
        "job_p95_ms": quantile(lat, 0.95) * 1e3,
        "jobs_per_s": len(results) / busy,
    }


def serve_workload(seed, seconds, trace, max_jobs):
    name = "serve-mixed"
    digests = load_digests()
    setups = []
    setup_failed = 0
    srv = None
    try:
        for k in range(SERVE_SETUP_REPEATS):
            if srv is not None:
                srv.stop()
            srv, dt, bad = start_warm_server(name, k, digests)
            setups.append(dt)
            setup_failed += bad
        traffic = Traffic(seed)
        # The traced run compares a plain half with a half that records
        # client-side spans; the untraced run is one plain loop.
        spans = [] if trace else None
        stop, rss = threading.Event(), [srv.rss_mb()]
        sampler = threading.Thread(target=srv.sample_rss, args=(stop, rss))
        sampler.start()
        try:
            plain = closed_loop(srv, traffic, digests, seconds / 2.0 if trace else seconds, max_jobs, None)
        finally:
            stop.set()
            sampler.join()
        traced = closed_loop(srv, traffic, digests, seconds / 2.0, max_jobs, spans) if trace else []
        st, stats = srv.request("GET", "/api/stats")
        stats = json.loads(stats) if st == 200 else None
        store_bytes = sum(os.path.getsize(os.path.join(d, f))
                          for d, _, fs in os.walk(os.path.join(srv.cwd, "results", "cache")) for f in fs)
    finally:
        if srv is not None:
            srv.stop()
    results = plain + traced
    # Set-up's hot-set jobs are checked operations too.
    attempted = len(results) + SERVE_SETUP_REPEATS * len(HOT)
    failed = sum(1 for r in results if not r[1]) + setup_failed
    if not plain:
        fail("no job completed")
    kinds = {}
    for r in results:
        kinds[r[2][5]] = kinds.get(r[2][5], 0) + 1
    log(f"{name}: {len(results)} jobs {kinds}, {failed} failed, store {store_bytes} bytes")
    for cls in ("hot", "new", "explain"):
        v = [r[0] * 1e3 for r in results if r[2][5] == cls]
        if v:
            log(f"  {cls} latency ms: n={len(v)} p10 {quantile(v, .1):.1f} p50 {quantile(v, .5):.1f} "
                f"p90 {quantile(v, .9):.1f}")
    if not trace:
        m = serve_metrics(plain, 50)
        m["setup_s"] = statistics.median(setups)
        # The server's high-water mark swings with short allocation spikes
        # of its per-connection threads; the 95th percentile of the
        # sampled resident set is the steadier peak.
        m["peak_rss_mb"] = quantile(rss, 0.95)
        return attempted, failed, m
    return attempted, failed, serve_layers(seed, plain, traced, spans, stats, store_bytes)


def replay_sample(seed):
    """The served cells the store replay runs: the first 6 new sweeps and
    the first 2 explains of the seed's traffic, in draw order, so the
    sample does not depend on which client's job finished first."""
    traffic, sample = Traffic(seed), []
    want = {"new": 6, "explain": 2}
    while any(want.values()):
        what, bench, milli, procs, race, cls = traffic.next()
        if want.get(cls):
            want[cls] -= 1
            sample.append(f"{what} {bench} {milli} {procs} {int(race)}")
    return sample


def serve_layers(seed, plain, traced, spans, stats, store_bytes):
    layers = {}
    by_route = {}
    for _, calls in spans:
        for route, t0, t1 in calls:
            by_route.setdefault(route, []).append((t1 - t0) * 1e3)
    for route in ("http.sweep_post", "http.job_poll", "http.table_get", "http.explain"):
        v = by_route.get(route, [])
        layers[f"{route}_ms"] = statistics.mean(v) if v else 0.0
    sweeps = [r for r in traced if r[2][0] == "sweep"]
    layers["http.polls_per_job"] = statistics.mean(r[3]["polls"] for r in sweeps) if sweeps else 0.0
    waits = [r[3]["queue_wait_s"] * 1e3 for r in sweeps if r[2][5] == "new" and r[3]["queue_wait_s"] is not None]
    layers["queue.wait_ms"] = statistics.mean(waits) if waits else 0.0
    if stats:
        c, q = stats["cache"], stats["queue"]
        for k in ("hits", "misses", "inserts", "evictions", "corrupt"):
            layers[f"cache.{k}"] = c[k]
        layers["cache.hit_ratio"] = c["hits"] / max(1, c["hits"] + c["misses"])
        for k in ("executed", "cache_hits", "deduped"):
            layers[f"queue.{k}"] = q[k]
    layers["cache.bytes"] = store_bytes
    mean = lambda rs: statistics.mean(r[0] for r in rs) if rs else 0.0
    layers["trace.overhead_frac"] = mean(traced) / mean(plain) - 1.0 if plain and traced else 0.0
    # Replay a sample of the served cells in-process: store layer,
    # supervised execution, race detector and profiler.
    work = fresh_dir("serve-store")
    reqs = os.path.join(work, "requests.txt")
    with open(reqs, "w") as f:
        f.write("\n".join(replay_sample(seed)) + "\n")
    spans_path = os.path.join(WORK, "spans-serve-mixed.jsonl")
    r = subprocess.run([TRACER, "store", "--requests", reqs, "--dir", work, "--spans", spans_path],
                       cwd=work, stdout=subprocess.PIPE)
    if r.returncode != 0:
        fail(f"tracer exited {r.returncode}")
    replay = json.loads(r.stdout)
    log_self_time(replay)
    if replay["errors"]:
        fail(f"store replay failed: {replay['errors']}")
    for k, v in replay["layers"].items():
        layers.setdefault(k, v)
    # Client-side spans join the tracer's span file: one root span per
    # job, its HTTP calls as children. Request ids follow the tracer's.
    with open(spans_path, "a") as f:
        epoch = min((job[1] for job, _ in spans), default=0.0)
        for n, (job, calls) in enumerate(spans):
            req = 1_000_000 + n
            for k, (name, a, b) in enumerate([job] + calls):
                f.write(json.dumps({"id": (req << 24) | (k + 1), "parent": 0 if k == 0 else (req << 24) | 1,
                                    "req": req, "name": name, "start_ns": int((a - epoch) * 1e9),
                                    "end_ns": int((b - epoch) * 1e9)}) + "\n")
    return layers


# -------------------------------------------------------------- main --

def metric_names(kind):
    """(name, unit) of the `end_to_end` or `per_layer` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["table1", "serve-mixed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test knobs: small inputs, and a fixed job count so served
    # counters repeat exactly.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--jobs", type=int, default=0, help=argparse.SUPPRESS)
    a = ap.parse_args()
    # Let `finally` blocks stop the server when the run is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    os.makedirs(WORK, exist_ok=True)
    if a.workload == "serve-mixed":
        attempted, failed, metrics = serve_workload(a.seed, a.seconds, a.trace, a.jobs)
    elif a.trace:
        attempted, failed, metrics = table1_traced(a.tiny)
    else:
        attempted, failed, metrics = table1_workload(a.seconds, a.tiny)

    names = metric_names("per_layer" if a.trace else "end_to_end")
    out = {}
    for name, unit in names:
        # A layer the workload never reaches reads 0.
        out[name] = {"value": float(metrics.get(name, 0.0)), "unit": unit}
        print(f"{a.workload:12} {name:28} {out[name]['value']:>16.6g} {unit}")
    print(f"{a.workload:12} {'failed_frac':28} {failed / max(1, attempted):>16.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
