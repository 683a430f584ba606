#!/usr/bin/env python3
"""PathRank benchmark: open-loop route serving plus training.

Run from the repository root:

    python3 perfbench/run.py --workload route_hot --seed 1 --seconds 10 \
        --trace 0

It builds the repository and the benchmark programs (CMake, into
.bench_build/), builds the shared fixture once, then runs one workload:
trains a model with `pathrank_cli train`, serves it with
`pathrank_cli serve --http 0`, drives the server with the native
open-loop generator and validates every response. `--trace 1` runs the
same schedule again in-process with spans and reports per-layer metrics
instead. The last line of stdout is the result JSON; perfbench/README.md
has the metric definitions.
"""

import argparse
import json
import os
import platform
import pty
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import random
import hashlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
FIXTURE = os.path.join(OUT, "fixture")
NPROC = os.cpu_count() or 1
CONNS = min(4, NPROC)

# Fixture: the `small` 20x20 network and its simulated trips. Built once
# per checkout, shared by every workload, never timed.
NET_ARGS = ["--rows", "20", "--cols", "20", "--seed", "1"]
TRIP_ARGS = ["--trips", "700", "--drivers", "40", "--seed", "7"]

# Every run first trains the model it then serves: `pathrank_cli train`
# (D-TkDI, node2vec, TRAIN_EPOCHS fixed epochs, held-out evaluation) at
# PATHRANK_THREADS = nproc. The training seed is fixed, so the model and
# test_tau are deterministic for a given thread count.
TRAIN_SEED = 11
TRAIN_EPOCHS = 2

SETUP_STARTS = 11         # server starts per run; setup_s is their median
MIN_SAMPLES = 1000        # a p99 needs 10 samples beyond it
HOT_KEYS = 64             # well under the 1024-entry default route cache
ZIPF_EXPONENT = 1.0
# The ingestion probe: PROBE_BLOCKS x MIN_SAMPLES /v1/traffic batches of
# TRAFFIC_BATCH_EDGES edges at PROBE_RATE, right after the nominal window;
# traffic_p99_ms is the median of the p99s of its consecutive blocks of
# MIN_SAMPLES.
#
# The rate follows the rule of the nominal read rates: a quarter of what
# the server can take. An open-loop ladder of 3000-batch rungs (8 edges,
# Poisson, four connections, 4-vCPU VM) kept the ack p50 at 0.11-0.4 ms
# up to 8000/s; the p50 left that level between 9000 and 11000/s in one
# series and not by 12000/s in another. A quarter of the lower knee is
# 2500/s.
#
# The batch size barely matters: a batch costs one copy-on-write snapshot
# rebuild whatever its size. At 2000/s the ack service time (sent to
# received, p50) was 0.14, 0.19, 0.21 and 0.32 ms for 1, 8, 32 and 128
# edges; 8 edges is half a percent of the fixture's 1520.
#
# Nine blocks: that VM stalls for 1-10 ms a few times a second, and a
# stall of 4 ms or more delays ten acks of a block at this rate. In tries
# of nine blocks, zero to two blocks per try read 2-28 ms against
# 0.25-0.33 ms for the rest, so the median of nine kept to the latter.
TRAFFIC_BATCH_EDGES = 8
PROBE_BLOCKS = 9
PROBE_RATE = 2500.0       # per second
WARMUP_WRITES = 500       # untimed traffic batches after set-up
WARMUP_READS = 50         # untimed reads at the nominal rate after priming
ENUMERATIONS = 1000       # candidate enumerations in the traced routing replay
# The generator's own p99 lateness in the nominal window may be at most
# this share of the p99 it measures (but never less than the floor), or
# the run fails: a late generator would distort the tail it reports. The
# share leaves room for the machine: in noisy spells of a 4-vCPU VM, 12-26
# of five seconds' 200 us sleeps woke over 5 ms late (2-6 outside them),
# and the generator's p99 lag read 2.7-6 ms against a p99 of 12-26 ms it
# measured (up to 0.29 of it), because the server's threads wait on the
# same wake-ups; in quiet spells it read 0.1-0.2 ms. A generator as late
# as a Python one was (11-34 ms at p99 against route_hot's 4-6 ms) still
# fails.
MAX_LAG_SHARE = 0.5
MIN_LAG_BOUND_MS = 2.0
REQUEST_TIMEOUT_MS = 10000

# Per workload: read mix; nominal offered rate (reads/s; each keeps the
# server near a quarter busy, so a slower machine does not tip the nominal
# window into queueing); how many reads the nominal window holds at least,
# and in how many blocks p99_ms is taken (the median of the blocks' p99s:
# route_hot's p99 of a few milliseconds moves with every stall of a shared
# machine); the coarse ladder of offered read rates, how long each rung
# lasts, and the p50 limit a rung must meet.
#
# max_qps: the coarse rungs run in order until one misses the limit, then
# BISECT_STEPS rungs halve the bracket, and the result is interpolated
# inside the last bracket. When even the top rung meets the limit, the
# ladder grows by x1.25 rungs (at most MAX_EXTRA_RUNGS) until one misses
# it, so max_qps never saturates at the ladder's top. Rungs are judged on
# their median: past the knee an open-loop backlog grows and the median
# leaves the limit at once, while a rung's p99 depends on a handful of
# samples. Rungs last 2.5 s:
# at 1.2 s the knee moved by a fifth from run to run with the moment.
BISECT_STEPS = 2
MAX_EXTRA_RUNGS = 12
WORKLOADS = {
    "route_hot": dict(mix="hot", rate=300.0, reads=5000, p99_blocks=5,
                      ladder=[1000, 1250, 1560, 1950, 2440, 3050],
                      step_s=2.5, limit_ms=10.0),
    "route_cold": dict(mix="cold", rate=40.0, reads=1000, p99_blocks=1,
                       ladder=[110, 138, 172, 215, 269, 336],
                       step_s=2.5, limit_ms=60.0),
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def build():
    for need in ("CMakeLists.txt", "src", os.path.join("tools",
                                                       "pathrank_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"run from the repository root: {need} missing")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
               "pathrank_cli", "loadgen", "traced"])


def run_quiet(cmd, timeout=850, **kw):
    """Runs cmd to completion; killed after `timeout` seconds."""
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        raise BenchError(f"command timed out after {timeout} s: {cmd[:3]}")
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-4000:])
        raise BenchError(f"command failed ({res.returncode}): {cmd[:3]}")
    return res.stdout


def cli():
    return os.path.join(BUILD, "pathrank", "pathrank_cli")


def fixture():
    """The shared fixture directory, built once per checkout."""
    if not os.path.exists(os.path.join(FIXTURE, "trips.csv")):
        tmp = FIXTURE + f".tmp{os.getpid()}"
        os.makedirs(tmp, exist_ok=True)
        net = os.path.join(tmp, "net")
        run_quiet([cli(), "network", "--out", net] + NET_ARGS)
        run_quiet([cli(), "simulate", "--network", net, "--out",
                   os.path.join(tmp, "trips.csv")] + TRIP_ARGS)
        os.rename(tmp, FIXTURE)
    return FIXTURE


def provenance(workload, seed, digest):
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                k, v = line.rstrip("\n").split("=", 1)
                cache[k.split(":")[0]] = v
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        compiler = subprocess.run([compiler, "--version"], text=True,
                                  capture_output=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True)
        commit = res.stdout.strip() if res.returncode == 0 else None
    except OSError:
        pass
    if not commit:
        # Not a git checkout: identify the sources by content instead.
        h = hashlib.sha256()
        for top in ("src", "tools", "CMakeLists.txt"):
            path = os.path.join(ROOT, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
            for name in files:
                h.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    h.update(f.read())
        commit = "tree-sha256:" + h.hexdigest()[:16]
    cpu = platform.processor() or "?"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "nproc": NPROC, "cpu": cpu,
            "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
            "workload": workload, "seed": seed, "schedule_sha256": digest}


# -------------------------------------------------------------- processes

def train(fx, model_out):
    """`pathrank_cli train` on the fixture. Returns (wall seconds, held-out
    Kendall tau)."""
    env = dict(os.environ, PATHRANK_THREADS=str(NPROC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [cli(), "train", "--network", os.path.join(fx, "net"), "--trips",
         os.path.join(fx, "trips.csv"), "--strategy", "dtkdi", "--epochs",
         str(TRAIN_EPOCHS), "--seed", str(TRAIN_SEED), "--out", model_out],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    out, _ = proc.communicate()
    wall = time.perf_counter() - t0
    out = out.decode(errors="replace")
    if proc.returncode != 0:
        sys.stderr.write(out[-2000:])
        raise BenchError("train failed")
    tau = None
    for line in out.splitlines():
        if line.startswith("held-out test:"):
            for tok in line.split():
                if tok.startswith("tau="):
                    tau = float(tok[4:])
    if tau is None:
        raise BenchError("train printed no held-out tau")
    return wall, tau


class Server:
    """`pathrank_cli serve --http 0` on loopback. stdout goes to a pty so
    the banner (with the kernel-chosen port) is line buffered; a thread
    keeps draining it so the server can never block on its own output."""

    def __init__(self, net, model):
        env = dict(os.environ)
        env.pop("PATHRANK_THREADS", None)
        master, slave = pty.openpty()
        self.master = master
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [cli(), "serve", "--network", net, "--model", model, "--http",
             "0", "--http-addr", "127.0.0.1"],
            stdin=subprocess.DEVNULL, stdout=slave, stderr=slave, env=env)
        os.close(slave)
        self.port = None
        buf = b""
        deadline = time.monotonic() + 60
        while self.port is None:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise BenchError("serve did not print its port: "
                                 + buf.decode(errors="replace")[-500:])
            r, _, _ = select.select([master], [], [], 0.05)
            if r:
                try:
                    buf += os.read(master, 4096)
                except OSError:
                    continue
                for line in buf.decode(errors="replace").splitlines():
                    if line.startswith("HTTP serving on "):
                        self.port = int(line.split()[3].rsplit(":", 1)[1])
        self.drain = threading.Thread(target=self._drain, daemon=True)
        self.drain.start()
        while not self.healthy():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise BenchError("serve never answered /healthz")
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - t0

    def _drain(self):
        try:
            while os.read(self.master, 65536):
                pass
        except OSError:
            pass  # EIO once the server has exited and the pty closed

    def healthy(self):
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=1) as s:
                s.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                          b"Connection: close\r\n\r\n")
                data = b""
                while True:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            return data.startswith(b"HTTP/1.1 200")
        except OSError:
            return False

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def stop(self):
        # SIGTERM, not SIGINT: a shell starts background jobs with SIGINT
        # ignored, the server inherits that, and a SIGINT that lands before
        # the server installs its handler (just after the banner) is lost.
        # SIGTERM then either ends the server at once or, once the handler
        # is in, shuts it down cleanly; it is repeated each second in case
        # one was lost all the same.
        for _ in range(5):
            if self.proc.poll() is not None:
                break
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=1)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if getattr(self, "drain", None) is not None:
            self.drain.join(timeout=5)
        os.close(self.master)


def run_load(port, requests, workdir, tag):
    """Sends `requests` through the native generator; returns one record
    per request: due/ready/sent/done (ns), status and body."""
    sched = os.path.join(workdir, f"{tag}.sched")
    out = os.path.join(workdir, f"{tag}.out")
    with open(sched, "w") as f:
        for req in requests:
            f.write(bl.request_line(req) + "\n")
    # loadgen ends every request by its due time plus the request timeout.
    last_due_s = max((r["due_us"] for r in requests), default=0) / 1e6
    run_quiet([os.path.join(BUILD, "loadgen"), "--port", str(port),
               "--conns", str(CONNS), "--schedule", sched, "--out", out,
               "--timeout-ms", str(REQUEST_TIMEOUT_MS)],
              timeout=last_due_s + REQUEST_TIMEOUT_MS / 1000 + 30)
    with open(out, "rb") as f:
        records = bl.read_records(f.read())
    if len(records) != len(requests):
        raise BenchError("generator lost requests")
    os.unlink(sched)
    os.unlink(out)
    return records


# ------------------------------------------------------------------ plan

class Plan:
    """Every input of one run, generated from the fixture, the workload
    and the seed alone."""

    def __init__(self, workload, seed, seconds, network, trip_pairs):
        cfg = WORKLOADS[workload]
        self.cfg = cfg
        rng = random.Random(f"{workload}/{seed}")
        self.live_tt = {}  # edge -> travel times used so far
        self.network = network
        self.seed_text = f"{workload}/{seed}"
        if cfg["mix"] == "hot":
            # The seed draws the keys, one per hop-distance stratum of the
            # trip pairs; which stratum each Zipf rank takes is fixed, so a
            # rank costs about the same whatever the seed.
            self.keys = bl.hot_keys(network, trip_pairs, HOT_KEYS,
                                    random.Random(f"{self.seed_text}/keys"),
                                    random.Random("hot-ranks"))
            self.pick = bl.zipf_picker(len(self.keys), ZIPF_EXPONENT)
            self.prime = [{"kind": "route", "due_us": 0, "src": s, "dst": d}
                          for s, d in self.keys]
        else:
            # The seed draws the cold pairs: stratified blocks of distinct
            # pairs (see bl.stratified_pairs), consumed in order and never
            # reused within a run.
            self.keys = None
            self.prime = []
            self.pool = bl.PairPool(network,
                                    random.Random(f"{self.seed_text}/pairs"),
                                    MIN_SAMPLES)
        # The nominal window: `seconds` long, stretched when needed to hold
        # the workload's reads.
        count = max(cfg["reads"], int(cfg["rate"] * seconds))
        self.nominal = self._window(rng, cfg["rate"], count)
        self.probe = self._writes(rng, PROBE_BLOCKS * MIN_SAMPLES)
        self.warmup_writes = self._writes(rng, WARMUP_WRITES)
        self.warmup_reads = self._window(rng, cfg["rate"], WARMUP_READS)
        if cfg["mix"] == "hot":
            self.enumerations = [self.keys[i % len(self.keys)]
                                 for i in range(ENUMERATIONS)]
        else:
            self.enumerations = [(r["src"], r["dst"])
                                 for r in self.nominal[:ENUMERATIONS]]
        # Ladder rungs are generated when they run, each from (workload,
        # seed, rate) alone; the digest covers everything fixed up front.
        self.digest = bl.schedule_digest(
            self.warmup_writes + self.prime + self.warmup_reads + self.nominal
            + self.probe)

    def rung(self, rate):
        """The requests of one ladder rung at `rate` reads/s."""
        rng = random.Random(f"{self.seed_text}/rung/{rate:.6g}")
        return self._window(rng, rate, int(rate * self.cfg["step_s"]))

    def _writes(self, rng, count):
        """`count` /v1/traffic batches arriving at PROBE_RATE."""
        t = 0.02
        out = []
        for _ in range(count):
            t += rng.expovariate(PROBE_RATE)
            out.append(self._traffic(rng, t))
        return out

    def _traffic(self, rng, t):
        return {"kind": "traffic", "due_us": int(t * 1e6),
                "updates": bl.traffic_batch(self.network, rng, self.live_tt,
                                            TRAFFIC_BATCH_EDGES)}

    def _window(self, rng, rate, count):
        """`count` reads arriving as a Poisson process of `rate`."""
        cfg = self.cfg
        times = []
        t = 0.02
        for _ in range(count):
            t += rng.expovariate(rate)
            times.append(t)
        if cfg["mix"] == "hot":
            reads = [dict(zip(("src", "dst"), self.keys[self.pick(rng)]))
                     for _ in times]
            for r in reads:
                r["kind"] = "route"
        else:
            pairs = self.pool.take(count)
            rng.shuffle(pairs)
            reads = [{"kind": "route" if rng.random() < 0.75 else "rank",
                      "src": s, "dst": d} for s, d in pairs]
        for r, when in zip(reads, times):
            r["due_us"] = int(when * 1e6)
        return reads


# -------------------------------------------------------------- measuring

class Outcome:
    """Validation state and counts across the timed phases of a run."""

    def __init__(self, network, workload):
        self.validator = bl.Validator(network)
        self.must_hit = WORKLOADS[workload]["mix"] == "hot"
        self.attempted = 0
        self.failed = 0
        # Highest epoch a /v1/traffic ack reported in an earlier phase:
        # phases run one after another, so every read of a later phase was
        # sent after that ack and must not report an older graph_epoch.
        self.acked_epoch = 0

    def check(self, requests, records):
        """Validates one phase. Sets rec["ok"], rec["obj"] and returns the
        latencies (ms, from the scheduled send; failures are +inf)."""
        lat = []
        acked = self.acked_epoch
        for i, (req, rec) in enumerate(zip(requests, records)):
            self.attempted += 1
            rec["ok"] = rec["status"] == 200
            rec["obj"] = None
            if rec["ok"] and req["kind"] == "traffic":
                try:
                    epoch = json.loads(rec["body"])["epoch"]
                    self.acked_epoch = max(self.acked_epoch, epoch)
                except (ValueError, KeyError, TypeError):
                    rec["ok"] = self.validator.fail(f"request {i}: bad ack")
            elif rec["ok"]:
                rec["obj"] = self.validator.check_routes(i, req, rec["body"])
                rec["ok"] = rec["obj"] is not None
                if rec["ok"] and req["kind"] == "route":
                    rec["ok"] = self._route_ok(i, rec["obj"], acked)
            else:
                self.failed += 1
            lat.append((rec["done_ns"] - rec["due_ns"]) / 1e6
                       if rec["ok"] else float("inf"))
        return lat

    def _route_ok(self, i, obj, acked):
        if obj.get("graph_epoch", -1) < acked:
            return self.validator.fail(
                f"request {i}: graph_epoch {obj.get('graph_epoch')} is "
                f"older than the acked epoch {acked}")
        if self.must_hit and obj.get("cache_hit") is not True:
            return self.validator.fail(
                f"request {i}: timed hot request missed the cache")
        return True

    @property
    def correct(self):
        return not self.validator.errors


def ladder_max_qps(port, plan, outcome, workdir):
    """Coarse rungs until one misses the limit, then bisection; returns
    the interpolated max_qps."""
    cfg = plan.cfg
    limit = cfg["limit_ms"]
    p50 = {}

    def meets(rate):
        reqs = plan.rung(rate)
        recs = run_load(port, reqs, workdir, "rung")
        lat = [x for x, r in zip(outcome.check(reqs, recs), reqs)
               if r["kind"] != "traffic"]
        p50[rate] = bl.percentile(lat, 0.5)
        log(f"ladder {rate:.1f}/s: p50 {p50[rate]:.2f} ms "
            f"{'pass' if p50[rate] <= limit else 'FAIL'}")
        return p50[rate] <= limit

    lo, hi = 0.0, None
    rungs = list(cfg["ladder"])
    rungs += [round(rungs[-1] * 1.25 ** k, 1)
              for k in range(1, MAX_EXTRA_RUNGS + 1)]
    for rate in rungs:
        if not meets(rate):
            hi = rate
            break
        lo = rate
    if hi is None:
        raise BenchError(f"every rung up to {lo}/s met the limit")
    for _ in range(BISECT_STEPS):
        mid = round((lo + hi) / 2 if lo else hi / 2, 1)
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return bl.interpolate_knee(lo, p50.get(lo), hi, p50[hi], limit)


def start_servers(net, model):
    """SETUP_STARTS sequential starts; all but the last are stopped. Returns
    (running server, median set-up seconds)."""
    times = []
    server = None
    for k in range(SETUP_STARTS):
        if server is not None:
            server.stop()
        server = Server(net, model)
        times.append(server.setup_s)
    return server, bl.median(times)


def e2e_metrics(**values):
    """Attaches units to the end-to-end values (all of them, or KeyError)."""
    units = {"setup_s": "s", "p50_ms": "ms", "p99_ms": "ms",
             "max_qps": "req/s", "ok_ratio": "ratio", "rss_mb": "MB",
             "traffic_p99_ms": "ms", "train_s": "s", "test_tau": "tau"}
    return {name: (values[name], unit) for name, unit in units.items()}


def measure_e2e(workload, plan, fx, workdir):
    cfg = plan.cfg
    net = os.path.join(fx, "net")
    model = os.path.join(workdir, "model.bin")
    t0 = time.perf_counter()
    train_s, tau = train(fx, model)
    log(f"train {train_s:.3f} s, tau {tau}")
    outcome = Outcome(plan.network, workload)
    server, setup_s = start_servers(net, model)

    def prime():
        # Also after the write probe: its epoch bumps make the keys miss.
        if plan.prime:
            recs = run_load(server.port, plan.prime, workdir, "prime")
            if any(r["status"] != 200 for r in recs):
                raise BenchError("priming the route cache failed")

    try:
        # Warm-up, untimed but validated: the first requests a fresh
        # server answers pay for lazy set-up that no later request does.
        outcome.check(plan.warmup_writes, run_load(
            server.port, plan.warmup_writes, workdir, "warmup"))
        prime()
        outcome.check(plan.warmup_reads, run_load(
            server.port, plan.warmup_reads, workdir, "warmup"))
        log(f"set-up done at {time.perf_counter() - t0:.1f} s")
        recs = run_load(server.port, plan.nominal, workdir, "nominal")
        lat = [x for x, r in zip(outcome.check(plan.nominal, recs),
                                 plan.nominal) if r["kind"] != "traffic"]
        rss = server.peak_rss_mb()
        p99 = bl.blocked_p99(lat, len(lat) // cfg["p99_blocks"])
        lag99 = bl.percentile([(r["sent_ns"] - r["ready_ns"]) / 1e6
                               for r in recs], 0.99)
        lag_bound = max(MIN_LAG_BOUND_MS, MAX_LAG_SHARE * p99)
        log(f"generator p99 lag {lag99:.3f} ms (bound {lag_bound:.2f} ms)")
        if lag99 > lag_bound:
            outcome.validator.fail(f"generator p99 lag {lag99:.3f} ms "
                                   f"exceeds {lag_bound:.2f} ms")
        log(f"nominal window done at {time.perf_counter() - t0:.1f} s")
        traffic = outcome.check(plan.probe, run_load(
            server.port, plan.probe, workdir, "probe"))
        prime()
        max_qps = ladder_max_qps(server.port, plan, outcome, workdir)
        log(f"ladder done at {time.perf_counter() - t0:.1f} s")
    finally:
        server.stop()
    log(f"server stopped at {time.perf_counter() - t0:.1f} s")
    p50 = bl.percentile(lat, 0.5)
    t99 = bl.blocked_p99(traffic, MIN_SAMPLES)
    log(f"nominal {cfg['rate']:g}/s: n={len(lat)} p50 {p50} ms p99 {p99} ms;"
        f" traffic n={len(traffic)} p99 {t99} ms; max_qps {max_qps:.1f}")
    metrics = e2e_metrics(
        setup_s=setup_s, p50_ms=p50, p99_ms=p99, max_qps=max_qps,
        ok_ratio=(outcome.attempted - outcome.failed) / outcome.attempted,
        rss_mb=rss,
        traffic_p99_ms=t99, train_s=train_s, test_tau=tau)
    return outcome, metrics


def self_times(spans):
    """Self time of each span: its duration minus what its children
    cover (children of one span never overlap: they run on its thread)."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def measure_traced(workload, plan, fx, workdir):
    """Per-layer metrics: the nominal window once more over the wire (for
    wire-side counts and latency), then the in-process traced replay."""
    net = os.path.join(fx, "net")
    model = os.path.join(workdir, "model.bin")
    train(fx, model)
    outcome = Outcome(plan.network, workload)
    server = Server(net, model)
    try:
        outcome.check(plan.warmup_writes, run_load(
            server.port, plan.warmup_writes, workdir, "warmup"))
        if plan.prime:
            run_load(server.port, plan.prime, workdir, "prime")
        outcome.check(plan.warmup_reads, run_load(
            server.port, plan.warmup_reads, workdir, "warmup"))
        wire = run_load(server.port, plan.nominal, workdir, "nominal")
    finally:
        server.stop()
    outcome.check(plan.nominal, wire)

    # In-process: the nominal requests, extended with the ladder's until
    # the planner has MIN_SAMPLES route requests to take a p99 over.
    replay = list(plan.nominal)
    for rate in plan.cfg["ladder"]:
        if sum(r["kind"] == "route" for r in replay) >= MIN_SAMPLES:
            break
        replay += plan.rung(rate)
    routes = [rec["obj"] for rec, req in zip(wire, plan.nominal)
              if req["kind"] == "route" and rec["obj"]]
    alt_ratio = sum(o.get("algo") == "alt" for o in routes) / len(routes)
    path = os.path.join(workdir, "replay.txt")
    with open(path, "w") as f:
        for s, d in plan.keys or []:
            f.write(f"P {s} {d}\n")
        for i, req in enumerate(replay):
            # The nominal window keeps its schedule, so the replay sees the
            # contention the wire run saw; the extension runs unpaced.
            due = req["due_us"] if i < len(plan.nominal) else -1
            f.write(bl.replay_line(req, due) + "\n")
        for s, d in plan.enumerations:
            f.write(f"E {s} {d}\n")
        for req in plan.probe:
            f.write(f"W {bl.updates_text(req)}\n")
    spans_path = os.path.join(workdir, "spans.txt")
    env = dict(os.environ, PATHRANK_THREADS=str(NPROC))
    run_quiet([os.path.join(BUILD, "traced"), "--network", net, "--trips",
               os.path.join(fx, "trips.csv"), "--seed", str(TRAIN_SEED),
               "--epochs", str(TRAIN_EPOCHS),
               "--replay", path, "--spans", spans_path, "--threads",
               str(CONNS), "--engine", "alt" if alt_ratio > 0.5 else
               "dijkstra"], env=env)
    spans, facts = [], {}
    with open(spans_path) as f:
        for line in f:
            parts = line.split()
            if parts[0] == "F":
                facts.setdefault(parts[1], []).append(parts[2:])
            else:
                spans.append({"name": parts[1], "req": int(parts[2]),
                              "parent": int(parts[3]),
                              "start": int(parts[4]), "end": int(parts[5]),
                              "a": int(parts[6]), "b": int(parts[7]),
                              "c": int(parts[8])})
    return outcome, per_layer(plan, wire, spans, facts, alt_ratio)


def per_layer(plan, wire, spans, facts, alt_ratio):
    """The per-layer metrics from the wire records of the nominal window
    and the spans and facts of the in-process replay."""
    self_ns = self_times(spans)
    by = {}
    for s, own in zip(spans, self_ns):
        s["self"] = own
        by.setdefault(s["name"], []).append(s)

    def durs(name, scale, key=None):
        return [((s["self"] if key == "self" else s["end"] - s["start"])
                 / scale) for s in by.get(name, [])]

    def pct(values, p):
        v = bl.percentile(values, p)
        if v is None:
            raise BenchError(f"too few samples for a p{p * 100:g} "
                             f"({len(values)})")
        return v

    roots = {s["req"]: s for s in by["loadgen.request"]}
    http_self, resp_bytes, hits, route_n = [], [], 0, 0
    for i, (req, rec) in enumerate(zip(plan.nominal, wire)):
        if req["kind"] == "traffic" or not rec["ok"]:
            continue
        resp_bytes.append(len(rec["body"]))
        root = roots[i]
        wire_ms = (rec["done_ns"] - rec["sent_ns"]) / 1e6
        http_self.append(wire_ms - (root["end"] - root["start"]) / 1e6)
        if req["kind"] == "route":
            route_n += 1
            hits += rec["obj"].get("cache_hit") is True
    plan_self = durs("serving.route_planner.plan", 1e6, "self")
    enums = [s for s in by["routing.enumerate"] if s["parent"] < 0]
    searches = by.get("routing.search", [])
    enum_ids = {id(s) for s in enums}
    search_in_replay = [s for s in searches
                        if id(spans[s["parent"]]) in enum_ids]
    enum_ns = sum(s["end"] - s["start"] for s in enums)
    forward = by["nn.forward"]
    root_list = [roots[i] for i in sorted(roots)]
    root_ns = sum(s["end"] - s["start"] for s in root_list)
    untraced = [int(ns) for _, ns in facts["untraced_ns"]]
    traced_same = [roots[int(i)]["end"] - roots[int(i)]["start"]
                   for i in {i for i, _ in facts["untraced_ns"]}]
    epoch_s = [float(v[0]) for v in facts["epoch_s"]]
    apply_ms = durs("serving.graph_store.apply", 1e6)
    lag = [r["sent_ns"] - r["ready_ns"] for r in wire]
    return {
        "loadgen.sent": (len(wire), "count"),
        "loadgen.lag_p99_ms": (pct([x / 1e6 for x in lag], 0.99), "ms"),
        "serving.http.self_p50_ms": (pct(http_self, 0.5), "ms"),
        "serving.http.self_p99_ms": (pct(http_self, 0.99), "ms"),
        "serving.http.resp_bytes_mean": (sum(resp_bytes) / len(resp_bytes),
                                         "bytes"),
        "serving.route_planner.hit_ratio": (hits / route_n, "ratio"),
        "serving.route_planner.self_p50_ms": (pct(plan_self, 0.5), "ms"),
        "serving.route_planner.self_p99_ms": (pct(plan_self, 0.99), "ms"),
        "serving.route_planner.alt_ratio": (alt_ratio, "ratio"),
        "routing.enum_p50_ms": (pct([(s["end"] - s["start"]) / 1e6
                                     for s in enums], 0.5), "ms"),
        "routing.enum_p99_ms": (pct([(s["end"] - s["start"]) / 1e6
                                     for s in enums], 0.99), "ms"),
        "routing.searches_per_enum": (len(search_in_replay) / len(enums),
                                      "count"),
        "routing.settled_per_search": (sum(s["a"] for s in search_in_replay)
                                       / len(search_in_replay), "count"),
        "routing.searches_per_candidate": (
            len(search_in_replay) / sum(s["a"] for s in enums), "count"),
        "routing.search_share": (sum(s["end"] - s["start"]
                                     for s in search_in_replay) / enum_ns,
                                 "ratio"),
        "serving.engine.batch_build_p50_us": (
            pct(durs("serving.engine.batch_build", 1e3), 0.5), "us"),
        "nn.forward_p50_ms": (pct(durs("nn.forward", 1e6), 0.5), "ms"),
        "nn.forward_p99_ms": (pct(durs("nn.forward", 1e6), 0.99), "ms"),
        "nn.rows_per_call": (sum(s["a"] for s in forward) / len(forward),
                             "count"),
        "nn.pad_ratio": (sum(s["b"] for s in forward)
                         / sum(s["c"] for s in forward), "ratio"),
        "serving.graph_store.apply_p50_ms": (pct(apply_ms, 0.5), "ms"),
        "serving.graph_store.apply_p99_ms": (pct(apply_ms, 0.99), "ms"),
        "serving.graph_store.capture_p99_us": (
            pct(durs("serving.graph_store.capture", 1e3), 0.99), "us"),
        "data.candgen_s": (durs("data.candgen", 1e9)[0], "s"),
        "embedding.node2vec_s": (durs("embedding.node2vec", 1e9)[0], "s"),
        "core.epoch_p50_s": (bl.median(epoch_s), "s"),
        "core.evaluate_s": (durs("core.evaluate", 1e9)[0], "s"),
        "core.final_train_loss": (float(facts["epoch_loss"][-1][0]), "loss"),
        "trace.p50_ratio": (bl.median(traced_same) / bl.median(untraced),
                            "ratio"),
        "trace.untraced_share": (sum(s["self"] for s in root_list) / root_ns,
                                 "ratio"),
    }


# ------------------------------------------------------------------ main

def format_metrics(spec, out, trace):
    """One line per metric: name, value, unit and direction."""
    better = {m["name"]: m["better"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    return [f"{name} = {m['value']:.6g} {m['unit']} "
            f"({better.get(name, '?')} is better)"
            for name, m in out.items()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so every started process is stopped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        build()
        fx = fixture()
        network = bl.Network.load(os.path.join(fx, "net"))
        trip_pairs = bl.load_trip_pairs(os.path.join(fx, "trips.csv"))
        plan = Plan(args.workload, args.seed, args.seconds, network,
                    trip_pairs)
        print("provenance: " + json.dumps(provenance(
            args.workload, args.seed, plan.digest)), flush=True)
        workdir = os.path.join(OUT, "runs", args.workload)
        os.makedirs(workdir, exist_ok=True)
        measure = measure_traced if args.trace else measure_e2e
        outcome, metrics = measure(args.workload, plan, fx, workdir)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    for msg in outcome.validator.errors:
        log(f"validation: {msg}")
    out = {name: {"value": value, "unit": unit}
           for name, (value, unit) in metrics.items()}
    problems = bl.check_result_metrics(spec, out, args.trace)
    for p in problems:
        log(f"metric: {p}")
    for line in format_metrics(spec, out, args.trace):
        print(line, flush=True)
    correct = outcome.correct and not problems
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": out}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
