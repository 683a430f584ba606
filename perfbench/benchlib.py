"""Pure helpers of the PathRank benchmark: fixture reading, seeded request
schedules, percentiles, response validation and metric bookkeeping.

Nothing here starts a process or touches the network, so the
benchmark's own tests (test_benchlib.py) exercise all of it directly.
"""

import hashlib
import json
import math
import re

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Requests are plain dicts:
#   {"kind": "route"|"rank"|"traffic", "due_us": int, "src": int,
#    "dst": int, "updates": [(edge, travel_time_s), ...]}


# ---------------------------------------------------------------- fixture

class Network:
    """The fixture road network as written by `pathrank_cli network`:
    edge ids are the row order of the edges CSV."""

    def __init__(self, edges):
        self.edges = edges  # [(from, to, travel_time_s)]
        self.num_vertices = 1 + max(max(a, b) for a, b, _ in edges)
        self.out = [[] for _ in range(self.num_vertices)]
        for e, (a, b, _) in enumerate(edges):
            self.out[a].append(e)
        self.arcs = {(a, b) for a, b, _ in edges}

    @classmethod
    def load(cls, prefix):
        edges = []
        with open(prefix + "_edges.csv") as f:
            next(f)
            for line in f:
                cols = line.strip().split(",")
                edges.append((int(cols[0]), int(cols[1]), float(cols[3])))
        return cls(edges)

    def hops_from(self, src):
        """Breadth-first hop counts from src (None = unreachable)."""
        hops = [None] * self.num_vertices
        hops[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for e in self.out[v]:
                    w = self.edges[e][1]
                    if hops[w] is None:
                        hops[w] = hops[v] + 1
                        nxt.append(w)
            frontier = nxt
        return hops


def load_trip_pairs(path):
    """(source, destination) of every fixture trip, in file order."""
    pairs = []
    with open(path) as f:
        next(f)
        for line in f:
            vertices = line.strip().split(",")[1].split(";")
            if len(vertices) >= 2 and vertices[0] != vertices[-1]:
                pairs.append((int(vertices[0]), int(vertices[-1])))
    return pairs


# ------------------------------------------------------------- schedules

def zipf_picker(n, exponent):
    """Returns draw(rng): an index in [0, n) with P(i) ~ 1/(i+1)^exponent."""
    cum = []
    total = 0.0
    for i in range(n):
        total += 1.0 / (i + 1) ** exponent
        cum.append(total)
    population = list(range(n))
    return lambda rng: rng.choices(population, cum_weights=cum)[0]


def hot_keys(network, trip_pairs, count, rng, rank_rng):
    """`count` distinct trip OD pairs, in Zipf-rank order. The distinct
    pairs are sorted by hop distance and cut into `count` equal bins; `rng`
    draws one key from each bin, and `rank_rng` orders the bins (which bin
    the Zipf draw favours). With `rank_rng` fixed and `rng` seeded, every
    seed gets new keys while each rank keeps a key of about the same
    length, so a hit or a miss at a rank costs about the same."""
    hops = {}
    ranked = []
    for s, d in sorted(set(trip_pairs)):
        if s not in hops:
            hops[s] = network.hops_from(s)
        ranked.append((hops[s][d], s, d))
    ranked.sort()
    n = len(ranked)
    if n < count:
        raise ValueError(f"{n} distinct trip pairs, {count} keys wanted")
    bins = list(range(count))
    rank_rng.shuffle(bins)
    return [ranked[rng.randrange(i * n // count, (i + 1) * n // count)][1:]
            for i in bins]


def pair_strata(network):
    """Every ordered pair (s, d), s != d, with d reachable from s, grouped
    by (hop distance, order of magnitude of the number of hop-shortest
    paths). Both predict what enumerating the pair's candidates costs:
    longer pairs need more spur searches, and pairs with many equally
    short paths (a diagonal across the grid) make Yen work hardest."""
    strata = {}
    n = network.num_vertices
    for src in range(n):
        hops = [None] * n
        paths = [0] * n
        hops[src], paths[src] = 0, 1
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for e in network.out[v]:
                    w = network.edges[e][1]
                    if hops[w] is None:
                        hops[w] = hops[v] + 1
                        nxt.append(w)
                    if hops[w] == hops[v] + 1:
                        paths[w] += paths[v]
            frontier = nxt
        for dst in range(n):
            if hops[dst]:
                key = (hops[dst], paths[dst].bit_length() // 2)
                strata.setdefault(key, []).append((src, dst))
    return strata


def stratified_pairs(strata, rng, count, used):
    """`count` distinct pairs not in `used` (which is updated), in a
    seeded order. Each stratum gets its share of all pairs (largest-
    remainder quotas), so every draw spans short to long trips in the same
    proportions and only the pairs themselves vary with the seed."""
    total = sum(len(v) for v in strata.values())
    hops = sorted(strata)
    quota = {h: count * len(strata[h]) / total for h in hops}
    take = {h: int(quota[h]) for h in hops}
    short = count - sum(take.values())
    for h in sorted(hops, key=lambda h: take[h] - quota[h])[:short]:
        take[h] += 1
    out = []
    for h in hops:
        avail = [p for p in strata[h] if p not in used]
        for p in rng.sample(avail, min(take[h], len(avail))):
            used.add(p)
            out.append(p)
    rng.shuffle(out)
    return out


class PairPool:
    """An endless sequence of distinct pairs in stratified blocks of
    `block` (see stratified_pairs), drawn from `rng`; take() hands them
    out in order, so no pair repeats."""

    def __init__(self, network, rng, block):
        self.strata = pair_strata(network)
        self.rng = rng
        self.block = block
        self.used = set()
        self.pairs = []
        self.next = 0

    def take(self, count):
        while len(self.pairs) < self.next + count:
            more = stratified_pairs(self.strata, self.rng, self.block,
                                    self.used)
            if not more:
                raise ValueError("every pair of the network is used")
            self.pairs += more
        out = self.pairs[self.next:self.next + count]
        self.next += count
        return out


def traffic_batch(network, rng, used, size):
    """One /v1/traffic batch: `size` distinct edges, each given a travel
    time between 0.8x and 1.6x its free-flow time that no earlier batch
    gave it (`used` maps edge -> values so far and is updated), so no
    update is a no-op whatever order concurrent batches land in."""
    edges = rng.sample(range(len(network.edges)), size)
    updates = []
    for e in edges:
        base = network.edges[e][2]
        while True:
            value = round(base * rng.uniform(0.8, 1.6), 3)
            seen = used.setdefault(e, {base})
            if value > 0 and value not in seen:
                break
        seen.add(value)
        updates.append((e, value))
    return updates


def request_line(req):
    """The loadgen schedule line of one request."""
    if req["kind"] == "traffic":
        body = json.dumps({"updates": [{"edge": e, "travel_time_s": t}
                                       for e, t in req["updates"]]},
                          separators=(",", ":"))
        path = "/v1/traffic"
    else:
        body = json.dumps({"source": req["src"], "destination": req["dst"]},
                          separators=(",", ":"))
        path = "/v1/route" if req["kind"] == "route" else "/v1/rank"
    return f"{req['due_us']}\tPOST\t{path}\t{body}"


def replay_line(req, due_us):
    """The traced replay's line of one timed request: kind, due time (-1:
    as soon as a worker is free) and the request. Order and ids match the
    wire run's."""
    if req["kind"] == "traffic":
        return f"T {due_us} {updates_text(req)}"
    kind = "R" if req["kind"] == "route" else "K"
    return f"{kind} {due_us} {req['src']} {req['dst']}"


def updates_text(req):
    """A traffic batch as "n edge time edge time ..."."""
    flat = " ".join(f"{e} {t!r}" for e, t in req["updates"])
    return f"{len(req['updates'])} {flat}"


def read_records(data):
    """Parses loadgen's output: one dict per request with due/ready/sent/
    done times (ns), HTTP status (0 transport error, -1 timeout) and body."""
    records = []
    pos = 0
    while pos < len(data):
        eol = data.index(b"\n", pos)
        _, due, ready, sent, done, status, n = map(int, data[pos:eol].split())
        records.append({"due_ns": due, "ready_ns": ready, "sent_ns": sent,
                        "done_ns": done, "status": status,
                        "body": data[eol + 1:eol + 1 + n]})
        pos = eol + 2 + n
    return records


def schedule_digest(requests):
    """sha256 over the exact wire schedule: equal digests mean two runs
    sent identical inputs at identical offsets."""
    h = hashlib.sha256()
    for req in requests:
        h.update(request_line(req).encode())
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------- statistics

def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-quantile of n samples."""
    return n - max(1, math.ceil(p * n))


def percentile(values, p, min_beyond=10):
    """Nearest-rank percentile; None unless at least `min_beyond` samples
    lie beyond it (a tail estimate with fewer is not reported)."""
    n = len(values)
    if n == 0 or samples_beyond(n, p) < min_beyond:
        return None
    return sorted(values)[max(1, math.ceil(p * n)) - 1]


def blocked_p99(values, block):
    """The p99 of each run of `block` consecutive samples (the last block
    takes the remainder), then their median: one stall of the machine
    moves one block's p99, not the result. None below `block` samples."""
    k = len(values) // block
    if k == 0:
        return None
    return median([percentile(values[i * block:(i + 1) * block if i < k - 1
                                     else len(values)], 0.99)
                   for i in range(k)])


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        return None
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def interpolate_knee(lo, lo_ms, hi, hi_ms, limit_ms):
    """max_qps inside the final bracket of the ladder: `lo` met the limit
    with latency lo_ms (lo = 0 when no rate did), `hi` missed it with
    hi_ms. Linear in rate against log latency, so the figure moves
    continuously with the measured latencies instead of snapping to rungs."""
    if lo <= 0 or lo_ms is None or lo_ms <= 0 or hi_ms <= lo_ms:
        return hi * min(1.0, limit_ms / hi_ms)
    frac = math.log(limit_ms / lo_ms) / math.log(hi_ms / lo_ms)
    return lo + (hi - lo) * min(1.0, max(0.0, frac))


# ----------------------------------------------------------- validation

class Validator:
    """Checks every response body; records the first few failures."""

    def __init__(self, network):
        self.network = network
        self.errors = []
        self._good = set()

    def fail(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)
        return False

    def _path_ok(self, src, dst, vertices, edges):
        net = self.network
        if edges is not None:
            if not edges or len(vertices) != len(edges) + 1:
                return False
            for i, e in enumerate(edges):
                if e < 0 or e >= len(net.edges):
                    return False
                a, b, _ = net.edges[e]
                if a != vertices[i] or b != vertices[i + 1]:
                    return False
        else:
            if any((vertices[i], vertices[i + 1]) not in net.arcs
                   for i in range(len(vertices) - 1)):
                return False
        return len(vertices) >= 2 and vertices[0] == src and \
            vertices[-1] == dst

    def check_routes(self, rid, req, body):
        """Validates a /v1/route or /v1/rank 200 body; returns the parsed
        object (None when invalid)."""
        try:
            obj = json.loads(body)
        except ValueError:
            self.fail(f"request {rid}: body is not JSON")
            return None
        key = (req["kind"], req["src"], req["dst"],
               hashlib.blake2b(body, digest_size=16).digest())
        if key in self._good:
            return obj
        routes = obj.get("routes" if req["kind"] == "route" else "candidates")
        if not isinstance(routes, list) or not routes:
            self.fail(f"request {rid}: no routes")
            return None
        scores = [r.get("score") for r in routes]
        if any(not isinstance(s, (int, float)) for s in scores) or \
                any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            self.fail(f"request {rid}: scores not non-increasing")
            return None
        for r in routes:
            if not self._path_ok(req["src"], req["dst"], r.get("vertices"),
                                 r.get("edges") if req["kind"] == "route"
                                 else None):
                self.fail(f"request {rid}: route is not a connected path "
                          f"{req['src']} -> {req['dst']}")
                return None
        self._good.add(key)
        return obj


# --------------------------------------------------------- BENCHMARK.json

def check_result_metrics(spec, metrics, trace):
    """Problems with a result's metrics against BENCHMARK.json: every
    metric of the mode is present with its unit, nothing else is, and
    every name is well formed."""
    want = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    names = {m["name"]: m["unit"] for m in want}
    for name, unit in names.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name} has unit "
                            f"{metrics[name].get('unit')}, want {unit}")
        elif not isinstance(metrics[name].get("value"), (int, float)) or \
                not math.isfinite(metrics[name]["value"]):
            problems.append(f"metric {name} has no finite value")
    for name in metrics:
        if name not in names:
            problems.append(f"unexpected metric {name}")
        if not METRIC_NAME.match(name):
            problems.append(f"bad metric name {name}")
    return problems
