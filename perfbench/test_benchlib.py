"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

LoadgenTest compiles the load generator on its own (it links nothing from
the repository) into .bench_build/selftest/ and drives it against dead
and silent local ports; it is skipped when no C++ compiler is found. The
other tests need no build and start no process.
"""

import json
import os
import random
import shutil
import socket
import subprocess
import time
import unittest

import benchlib as bl
import run

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def grid(n):
    """An n x n grid with both directions of every street."""
    edges = []
    for r in range(n):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges += [(v, v + 1, 10.0), (v + 1, v, 10.0)]
            if r + 1 < n:
                edges += [(v, v + n, 12.0), (v + n, v, 12.0)]
    return bl.Network(edges)


NET = grid(10)
TRIPS = [(s, d) for s in range(0, 64, 3) for d in range(1, 64, 5) if s != d]


class ScheduleTest(unittest.TestCase):
    def plan(self, workload, seed):
        return run.Plan(workload, seed, 2, NET, TRIPS)

    def test_same_seed_same_digest_other_seed_other_digest(self):
        for workload in run.WORKLOADS:
            a = self.plan(workload, 1).digest
            self.assertEqual(a, self.plan(workload, 1).digest, workload)
            self.assertNotEqual(a, self.plan(workload, 2).digest, workload)

    def test_poisson_rate_within_tolerance(self):
        for workload in run.WORKLOADS:
            plan = self.plan(workload, 4)
            for rate, reads in [(plan.cfg["rate"], plan.nominal)] + [
                    (r, plan.rung(r)) for r in plan.cfg["ladder"][:2]]:
                reads = [r for r in reads if r["kind"] != "traffic"]
                span_s = (reads[-1]["due_us"] - reads[0]["due_us"]) / 1e6
                self.assertAlmostEqual(len(reads) / span_s, rate,
                                       delta=rate * 0.1, msg=workload)

    def test_nominal_window_supports_a_p99(self):
        for workload in run.WORKLOADS:
            plan = self.plan(workload, 5)
            reads = [r for r in plan.nominal if r["kind"] != "traffic"]
            self.assertIsNotNone(bl.percentile([1.0] * len(reads), 0.99))

    def test_cold_pairs_never_repeat_and_keep_the_strata_mix(self):
        plan = self.plan("route_cold", 6)
        other = self.plan("route_cold", 7)
        pairs = [(r["src"], r["dst"]) for r in plan.nominal] + [
            (r["src"], r["dst"]) for rate in plan.cfg["ladder"]
            for r in plan.rung(rate)]
        self.assertEqual(len(pairs), len(set(pairs)))
        strata = bl.pair_strata(NET)
        stratum = {p: h for h, ps in strata.items() for p in ps}
        # Another seed draws other pairs in the same strata mix.
        self.assertNotEqual(sorted(plan.enumerations),
                            sorted(other.enumerations))
        self.assertEqual(sorted(stratum[p] for p in plan.enumerations),
                         sorted(stratum[p] for p in other.enumerations))
        mix = [sorted(stratum[p] for p in bl.stratified_pairs(
            strata, random.Random(seed), 200, set())) for seed in (1, 2)]
        self.assertEqual(mix[0], mix[1])

    def test_hot_keys_distinct_primed_and_rank_stable(self):
        plan = self.plan("route_hot", 7)
        other = self.plan("route_hot", 8)
        self.assertEqual(len(set(plan.keys)), run.HOT_KEYS)
        # Another seed draws other keys; each Zipf rank keeps its length.
        self.assertNotEqual(plan.keys, other.keys)
        hops = [[NET.hops_from(s)[d] for s, d in p.keys]
                for p in (plan, other)]
        for a, b in zip(*hops):
            self.assertLessEqual(abs(a - b), 2)
        primed = {(r["src"], r["dst"]) for r in plan.prime}
        for r in plan.nominal:
            if r["kind"] == "route":
                self.assertIn((r["src"], r["dst"]), primed)

    def test_traffic_updates_never_repeat_a_value(self):
        plan = self.plan("route_hot", 8)
        seen = {}
        self.assertEqual(len(plan.probe), run.PROBE_BLOCKS * run.MIN_SAMPLES)
        for batch in plan.probe:
            edges = [e for e, _ in batch["updates"]]
            self.assertEqual(len(edges), len(set(edges)))
            for e, t in batch["updates"]:
                self.assertNotIn(t, seen.setdefault(e, {NET.edges[e][2]}))
                seen[e].add(t)


class StatisticsTest(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(bl.percentile(list(range(999)), 0.99))
        self.assertEqual(bl.percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(bl.percentile(list(range(19)), 0.5))
        self.assertEqual(bl.percentile(list(range(20)), 0.5), 9)
        self.assertIsNone(bl.percentile(list(range(99)), 0.9))

    def test_knee_is_continuous_inside_the_bracket(self):
        self.assertAlmostEqual(bl.interpolate_knee(100, 5.0, 200, 20.0, 10.0),
                               150.0)
        self.assertEqual(bl.interpolate_knee(100, 9.0, 200, 9.5, 10.0), 200)
        self.assertAlmostEqual(bl.interpolate_knee(0, None, 100, 40.0, 10.0),
                               25.0)
        a = bl.interpolate_knee(100, 5.0, 200, 20.0, 10.0)
        b = bl.interpolate_knee(100, 5.0, 200, 20.5, 10.0)
        self.assertLess(abs(a - b), 2.0)

    def test_ladder_grows_past_its_top_rung(self):
        class Plan:
            cfg = {"limit_ms": 10.0, "ladder": [100, 125]}

            def rung(self, rate):
                return [{"kind": "route", "rate": rate}] * 40

        class Outcome:
            def check(self, reqs, recs):
                return [1.0 if reqs[0]["rate"] < 300 else 50.0] * len(reqs)

        saved = run.run_load
        run.run_load = lambda port, reqs, workdir, tag: [{}] * len(reqs)
        try:
            qps = run.ladder_max_qps(0, Plan(), Outcome(), "")
        finally:
            run.run_load = saved
        # Rungs 156.2, 195.3 and 244.1 pass and 305.2 fails.
        self.assertGreater(qps, 244)
        self.assertLess(qps, 305.2)

    def test_self_time_subtracts_children(self):
        spans = [{"parent": -1, "start": 0, "end": 100},
                 {"parent": 0, "start": 10, "end": 40},
                 {"parent": 0, "start": 50, "end": 60},
                 {"parent": 1, "start": 20, "end": 30}]
        self.assertEqual(run.self_times(spans), [60, 20, 10, 10])


class ValidationTest(unittest.TestCase):
    def route_body(self, routes, hit=True, epoch=0):
        return json.dumps({"algo": "dijkstra", "cache_hit": hit,
                           "graph_epoch": epoch, "routes": routes}).encode()

    def edge(self, a, b):
        return next(e for e in NET.out[a] if NET.edges[e][1] == b)

    def route(self, vertices, score):
        edges = [self.edge(a, b) for a, b in zip(vertices, vertices[1:])]
        return {"score": score, "vertices": vertices, "edges": edges}

    def test_accepts_a_connected_ranked_route_set(self):
        v = bl.Validator(NET)
        req = {"kind": "route", "src": 0, "dst": 2}
        body = self.route_body([self.route([0, 1, 2], 0.9),
                                self.route([0, 10, 11, 12, 2], 0.4)])
        self.assertIsNotNone(v.check_routes(0, req, body))
        self.assertEqual(v.errors, [])

    def test_rejects_broken_paths_and_order(self):
        req = {"kind": "route", "src": 0, "dst": 2}
        cases = [
            self.route_body([]),
            self.route_body([self.route([0, 1, 2], 0.1),
                             self.route([0, 10, 11, 12, 2], 0.4)]),
            self.route_body([{"score": 1.0, "vertices": [0, 2],
                              "edges": [self.edge(0, 1)]}]),
            self.route_body([self.route([0, 1], 1.0)]),
            b"not json",
        ]
        for body in cases:
            v = bl.Validator(NET)
            self.assertIsNone(v.check_routes(0, req, body), body)
            self.assertEqual(len(v.errors), 1)

    def test_rank_bodies_are_checked_on_vertices(self):
        v = bl.Validator(NET)
        req = {"kind": "rank", "src": 0, "dst": 2}
        good = json.dumps({"candidates": [{"score": 1,
                                           "vertices": [0, 1, 2]}]})
        bad = json.dumps({"candidates": [{"score": 1, "vertices": [0, 2]}]})
        self.assertIsNotNone(v.check_routes(0, req, good.encode()))
        self.assertIsNone(v.check_routes(1, req, bad.encode()))

    def test_route_after_an_ack_must_not_report_an_older_epoch(self):
        outcome = run.Outcome(NET, "route_hot")
        ack = {"status": 200, "body": b'{"epoch": 5}', "due_ns": 0,
               "done_ns": 1}
        outcome.check([{"kind": "traffic"}], [ack])
        req = {"kind": "route", "src": 0, "dst": 2}
        for epoch, ok in ((4, False), (5, True)):
            rec = {"status": 200, "due_ns": 0, "done_ns": 1,
                   "body": self.route_body([self.route([0, 1, 2], 0.9)],
                                           epoch=epoch)}
            lat = outcome.check([req], [rec])
            self.assertEqual(rec["ok"], ok)
            self.assertEqual(lat[0] == float("inf"), not ok)
        self.assertEqual(len(outcome.validator.errors), 1)

    def test_hot_reads_must_hit_the_cache(self):
        outcome = run.Outcome(NET, "route_hot")
        rec = {"status": 200, "due_ns": 0, "done_ns": 1,
               "body": self.route_body([self.route([0, 1, 2], 0.9)],
                                       hit=False)}
        outcome.check([{"kind": "route", "src": 0, "dst": 2}], [rec])
        self.assertFalse(outcome.correct)


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(SPEC_PATH) as f:
            self.spec = json.load(f)

    def test_metric_names_and_units_are_well_formed(self):
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in metrics] + \
            [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], bl.METRIC_NAME)
            self.assertLessEqual(len(m["name"]), 64)
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("lower", "higher"))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_every_end_to_end_metric_is_emitted_with_its_unit(self):
        values = {m["name"]: 1.0 for m in self.spec["end_to_end"]}
        out = {k: {"value": v, "unit": u}
               for k, (v, u) in run.e2e_metrics(**values).items()}
        self.assertEqual(bl.check_result_metrics(self.spec, out, False), [])
        lines = run.format_metrics(self.spec, out, False)
        for m in self.spec["end_to_end"]:
            self.assertIn(f"{m['name']} = 1 {m['unit']} ({m['better']} is "
                          "better)", lines)

    def test_every_layer_metric_is_emitted_with_its_unit(self):
        out = {k: {"value": v, "unit": u}
               for k, (v, u) in synthetic_layers().items()}
        self.assertEqual(bl.check_result_metrics(self.spec, out, True), [])
        lines = run.format_metrics(self.spec, out, True)
        self.assertEqual(len(lines), len(self.spec["per_layer"]))

    def test_result_check_flags_missing_extra_and_wrong_units(self):
        out = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in self.spec["end_to_end"]}
        out.pop("p50_ms")
        out["p99_ms"]["unit"] = "s"
        out["bogus name"] = {"value": 1.0, "unit": "s"}
        problems = bl.check_result_metrics(self.spec, out, False)
        self.assertEqual(len(problems), 4, problems)


class LoadgenTest(unittest.TestCase):
    """A server that is gone or never answers must end the generator's run
    with failed records, not hang it."""

    @classmethod
    def setUpClass(cls):
        cxx = next((c for c in ("c++", "g++", "clang++") if shutil.which(c)),
                   None)
        if cxx is None:
            raise unittest.SkipTest("no C++ compiler")
        here = os.path.dirname(os.path.abspath(__file__))
        cls.dir = os.path.join(here, "..", ".bench_build", "selftest")
        os.makedirs(cls.dir, exist_ok=True)
        cls.exe = os.path.join(cls.dir, "loadgen")
        subprocess.run([cxx, "-std=c++20", "-O1", "-o", cls.exe,
                        os.path.join(here, "loadgen.cpp")], check=True,
                       timeout=300)

    def load(self, port, count, timeout_ms):
        sched = os.path.join(self.dir, "sched")
        out = os.path.join(self.dir, "out")
        with open(sched, "w") as f:
            for i in range(count):
                f.write(bl.request_line({"kind": "route", "due_us": i * 1000,
                                         "src": 0, "dst": 1}) + "\n")
        t0 = time.monotonic()
        subprocess.run([self.exe, "--port", str(port), "--conns", "2",
                        "--schedule", sched, "--out", out, "--timeout-ms",
                        str(timeout_ms)], check=True, timeout=60)
        with open(out, "rb") as f:
            return bl.read_records(f.read()), time.monotonic() - t0

    def test_refused_connections_are_transport_errors(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        records, wall = self.load(port, 50, 10000)
        self.assertEqual([r["status"] for r in records], [0] * 50)
        self.assertLess(wall, 5)

    def test_unanswered_requests_time_out_from_their_due_time(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            s.listen(16)  # completes handshakes, never reads or answers
            records, wall = self.load(s.getsockname()[1], 10, 300)
        self.assertEqual([r["status"] for r in records], [-1] * 10)
        for r in records:
            self.assertGreaterEqual(r["done_ns"] - r["due_ns"], 300e6)
        self.assertLess(wall, 5)


def synthetic_layers():
    """per_layer() over a small hand-made trace: 1000 routed requests, 1000
    enumerations, 1000 traffic applies and one training run."""
    n = 1000
    plan = type("P", (), {})()
    plan.nominal = [{"kind": "route", "src": 0, "dst": 2} for _ in range(n)]
    body = b'{"algo":"dijkstra","cache_hit":true,"graph_epoch":0}'
    wire = [{"ok": True, "obj": json.loads(body), "body": body,
             "sent_ns": 1000 * i, "ready_ns": 1000 * i,
             "done_ns": 1000 * i + 900} for i in range(n)]
    spans = []

    def add(name, req, parent, start, end, a=0, b=0, c=0):
        spans.append({"name": name, "req": req, "parent": parent,
                      "start": start, "end": end, "a": a, "b": b, "c": c})
        return len(spans) - 1

    for i in range(n):
        t = 1000 * i
        root = add("loadgen.request", i, -1, t, t + 600)
        add("serving.graph_store.capture", i, root, t, t + 10)
        p = add("serving.route_planner.plan", i, root, t + 10, t + 590)
        add("serving.engine.batch_build", i, p, t + 20, t + 40)
        add("nn.forward", i, p, t + 40, t + 500, 10, 300, 400)
        add("serving.engine.assemble", i, p, t + 500, t + 510)
        e = add("routing.enumerate", i, -1, t, t + 400, 10)
        add("routing.search", i, e, t, t + 300, 50)
        add("serving.graph_store.apply", -1, -1, t, t + 100)
    for name in ("data.candgen", "embedding.node2vec", "core.train",
                 "core.evaluate"):
        add(name, -1, -1, 0, 10**9)
    facts = {"untraced_ns": [[str(i), "550"] for i in range(256)],
             "epoch_s": [["1.0"], ["2.0"]], "epoch_loss": [["0.5"], ["0.4"]]}
    return run.per_layer(plan, wire, spans, facts, 0.0)


if __name__ == "__main__":
    unittest.main()
