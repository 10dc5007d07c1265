#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs (about a minute in all):

  1. a smoke run of every workload, untraced and traced: the answer check
     passes with no failed operation, every metric is printed, and
     live_mixed compacts at least once;
  2. a deliberately corrupted reference answer makes the answer check of
     every workload fail;
  3. in the traced run, the per-layer self times plus `unattributed` add
     up to the measured request time;
  4. every run prints exactly the metrics BENCHMARK.json lists, with the
     same units.

    python3 perfbench/selftest.py

Exits non-zero on the first failed expectation.
"""

import argparse
import json
import math
import os
import sys

import run as bench

SECONDS = 2
# Traced layers that partition a served request's time (fleet_search,
# live_mixed): with `unattributed_ms` they must add up to client.rtt_ms.
SERVED_LAYERS = (
    "unattributed_ms", "server.self_ms", "server.admission_ms",
    "shard.coord_self_ms", "shard.dispatch_unattributed_ms",
    "obs.trace_pull_ms", "ir.search_self_ms", "ir.rank_topk_ms",
)


def result(binary, workload, trace, extra=()):
    args = argparse.Namespace(workload=workload, seed=7, seconds=SECONDS,
                              trace=trace)
    code, out = bench.run(binary, args, ["--size=tiny"] + list(extra))
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("%s trace=%d exited %d" % (workload, trace, code))
    return json.loads(lines[-1]), lines


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)
    print("ok   " + msg)


def metric(res, name):
    return res["metrics"][name]["value"]


def declared(trace):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    binary = bench.build()
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            res, _ = result(binary, workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] > 0, tag + ": answers correct")
            expect(all(math.isfinite(m["value"]) and m["unit"]
                       for m in res["metrics"].values()),
                   tag + ": %d metrics printed" % len(res["metrics"]))
            expect({k: m["unit"] for k, m in res["metrics"].items()} ==
                   declared(trace),
                   tag + ": metrics match BENCHMARK.json")
            if trace == 0:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       tag + ": end-to-end metrics are non-zero")
                continue
            expect(metric(res, "client.rtt_ms") > 0 and
                   metric(res, "obs.layer_sum_error_pct") < 0.5,
                   tag + ": layer self times + unattributed = request time")
            if workload != "strategy_graph":
                total = sum(metric(res, m) for m in SERVED_LAYERS)
                rtt = metric(res, "client.rtt_ms")
                expect(abs(total - rtt) <= 0.005 * rtt,
                       tag + ": published layers sum to client.rtt_ms "
                       "(%.4f vs %.4f ms)" % (total, rtt))
            if workload == "live_mixed":
                expect(metric(res, "ingest.compactions") > 0,
                       tag + ": the write stream compacts")
        res, lines = result(binary, workload, 0, ["--corrupt-answer"])
        expect(not res["correct"] and res["failed"] >= 1 and
               any(l.startswith("failure answer mismatch") for l in lines),
               workload + ": a corrupted answer fails the check")
    print("all perfbench self-tests passed")


if __name__ == "__main__":
    main()
