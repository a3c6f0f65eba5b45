#!/usr/bin/env python3
"""Determinism test of the AGENP benchmark, run from the root of a checkout:

    python3 perfbench/test_determinism.py [--seed N]

Runs every workload at its tiny, fixed size twice with one seed, untraced
and traced, and checks that:
  - every end-to-end metric name (the eight of the benchmark's design,
    printed with its unit) and every per-layer metric of BENCHMARK.json
    appears in the output;
  - error_rate is 0 and every run is correct;
  - every count and every deterministic metric (allocation, compliance,
    hit rates, relearns, ilp.* counts) repeats exactly across the two runs.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import re
import subprocess
import sys

WORKLOADS = ["hot", "cold", "adapt"]
E2E_NAMES = ["setup_s", "req_per_s", "latency_p50_us", "relearn_ms",
             "compliance", "error_rate", "minor_words_per_req",
             "peak_heap_mb"]
# metrics whose value depends on timing, so may differ between runs
TIMED = re.compile(r"(_us|_ms|_s|_pct|per_s|serve_share|peak_heap_mb)$")


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit("%s trace %d exited %d:\n%s" %
                         (workload, trace, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        m = re.match(r"^  (\S+)\s+(-?[0-9.e+-]+) (\S+)$", line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    return json.loads(lines[-1]), printed


def main():
    seed = 7
    if len(sys.argv) == 3 and sys.argv[1] == "--seed":
        seed = int(sys.argv[2])
    with open("BENCHMARK.json") as f:
        per_layer = [x["name"] for x in json.load(f)["per_layer"]]
    errors = []
    for w in WORKLOADS:
        for trace in (0, 1):
            (a, pa), (b, pb) = run(w, seed, trace), run(w, seed, trace)
            tag = "%s trace %d" % (w, trace)
            for res in (a, b):
                if not res["correct"] or res["failed"] != 0:
                    errors.append("%s: run not correct: %s" % (tag, res))
            if pa.get("error_rate", (None,))[0] != 0.0:
                errors.append("%s: error_rate is not 0" % tag)
            for name in E2E_NAMES:
                if name not in pa:
                    errors.append("%s: end-to-end %s not printed" % (tag, name))
            if trace == 1:
                for name in per_layer:
                    if name not in a["metrics"]:
                        errors.append("%s: per-layer %s missing" % (tag, name))
            for name, (va, _) in pa.items():
                if not TIMED.search(name) and pb.get(name, (None,))[0] != va:
                    errors.append("%s: %s differs: %r vs %r" %
                                  (tag, name, va, pb.get(name)))
            for name, x in a["metrics"].items():
                if TIMED.search(name) or name.startswith("host."):
                    continue
                if b["metrics"][name]["value"] != x["value"]:
                    errors.append("%s: %s differs: %r vs %r" %
                                  (tag, name, x["value"],
                                   b["metrics"][name]["value"]))
            print("%-16s checked" % tag, flush=True)
    for e in errors:
        print("FAIL", e)
    print("determinism test: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
