#!/usr/bin/env python3
"""The benchmark's own test.

    python3 tsubench/test_bench.py

Run from the repository root. For every workload it runs the benchmark with
a short run length and checks that:

- two runs of the default seed give identical sim metrics, digests and
  deterministic counts;
- every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
  with its unit, and the traced run meets the applicability rules
  (dataplane.share >= 0.9 on closed_dataplane, no packets elsewhere);
- a seed other than the default also runs clean.

Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Deterministic per seed; host-time metrics are left out of the comparison.
SIM_METRICS = ("makespan_ms", "sustained_per_s", "update_p50_ms",
               "update_p99_ms", "wait_p99_ms", "frames_per_update",
               "rounds_per_update", "completed_share")
OTHER_SEED = 7


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(l for l in lines if l.startswith("detail: "))
    return proc.returncode, result, json.loads(detail[len("detail: "):])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print("%s: %s" % ("ok" if ok else "FAILED", what), flush=True)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        rc1, first, detail1 = run(name, 1, 0)
        rc2, second, detail2 = run(name, 1, 0)
        expect(rc1 == 0 and rc2 == 0 and first["correct"] and second["correct"],
               "%s: default seed runs clean twice" % name)
        expect(detail1 == detail2,
               "%s: digests and counts repeat for one seed" % name)
        expect(all(first["metrics"][m]["value"] == second["metrics"][m]["value"]
                   for m in SIM_METRICS),
               "%s: sim metrics repeat for one seed" % name)
        for m in bench["end_to_end"]:
            got = first["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"] and
                   got["value"] != 0,
                   "%s: end-to-end %s emitted, nonzero" % (name, m["name"]))

        rc, traced, _ = run(name, 1, 1)
        expect(rc == 0 and traced["correct"], "%s: traced run clean" % name)
        for m in bench["per_layer"]:
            got = traced["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"],
                   "%s: per-layer %s emitted" % (name, m["name"]))
        packets = traced["metrics"]["dataplane.packets"]["value"]
        if name == "closed_dataplane":
            expect(packets > 0 and
                   traced["metrics"]["dataplane.share"]["value"] >= 0.9,
                   "%s: dataplane.share >= 0.9" % name)
        else:
            expect(packets == 0, "%s: dataplane.packets == 0" % name)

        rc, other, _ = run(name, OTHER_SEED, 0)
        expect(rc == 0 and other["correct"] and other["failed"] == 0,
               "%s: seed %d runs clean" % (name, OTHER_SEED))

    print("%d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
