#!/usr/bin/env python3
"""Self-tests of the pcq benchmark. Run from the repository root:

    python3 pcqbench/selftest.py

1. A smoke-size run of every workload prints every end-to-end metric of
   BENCHMARK.json (and with --trace 1 every per-layer metric) with its unit,
   answers correctly and fails nothing.
2. Negative control: with --fault each workload corrupts one expected answer,
   and the run must report correct = false and failed > 0.
3. In a directory holding only BENCHMARK.json and the benchmark's files, the
   command exits non-zero and prints no result.
Exits 0 when every check holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "pcqbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace in ("0", "1"):
            p = run(["--workload", name, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke"])
            res = result_of(p) if p.returncode == 0 else None
            check(res is not None, "%s trace %s exits 0 with a result"
                  % (name, trace))
            if res is None:
                sys.stderr.write(p.stderr[-3000:])
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  "%s trace %s result keys" % (name, trace))
            check(res["correct"] is True and res["failed"] == 0
                  and res["attempted"] >= 1,
                  "%s trace %s correct, nothing failed" % (name, trace))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected[trace],
                  "%s trace %s emits every metric with its unit"
                  % (name, trace))
            check(all(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      for v in res["metrics"].values()),
                  "%s trace %s values are finite numbers" % (name, trace))
            if trace == "0":
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      "%s end-to-end values are never 0" % name)

        p = run(["--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", "1", "--smoke", "--fault"])
        res = result_of(p) if p.returncode == 0 else None
        check(res is not None and res["correct"] is False
              and res["failed"] > 0
              and res["metrics"]["failed_frac"]["value"] > 0,
              "%s negative control: a corrupted answer raises failed_frac"
              % name)

    # The benchmark alone, without the program, must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=bare)
    check(p.returncode != 0 and result_of(p) is None,
          "without the program the command exits non-zero, printing nothing")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
