#!/usr/bin/env python3
"""Tiny-scale self-test of the end-to-end benchmark.

    python3 xdbench/selftest.py

Runs every workload of BENCHMARK.json at self-test scale (1000-vertex
graphs), untraced and traced, and checks that

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, and every check passed;
  * the metrics are exactly the end_to_end (untraced) or per_layer (traced)
    names of BENCHMARK.json, with their units and finite values;
  * the traced replay matches the real build;
  * a deliberately corrupted served answer is counted as a failure and
    makes the run exit non-zero (the checker is live);
  * a directory holding only BENCHMARK.json and the benchmark's files, with
    no library sources, fails without printing a result.

Exits 0 when every check holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "xdbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    for wl in SPEC["workloads"]:
        name = wl["name"]
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            tag = f"{name} --trace {trace}"
            proc = run(name, trace)
            res = result_of(proc)
            check(proc.returncode == 0, f"{tag}: exit code 0")
            if res is None:
                check(False, f"{tag}: last line is a JSON result")
                continue
            check(set(res) == RESULT_KEYS, f"{tag}: result keys")
            check(res.get("correct") is True and res.get("failed") == 0
                  and res.get("attempted", 0) >= 1,
                  f"{tag}: correct, {res.get('failed')} of "
                  f"{res.get('attempted')} failed")
            metrics = res.get("metrics", {})
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            missing = sorted(set(want) - set(metrics))
            extra = sorted(set(metrics) - set(want))
            check(not missing and not extra,
                  f"{tag}: every {group} metric and no other "
                  f"(missing {missing}, extra {extra})")
            bad_units = sorted(k for k in want.keys() & metrics.keys()
                               if metrics[k].get("unit") != want[k])
            check(not bad_units, f"{tag}: units match ({bad_units})")
            bad_values = sorted(
                k for k, v in metrics.items()
                if not isinstance(v.get("value"), (int, float))
                or not math.isfinite(v["value"]))
            check(not bad_values, f"{tag}: finite values ({bad_values})")
            if trace == "1":
                check(metrics.get("trace.replay_matches", {}).get("value") == 1,
                      f"{tag}: trace.replay_matches = 1")

    proc = run("serve-mixed", "0", "--corrupt")
    res = result_of(proc)
    check(proc.returncode != 0, "corrupted answer: non-zero exit")
    check(res is not None and res.get("failed", 0) >= 1
          and res.get("correct") is False,
          "corrupted answer: counted as failed")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc = run(SPEC["workloads"][0]["name"], "0", cwd=bare)
    check(proc.returncode != 0 and result_of(proc) is None,
          "checkout without sources: fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
