"""Tests of the benchmark itself, on tiny designs (--smoke).

    python3 perfbench/selftest.py

Run from the repository root. Checks that:
- every workload runs clean, untraced and traced, and reports exactly the
  metrics BENCHMARK.json names, with their units;
- two invocations at one seed give bit-identical QoR metrics;
- every injected fault is reported as failed operations;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Takes about two minutes; exits non-zero on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5

# Each fault and the (workload, trace) runs whose checks must catch it.
FAULTS = {
    "overlap": [("tdp-20k", 0), ("eco-10k", 0)],
    "metric": [("gp-100k", 0), ("eco-10k", 0)],
    "pl": [("tdp-20k", 0), ("eco-10k", 0)],
    "repeat": [("tdp-20k", 0), ("eco-10k", 0)],
    "trace": [("gp-100k", 1), ("eco-10k", 1)],
    "query": [("tdp-20k", 0), ("eco-10k", 0)],
}

QOR = ("hpwl", "qor.tns_ps", "qor.wns_ps", "qor.gp_hpwl", "qor.gp_tns_ps")


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload, trace, *extra):
    proc = bench(workload, trace, *extra)
    assert proc.returncode == 0, f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res.keys()
    assert json.loads(lines[-2])["stamp"]["domains"] == 1
    return res


def check_clean(workload, trace, res):
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (workload, trace, res)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: v["unit"] for name, v in res["metrics"].items()}
    assert got == want, (workload, trace, set(got) ^ set(want))


def main():
    os.chdir(ROOT)
    for w in WORKLOADS:
        for trace in (0, 1):
            a, b = result(w, trace), result(w, trace)
            check_clean(w, trace, a)
            check_clean(w, trace, b)
            for name in QOR:
                if name in a["metrics"]:
                    assert a["metrics"][name] == b["metrics"][name], (w, trace, name)
        print(f"ok  {w}: clean and repeatable", flush=True)

    for fault, runs in FAULTS.items():
        for w, trace in runs:
            res = result(w, trace, "--fault", fault)
            assert not res["correct"] and res["failed"] > 0, (fault, w, trace, res)
        print(f"ok  fault {fault} reported", flush=True)

    bare = os.path.join(ROOT, "perfbench", "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0, "ran without the program"
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    print("ok  refuses to run without the program", flush=True)


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
