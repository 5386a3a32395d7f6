"""Self-test of the benchmark itself.

    python3 galbench/selftest.py [--workload NAME ...] [--seed N]

For each workload it checks that
  * the metrics run.py reports are exactly those BENCHMARK.json declares;
  * each small job's expected answer agrees with an independent route:
    the unnormalized bar complex, brute-force enumeration, or the
    homology of the unresolved complex (see oracles.py);
  * two traced runs of one seed give identical call counts and counters;
  * the wrappers catch names imported with ``from .x import y``: the
    spans show the caller/callee pairs listed in CALLER_CALLEE;
  * traced self times plus the untraced remainder add up to the traced
    wall time.
It also prints each module's share of traced self time.  Exits non-zero
if any check fails.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (caller span, callee span) pairs each workload must show; the callees
# are reached through names the callers' modules imported by name.
CALLER_CALLEE = {
    "cohomology": [("cohomology.group_cohomology",
                    "cohomology.bar_differential"),
                   ("cohomology.group_cohomology",
                    "intlinalg.kernel_basis")],
    "resolution": [("complexes.classify", "cohomology.group_cohomology"),
                   ("complexes.cts_cover_coflasque",
                    "groups.enumerate_subgroups"),
                   ("complexes.replay_certificate", "complexes.classify")],
    "patching": [("patching.mv_columns", "crossed.h_zero"),
                 ("patching.mv_columns", "cohomology.hypercohomology"),
                 ("patching.remark_compare", "patching.sha")],
}

failures = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}" + (f" ({detail})"
                                                   if detail else ""))
    if not ok:
        failures.append(label)


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spans_of(workload: str, seed: int) -> list:
    path = os.path.join(HERE, "out",
                        f"spans-{workload}-seed{seed}.jsonl.gz")
    with gzip.open(path, "rt") as fh:
        return [json.loads(line) for line in fh]


def check_declared(workload: str, result: dict, declared: dict) -> None:
    names = set(result["metrics"])
    want = {m["name"] for m in declared["per_layer"]}
    check(f"{workload}: traced metrics match BENCHMARK.json per_layer",
          names == want, f"extra {sorted(names - want)}, "
                         f"missing {sorted(want - names)}")


def check_oracles(workload: str, seed: int) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    w = workloads.BUILDERS[workload](seed)
    for job in w.jobs:
        if job.oracle is None:
            continue
        got, want = job.oracle()
        check(f"{workload}: oracle agrees on {job.name}", got == want,
              f"oracle {got!r}, expected {want!r}")


def check_traces(workload: str, seed: int, declared: dict) -> None:
    first = traced_run(workload, seed)
    spans = spans_of(workload, seed)
    second = traced_run(workload, seed)
    check(f"{workload}: both traced runs correct",
          first["correct"] and second["correct"])
    check_declared(workload, first, declared)
    m1, m2 = first["metrics"], second["metrics"]
    exact = [k for k, v in m1.items() if v["unit"] in ("count", "bytes")
             or k.endswith("repeat_ratio")]
    differ = [k for k in exact if m1[k]["value"] != m2[k]["value"]]
    check(f"{workload}: {len(exact)} counters repeat exactly across two "
          f"runs of seed {seed}", not differ, f"differ: {differ}")

    names = {s[0]: s[1] for s in spans}
    pairs = {(names[s[4]], s[1]) for s in spans if s[4] != -1}
    for caller, callee in CALLER_CALLEE[workload]:
        check(f"{workload}: {callee} spans appear under {caller}",
              (caller, callee) in pairs)

    self_total = sum(v["value"] for k, v in m1.items()
                     if k.endswith(".self_s"))
    wall = m1["trace.wall_s"]["value"]
    rest = m1["trace.untraced_s"]["value"]
    check(f"{workload}: self times + untraced remainder = traced wall",
          abs(self_total + rest - wall) <= 1e-6 * wall,
          f"{self_total:.4f} + {rest:.4f} vs {wall:.4f}")

    shares = defaultdict(float)
    for k, v in m1.items():
        if k.endswith(".self_s"):
            shares[k.split(".")[0]] += v["value"] / wall
    print(f"  {workload}: traced wall {wall:.2f} s, overhead x"
          f"{m1['trace.overhead_ratio']['value']:.3f}, untraced "
          f"{rest / wall:.1%}; self-time share: " + ", ".join(
              f"{mod} {share:.1%}" for mod, share in
              sorted(shares.items(), key=lambda kv: -kv[1])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for workload in args.workload or [w["name"]
                                      for w in declared["workloads"]]:
        check_oracles(workload, args.seed)
        check_traces(workload, args.seed, declared)
    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
