"""galmod benchmark: one closed-loop client, one job at a time.

    python3 galbench/run.py --workload cohomology --seed 1 --seconds 20

Run from the root of a source checkout; the library is imported from
its ``src`` directory.  Set-up (import, input generation from the seed,
validation of every generated object) is repeated SETUP_REPEATS times
and reported as a median.  Then whole passes over the workload's job
list run until the next pass would end after ``--seconds``; at least one
pass always runs.  Every job's answer is checked.  With ``--trace 1`` one
more pass runs with the library wrapped by tracer.Tracer, and the
per-layer metrics come from that pass.  Reported times are in reference
seconds: measured seconds scaled by how fast fixed reference work ran
around each job (README.md, "Host speed").  The last line of standard
output is the JSON result; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# Seconds reference_work() takes on the host the benchmark was developed
# on (a 2-vCPU Xeon VM, Python 3.11) when that host is quiet.
REFERENCE_S = 0.025
LIBRARY = ("intlinalg", "groups", "lattice", "cohomology", "complexes",
           "crossed", "patching", "serialize", "fixtures")


def import_library() -> float:
    """Import galmod from this checkout's sources; returns the seconds
    the import took.  Exits non-zero when the sources are absent."""
    if not os.path.isfile(os.path.join(SRC, "galmod", "__init__.py")):
        sys.exit(f"galbench: no galmod sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import importlib
    for name in LIBRARY:
        importlib.import_module(f"galmod.{name}")
    elapsed = time.perf_counter() - start
    galmod = sys.modules["galmod"]
    if os.path.dirname(os.path.abspath(galmod.__file__)) \
            != os.path.join(SRC, "galmod"):
        sys.exit(f"galbench: galmod imported from {galmod.__file__}, "
                 f"not from {SRC}")
    return elapsed


def reference_work() -> int:
    """Fixed pure-Python work that does not use galmod: dict updates
    keyed by small tuples, integer arithmetic and a list sort, the
    operations the library's elimination and enumeration spend their
    time on."""
    x, acc = 1, {}
    for _ in range(40_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 255, x >> 27)
        acc[key] = acc.get(key, 0) + (x & 255)
    for _ in range(4):
        pairs = [((i * 7919) % 10007, i) for i in range(5_000)]
        pairs.sort()
    return len(acc) + len(pairs)


def time_reference(samples: int) -> float:
    """Mean seconds of ``samples`` runs of reference_work(), with the
    cyclic garbage collector off so that the size of the library's heap
    cannot change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(samples):
            reference_work()
        return (time.perf_counter() - start) / samples
    finally:
        gc.enable()


def samples_after(seconds: float) -> int:
    """Reference runs after an interval: three, plus one per second of
    the interval up to 16 in all, so that no scale rests on a single
    short sample and a long segment's rests on more."""
    return min(16, 3 + int(seconds))


def set_up(name: str, seed: int):
    """Generate the workload from the seed and validate every input."""
    import inputs
    import workloads
    w = workloads.BUILDERS[name](seed)
    for kind, dump in w.inputs:
        inputs.validate(kind, dump)
    return w


def reset_caches() -> None:
    """Drop the library's process-wide cohomology cache between jobs.
    Jobs never share objects, so it cannot hit across jobs; clearing it
    keeps memory from growing with the number of passes."""
    from galmod import cohomology
    cache = getattr(cohomology, "_COH_CACHE", None)
    if cache is not None:
        cache.clear()


class JobTimer:
    """Times a job in segments.  Between segments, and after the last,
    the reference work runs outside the timed region; each segment is
    scaled to reference seconds by the mean of the reference times
    around it.  A job calls ``mark`` between its steps, so that a long
    job's scale is not taken only at its two ends."""

    def __init__(self, ref_before: float):
        self.ref = ref_before
        self.measured = 0.0
        self.scaled = 0.0
        self.last_scale = 1.0
        self._start = time.perf_counter()

    def mark(self) -> None:
        segment = time.perf_counter() - self._start
        ref = time_reference(samples_after(segment))
        self.last_scale = 2 * REFERENCE_S / (self.ref + ref)
        self.measured += segment
        self.scaled += segment * self.last_scale
        self.ref = ref
        self._start = time.perf_counter()


class Pass:
    def __init__(self):
        self.job_s: list[float] = []  # measured
        self.ref_job_s: list[float] = []  # reference seconds
        self.ref_replay_s = 0.0
        self.failures: list[str] = []

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)


def run_pass(w, tracer=None) -> Pass:
    """One pass over the job list.  Only the jobs' computations are timed;
    answer checks run outside the timed region (and outside any span)."""
    p = Pass()
    ref = time_reference(3)
    for index, job in enumerate(w.jobs):
        reset_caches()
        if tracer is not None:
            tracer.begin_job(index)
            tracer.active = True
        timer = JobTimer(ref)
        try:
            raw, replay_s = job.run(timer.mark)
            error = None
        except Exception as exc:  # a failing job is counted, not fatal
            raw, replay_s, error = None, 0.0, exc
        timer.mark()
        if tracer is not None:
            tracer.active = False
        ref = timer.ref
        p.job_s.append(timer.measured)
        p.ref_job_s.append(timer.scaled)
        # mark() came right before any replay, so the replay lies in the
        # job's last segment
        p.ref_replay_s += replay_s * timer.last_scale
        if error is None:
            try:
                got = job.answer(raw)
            except Exception as exc:
                error = exc
        if error is not None:
            p.failures.append(f"{job.name}: {type(error).__name__}: {error}")
        elif got != job.expected:
            p.failures.append(f"{job.name}: answered {got!r}, "
                              f"expected {job.expected!r}")
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = import_library()
    sys.path.insert(0, HERE)
    import tracer as tr
    import workloads
    if args.workload not in workloads.BUILDERS:
        sys.exit(f"galbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.BUILDERS)}")

    ref, rounds = time_reference(3), []
    for _ in range(SETUP_REPEATS):
        timer = JobTimer(ref)
        w = set_up(args.workload, args.seed)
        timer.mark()
        ref = timer.ref
        rounds.append((import_s + timer.measured) * timer.last_scale)
    setup_s = statistics.median(rounds)

    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(w))
        now = time.perf_counter()
        if now - begin + (now - start) > args.seconds:
            break
    traced = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = run_pass(w, tracer)
        finally:
            tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))

    every = passes + ([traced] if traced else [])
    attempted = sum(len(p.job_s) for p in every)
    failures = [f for p in every for f in p.failures]
    for line in dict.fromkeys(failures):
        print(f"galbench: FAIL {line}", file=sys.stderr)
    # Times are reported in reference seconds (README.md, "Host speed").
    wall = statistics.median(sum(p.ref_job_s) for p in passes)
    measured = statistics.median(p.wall_s for p in passes)
    print(f"galbench: {args.workload} seed {args.seed}: {len(passes)} "
          f"pass(es), wall {measured:.3f} s measured, {wall:.3f} s in "
          f"reference seconds, {len(failures)} failure(s)", file=sys.stderr)
    if traced is None:
        # The slowest job: each job's median over the passes, then the
        # largest.  Replays are few and short, so replay_s averages every
        # pass of the run instead of taking one pass's sum.
        per_job = zip(*(p.ref_job_s for p in passes))
        metrics = {
            "wall_s": (wall, "s"),
            "max_job_s": (max(statistics.median(t) for t in per_job), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
            "replay_s": (statistics.fmean(p.ref_replay_s for p in passes),
                         "s"),
        }
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in metrics.items()}
    else:
        metrics = tracer.metrics(traced.wall_s,
                                 sum(traced.ref_job_s) / wall)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
