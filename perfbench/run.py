"""linfty benchmark: time to a verdict end to end, and per-layer cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deform --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each request starts when the previous
one has returned.  The seed fixes the workload's request set (see
``workloads.py``); a *pass* runs the whole set on freshly built inputs.

With ``--trace 0`` the run times its own set-up, then that of four child
interpreters started one after another with ``--setup-only``, and reports the
median.  It then makes passes until ``--seconds`` of wall time have gone.

The CPUs of a shared machine slow down and speed up by half or more for
seconds to minutes at a time, and CPU time moves with wall time, so no
choice of sample can see past it.  Every timing is therefore scaled by a
*speed probe*: a fixed loop of stdlib ``Fraction`` arithmetic, run at the
start of each pass and again after every ``PROBE_EVERY_S`` of requests.  A
request's latency is multiplied by ``PROBE_REF_S`` over the mean of the
probes on either side of it: milliseconds at the speed at which the probe
takes ``PROBE_REF_S``.  The probe does not touch ``linfty``, so a change to
the program cannot move it.  Each request reports the median of its scaled
latencies over the passes; the throughput is the number of requests in the
set over the sum of those medians.  The info line gives the raw figures.

With ``--trace 1`` it makes three passes: untraced, then twice with
wrappers around each layer's public functions (see ``tracing.py``).  It
reports the first traced pass per layer and the tracing overhead against the
untraced pass, and fails the run if the work counts of the two traced
passes differ.  Per-layer times are not scaled.

Every answer is compared with a known answer (``answers.json``, the
corpus's ``expect_coherent``, or the error a malformed file must raise).
Each request has a deadline enforced with ``SIGALRM``; a request that misses
it, raises, reports a route disagreement, exits 3 or prints a traceback is a
failure.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes the
run (machine, code version, seed, bound, tail percentile, sample counts and
the probe readings).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("deform", "crosscheck-actions", "cli-fixtures")
SETUP_CHILDREN = 4
# probe again once this much request time has gone since the last probe
PROBE_EVERY_S = 0.05
# the probe's time at the speed the scaled figures refer to
PROBE_REF_S = 0.005


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so that no handler in the program
    under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def probe() -> float:
    """Seconds taken by a fixed loop of stdlib ``Fraction`` arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1) * (i % 7)
    return time.perf_counter() - start


def call(request, deadline_s: float):
    """Run one request under its deadline: ``(status, latency_s, detail)``."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            answer = request.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return "failed", time.perf_counter() - start, f"missed the {deadline_s:g} s deadline"
    except Exception as exc:  # a request that raises is a failed request, not a crash
        return "failed", time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    status = request.verify(answer)
    return status, latency, None if status == "ok" else f"answer {answer!r}"[:300]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.probes: list[float] = []

    def run(self, requests, deadline_s: float, probed: bool = False, tracer=None) -> list:
        """One pass: each request's latency, None if it failed.

        With ``probed`` the latencies are scaled by the speed probes taken
        around them (see the module docstring).
        """
        raw, block = [], []
        probes = [probe()] if probed else []
        since = 0.0
        for request in requests:
            if tracer is not None:
                tracer.request = request.label
            status, latency, detail = call(request, deadline_s)
            self.attempted += 1
            self.failed += status == "failed"
            self.wrong += status == "wrong"
            raw.append(None if status == "failed" else latency)
            block.append(len(probes) - 1)
            if detail is not None and len(self.problems) < 10:
                self.problems.append(f"{status} {request.label}: {detail}")
            since += latency
            if probed and since >= PROBE_EVERY_S:
                probes.append(probe())
                since = 0.0
        if not probed:
            return raw
        if block and block[-1] == len(probes) - 1:
            probes.append(probe())
        self.probes += probes
        scale = [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
        return [None if t is None else t * scale[k] for t, k in zip(raw, block)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linfty").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def set_up(args, tally: Tally):
    """The set-up a user pays once per process: import ``linfty``, load the
    known answers, build the inputs of the first pass and run the warm-up.

    Returns the workload, the first pass, and the set-up time scaled by the
    probes taken before and after it, with the raw time.  Each side takes
    the fastest of three probes, so that one probe caught by a brief stall
    cannot scale the whole set-up.
    """
    before = min(probe() for _ in range(3))
    start = time.perf_counter()
    import workloads  # imports linfty

    answers = workloads.load_answers()
    workload = workloads.WORKLOADS[args.workload](args.seed, answers)
    first_pass = workload.requests()
    tally.run(workload.warmup(), workload.deadline_s)
    raw = time.perf_counter() - start
    scaled = raw * 2 * PROBE_REF_S / (before + min(probe() for _ in range(3)))
    return workload, first_pass, scaled, raw


def child_set_up(args) -> tuple[float, float]:
    """One cold set-up in a fresh interpreter: ``(scaled, raw)`` seconds."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a child interpreter failed: {done.stderr[-500:]}")
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["scaled_s"], sample["raw_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up, print it as JSON and exit (the run starts these itself)",
    )
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "linfty" / "__init__.py").is_file():
        print("linfty sources not found under src/; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)

    setup = Tally()
    workload, first_pass, scaled, raw = set_up(args, setup)
    if args.setup_only:
        if setup.failed or setup.wrong:
            print("; ".join(setup.problems), file=sys.stderr)
            return 1
        print(json.dumps({"scaled_s": scaled, "raw_s": raw}))
        return 0
    setup_samples = [(scaled, raw)]
    if not args.trace:
        setup_samples += [child_set_up(args) for _ in range(SETUP_CHILDREN)]

    import workloads

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "bound": workload.bound,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loop": "closed, one client",
        "deadline_s": workload.deadline_s,
        "probe_ref_s": PROBE_REF_S,
        "setup_raw_s": [r for _, r in setup_samples],
        "setup_scaled_s": [s for s, _ in setup_samples],
    }
    try:
        measure = traced_run if args.trace else timed_run
        result = measure(args, workload, first_pass, info)
    finally:
        shutil.rmtree(workloads.MUTANTS, ignore_errors=True)
    if result is None:
        print("no request completed: " + "; ".join(setup.problems), file=sys.stderr)
        return 1
    tally = result.pop("tally")
    tally.attempted += setup.attempted
    tally.failed += setup.failed
    tally.wrong += setup.wrong
    info["failed_share"] = tally.failed / tally.attempted
    info["wrong_verdicts"] = tally.wrong
    info["problems"] = setup.problems + tally.problems
    correct = tally.wrong == 0 and result.pop("self_check", True)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


def timed_run(args, workload, first_pass, info) -> dict | None:
    tally = Tally()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        requests = workload.requests() if passes else first_pass
        passes.append(tally.run(requests, workload.deadline_s, probed=True))
    wall = time.perf_counter() - start
    per_request = [[t for t in ts if t is not None] for ts in zip(*passes)]
    samples = [statistics.median(ts) for ts in per_request if ts]
    if not samples:
        return None
    tail_s, percentile = tail(samples)
    probes = sorted(tally.probes)
    info.update(
        passes=len(passes),
        wall_s=wall,
        requests_per_pass=len(first_pass),
        samples=len(samples),
        latency="median over passes of each request's scaled latency",
        latency_tail_percentile=percentile,
        probe_s={"count": len(probes), "min": probes[0],
                 "median": statistics.median(probes), "max": probes[-1]},
    )
    metrics = {
        "verdicts_per_s": (len(samples) / math.fsum(samples), "1/s"),
        "latency_p50_ms": (statistics.median(samples) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (statistics.median(info["setup_scaled_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "tally": tally,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(args, workload, first_pass, info) -> dict:
    import tracing
    import workloads

    tally = Tally()
    start = time.perf_counter()
    tally.run(first_pass, workload.deadline_s)
    untraced_s = time.perf_counter() - start
    passes = []
    for _ in range(2):
        requests = workload.requests()
        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            tally.run(requests, workload.deadline_s, tracer=tracer)
        finally:
            wall = time.perf_counter() - start
            tracer.uninstall()
        passes.append((tracer, wall))
    (first, first_wall), (second, _) = passes
    counts_a, counts_b = first.work_counts(), second.work_counts()
    repeat = counts_a == counts_b
    if not repeat:
        tally.problems.append(
            "work counts differ between traced passes: "
            + json.dumps({k: (v, counts_b[k]) for k, v in counts_a.items() if v != counts_b[k]})
        )
    spans = workloads.WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    first.write_spans(spans)
    info.update(
        requests_per_pass=len(first_pass),
        untraced_wall_s=untraced_s,
        traced_wall_s=first_wall,
        wrapper_cost_s=first.cost[0],
        work_counts_repeat=repeat,
        spans_file=str(spans),
    )
    return {
        "tally": tally,
        "self_check": repeat,
        "metrics": first.metrics(first_wall, untraced_s),
    }


if __name__ == "__main__":
    sys.exit(main())
