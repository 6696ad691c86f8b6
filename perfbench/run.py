"""Benchmark for simtree: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tau-count --seed 1 --seconds 30 --trace 0

Workloads are ``tau-count``, ``weighted-enum`` and ``spectrum-sweep`` (see
``workloads.py``). One client runs one job at a time (closed loop, no
threads) on simtree imported from ``src/`` of the checkout.

``--trace 0`` first runs the workload's once-jobs (the ROADMAP's largest
named inputs, timed for the info line only), then whole rounds of jobs while
the next round is predicted to end within ``--seconds`` of the start (at
least one). It checks every output and prints jobs_per_s, job_s.p50,
job_s.p90, setup_s and peak_rss_mb. Every round runs the same slots (one
structure per job, relabelled), and a slot's latency is the upper decile of
its rounds (see README.md for why). jobs_per_s is slots over the sum of
their latencies; the percentiles are taken over the slots. setup_s is the
median over this process and five fresh set-up processes; peak_rss_mb is the
process's peak resident memory through set-up, the once-jobs and the first
round.

``--trace 1`` runs round 0 and the once-jobs untraced, then again traced
(fresh labels, same structures), and prints the per-layer metrics of
``tracing.py``, with traced over untraced time as trace.overhead_ratio.

The last line of standard output is the result as one JSON object; the line
before it records seed, job counts, Python version, nproc, output digests and
the ROADMAP's named inputs. Exits 2, printing no result, if the program
cannot be imported or Python runs with -O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
WORKLOADS = ("tau-count", "weighted-enum", "spectrum-sweep")  # workloads.WORKLOADS


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(name, seed, tracer=None, salt=0):
    """Import simtree, build the input pools and round 0, warm up.

    Returns (workload, round-0 jobs, seconds taken). With a tracer, pool and
    round-0 generation are traced as job -1.
    """
    t0 = perf_counter()
    if not (SRC / "simtree" / "__init__.py").is_file():
        _fail(f"no simtree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import simtree

    if Path(simtree.__file__).resolve().parent != SRC / "simtree":
        _fail(f"imported simtree from {simtree.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    if tracer is not None:
        tracer.install()
        tracer.begin_job(-1)
    workload.prepare()
    first = workload.round(0, salt)
    if tracer is not None:
        tracer.end_job()
        tracer.uninstall()
    for job in workload.warmup():
        job.fn(job.arg)
    return workload, first, perf_counter() - t0


def _run_pass(workload, jobs, tracer=None):
    """Run jobs one at a time: [(job, seconds, rendered text, reduced value,
    error)]. A traced pass reduces values after the tracer is removed."""
    out = []
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(idx)
        t0 = perf_counter()
        try:
            text, value = job.fn(job.arg)
            error = None
        except Exception as exc:  # a job that raises counts as failed
            text, value, error = f"error: {type(exc).__name__}: {exc}", None, repr(exc)
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
        elif error is None:
            value = workload.reduce(job, text, value)
        out.append((job, elapsed, text, value, error))
    return out


class Tally:
    """What a run keeps of its passes once their outputs are checked: job
    kinds, each slot's latencies, failures and digests."""

    def __init__(self):
        self.attempted = 0
        self.slots = defaultdict(list)
        self.kinds = Counter()
        self.seconds = Counter()
        self.baseline = {}
        self.failed = 0
        self.digest = hashlib.sha256()
        self.pass_digests = []
        self.pass_seconds = []

    def add(self, workload, records, slots=True):
        done = [i for i, rec in enumerate(records) if rec[4] is None]
        bad = {done[i] for i in workload.check([(records[i][0], records[i][2], records[i][3])
                                                for i in done])}
        bad.update(i for i, rec in enumerate(records) if rec[4] is not None)
        for i in sorted(bad):
            job, text = records[i][0], records[i][2]
            print(f"failed: {job.kind} {job.key}: {text[:200]!r}", file=sys.stderr)
        self.failed += len(bad)
        h = hashlib.sha256()
        for job, elapsed, text, _, _ in records:
            self.attempted += 1
            if slots:
                self.slots[job.kind, job.key].append(elapsed)
            self.kinds[job.kind] += 1
            self.seconds[job.kind] += elapsed
            if job.label:
                self.baseline.setdefault(job.label, []).append(elapsed)
            h.update(f"{job.kind}\n{text}\n".encode())
        self.pass_digests.append(h.hexdigest())
        self.digest.update(h.digest())
        self.pass_seconds.append(sum(rec[1] for rec in records))
        return self.pass_seconds[-1]

    def info(self, args, **extra):
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                "passes": len(self.pass_digests), "jobs": self.attempted,
                "slots": len(self.slots),
                "jobs_by_kind": dict(sorted(self.kinds.items())),
                "seconds_by_kind": dict(sorted(self.seconds.items())),
                "pass_seconds": self.pass_seconds,
                "digest": self.digest.hexdigest(), "pass_digests": self.pass_digests,
                "roadmap_baseline_s": {k: statistics.median(v)
                                       for k, v in sorted(self.baseline.items())}}
        info.update(extra)
        return info


def _setup_probes(args):
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail("set-up probe failed")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _measure(args):
    probes = _setup_probes(args)
    workload, jobs, own_setup = _setup(args.workload, args.seed)
    tally = Tally()
    rounds = 0
    longest = 0.0
    t_start = perf_counter()
    tally.add(workload, _run_pass(workload, workload.once()), slots=False)
    while True:
        t_round = perf_counter()
        if rounds:
            jobs = workload.round(rounds)
        tally.add(workload, _run_pass(workload, jobs))
        rounds += 1
        if rounds == 1:
            # simtree's lru caches grow with every round, so a peak taken at
            # the end would depend on how many rounds fit in --seconds.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        longest = max(longest, perf_counter() - t_round)
        if perf_counter() - t_start + longest > args.seconds:
            break
    wall = perf_counter() - t_start
    lat = [statistics.quantiles(v, n=10, method="inclusive")[8] if len(v) > 1 else v[0]
           for v in tally.slots.values()]
    setups = probes + [own_setup]
    metrics = {
        "jobs_per_s": (len(lat) / sum(lat), "jobs/s"),
        "job_s.p50": (statistics.median(lat), "s"),
        "job_s.p90": (statistics.quantiles(lat, n=10)[8], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return tally.info(args, wall_s=wall, setup_samples_s=setups), tally, metrics


def _trace(args):
    import tracing

    tracer = tracing.Tracer()
    workload, traced_jobs, _ = _setup(args.workload, args.seed, tracer, salt=1)
    tally = Tally()
    plain_s = tally.add(workload, _run_pass(workload, workload.round(0, 0) + workload.once(0)))
    tracer.install()
    try:
        traced = _run_pass(workload, traced_jobs + workload.once(1), tracer)
    finally:
        tracer.uninstall()
    traced = [(job, elapsed, text, value if error else workload.reduce(job, text, value), error)
              for job, elapsed, text, value, error in traced]
    traced_s = tally.add(workload, traced)
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced_s / plain_s
    metrics = {name: (values[name], unit) for name, unit in tracing.metric_specs()}
    return tally.info(args, spans=values["trace.spans"]), tally, metrics


def main(argv=None):
    args = _parse(argv)
    if sys.flags.optimize:
        _fail("refusing to run under python -O: simtree's in-path asserts would be stripped")
    if args.setup_probe:
        _, _, seconds = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    info, tally, metrics = (_trace if args.trace else _measure)(args)
    print(json.dumps(info))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
