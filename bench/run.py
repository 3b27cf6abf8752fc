"""nilmat benchmark runner.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that holds src/nilmat. One invocation runs one
workload in a fresh interpreter: a closed loop with one client and no
extra threads, which runs jobs one at a time and checks every output with
an oracle that does not use the code being timed.

--trace 0 (default) runs whole passes over the workload's job list, for
about --seconds, and reports the end-to-end metrics. --trace 1 runs the
job list once untraced and once traced, and reports the per-layer metrics
of the traced pass. The last line of stdout is the result JSON; the full
record, with provenance, goes to bench/out/.

Times are reference times (see calib.py). The default seed is 1; the
default --seconds, the workloads and the metrics come from BENCHMARK.json.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calib

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 25

# Workload names, metric names and units, and the default run length.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Run in a fresh interpreter: time `import nilmat.cli` + build_parser(),
# then time the calibration kernel; calib is imported only after the timed
# part, so its own imports add nothing to it.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import nilmat.cli
nilmat.cli.build_parser()
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import calib
print(t1 - t0, *(calib.kernel_seconds() for _ in range(8)))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description="nilmat benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup():
    """Median reference seconds of import nilmat.cli + build_parser() in a
    fresh interpreter, over SETUP_PROBES probes after one warm-up."""
    values = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, SRC, BENCH],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        wall, *kernels = map(float, done.stdout.split())
        if i:
            values.append(wall * calib.speed(kernels))
    return statistics.median(values)


class Runner:
    """Runs jobs one at a time under a calibration Sampler and checks each
    output."""

    def __init__(self, sampler):
        from nilmat import cli
        from workloads import Outcome

        self.cli = cli
        self.outcome = Outcome
        self.sampler = sampler
        self.wall = []  # per job, seconds
        self.ref = []  # per job, reference seconds
        self.failures = []
        self._passed = set()  # (job, output) pairs already checked

    def call(self, job):
        """(value, error) of one job: a CLI exit code or a library result."""
        try:
            return (self.cli.main(job.argv) if job.argv is not None else job.call()), None
        except SystemExit as exc:
            return exc.code, None
        except Exception as exc:  # a job that raises is a failed job
            return None, exc

    def run(self, job, tracer=None, job_id=None):
        """Run and check one job; return its reference/wall time ratio."""
        if job.out_path and os.path.exists(job.out_path):
            os.remove(job.out_path)
        if tracer is not None:
            tracer.current_job = job_id
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            (value, error), wall, ref = self.sampler.timed(lambda: self.call(job))
        self.wall.append(wall)
        self.ref.append(ref)
        if error is None and job.argv is not None and value != 0:
            error = f"exit code {value}: {err.getvalue().strip()}"
        if error is None:
            try:
                out_bytes = None
                if job.out_path:
                    with open(job.out_path, "rb") as fh:
                        out_bytes = fh.read()
                outcome = self.outcome(value, out.getvalue(), out_bytes)
                key = (id(job), repr(value), outcome.stdout, out_bytes)
                if key not in self._passed:
                    job.check(outcome)
                    self._passed.add(key)
            except Exception as exc:  # a missing --out file, oracle verdicts, malformed outputs
                error = exc
        if error is not None:
            self.failures.append(f"{job.label}: {error!r}")
        return ref / wall


def timed_loop(jobs, seconds):
    """Run whole passes over the job list, at least one, and stop at the end
    of the pass that ends nearest to `seconds`. Every job then runs equally
    often, so the mix measured is the list's mix wherever the time falls."""
    with calib.Sampler() as sampler:
        runner = Runner(sampler)
        start = time.perf_counter()
        passes = 0
        while True:
            for job in jobs:
                runner.run(job)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes / 2 >= seconds:
                return runner


def traced_pass(jobs):
    """The job list once untraced, then once traced; the rolled-up spans."""
    import tracing

    with calib.Sampler() as sampler:
        plain = Runner(sampler)
        for job in jobs:
            plain.run(job)
        traced = Runner(sampler)
        with tracing.Tracer() as tracer:
            speeds = [traced.run(job, tracer, job_id) for job_id, job in enumerate(jobs)]
    return plain, traced, tracing.rollup(tracer, speeds, sampler.sampling_between), tracer


def provenance(args, jobs):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_in_list": len(jobs),
    }


def git_commit():
    """HEAD's commit read from .git directly, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def source_digest():
    """sha256 over the program's source files, which identifies the code
    under test where git does not."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "nilmat"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _metrics(kind, value_of):
    return {m["name"]: {"value": value_of(m["name"]), "unit": m["unit"]} for m in SPEC[kind]}


def end_to_end(runner, setup_s):
    """Rates and latencies over every run of the timed phase, whose length
    is the sum of the runs' reference times."""
    return _metrics("end_to_end", {
        "jobs_per_s": len(runner.ref) / sum(runner.ref),
        "job_p50_ms": statistics.median(runner.ref) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }.__getitem__)


def per_layer(plain, traced, rolled):
    rolled["trace.overhead_s"] = sum(traced.ref) - sum(plain.ref)
    return _metrics("per_layer", lambda name: rolled.get(name, 0))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nilmat", "cli.py")):
        print(f"error: no nilmat sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import nilmat
    import workloads

    if os.path.dirname(os.path.abspath(nilmat.__file__)) != os.path.join(SRC, "nilmat"):
        print(f"error: imported nilmat from {nilmat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        jobs = workloads.WORKLOADS[args.workload](rng, workloads.InputFiles(work))
        record = {"provenance": provenance(args, jobs)}
        if args.trace:
            plain, traced, rolled, tracer = traced_pass(jobs)
            metrics = per_layer(plain, traced, rolled)
            runners = (plain, traced)
            stem = f"{args.workload}-seed{args.seed}-trace"
            tracer.write(os.path.join(OUT, stem + ".spans.tsv.gz"))
        else:
            setup_s = measure_setup()
            runner = timed_loop(jobs, args.seconds)
            metrics = end_to_end(runner, setup_s)
            runners = (runner,)
            stem = f"{args.workload}-seed{args.seed}"
            record["jobs"] = [
                {"label": jobs[i % len(jobs)].label, "wall_ms": w * 1000, "ref_ms": r * 1000}
                for i, (w, r) in enumerate(zip(runner.wall, runner.ref))
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r.ref) for r in runners)
    failures = [f for r in runners for f in r.failures]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record.update(result=result, failures=failures[:20])
    record["provenance"]["jobs_run"] = attempted
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
