"""Self-tests of the benchmark: its oracles, its tracer and its contract.

    python3 -m pytest bench
"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402


def execute(job):
    """Run a job untimed and return its Outcome."""
    if job.out_path and os.path.exists(job.out_path):
        os.remove(job.out_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        value, error = run.Runner(None).call(job)
    assert error is None
    out_bytes = None
    if job.out_path:
        with open(job.out_path, "rb") as fh:
            out_bytes = fh.read()
    return Outcome(value, out.getvalue(), out_bytes)


def jobs_of(workload, tmp_path, seed=1):
    tmp_path.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workloads.InputFiles(str(tmp_path)))


def first(jobs, label):
    return next(j for j in jobs if j.label.startswith(label))


def rejects(job, outcome):
    with pytest.raises(oracles.OracleError):
        job.check(outcome)


def _drop_vertex(outcome):
    obj = json.loads(outcome.out_bytes)
    obj["vertices"].pop(len(obj["vertices"]) // 2)
    return Outcome(outcome.value, outcome.stdout, json.dumps(obj).encode())


@pytest.mark.parametrize("workload", ["polytope-d3", "polytope-d6"])
def test_polytope_oracle_rejects_a_dropped_vertex(tmp_path, workload):
    job = first(jobs_of(workload, tmp_path), "polytope build")
    outcome = execute(job)
    job.check(outcome)
    rejects(job, _drop_vertex(outcome))
    # dropping it from the printed count too still breaks the checks
    obj = json.loads(outcome.out_bytes)
    count = f"vertices = {len(obj['vertices'])}"
    dropped = _drop_vertex(outcome)
    rejects(job, Outcome(0, dropped.stdout.replace(count, f"vertices = {len(obj['vertices']) - 1}"), dropped.out_bytes))


def test_polytope_oracle_rejects_a_moved_vertex(tmp_path):
    job = first(jobs_of("polytope-d3", tmp_path), "polytope build")
    outcome = execute(job)
    obj = json.loads(outcome.out_bytes)
    obj["vertices"][0][0] = str(Fraction(obj["vertices"][0][0]) + Fraction(1, 1000))
    rejects(job, Outcome(0, outcome.stdout, json.dumps(obj).encode()))


def test_verify_oracle_rejects_a_failed_check(tmp_path):
    job = first(jobs_of("polytope-d3", tmp_path), "verify")
    outcome = execute(job)
    job.check(outcome)
    lines = outcome.stdout.splitlines()
    lines[0] = "FAIL" + lines[0][4:]
    rejects(job, Outcome(0, "\n".join(lines) + "\n", None))


def test_partition_oracle_rejects_duplicated_and_reordered_lines(tmp_path):
    job = first(jobs_of("combinatorics", tmp_path), "omega enumerate 7 3")
    outcome = execute(job)
    job.check(outcome)
    lines = outcome.stdout.splitlines()
    for bad in (
        lines + [lines[5]],  # duplicated
        lines[:5] + [lines[4]] + lines[6:],  # duplicate in place of another
        lines[:5] + [lines[6], lines[5]] + lines[7:],  # two swapped
        lines[:-1],  # one missing
    ):
        rejects(job, Outcome(0, "\n".join(bad) + "\n", None))


def test_partition_json_oracle_rejects_a_reordered_list(tmp_path):
    job = first(jobs_of("combinatorics", tmp_path), "omega enumerate --json")
    outcome = execute(job)
    job.check(outcome)
    obj = json.loads(outcome.out_bytes)
    obj["partitions"][1], obj["partitions"][2] = obj["partitions"][2], obj["partitions"][1]
    rejects(job, Outcome(0, outcome.stdout, json.dumps(obj).encode()))


def test_round_trip_oracle_rejects_a_perturbed_entry(tmp_path):
    jobs = jobs_of("flag-algebra", tmp_path)
    for label in ("q iso --inverse", "q iso", "q make-nilpotent"):
        job = first(jobs, label)
        outcome = execute(job)
        job.check(outcome)
        obj = json.loads(outcome.stdout)
        obj["entries"][1][0] = str(Fraction(obj["entries"][1][0]) + Fraction(1, 7))
        rejects(job, Outcome(0, json.dumps(obj), None))


def test_library_oracles_reject_wrong_answers(tmp_path):
    jobs = jobs_of("combinatorics", tmp_path)
    for label in ("is_maximal bn n=3 True", "is_maximal bn n=3 False", "pattern_class"):
        job = first(jobs, label)
        outcome = execute(job)
        job.check(outcome)
        wrong = (not outcome.value) if isinstance(outcome.value, bool) else outcome.value + 1
        rejects(job, Outcome(wrong, "", None))


def _snapshot():
    """Every attribute the tracer may replace, by identity."""
    out = {}
    for module_name, attr, _ in tracing.SPANNED + tracing.COUNTED:
        owners, target = tracing._resolve(module_name, attr)
        for owner, name in owners:
            out[(id(owner), name)] = vars(owner)[name]
    return out


def test_traced_jobs_give_byte_identical_output_and_are_unwrapped(tmp_path):
    before = _snapshot()
    jobs = [
        first(jobs_of("polytope-d3", tmp_path / "a"), "verify"),
        first(jobs_of("polytope-d3", tmp_path / "b"), "polytope build"),
        first(jobs_of("combinatorics", tmp_path / "c"), "omega enumerate --json"),
        first(jobs_of("combinatorics", tmp_path / "c"), "is_maximal bn n=3"),
        first(jobs_of("flag-algebra", tmp_path / "d"), "q make-nilpotent"),
        first(jobs_of("flag-algebra", tmp_path / "d"), "nilcheck d"),
    ]
    plain = [execute(j) for j in jobs]
    with tracing.Tracer() as tracer:
        assert _snapshot() != before
        traced = [execute(j) for j in jobs]
    assert traced == plain
    assert _snapshot() == before
    rolled = tracing.rollup(tracer)
    assert rolled["cli.main.calls"] == 5
    assert rolled["boolrel.is_maximal_nilpotent_pattern.calls"] == 1
    assert rolled["polytope.enumerate_vertices.calls"] == 3  # one job, two in verify


def test_counts_repeat_exactly(tmp_path):
    jobs = jobs_of("polytope-d3", tmp_path)[:3]
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            for job in jobs:
                execute(job)
        rolled = tracing.rollup(tracer)
        counts.append({k: v for k, v in rolled.items() if not k.endswith((".s", "_s"))})
    assert counts[0] == counts[1]
    assert counts[0]["polytope.enumerate_vertices.solves"] > 0


def test_rollup_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.names[:] = ["outer", "inner"]
    for nid, start, end, parent in ((0, 0.0, 10.0, -1), (1, 2.0, 5.0, 0), (1, 6.0, 7.0, 0)):
        tracer.name_id.append(nid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.job.append(0)
        tracer.outer.append(1)
        tracer.note.append(0)
    rolled = tracing.rollup(tracer, scale=[2.0], excluded=lambda a, b: 1.0 if a <= 6.5 < b else 0.0)
    assert rolled["inner.calls"] == 2
    assert rolled["inner.s"] == (3 + 0) * 2.0
    assert rolled["outer.s"] == 9 * 2.0
    assert rolled["outer.self_s"] == (9 - 3) * 2.0


class _Untimed:
    def timed(self, fn):
        return fn(), 1.0, 1.0


def test_a_job_that_writes_no_out_file_fails(tmp_path):
    job = workloads.Job("no --out", lambda o: None, argv=["omega", "count", "--n", "3", "--k", "2"], out_path=str(tmp_path / "none.json"))
    runner = run.Runner(_Untimed())
    runner.run(job)
    assert len(runner.failures) == 1 and "FileNotFoundError" in runner.failures[0]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the runner
    exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "polytope-d3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_inputs_depend_only_on_the_seed(tmp_path):
    def inputs(seed, where):
        jobs = jobs_of("flag-algebra", where, seed)
        return sorted(
            open(os.path.join(where, name), encoding="utf-8").read() for name in os.listdir(where)
        ), len(jobs)

    assert inputs(3, tmp_path / "a") == inputs(3, tmp_path / "b")
    assert inputs(3, tmp_path / "a") != inputs(4, tmp_path / "c")


def test_oracle_helpers_agree_with_small_cases():
    assert oracles.surjections(8, 4) == 40824
    assert oracles.surjections(3, 3) == 6
    assert oracles.pattern_index(3, [[1, 2], [2, 3]]) == 3
    assert oracles.pattern_index(2, [[1, 2], [2, 1]]) is None
    frame = [[Fraction(x) for x in row] for row in ((1, 1, 0), (1, -1, 1), (1, 0, -1))]
    assert oracles.matmul(frame, oracles.inverse(frame)) == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
