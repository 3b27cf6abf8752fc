"""Outside-in tracing of nilmat for the benchmark's traced run.

Nothing under src/ changes: while a Tracer is installed, each traced public
function is replaced by a wrapper under every nilmat module attribute that
holds it, because callers look functions up by the name they imported
(`nilmat.polytope.solve_unique`, `nilmat.reference.enumerate_vertices`).
Methods are replaced on their class. Removing the tracer restores every
original object.

Spans (name, start, end, parent, job) are kept in compact arrays in memory
and written out when the run ends; rollup() turns them into per-layer
calls, inclusive seconds and self seconds.
"""

import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

from nilmat.exactmat import RMatrix

# (module, attribute or Class.method, span name)
SPANNED = (
    ("nilmat.cli", "main", "cli.main"),
    ("nilmat.polytope", "build_h_polytope", "polytope.build_h_polytope"),
    ("nilmat.polytope", "enumerate_vertices", "polytope.enumerate_vertices"),
    ("nilmat.polytope", "LinearInequality.evaluate", "polytope.evaluate"),
    ("nilmat.polytope", "is_bounded", "polytope.is_bounded"),
    ("nilmat.polytope", "facet_incidence", "polytope.facet_incidence"),
    ("nilmat.polytope", "export_polytope", "polytope.export_polytope"),
    ("nilmat.exactmat", "solve_unique", "exactmat.solve_unique"),
    ("nilmat.exactmat", "rank", "exactmat.rank"),
    ("nilmat.exactmat", "null_space", "exactmat.null_space"),
    ("nilmat.exactmat", "RMatrix.__mul__", "exactmat.matmul"),
    ("nilmat.exactmat", "RMatrix.inverse", "exactmat.inverse"),
    ("nilmat.exactmat", "mat_vec", "exactmat.mat_vec"),
    ("nilmat.qflag", "FlagFrame.__init__", "qflag.FlagFrame.init"),
    ("nilmat.qflag", "iso_forward", "qflag.iso_forward"),
    ("nilmat.qflag", "iso_backward", "qflag.iso_backward"),
    ("nilmat.qflag", "is_in_q", "qflag.is_in_q"),
    ("nilmat.qflag", "nilpotency_class", "qflag.nilpotency_class"),
    ("nilmat.qflag", "make_stochastic_nilpotent", "qflag.make_stochastic_nilpotent"),
    ("nilmat.qflag", "flag_membership", "qflag.flag_membership"),
    ("nilmat.omega", "enumerate_partitions", "omega.enumerate_partitions"),
    ("nilmat.omega", "pattern_from_partition", "omega.pattern_from_partition"),
    ("nilmat.omega", "membership", "omega.membership"),
    ("nilmat.boolrel", "is_maximal_nilpotent_pattern", "boolrel.is_maximal_nilpotent_pattern"),
    # both closure saturators count as the closure layer
    ("nilmat.boolrel", "closure", "boolrel.closure"),
    ("nilmat.boolrel", "_saturate_or_find_cycle", "boolrel.closure"),
    ("nilmat.boolrel", "nilpotency_index", "boolrel.nilpotency_index"),
    ("nilmat.reference", "verify", "reference.verify"),
)

# Hot calls that are only counted: a span each would dominate their cost.
COUNTED = (
    ("nilmat.exactmat", "RMatrix.__init__", "exactmat.RMatrix.init"),
    ("nilmat.boolrel", "BoolMatrix.__mul__", "boolrel.BoolMatrix.mul"),
    ("nilmat.boolrel", "is_acyclic", "boolrel.is_acyclic"),
)

# What a span's integer note records, where it records anything.
NOTES = {
    "exactmat.solve_unique": lambda result: int(result is None),
    "polytope.enumerate_vertices": lambda result: len(result.vertices),
    "omega.enumerate_partitions": len,
}


def _resolve(module_name, attr):
    """(owner, attribute name) pairs holding the target, and the target."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        return [(cls, meth)], cls.__dict__[meth]
    target = getattr(module, attr)
    owners = [
        (mod, attr)
        for name, mod in sorted(sys.modules.items())
        if (name == "nilmat" or name.startswith("nilmat.")) and vars(mod).get(attr) is target
    ]
    return owners, target


class Tracer:
    """Records spans and counts while installed; use as a context manager."""

    def __init__(self):
        self.names = []  # span name by id
        self._ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.outer = array("b")  # 0 when nested inside a span of the same name
        self.note = array("q")
        self.counts = Counter()
        self.current_job = -1
        self._stack = []
        self._active = {}  # open spans per name id, to spot nesting
        self._replaced = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __enter__(self):
        for module_name, attr, name in SPANNED:
            owners, target = _resolve(module_name, attr)
            wrapper = self._span_wrapper(target, name)
            if attr == "RMatrix.__mul__":
                wrapper = _matrix_operand_only(target, wrapper)
            self._replace(owners, target, wrapper)
        for module_name, attr, name in COUNTED:
            owners, target = _resolve(module_name, attr)
            self._replace(owners, target, self._count_wrapper(target, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()
        return False

    def _replace(self, owners, target, wrapper):
        wrapper.__wrapped__ = target
        for owner, attr in owners:
            self._replaced.append((owner, attr, target))
            setattr(owner, attr, wrapper)

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, name):
        nid = self._id(name)
        note = NOTES.get(name)
        active = self._active.setdefault(nid, [0])
        stack = self._stack
        name_id, start, end, parent, job, outer, notes = (
            self.name_id, self.start, self.end, self.parent, self.job, self.outer, self.note
        )
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.current_job)
            outer.append(active[0] == 0)
            start.append(0.0)
            end.append(0.0)
            notes.append(0)
            stack.append(idx)
            active[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[0] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if note is not None:
                notes[idx] = note(result)
            return result

        return spanned

    def write(self, path):
        """Spans as gzip'd tab-separated lines: job, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tjob\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name_id)):
                fh.write(
                    f"{i}\t{self.job[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


def _matrix_operand_only(fn, spanned):
    """Span RMatrix.__mul__ only for matrix products, not scalar scaling."""

    def __mul__(self, other):
        if isinstance(other, RMatrix):
            return spanned(self, other)
        return fn(self, other)

    return __mul__


def rollup(tracer, scale=None, excluded=None):
    """Per-layer metrics from the recorded spans.

    For each span name: calls, s (inclusive, counting only spans not nested
    inside one of the same name) and self_s (duration minus the time its
    direct child spans cover). scale maps a job id to the factor that turns
    that job's wall seconds into reference seconds; excluded(start, end)
    gives the time within a span that belongs to the benchmark itself, such
    as calibration samples. Derived counts are measured where the work
    happens.
    """
    n = len(tracer.name_id)
    names = [tracer.names[i] for i in tracer.name_id]
    dur = []
    for i in range(n):
        d = tracer.end[i] - tracer.start[i]
        if excluded is not None:
            d -= excluded(tracer.start[i], tracer.end[i])
        dur.append(d if scale is None else d * scale[tracer.job[i]])
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    out = Counter()
    for i in range(n):
        name = names[i]
        out[name + ".calls"] += 1
        if tracer.outer[i]:
            out[name + ".s"] += dur[i]
        out[name + ".self_s"] += dur[i] - child[i]
    solves = singular = 0
    ray_path = set()
    for i in range(n):
        p = tracer.parent[i]
        parent = names[p] if p >= 0 else None
        if names[i] == "exactmat.solve_unique" and parent == "polytope.enumerate_vertices":
            solves += 1
            singular += tracer.note[i]
        elif names[i] == "exactmat.null_space" and parent == "polytope.is_bounded":
            ray_path.add(p)
    found = sum(tracer.note[i] for i in range(n) if names[i] == "polytope.enumerate_vertices")
    out["polytope.enumerate_vertices.solves"] = solves
    out["polytope.enumerate_vertices.singular"] = singular
    out["polytope.vertices_per_solve"] = found / solves if solves else 0.0
    out["polytope.is_bounded.ray_path"] = len(ray_path)
    out["omega.partitions_yielded"] = sum(
        tracer.note[i] for i in range(n) if names[i] == "omega.enumerate_partitions"
    )
    for name, count in tracer.counts.items():
        out[name + ".calls"] = count
    return out
