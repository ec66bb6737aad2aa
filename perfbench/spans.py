"""Span recorder for the traced benchmark run.

Every public function of the ``liecontract`` layer modules is replaced, at
every module binding that refers to it, by a wrapper that records a span:
name, parent span, root job span, start and end.  Because module code calls
other modules through those bindings (``analysis.wedge`` is the same function
as ``exterior.wedge``), calls between layers nest correctly.  Spans stay in
memory and are written out when the run ends.

The wrapper's own bookkeeping (counters computed from arguments and results)
happens outside the span's interval; its cost is charged to the parent span
as ``ovh`` and removed from the parent's self time, so self times measure the
program and not the recorder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("polyring", "exterior", "linalg", "lie", "builders", "contract",
          "invariants", "analysis", "cli")

# Called once per monomial inside the kernels: a span there would cost more
# than the work it measures, so their time stays in the caller's self time.
LEAF_KERNELS = frozenset({"mono_mul", "mono_degree", "mono_dense", "mono_divides",
                          "mono_quot"})

# span record layout: [name, parent, job, start, end, ovh]
NAME, PARENT, JOB, START, END, OVH = range(6)


class Recorder:
    """In-memory spans with parent ids; ``enabled`` pauses recording."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.labels = {}      # span id -> job label, for the benchmark's job spans
        self.enabled = True
        self.charged = 0.0    # all overhead charged so far

    def open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        job = self.spans[self.stack[0]][JOB] if self.stack else sid
        self.spans.append([name, parent, job, 0.0, 0.0, 0.0])
        self.stack.append(sid)
        return sid

    def close(self, sid, start, end):
        top = self.stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed out of order (top {top})")
        span = self.spans[sid]
        span[START] = start
        span[END] = end

    def charge(self, seconds):
        """Book recorder overhead against the innermost open span."""
        self.charged += seconds
        if self.stack:
            self.spans[self.stack[-1]][OVH] += seconds

    def current_job(self):
        return self.spans[self.stack[0]][JOB] if self.stack else None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, job, start, end, ovh), slf in zip(
                    range(len(self.spans)), self.spans, self_times(self.spans)):
                row = {"id": sid, "parent": parent, "job": job, "name": name,
                       "start": start, "end": end, "self": slf}
                if sid in self.labels:
                    row["label"] = self.labels[sid]
                fh.write(json.dumps(row) + "\n")


def self_times(spans):
    """Duration minus the time covered by child spans and recorder overhead."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c - s[OVH] for s, c in zip(spans, child)]


def aggregate(spans):
    """Per span name: calls, summed self time, and inclusive time of the
    outermost spans of that name (a recursive call is not counted twice)."""
    selfs = self_times(spans)
    out = {}
    for sid, (s, slf) in enumerate(zip(spans, selfs)):
        a = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        a["calls"] += 1
        a["self_s"] += slf
        if not has_ancestor(spans, sid, s[NAME]):
            a["incl_s"] += s[END] - s[START]
    return out


def has_ancestor(spans, sid, name):
    p = spans[sid][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def time_under(spans, name, ancestor):
    """Summed duration of outermost `name` spans that run under `ancestor`."""
    total = 0.0
    for sid, s in enumerate(spans):
        if s[NAME] == name and has_ancestor(spans, sid, ancestor) \
                and not has_ancestor(spans, sid, name):
            total += s[END] - s[START]
    return total


def public_functions():
    """{function: span name} for the public functions the layers define."""
    found = {}
    for mod in (importlib.import_module(f"liecontract.{m}") for m in LAYERS):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and name not in LEAF_KERNELS):
                found[obj] = f"{short}.{name}"
    return found


def make_wrapper(rec, fn, name, hook=None):
    """hook(args, kwargs) -> after(result) or None; runs outside the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        b0, c0 = perf_counter(), rec.charged
        after = hook(args, kwargs) if hook is not None else None
        sid = rec.open(name)
        t0, c1 = perf_counter(), rec.charged
        try:
            result = fn(*args, **kwargs)
        finally:
            t1, c2 = perf_counter(), rec.charged
            rec.close(sid, t0, t1)
        if after is not None:
            after(result)
        # less what was charged meanwhile (the speed sampler), not to count it twice
        rec.charge((t0 - b0) - (c1 - c0) + (perf_counter() - t1) - (rec.charged - c2))
        return result

    return wrapper


def install(rec, hooks=None):
    """Wrap every public layer function at every binding in the package.

    Returns an undo list of (module, attribute, original)."""
    hooks = hooks or {}
    names = public_functions()
    wrappers = {fn: make_wrapper(rec, fn, name, hooks.get(name))
                for fn, name in names.items()}
    undo = []
    modules = [m for key, m in list(sys.modules.items())
               if key == "liecontract" or key.startswith("liecontract.")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            w = wrappers.get(obj) if inspect.isfunction(obj) else None
            if w is not None:
                undo.append((mod, attr, obj))
                setattr(mod, attr, w)
    return undo


def uninstall(undo):
    for mod, attr, obj in reversed(undo):
        setattr(mod, attr, obj)
