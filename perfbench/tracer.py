"""Span tracer for matroid_workbench, installed from outside the package.

`install()` replaces public functions and methods of each module of the
package with wrappers. A wrapped call opens a span: its name, start, end,
parent span and (per process, so per task) task id. Spans stay in memory,
one buffer per thread, and are written out when the interpreter exits.
Counters record work at the same boundaries (rank calls that reach a
backing, memo hits, fixed points, rows fed to rref, fibers, ...).

`self_times()` turns the spans into self times: a span's duration minus
the part of its interval covered by its child spans. Children in one
thread never overlap; children started from a thread pool may, so the
covered part is the union of the child intervals, not their sum.

`fields` is deliberately not wrapped: it runs on every scalar operation,
so a wrapper there would dominate the run. Its cost lands in the self time
of whichever span calls it (linalg.rref, orlik_solomon.*).
"""
from __future__ import annotations

import array
import atexit
import json
import os
import sys
import threading
import time

_now = time.perf_counter_ns

# Span ids are (buffer id << _ID_SHIFT) | index within that thread's buffer.
_ID_SHIFT = 40

# Spans that set the context for linalg spans and rref counters: which layer
# asked for the linear algebra is the nearest enclosing span of these kinds.
CONTEXTS = ("os_space", "minor")


class _Buffer:
    __slots__ = ("base", "names", "parents", "starts", "ends", "stack", "ctx", "counts")

    def __init__(self, bid):
        self.base = bid << _ID_SHIFT
        self.names = array.array("q")
        self.parents = array.array("q")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.stack = []
        self.ctx = []
        self.counts = {}


class Tracer:
    """In-memory span and counter store for one process (one task)."""

    def __init__(self, task_id=""):
        self.task_id = task_id
        self.names = []
        self._name_ids = {}
        self.buffers = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
            return buf

    def current(self):
        """Id of the innermost open span in this thread, or -1."""
        stack = self.buffer().stack
        return stack[-1] if stack else -1

    def count(self, key, n=1):
        counts = self.buffer().counts
        counts[key] = counts.get(key, 0) + n

    def counters(self):
        merged = {}
        for buf in self.buffers:
            for k, v in buf.counts.items():
                merged[k] = merged.get(k, 0) + v
        return merged

    # -- wrappers -------------------------------------------------------

    def span(self, fn, name, after=None, split_ctx=False, sets_ctx=None):
        """Wrap `fn` so that each call records a span named `name`.

        after(tracer, ctx, args, result) runs once the span has closed, so
        its bookkeeping is not timed. split_ctx appends the enclosing
        context (see CONTEXTS) to the span name; sets_ctx makes this span
        that context for everything it calls.
        """
        nid0 = self.intern(name)
        nids = {c: self.intern(f"{name}|{c}") for c in CONTEXTS} if split_ctx else {}
        nids[""] = nid0
        buffer = self.buffer

        def wrapper(*args, **kwargs):
            buf = buffer()
            ctx = buf.ctx[-1] if buf.ctx else ""
            stack = buf.stack
            ends = buf.ends
            idx = len(ends)
            buf.names.append(nids[ctx] if split_ctx else nid0)
            buf.parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(buf.base + idx)
            if sets_ctx:
                buf.ctx.append(sets_ctx)
            buf.starts.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _now()
                stack.pop()
                if sets_ctx:
                    buf.ctx.pop()
            if after is not None:
                after(self, ctx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, fn, key, hits_key=None):
        """Wrap `fn` to count its calls (and non-None results) without a span."""
        buffer = self.buffer

        def wrapper(*args, **kwargs):
            counts = buffer().counts
            counts[key] = counts.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if hits_key is not None and result is not None:
                counts[hits_key] = counts.get(hits_key, 0) + 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ---------------------------------------------------------

    def write(self, prefix):
        """Write `prefix`.json (names, counters, buffer sizes) and
        `prefix`.spans (per buffer: names, parents, starts, ends as int64)."""
        with open(prefix + ".spans", "wb") as fh:
            for buf in self.buffers:
                for arr in (buf.names, buf.parents, buf.starts, buf.ends):
                    arr.tofile(fh)
        header = {
            "task": self.task_id,
            "names": self.names,
            "buffers": [len(buf.ends) for buf in self.buffers],
            "counters": self.counters(),
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def read_spans(prefix):
    """Load a file pair written by Tracer.write.

    Returns (header, spans): spans is a dict of equal-length columns
    "name" (index into header["names"]), "start", "end" (ns) and "parent"
    (position of the parent span in these columns, or -1).
    """
    with open(prefix + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    cols = {"name": array.array("q"), "parent": array.array("q"),
            "start": array.array("q"), "end": array.array("q")}
    offsets = []
    with open(prefix + ".spans", "rb") as fh:
        for n in header["buffers"]:
            offsets.append(len(cols["name"]))
            for key in ("name", "parent", "start", "end"):
                cols[key].fromfile(fh, n)
    mask = (1 << _ID_SHIFT) - 1
    parent = cols["parent"]
    for i, g in enumerate(parent):
        if g >= 0:
            parent[i] = offsets[g >> _ID_SHIFT] + (g & mask)
    return header, cols


def self_times(starts, ends, parents):
    """Self time of every span, given parallel start/end/parent columns
    (parent = position of the parent span, or -1).

    Self time is the span's duration minus the union of its children's
    intervals. Children are visited in start order, so each parent only
    needs the furthest end its merged children have reached so far.
    """
    n = len(starts)
    covered = [0] * n
    reach = [-1] * n
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        start, end, r = starts[i], ends[i], reach[p]
        if start >= r:
            covered[p] += end - start
            reach[p] = end
        elif end > r:
            covered[p] += end - r
            reach[p] = end
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def summarize(names, spans):
    """Per span name: {"calls", "self_ns", "total_ns"}."""
    starts, ends = spans["start"], spans["end"]
    selfs = self_times(starts, ends, spans["parent"])
    out = {}
    for i, nid in enumerate(spans["name"]):
        s = out.get(names[nid])
        if s is None:
            s = out[names[nid]] = {"calls": 0, "self_ns": 0, "total_ns": 0}
        s["calls"] += 1
        s["self_ns"] += selfs[i]
        s["total_ns"] += ends[i] - starts[i]
    return out


# -- installation into matroid_workbench ------------------------------------


def _rebind(old, new):
    """Point every matroid_workbench module attribute bound to `old` at
    `new`, so names taken in by `from .x import f` see the wrapper too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("matroid_workbench"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def _wrap_function(module, attr, make):
    old = getattr(module, attr)
    _rebind(old, make(old))


def _wrap_method(cls, attr, make):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


# after-hooks: they run once the span has closed


def _cache_get_after(tr, ctx, args, result):
    if result is not None:
        tr.count("cli.cache.get.hits")


def _cache_put_after(tr, ctx, args, result):
    cache, key = args[0], args[1]
    tr.count("cli.cache.put.bytes", os.path.getsize(cache._path(key)))


def _rref_after(tr, ctx, args, result):
    suffix = f"|{ctx}" if ctx else ""
    tr.count("linalg.rref.rows_in" + suffix, len(args[0]))
    tr.count("linalg.rref.rank_out" + suffix, len(result[0]))


def _subsets_after(tr, ctx, args, result):
    tr.count("tutte.subsets", sum(result.values()))


def _points_after(tr, ctx, args, result):
    tr.count("localization.points", len(args[1]))


def _fibers_after(tr, ctx, args, result):
    tr.count("white.fibers", len(result))
    tr.count("white.monomials", sum(len(fg.vertices) for fg in result))
    # adjacency lists hold each undirected edge once from each end
    tr.count("white.edges", sum(len(a) for fg in result for a in fg.adjacency.values()) // 2)


def install(tracer):
    """Wrap the package's layers; returns the tracer for convenience."""
    import concurrent.futures

    from matroid_workbench import (
        cli,
        linalg,
        localization,
        matroids,
        orlik_solomon,
        polynomials,
        series,
        tutte,
        white,
    )

    span = tracer.span

    def fn(module, attr, name, **kw):
        _wrap_function(module, attr, lambda f: span(f, name, **kw))

    def meth(cls, attr, name, **kw):
        _wrap_method(cls, attr, lambda f: span(f, name, **kw))

    # cli
    fn(cli, "_read_descriptor", "cli.parse")
    meth(cli.FileTutteCache, "get", "cli.cache.get", after=_cache_get_after)
    meth(cli.FileTutteCache, "put", "cli.cache.put", after=_cache_put_after)

    # matroids
    M = matroids.Matroid
    meth(M, "rank", "matroids.rank")
    meth(M, "minor", "matroids.minor", sets_ctx="minor")
    meth(M, "bases", "matroids.bases")
    meth(M, "circuits", "matroids.circuits")
    meth(M, "canonical_key", "matroids.canonical_key")
    for backing in (
        matroids.LinearBacking,
        matroids.UniformBacking,
        matroids.GraphicBacking,
        matroids.BasesBacking,
        matroids.DerivedBacking,
    ):
        _wrap_method(backing, "rank", lambda f: tracer.counting(f, "matroids.backing_rank"))
    orig_incremental = M.__dict__["incremental_rank"]

    def incremental_rank(self):
        inc = orig_incremental(self)
        return None if inc is None else _CountedIncremental(inc, tracer)

    incremental_rank.__wrapped__ = orig_incremental
    M.incremental_rank = incremental_rank

    # linalg
    meth(linalg.IntEchelon, "push", "linalg.push", split_ctx=True)
    meth(linalg.ModEchelon, "push", "linalg.push", split_ctx=True)
    fn(linalg, "rref", "linalg.rref", split_ctx=True, after=_rref_after)

    # tutte
    fn(tutte, "rank_size_counts", "tutte.rank_size_counts", after=_subsets_after)
    fn(tutte, "tutte_dc", "tutte.dc")
    fn(tutte, "tutte_sum", "tutte.sum")
    fn(tutte, "h_polynomial", "tutte.h")
    fn(tutte, "h_matrix", "tutte.h")
    fn(tutte, "char_poly", "tutte.char_poly")
    fn(tutte, "reduced_char_poly", "tutte.char_poly")
    _wrap_method(tutte.TutteCache, "get", lambda f: tracer.counting(f, "tutte.dc.get", "tutte.dc.hits"))
    _wrap_method(tutte.TutteCache, "put", lambda f: tracer.counting(f, "tutte.dc.put"))

    # polynomials
    for cls in (polynomials.BivariatePoly, polynomials.UnivariatePoly):
        meth(cls, "__add__", "polynomials.add")
        for attr in ("__sub__", "__mul__", "to_json", "from_json"):
            meth(cls, attr, "polynomials.other")
    meth(polynomials.UnivariatePoly, "divmod_linear", "polynomials.other")

    # series
    S = series.TruncatedSeries
    meth(S, "__mul__", "series.mul")
    meth(S, "inverse", "series.inverse")
    meth(S, "one_plus_eps_power", "series.power")

    # localization
    fn(localization, "euler_table", "localization.euler_table")
    fn(localization, "_accumulate_points", "localization.accumulate", after=_points_after)
    fn(localization, "calibrate_signs", "localization.calibrate")

    # orlik_solomon
    fn(orlik_solomon, "os_space", "orlik_solomon.os_space", sets_ctx="os_space")
    fn(orlik_solomon, "os_dimensions", "orlik_solomon.os_dimensions")
    fn(orlik_solomon, "nbc_sets", "orlik_solomon.nbc_sets")
    fn(orlik_solomon, "broken_circuits", "orlik_solomon.broken_circuits")
    fn(orlik_solomon, "reduced_nbc_basis", "orlik_solomon.reduced_nbc_basis")
    fn(orlik_solomon, "reduced_nbc_index_sets", "orlik_solomon.reduced_nbc_index_sets")
    meth(orlik_solomon.OSSpace, "reduce", "orlik_solomon.reduce")

    # white
    fn(white, "toric_fibers", "white.toric_fibers", after=_fibers_after)
    fn(white, "check_degree", "white.check_degree")

    # Spans started in a thread pool take the submitting span as parent.
    Pool = concurrent.futures.ThreadPoolExecutor
    orig_submit = Pool.submit

    def submit(self, fn_, *args, **kwargs):
        parent = tracer.current()

        def run(*a, **k):
            stack = tracer.buffer().stack
            stack.append(parent)
            try:
                return fn_(*a, **k)
            finally:
                stack.pop()

        return orig_submit(self, run, *args, **kwargs)

    Pool.submit = submit
    return tracer


class _CountedIncremental:
    """Push/pop rank oracle proxy that counts pushes."""

    __slots__ = ("push", "pop")

    def __init__(self, inc, tracer):
        push = inc.push
        buffer = tracer.buffer

        def counted_push(e):
            counts = buffer().counts
            counts["matroids.push"] = counts.get("matroids.push", 0) + 1
            return push(e)

        self.push = counted_push
        self.pop = inc.pop


def install_from_env():
    """Install into this process and write the spans at exit.

    PERFBENCH_TRACE_OUT is the output file prefix, PERFBENCH_TASK the task id.
    """
    tracer = install(Tracer(os.environ.get("PERFBENCH_TASK", "")))
    atexit.register(tracer.write, os.environ["PERFBENCH_TRACE_OUT"])
    return tracer
