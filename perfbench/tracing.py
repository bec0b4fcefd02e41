"""Span tracing around calls into permtri's modules, installed from outside.

A Tracer replaces each traced function at every place it is looked up: the
module that defines it, every permtri module that imported it by name, and
`acceptance.CRITERIA`, which holds the criterion callables.  Methods of
`FieldCtx` and `ScanEngine` are wrapped on the class.  `Elem` arithmetic is
only counted, never spanned: it runs millions of times per pass.

`install()` patches, `restore()` puts every original back and checks that it
did.  Spans are (id, name, start, end, parent, thread, work) tuples kept in
memory; `work` is the computed cell, pair or byte count of the call.  A span
opened in a worker thread with nothing open in that thread takes as parent
the innermost span open in the main thread, so the pool's kernel calls are
children of the sweep that submitted them.
"""

from __future__ import annotations

import functools
import itertools
import threading
from time import perf_counter

import numpy as np

import permtri
from permtri import acceptance, bipoly, cli, conds, engine, ff, perm, scan, upoly

MODULES = (permtri, ff, upoly, bipoly, perm, conds, engine, scan, acceptance, cli)

CONDITION_KERNELS = ("prima", "seconda", "prima_bis", "seconda_bis", "seconda_tris", "char2", "char3")
BIPOLY_FUNCS = (
    "build_curves",
    "count_points_off_diag",
    "four_line_witness",
    "conic_witnesses",
    "verify_iso_identity",
    "resultant_vs_closed_form",
    "gcd_degree",
)
DIAGNOSTIC_FUNCS = ("build_curves", "count_points_off_diag", "four_line_witness", "conic_witnesses")
SWEEPS = ("scan.exhaustive_scan", "scan.sampled_scan")


def _pairs(args, out):
    return len(args[1])


def _text_bytes(args, out):
    return len(out)


def _cells(args, out):
    return int(np.size(out))


def _row_bytes(args, out):
    return 0 if out.rows is None else out.rows.nbytes


# (module, function name, work counter) for module-level functions.
FUNCTIONS = (
    [(ff, "make_field", None)]
    + [(upoly, name, None) for name in ("poly_gcd", "resultant")]
    + [(bipoly, name, None) for name in BIPOLY_FUNCS]
    + [(perm, name, None) for name in ("is_pp_mu", "is_pp_direct")]
    + [(conds, name, None) for name in ("condition_report", "check_prima_bis")]
    + [
        (scan, "exhaustive_scan", _row_bytes),
        (scan, "sampled_scan", _row_bytes),
        (scan, "classify_pair", None),
        (scan, "emit_report", None),
        (scan, "report_from_json", None),
        (scan, "to_csv_text", _text_bytes),
        (scan, "to_json_text", _text_bytes),
        (acceptance, "run_all", None),
        (cli, "main", None),
    ]
)

# (class, method name, span name, work counter).
METHODS = (
    [
        (engine.ScanEngine, "__init__", "engine.init", None),
        (engine.ScanEngine, "classify_bulk", "engine.classify_bulk", _pairs),
        (engine.ScanEngine, "pp_mu", "engine.pp_mu", lambda args, out: len(args[1]) * (args[0].q + 1)),
        (engine.ScanEngine, "pp_direct", "engine.pp_direct", lambda args, out: len(args[1]) * args[0].q ** 2),
        (engine.ScanEngine, "gcd_deg", "engine.gcd_deg", _pairs),
    ]
    + [(engine.ScanEngine, k, "engine.conditions", _pairs) for k in CONDITION_KERNELS]
)

ELEM_OPS = (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"), ("__radd__", "add"))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.elem_calls = {"mul": 0, "add": 0}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._patched: list[tuple] = []  # (owner, attribute, original, wrapper)

    # ------------------------------------------------------------- spans

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, work, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        amount = 0
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            if work is not None:
                amount = work(args, out)
            return out
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), amount))

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given name."""
        return self._record(name, fn, None, args, kwargs)

    def _wrapper(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, work, args, kwargs)

        return traced

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, wrapper))

    def install(self) -> None:
        """Wrap every traced function at each place it is looked up."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for home, fname, work in FUNCTIONS:
            fn = home.__dict__[fname]
            wrapper = self._wrapper(f"{home.__name__.rsplit('.', 1)[-1]}.{fname}", fn, work)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        crit_wrappers = {}
        for num, _label, fn in acceptance.CRITERIA:
            wrapper = self._wrapper(f"acceptance.crit_{num:02d}", fn, None)
            crit_wrappers[fn] = wrapper
            for attr, value in list(vars(acceptance).items()):
                if value is fn:
                    self._patch(acceptance, attr, wrapper)
        self._patch(
            acceptance,
            "CRITERIA",
            tuple((num, label, crit_wrappers[fn]) for num, label, fn in acceptance.CRITERIA),
        )
        for cls, meth, name, work in METHODS:
            self._patch(cls, meth, self._wrapper(name, cls.__dict__[meth], work))
        for meth in ("vmul", "vadd"):
            self._patch(ff.FieldCtx, meth, self._gather_wrapper(meth, ff.FieldCtx.__dict__[meth]))
        for meth, key in ELEM_OPS:
            self._patch(ff.Elem, meth, self._counter(key, ff.Elem.__dict__[meth]))

    def _gather_wrapper(self, meth, fn):
        """vmul/vadd spans named by path: dense 2-D tables or the fallback."""
        table = "np_mul" if meth == "vmul" else "np_add"
        dense = self._wrapper(f"ff.{meth}.dense", fn, _cells)
        fallback = self._wrapper(f"ff.{meth}.logexp", fn, _cells)

        @functools.wraps(fn)
        def traced(ctx, x, y):
            return (dense if getattr(ctx, table) is not None else fallback)(ctx, x, y)

        return traced

    def _counter(self, key, fn):
        calls = self.elem_calls

        @functools.wraps(fn)
        def counted(a, b):
            calls[key] += 1
            return fn(a, b)

        return counted

    def restore(self) -> None:
        """Put every original back, newest patch first, and check each."""
        while self._patched:
            owner, attr, original, wrapper = self._patched.pop()
            if owner.__dict__[attr] is not wrapper:
                raise RuntimeError(f"{owner.__name__}.{attr} was re-patched while traced")
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:  # pragma: no cover
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def installed(self) -> int:
        return len(self._patched)


# ------------------------------------------------------------- analysis


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for sid, _name, t0, t1, parent, _thread, _work in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent, _thread, _work in spans:
        kids = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(sid, ()) if hi > t0 and lo < t1]
        out[sid] = (t1 - t0) - _union_length(kids)
    return out


class SpanTable:
    """Totals per span name.  Durations count outermost spans only, so a
    span nested inside another of the same name is not counted twice."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.self_time = self_times(spans)
        self.calls: dict[str, int] = {}
        self.time: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self.self_total: dict[str, float] = {}
        for sid, name, t0, t1, parent, _thread, work in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.work[name] = self.work.get(name, 0) + work
            self.self_total[name] = self.self_total.get(name, 0.0) + self.self_time[sid]
            if not self._inside_same(parent, name):
                self.time[name] = self.time.get(name, 0.0) + (t1 - t0)

    def _inside_same(self, parent, name) -> bool:
        while parent is not None:
            span = self.by_id.get(parent)
            if span is None:
                return False
            if span[1] == name:
                return True
            parent = span[4]
        return False

    def parent_name(self, span) -> str | None:
        parent = self.by_id.get(span[4])
        return None if parent is None else parent[1]

    def time_under(self, names, parents) -> float:
        """Total duration of spans named in `names` whose parent is in `parents`."""
        return sum(s[3] - s[2] for s in self.spans if s[1] in names and self.parent_name(s) in parents)
