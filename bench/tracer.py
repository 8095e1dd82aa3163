"""Span tracer for the benchmark's traced runs.

The tracer replaces public callables of the ``endotriv`` package with
wrappers, from outside the package: functions are rebound in every loaded
``endotriv`` module namespace that binds them (``from .ffla import gauss``
copies the binding into ``modrep`` and ``split``), methods are replaced on
their class.  Nothing under ``src/`` is edited.

A span records its name, start, end and the index of the span that was open
when it started.  Spans stay in memory; ``summary()`` folds them into
per-name call counts, inclusive time (outermost spans of a name only), self
time (duration minus the time covered by direct child spans) and work
counts.  Scalar callables that run millions of times get a call counter
instead of a span; their time stays in the enclosing span's self time.
"""
from __future__ import annotations

import importlib
import sys
import time

import numpy as np

PACKAGE = "endotriv"


def size_bucket(n: int) -> str:
    """Matrix size bucket by largest dimension."""
    if n <= 8:
        return "n8"
    if n <= 64:
        return "n64"
    return "nbig"


def _matmul_key(args, kwargs):
    field, a, b = args[0], args[1], args[2]
    m, k = np.shape(a)
    n = np.shape(b)[1]
    return f"ffla.matmul.q{field.q}.{size_bucket(max(m, k, n))}", m * k * n


def _gauss_key(args, kwargs):
    M = args[0]
    r, c = M.a.shape
    return f"ffla.gauss.q{M.field.q}.{size_bucket(max(r, c))}", r * c


def _kron_key(args, kwargs):
    A, B = args[0], args[1]
    (ra, ca), (rb, cb) = A.a.shape, B.a.shape
    return "ffla.kron", ra * ca * rb * cb


# (module, attribute path, span name, key function or None).  A key function
# maps the call's arguments to (span name, work count); the work count is
# reported as ``field_ops`` for matmul and ``cells`` for gauss and kron.
SPANS = [
    ("catalog", "build_group", "catalog.build_group", None),
    ("catalog", "validate_entry", "catalog.validate_entry", None),
    ("grp", "GroupTable.__init__", "grp.GroupTable", None),
    ("grp", "GroupTable.sylow", "grp.GroupTable.sylow", None),
    ("grp", "GroupTable.normalizer", "grp.GroupTable.normalizer", None),
    ("cli", "choose_field_degree", "cli.choose_field_degree", None),
    ("modrep", "InducedContext.__init__", "modrep.InducedContext", None),
    ("modrep", "brauer_quotient", "modrep.brauer_quotient", None),
    ("split", "split_summands", "split.split_summands", None),
    ("split", "HeckeEnd.__init__", "split.HeckeEnd", None),
    ("split", "HeckeEnd.primitive_idempotents",
     "split.primitive_idempotents", None),
    ("split", "algebra_radical", "split.algebra_radical", None),
    ("split", "charpoly", "split.charpoly", None),
    ("split", "elem_symmetric_coeff", "split.elem_symmetric_coeff", None),
    ("split", "factor_poly", "split.factor_poly", None),
    ("split", "composition_factor_dims", "split.composition_factor_dims",
     None),
    ("etk", "compute_K", "etk.compute_K", None),
    ("etk", "green_correspondent", "etk.green_correspondent", None),
    ("etk", "is_endotrivial_char", "etk.is_endotrivial_char", None),
    ("etk", "is_endotrivial_direct", "etk.is_endotrivial_direct", None),
    ("etk", "bq_character", "etk.bq_character", None),
    ("ffla", "FieldTable.matmul", "ffla.matmul", _matmul_key),
    ("ffla", "gauss", "ffla.gauss", _gauss_key),
    ("ffla", "solve_right", "ffla.solve_right", None),
    ("ffla", "kron", "ffla.kron", _kron_key),
    ("gf2", "mul_packed", "gf2.mul_packed", None),
    ("gf2", "rref_packed", "gf2.rref_packed", None),
]

# High-frequency callables: counted, not timed.
COUNTS = [
    ("grp", "GroupTable.mul", "grp.GroupTable.mul"),
    ("grp", "GroupTable.inv", "grp.GroupTable.inv"),
    ("modrep", "InducedContext.induce", "modrep.induce"),
    ("modrep", "fixed_point_rows", "modrep.fixed_point_rows"),
    ("ffla", "FieldTable.mul", "ffla.FieldTable.mul"),
    ("ffla", "FieldTable.neg", "ffla.FieldTable.neg"),
    ("ffla", "FieldTable.inv", "ffla.FieldTable.inv"),
    ("ffla", "FieldTable.mul_vec", "ffla.FieldTable.mul_vec"),
    ("ffla", "FieldTable.add_vec", "ffla.FieldTable.add_vec"),
    ("ffla", "FieldTable.sub_vec", "ffla.FieldTable.sub_vec"),
]

WORK_STAT = {"ffla.matmul": "field_ops", "ffla.gauss": "cells",
             "ffla.kron": "cells"}
IDEMPOTENTS = "split.primitive_idempotents"
TRIES = "split.factor_poly"


class Tracer:
    def __init__(self):
        # span record: [name, start, end, parent index, work, outermost]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: dict[str, int] = {}
        self.counts: dict[str, list[int]] = {}
        self.missing: list[str] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name, key_fn):
        spans, stack, open_, clock = self.spans, self.stack, self.open, \
            time.perf_counter

        def wrapper(*args, **kwargs):
            key, work = key_fn(args, kwargs) if key_fn else (name, 0)
            depth = open_.get(key, 0)
            open_[key] = depth + 1
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, work, depth == 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                open_[key] = depth
            if name == IDEMPOTENTS:
                rec[4] = len(out)
            return out
        return wrapper

    def _count(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed callable that exists in the loaded package.
        Callables a version of the package lacks are recorded in
        ``missing`` and report zero."""
        for mod, path, name, key_fn in SPANS:
            self._patch(mod, path, name,
                        lambda fn, n=name, k=key_fn: self._span(fn, n, k))
        for mod, path, name in COUNTS:
            self._patch(mod, path, name,
                        lambda fn, n=name: self._count(fn, n))

    def _patch(self, mod_name, path, name, make) -> None:
        try:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            self.missing.append(name)
            return
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(name)
            return
        wrapped = make(original)
        if owner_name:
            setattr(owner, attr, wrapped)
            return
        for m in list(sys.modules.values()):
            mname = getattr(m, "__name__", "")
            if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                continue
            for k, v in list(vars(m).items()):
                if v is original:
                    setattr(m, k, wrapped)

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Flat ``<span name>.<stat>`` map plus the derived counters."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        tries = 0
        idempotents = 0
        for i, (name, start, end, parent, work, outer) in enumerate(spans):
            dur = end - start
            add(f"{name}.calls", 1)
            if outer:
                add(f"{name}.incl_s", dur)
            add(f"{name}.self_s", dur - covered[i])
            stat = WORK_STAT.get(name.partition(".q")[0])
            if stat:
                add(f"{name}.{stat}", work)
            if name == IDEMPOTENTS:
                idempotents += work
            elif name == TRIES and self._under(i, IDEMPOTENTS):
                tries += 1
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        out["split.idempotent_tries"] = tries
        out["split.idempotent_yield"] = idempotents / tries if tries else 0.0
        out["cli.field_retries"] = max(0, out.get("etk.compute_K.calls", 0) - 1)
        return out

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
