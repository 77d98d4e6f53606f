"""Spans around the public functions of each rigidform layer.

The package binds its functions with ``from ... import``, so one function
object sits in several module namespaces (``rigidform.cli`` calls
``restricted_sym_form`` through its own binding).  :class:`Tracer` swaps
every binding of each function listed in :data:`TRACED` for a wrapper that
records a span: name, start, end, the span that was open when it started,
and for a few functions the return value or exception.  Spans of one op are
kept in memory and folded into per-layer totals when the op ends; a layer's
self time is its span's duration minus the duration of its traced children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer module -> public functions wrapped in every namespace that binds them
TRACED = {
    "graphs": ("Configuration.from_vector",),
    "rigidity": (
        "distance_map",
        "rigidity_matrix",
        "directed_rigidity_matrix",
        "matrix_rank",
        "generic_rank",
        "is_generically_rigid",
        "tangent_basis",
    ),
    "controllers": (
        "evaluate_field",
        "gradient_field",
        "model_field",
        "directed_field",
        "eta_matrix",
    ),
    "certificates": (
        "restricted_sym_form",
        "linearized_edge_matrix",
        "dynamic_admissibility",
        "algebraic_admissibility",
        "persistence_check",
    ),
    "simulate": ("integrate",),
    "scenarios": ("load_scenario",),
    "cli": ("main", "write_trajectory_csv"),
    "svg": ("line_chart", "plane_paths"),
}

# spans whose return value the counters read
_KEEP_RESULT = {
    "simulate.integrate",
    "certificates.persistence_check",
    "certificates.dynamic_admissibility",
    "certificates.algebraic_admissibility",
}

TERMINATIONS = ("converged", "limit-cycle-suspect", "horizon", "aborted")

# counts that :meth:`Tracer.fold` derives from the spans, with their units
COUNTERS = {
    "rigidity.generic_rank.misses": "count",  # calls that ran matrix_rank
    "certificates.admissibility.fail_verdicts": "count",
    "certificates.persistence.reductions_checked": "count",
    "certificates.persistence.rigidity_tests": "count",  # is_generically_rigid calls
    "simulate.rhs_evals": "count",  # evaluate_field calls inside integrate
    "simulate.samples": "count",
    **{f"simulate.terminations.{t}": "count" for t in TERMINATIONS},
    "cli.bytes_written": "B",
    "svg.bytes_written": "B",
}


class Tracer:
    """Installs span-recording wrappers; :meth:`fold` turns spans into totals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, result]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = exc
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if keep:
                span[4] = result
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "rigidform" or key.startswith("rigidform.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"rigidform.{layer}")
            for qualname in names:
                name = f"{layer}.{qualname}"
                if "." in qualname:  # a classmethod: one binding, on the class
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._set(owner, attr, classmethod(self._wrap(name, original.__func__)))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def fold(self, totals: defaultdict) -> None:
        """Add the recorded spans into ``totals`` and forget them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        misses = set()
        for k, (name, start, end, parent, result) in enumerate(spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += end - start - child[k]
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "rigidity.matrix_rank" and parent_name == "rigidity.generic_rank":
                misses.add(parent)
            elif name == "rigidity.is_generically_rigid" and parent_name == "certificates.persistence_check":
                totals["certificates.persistence.rigidity_tests"] += 1
            elif name == "controllers.evaluate_field" and parent_name == "simulate.integrate":
                totals["simulate.rhs_evals"] += 1
            elif name == "certificates.persistence_check" and hasattr(result, "reductions_checked"):
                totals["certificates.persistence.reductions_checked"] += result.reductions_checked
                totals["certificates.persistence.seconds"] += end - start
            elif name.endswith("_admissibility") and getattr(result, "verdict", None) == "fail":
                totals["certificates.admissibility.fail_verdicts"] += 1
            elif name == "simulate.integrate":
                if isinstance(result, BaseException):
                    termination = "aborted"  # raised on a rank-deficient start
                else:
                    termination = result.termination
                    totals["simulate.samples"] += len(result.times)
                totals[f"simulate.terminations.{termination}"] += 1
        totals["rigidity.generic_rank.misses"] += len(misses)
        spans.clear()


def per_layer_names() -> list[str]:
    """Names of every per-layer metric, in report order."""
    names = []
    for layer, funcs in TRACED.items():
        for qualname in funcs:
            if qualname == "is_generically_rigid":
                continue  # counted as persistence rigidity tests instead
            names += [f"{layer}.{qualname}.calls", f"{layer}.{qualname}.self_s"]
    return names
