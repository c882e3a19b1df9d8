"""Span recorder and outside-in instrumentation for the traced benchmark run.

``instrument`` times calls into fotd's public functions without changing the
package: for the duration of the context it replaces every module attribute
through which callers look those functions up with a timing wrapper, and
``wrap_problem`` wraps the six ``ProblemDef`` callbacks via
``dataclasses.replace``.  Everything is restored on exit.

Each thread keeps its own stack of open spans, so a span's parent is always
the innermost open span of the same thread.  A span's self time is its
duration minus the union of its children's intervals; work that a span hands
to other threads and waits for therefore stays in its self time.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

CALLBACKS = ("stage_cost", "cost_gradient", "cost_hessian", "dynamics",
             "dynamics_jacobians", "dynamics_hessian_contraction")

FOTD_MODULES = ("fotd", "fotd.problem", "fotd.banded", "fotd.newton",
                "fotd.decomposition", "fotd.driver", "fotd.schwarz",
                "fotd.benchmarks")


class Span:
    """One timed call; callbacks made while it is innermost count into it."""

    __slots__ = ("name", "thread", "parent", "start", "end", "cb_calls", "cb_s")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.thread = threading.get_ident()
        self.parent = parent
        self.start = self.end = 0.0
        self.cb_calls = [0] * len(CALLBACKS)
        self.cb_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects closed spans and named counters from any number of threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        # Callbacks made while no span is open in their thread.
        self.loose = Span("(no span)", None)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def callback(self, index: int, seconds: float) -> None:
        span = self.current()
        if span is None:
            with self._lock:
                self.loose.cb_calls[index] += 1
                self.loose.cb_s += seconds
        else:
            span.cb_calls[index] += 1
            span.cb_s += seconds

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value


def union_length(intervals: List[tuple]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by ``id(span)``."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {id(s): s.duration - union_length(children[id(s)]) for s in spans}


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

# Called after a traced call returns, with (recorder, span, args, result).
AfterHook = Callable[[SpanRecorder, Span, tuple, object], None]


def _band_lu_cost(rec: SpanRecorder, span: Span, args: tuple, out) -> None:
    """Operation count and band storage of the LU inside ``solve_lq_kkt``.

    Computed from the shapes: order n and half-bandwidth k of the
    stage-interleaved KKT band, factorized by LAPACK gbsv (partial pivoting
    widens the upper band to 2k) and solved for one right-hand side.
    """
    A, B = args[3], args[4]
    T, nx, nu = A.shape[0], A.shape[1], B.shape[2]
    n = T * (2 * nx + nu) + 2 * nx
    k = 2 * nx + nu - 1
    rec.count("banded.solve_lq_kkt.flops_computed",
              n * (2 * k * (2 * k) + k) + 2 * n * (k + 2 * k))
    rec.count("banded.solve_lq_kkt.band_bytes_computed", 8 * n * (3 * k + 1))


def _band_cholesky_cost(rec: SpanRecorder, span: Span, args: tuple, out) -> None:
    """Operation count and band storage of the Cholesky inside the test.

    Order n = T (n_x + n_u) + n_x and half-bandwidth k = n_u + 2 n_x - 1,
    factorized by LAPACK pbtrf: per column a square root, k divisions and a
    rank-one update of a k x k triangle.
    """
    A, B = args[3], args[4]
    T, nx, nu = A.shape[0], A.shape[1], B.shape[2]
    n = T * (nx + nu) + nx
    k = nx + nu + nx - 1
    rec.count("banded.definiteness_pivots_ok.flops_computed", n * (k + 1) ** 2)
    rec.count("banded.definiteness_pivots_ok.band_bytes_computed", 8 * n * (k + 1))


def _gamma_applied(rec: SpanRecorder, span: Span, args: tuple, out) -> None:
    if out.gamma_applied > 0:
        rec.count("newton.gamma_iters", 1)


def _inner_iterations(rec: SpanRecorder, span: Span, args: tuple, out) -> None:
    parent = span.parent
    if parent is not None and parent.name == "schwarz.solve_nonlinear_subproblem":
        rec.count("schwarz.inner_iters", out.iterations)


# (module, function, span name, after-hook).  Every binding of the function
# in FOTD_MODULES is replaced, so callers that imported it by name see the
# wrapper as well.
TARGETS = (
    ("fotd.problem", "eval_merit", "problem.eval_merit", None),
    ("fotd.problem", "eval_merit_gradient", "problem.eval_merit_gradient", None),
    ("fotd.problem", "eval_lagrangian_gradient",
     "problem.eval_lagrangian_gradient", None),
    ("fotd.problem", "stage_hessian_blocks", "problem.stage_hessian_blocks", None),
    ("fotd.banded", "solve_lq_kkt", "banded.solve_lq_kkt", _band_lu_cost),
    ("fotd.banded", "definiteness_pivots_ok", "banded.definiteness_pivots_ok",
     _band_cholesky_cost),
    ("fotd.newton", "assemble_newton_data", "newton.assemble_newton_data", None),
    ("fotd.newton", "modify_hessian", "newton.modify_hessian", _gamma_applied),
    ("fotd.newton", "check_reduced_hessian", "newton.check_reduced_hessian", None),
    ("fotd.newton", "solve_full_newton", "newton.solve_full_newton", None),
    ("fotd.decomposition", "approximate_direction",
     "decomposition.approximate_direction", None),
    ("fotd.decomposition", "assemble_subproblem",
     "decomposition.assemble_subproblem", None),
    ("fotd.decomposition", "solve_subproblem", "decomposition.solve_subproblem", None),
    ("fotd.driver", "solve", "driver.solve", _inner_iterations),
    ("fotd.driver", "line_search", "driver.line_search", None),
    ("fotd.schwarz", "schwarz_solve", "schwarz.schwarz_solve", None),
    ("fotd.schwarz", "solve_nonlinear_subproblem",
     "schwarz.solve_nonlinear_subproblem", None),
    ("fotd.schwarz", "truncated_problem", "schwarz.truncated_problem", None),
    ("fotd.benchmarks", "make_toy_problem", "benchmarks.make_problem", None),
    ("fotd.benchmarks", "make_plate_problem", "benchmarks.make_problem", None),
    ("fotd.benchmarks", "make_initializations",
     "benchmarks.make_initializations", None),
)


def _timed(rec: SpanRecorder, name: str, fn: Callable,
           after: Optional[AfterHook]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(rec, span, args, out)
        return out

    return wrapper


@contextmanager
def instrument(rec: SpanRecorder) -> Iterator[None]:
    """Replace every traced function's bindings with wrappers; restore on exit."""
    modules = [importlib.import_module(m) for m in FOTD_MODULES]
    saved = []
    try:
        for mod_name, fn_name, span_name, after in TARGETS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = _timed(rec, span_name, original, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def wrap_problem(rec: SpanRecorder, p):
    """Copy of ``p`` whose callbacks count and time into the innermost span."""
    def timed(index: int, fn: Callable) -> Callable:
        def callback(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                rec.callback(index, perf_counter() - t0)
        return callback

    return replace(p, **{name: timed(i, getattr(p, name))
                         for i, name in enumerate(CALLBACKS)})
