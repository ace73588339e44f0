"""In-memory spans around calls into the rsd_market layers, and the per-layer
metrics derived from them.

Spans are recorded from this file only: while a traced op runs, the public
functions of ``market``, ``mechanisms``, ``equilibrium``, ``housing`` and
``two_agent`` are replaced, at the module attributes their callers look them
up through, by wrappers that open a span around the original. Nothing under
``src/`` changes, and with no op being traced the originals are in place.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from rsd_market import equilibrium, housing, market, mechanisms, two_agent


class Span:
    """One call into a layer: (name, start, end, parent, op id) plus its counts."""

    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None", op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Collects spans for the ops it is asked to trace.

    Each thread keeps its own stack of open spans. A span opened in a thread
    with an empty stack (a ``batch_run`` worker) hangs under the op's root.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.op_family: dict[int, str] = {}
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(name, time.perf_counter() - self.t0, parent, self._root.op)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter() - self.t0
        self._stack().pop()

    def count(self, key: str, n: int = 1) -> None:
        """Attribute a count to the innermost open span of this thread."""
        stack = self._stack()
        target = stack[-1] if stack else self._root
        target.add(key, n)

    @contextmanager
    def op(self, op_id: int, family: str):
        """Trace one op: open its root span and instrument the layers."""
        self.op_family[op_id] = family
        root = Span("op", time.perf_counter() - self.t0, None, op_id)
        self._root = root
        self.spans.append(root)
        self._stack().append(root)
        try:
            with _instrumented(self):
                yield root
        finally:
            root.end = time.perf_counter() - self.t0
            self._stack().pop()
            self._root = None

    def write(self, path: Path, untraced: list[tuple[int, float, float]]) -> None:
        """Write every span, then the untraced op intervals, as JSON lines."""
        ids = {id(s): k for k, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for k, s in enumerate(self.spans):
                parent = None if s.parent is None else ids[id(s.parent)]
                fh.write(json.dumps([k, s.name, s.start, s.end, parent, s.op, s.counts]) + "\n")
            for op_id, start, end in untraced:
                fh.write(json.dumps([None, "op.untraced", start, end, None, op_id, {}]) + "\n")


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn, on_result=None):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_result is not None:
            on_result(span, args, kwargs, result)
        return result

    return wrapper


def _counted(tracer: Tracer, key: str, fn, size=None):
    def wrapper(*args, **kwargs):
        tracer.count(key, 1 if size is None else size(args))
        return fn(*args, **kwargs)

    return wrapper


def _cells(span, args, kwargs, result):
    span.add("cells", int(np.size(result)))


def _aftermarket_trades(span, args, kwargs, result):
    span.add("trades", len(result[2]))


def _batch_workers(span, args, kwargs, result):
    parallelism = kwargs.get("parallelism", args[3] if len(args) > 3 else 1)
    span.add("workers", int(parallelism))


def _patch_table(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every hook a traced op installs."""
    hashed = market.HashedNormalValuations
    table = [
        (hashed, "row", _spanned(tracer, "market.row", hashed.row, _cells)),
        (hashed, "values", _spanned(tracer, "market.values", hashed.values, _cells)),
        # Rows read through the instance: proposers visited by the aftermarket,
        # valuation rows read by the Bellman-Ford sweep in ce_prices.
        (market.MarketInstance, "row", _counted(tracer, "instance_rows", market.MarketInstance.row)),
        (equilibrium, "linear_sum_assignment",
         _spanned(tracer, "equilibrium.lsa", equilibrium.linear_sum_assignment)),
        (mechanisms, "expost_ce_transfers",
         _spanned(tracer, "mechanisms.expost_ce", mechanisms.expost_ce_transfers)),
        (housing, "run_housing_sim", _spanned(tracer, "housing.run_housing_sim", housing.run_housing_sim)),
        (housing, "generate_instance",
         _spanned(tracer, "housing.generate_instance", housing.generate_instance)),
        (housing, "batch_run", _spanned(tracer, "housing.batch_run", housing.batch_run, _batch_workers)),
        (two_agent, "acceptance_curve",
         _spanned(tracer, "two_agent.acceptance_curve", two_agent.acceptance_curve)),
        (two_agent, "acceptance_probability",
         _spanned(tracer, "two_agent.acceptance_probability", two_agent.acceptance_probability)),
        (two_agent, "optimal_offer", _spanned(tracer, "two_agent.optimal_offer", two_agent.optimal_offer)),
        (two_agent, "offer_distribution",
         _spanned(tracer, "two_agent.offer_distribution", two_agent.offer_distribution)),
        (two_agent, "first_mover_expected_utility",
         _spanned(tracer, "two_agent.first_mover", two_agent.first_mover_expected_utility)),
    ]
    # Functions imported by name into a caller's module are patched there too.
    for owner in (mechanisms, housing):
        table.append((owner, "sd_assignment",
                      _spanned(tracer, "mechanisms.sd_assignment", mechanisms.sd_assignment)))
        table.append((owner, "pairwise_aftermarket",
                      _spanned(tracer, "mechanisms.aftermarket", mechanisms.pairwise_aftermarket,
                               _aftermarket_trades)))
    for owner in (mechanisms, equilibrium):
        table.append((owner, "max_welfare_allocation",
                      _spanned(tracer, "equilibrium.max_welfare", equilibrium.max_welfare_allocation)))
        table.append((owner, "ce_prices", _spanned(tracer, "equilibrium.ce_prices", equilibrium.ce_prices)))
    for dist in (two_agent.Uniform, two_agent.TruncatedNormal):
        table.append((dist, "cdf", _counted(tracer, "cdf_points", dist.cdf,
                                            size=lambda args: int(np.size(args[1])))))
    return table


@contextmanager
def _instrumented(tracer: Tracer):
    table = _patch_table(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in table]
    try:
        for owner, attr, hook in table:
            setattr(owner, attr, hook)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            p = s.parent
            children[id(p)].append((max(s.start, p.start), min(s.end, p.end)))
    return {id(s): (s.end - s.start) - _union_length(children[id(s)]) for s in spans}


def descendants_named(spans: list[Span], root_name: str, name: str) -> list[int]:
    """Per span named ``root_name``: how many spans named ``name`` it encloses."""
    totals: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name != name:
            continue
        node = s.parent
        while node is not None:
            if node.name == root_name:
                totals[id(node)] += 1
            node = node.parent
    return [totals[id(s)] for s in spans if s.name == root_name]


def op_counts(spans: list[Span]) -> dict[int, dict[str, int]]:
    """Every count and span-call tally summed per op: these repeat exactly."""
    out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        out[s.op]["calls:" + s.name] += 1
        for key, n in s.counts.items():
            if key != "workers":
                out[s.op][f"{s.name}:{key}"] += n
    return {op: dict(c) for op, c in out.items()}


def layer_metrics(
    tracer: Tracer, untraced: list[tuple[int, float, float]]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over every traced op, as name -> (value, unit).

    ``untraced`` holds (op id, start, end) of the same ops run untraced; the
    tracing overhead is the traced op time over that, minus one.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def pick(name, family=None):
        return [s for s in by_name[name] if family is None or tracer.op_family[s.op] == family]

    def busy(name, family=None):
        return float(sum(s.end - s.start for s in pick(name, family)))

    def self_s(name):
        return float(sum(selfs[id(s)] for s in pick(name)))

    def counted(name, key, family=None):
        return int(sum(s.counts.get(key, 0) for s in pick(name, family)))

    rows = len(pick("market.row"))
    row_cells = counted("market.row", "cells")
    row_s = busy("market.row")
    trades = counted("mechanisms.aftermarket", "trades")
    visited = counted("mechanisms.aftermarket", "instance_rows")
    batch_capacity = sum((s.end - s.start) * s.counts.get("workers", 1)
                         for s in pick("housing.batch_run"))
    batch_ops = {s.op for s in pick("housing.batch_run")}
    in_batches = sum(s.end - s.start for s in pick("housing.run_housing_sim") if s.op in batch_ops)

    m: dict[str, tuple[float, str]] = {
        "market.rows": (rows, "count"),
        "market.row_cells": (row_cells, "count"),
        "market.row_s": (row_s, "s"),
        "market.ns_per_cell": (row_s / row_cells * 1e9 if row_cells else 0.0, "ns"),
        "market.cells": (counted("market.values", "cells"), "count"),
        "market.values_s": (busy("market.values"), "s"),
        "mechanisms.sd_assignment_s": (busy("mechanisms.sd_assignment"), "s"),
        "mechanisms.sd_assignment_self_s": (self_s("mechanisms.sd_assignment"), "s"),
        "mechanisms.aftermarket_s": (busy("mechanisms.aftermarket"), "s"),
        "mechanisms.aftermarket_self_s": (self_s("mechanisms.aftermarket"), "s"),
        "mechanisms.trades": (trades, "count"),
        "mechanisms.trades_per_agent": (trades / visited if visited else 0.0, "ratio"),
        "mechanisms.expost_ce_s": (busy("mechanisms.expost_ce"), "s"),
        "housing.generate_instance_s": (busy("housing.generate_instance"), "s"),
        "housing.run_housing_sim_self_s": (self_s("housing.run_housing_sim"), "s"),
        "housing.batch_overlap": (in_batches / batch_capacity if batch_capacity else 0.0, "ratio"),
    }
    for family in ("normal", "ties"):
        m[f"equilibrium.max_welfare_s.{family}"] = (busy("equilibrium.max_welfare", family), "s")
        m[f"equilibrium.lsa_calls.{family}"] = (len(pick("equilibrium.lsa", family)), "count")
        m[f"equilibrium.lsa_s.{family}"] = (busy("equilibrium.lsa", family), "s")
        m[f"equilibrium.ce_prices_s.{family}"] = (busy("equilibrium.ce_prices", family), "s")
        m[f"equilibrium.ce_prices_rows.{family}"] = (
            counted("equilibrium.ce_prices", "instance_rows", family), "count")
    cdf_points = sum(s.counts.get("cdf_points", 0) for s in spans)
    m.update({
        "two_agent.acceptance_curve_calls": (len(pick("two_agent.acceptance_curve")), "count"),
        "two_agent.acceptance_curve_s": (busy("two_agent.acceptance_curve"), "s"),
        "two_agent.cdf_points": (cdf_points, "count"),
        "two_agent.acceptance_probability_calls": (
            len(pick("two_agent.acceptance_probability")), "count"),
        "two_agent.acceptance_probability_s": (busy("two_agent.acceptance_probability"), "s"),
        "two_agent.optimal_offer_self_s": (self_s("two_agent.optimal_offer"), "s"),
        "two_agent.offer_distribution_self_s": (self_s("two_agent.offer_distribution"), "s"),
        "trace.overhead_frac": (busy("op") / sum(end - start for _, start, end in untraced) - 1.0, "ratio"),
    })
    return m
