"""Spans around calls into the program's public functions, and the per-layer
numbers derived from them.

The benchmark records spans from outside the program: `installed` swaps
each traced function for a wrapper in every `dmsiplan` module namespace
that holds it (the defining module, the package re-export, and each module
that imported it by name), so a call is recorded whichever name the caller
used.  `gf.Field` is traced through `Field.__init__`, since replacing the
class itself would break `isinstance` checks.  Per-element field arithmetic
is not wrapped: the wrapper would cost more than the work, so it shows up
as self time of the calling `coding` span instead.

Spans stay in memory while the run lasts and are written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import dmsiplan.gf
import dmsiplan.oracle

ORIGINAL = "__perfbench_original__"


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _cells(args, kwargs, result) -> dict:
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"cells": len(rows) * (len(rows[0]) if len(rows) else 0)}


def _edges(args, kwargs, result) -> dict:
    return {"edges": len(result.edge_head) // 2}


def _flow(args, kwargs, result) -> dict:
    return {"flow_units": result}


def _candidates(args, kwargs, result) -> dict:
    instance = args[0] if args else kwargs["instance"]
    space = dmsiplan.oracle.search_space_size(instance.want_counts(), result.m_range)
    return {"candidates": result.matrices_examined, "space": space}


# (module, attribute, attribute hook) for every traced public function
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("instance", "parse_instance", None),
    ("assignment", "optimal_assignment", None),
    ("assignment", "closed_form_delay", None),
    ("assignment", "total_delay", None),
    ("assignment", "reduce_to_exact_weights", None),
    ("assignment", "transform_to_optimal", None),
    ("coding", "construct_code", None),
    ("coding", "decodability_check", None),
    ("coding", "matrix_rank", _cells),
    ("coding", "encode", None),
    ("coding", "decode", None),
    ("netflow", "build_network", _edges),
    ("netflow", "max_flow", _flow),
    ("netflow", "is_solvable", None),
    ("oracle", "brute_force_optimum", _candidates),
    ("cli", "main", None),
    ("cli", "build_plan", None),
    ("cli", "run_simulation", None),
)
FIELD_SPAN = "gf.Field"


class Tracer:
    """Collects spans while `op` is set; calls outside an op pass through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1].span_id if self._stack else None
            span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "name": s.name,
                            "parent": s.parent,
                            "op": s.op,
                            "start": s.start,
                            "end": s.end,
                            **({"attrs": s.attrs} if s.attrs else {}),
                        }
                    )
                    + "\n"
                )


def _program_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "dmsiplan" or name.startswith("dmsiplan."))
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every traced function for its wrapper; always restore."""
    replaced: list[tuple[object, str, object]] = []
    field_init = dmsiplan.gf.Field.__init__
    try:
        for module_name, attr, hook in TARGETS:
            original = getattr(importlib.import_module(f"dmsiplan.{module_name}"), attr)
            wrapper = tracer.wrap(f"{module_name}.{attr}", original, hook)
            for module in _program_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, name, original))
                        setattr(module, name, wrapper)
        dmsiplan.gf.Field.__init__ = tracer.wrap(FIELD_SPAN, field_init)
        yield tracer
    finally:
        dmsiplan.gf.Field.__init__ = field_init
        for module, name, original in reversed(replaced):
            setattr(module, name, original)


# ---------------------------------------------------------------- derivation


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span's interval not covered by any of its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-run totals named as in BENCHMARK.json's per_layer list."""
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    self_ms: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, dict[str, int]] = {}
    attempts = 0
    for s in spans:
        self_ms[s.name] = self_ms.get(s.name, 0.0) + own[s.span_id] * 1000
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        bucket = attrs.setdefault(s.name, {})
        for key, value in s.attrs.items():
            bucket[key] = bucket.get(key, 0) + value
        if (
            s.name == "coding.decodability_check"
            and s.parent is not None
            and by_id[s.parent].name == "coding.construct_code"
        ):
            attempts += 1

    def ms(name: str) -> float:
        return self_ms.get(name, 0.0)

    def count(name: str) -> int:
        return calls.get(name, 0)

    def attr(name: str, key: str) -> int:
        return attrs.get(name, {}).get(key, 0)

    oracle = "oracle.brute_force_optimum"
    candidates = attr(oracle, "candidates")
    oracle_s = total_s.get(oracle, 0.0)
    space = attr(oracle, "space")
    return {
        "instance.parse_instance.self_ms": ms("instance.parse_instance"),
        "instance.parse_instance.calls": count("instance.parse_instance"),
        "assignment.optimal_assignment.self_ms": ms("assignment.optimal_assignment"),
        "assignment.closed_form_delay.self_ms": ms("assignment.closed_form_delay"),
        "assignment.total_delay.self_ms": ms("assignment.total_delay"),
        "assignment.reduce_to_exact_weights.self_ms": ms("assignment.reduce_to_exact_weights"),
        "assignment.transform_to_optimal.self_ms": ms("assignment.transform_to_optimal"),
        "gf.Field.self_ms": ms(FIELD_SPAN),
        "gf.Field.calls": count(FIELD_SPAN),
        "coding.construct_code.self_ms": ms("coding.construct_code"),
        "coding.construct_code.attempts": attempts,
        "coding.construct_code.accept_ratio": (
            count("coding.construct_code") / attempts if attempts else 0.0
        ),
        "coding.decodability_check.self_ms": ms("coding.decodability_check"),
        "coding.decodability_check.calls": count("coding.decodability_check"),
        "coding.matrix_rank.self_ms": ms("coding.matrix_rank"),
        "coding.matrix_rank.calls": count("coding.matrix_rank"),
        "coding.matrix_rank.cells": attr("coding.matrix_rank", "cells"),
        "coding.encode.self_ms": ms("coding.encode"),
        "coding.decode.self_ms": ms("coding.decode"),
        "coding.decode.calls": count("coding.decode"),
        "netflow.build_network.self_ms": ms("netflow.build_network"),
        "netflow.build_network.edges": attr("netflow.build_network", "edges"),
        "netflow.max_flow.self_ms": ms("netflow.max_flow"),
        "netflow.max_flow.flow_units": attr("netflow.max_flow", "flow_units"),
        "netflow.is_solvable.self_ms": ms("netflow.is_solvable"),
        "oracle.brute_force_optimum.self_ms": ms(oracle),
        "oracle.brute_force_optimum.candidates": candidates,
        "oracle.candidates_per_s": candidates / oracle_s if oracle_s else 0.0,
        "oracle.examined_ratio": candidates / space if space else 0.0,
        "cli.main.self_ms": ms("cli.main"),
        "cli.build_plan.self_ms": ms("cli.build_plan"),
        "cli.run_simulation.self_ms": ms("cli.run_simulation"),
    }
