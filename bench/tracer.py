"""Tracing of calls into evmcfg's layers, installed from outside the package.

A Tracer replaces every module-level binding of a layer's public function
with a wrapper while it is installed, and puts the originals back when it
is removed. Two kinds of wrapper exist:

  * span wrappers record one span per call: input id, span id, parent span
    id, name, start and end. Layer self time is a span's duration minus the
    durations of its direct child spans.
  * counting wrappers, for the hot inner calls (update_stack, join, step),
    only add to a call count and a time total keyed by the innermost open
    span, because one span per call would dwarf the work being measured.

Spans stay in memory until write_spans is called at the end of a run.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name). Every binding of the same function object
# in any loaded evmcfg module is wrapped, so calls made inside the package
# (solve -> partition_blocks, enumerate_states -> step) are seen as well.
SPANS = (
    ("bytecode", "decode_bytecode", "bytecode.decode"),
    ("blocks", "partition_blocks", "blocks.partition"),
    ("equations", "solve", "equations.solve"),
    ("equations", "verify_fixpoint", "equations.verify_fixpoint"),
    ("cfg", "build_cfg", "cfg.build"),
    ("cfg", "export_json", "cfg.export_json"),
    ("cfg", "export_dot", "cfg.export_dot"),
    ("oracle", "enumerate_states", "oracle.enumerate"),
    ("oracle", "check_jumps_to", "oracle.check_jumps_to"),
    ("oracle", "check_walk", "oracle.check_walk"),
)
COUNTED = (
    ("transfer", "update_stack", "transfer.update_stack"),
    ("domain", "join", "domain.join"),
    ("oracle", "step", "oracle.step"),
)


def _evmcfg_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "evmcfg" or name.startswith("evmcfg.")
    ]


def _binding_sites(original) -> list[tuple[object, str]]:
    return [
        (module, attr)
        for module in _evmcfg_modules()
        for attr, value in vars(module).items()
        if value is original
    ]


class Tracer:
    """Span and call-count recorder for one benchmark run."""

    def __init__(self):
        # (input id, span id, parent span id or -1, name, start, end)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        # input id -> {(function, enclosing span name): [calls, seconds]}
        self.counts: dict[int, dict[tuple[str, str], list]] = {}
        self._open: list[tuple[int, str]] = []
        self._input = -1
        self._next_span = 0
        self._current: dict[tuple[str, str], list] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, attr, name in SPANS:
            original = getattr(sys.modules[f"evmcfg.{module_name}"], attr)
            wrapper = self._span_wrapper(name, original)
            self._patches += [(m, a, original, wrapper) for m, a in _binding_sites(original)]
        for module_name, attr, name in COUNTED:
            original = getattr(sys.modules[f"evmcfg.{module_name}"], attr)
            wrapper = self._count_wrapper(name, original)
            self._patches += [(m, a, original, wrapper) for m, a in _binding_sites(original)]

    def _span_wrapper(self, name, fn):
        spans = self.spans
        opened = self._open

        def traced(*args, **kwargs):
            # solve's mode argument names the span, so the naive reference
            # solver is timed apart from the worklist solver.
            mode = kwargs.get("mode")
            span_name = name if mode in (None, "worklist") else f"{name}_{mode}"
            span_id = self._next_span
            self._next_span += 1
            parent = opened[-1][0] if opened else -1
            opened.append((span_id, span_name))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                opened.pop()
                spans.append((self._input, span_id, parent, span_name, start, end))

        return traced

    def _count_wrapper(self, name, fn):
        opened = self._open

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (name, opened[-1][1] if opened else "-")
                cell = self._current.get(key)
                if cell is None:
                    self._current[key] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed

        return counted

    def begin(self, input_id: int) -> None:
        """Start recording one input and install the wrappers."""
        self._input = input_id
        self._open.clear()
        self._current = self.counts.setdefault(input_id, {})
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def end(self) -> None:
        """Put the original functions back."""
        for module, attr, original, _wrapper in self._patches:
            setattr(module, attr, original)
        self._open.clear()

    def self_times(self, inputs: set[int]) -> tuple[dict[str, float], dict[str, int]]:
        """Total self seconds and call count per span name over inputs."""
        child_time: dict[tuple[int, int], float] = defaultdict(float)
        for input_id, _span, parent, _name, start, end in self.spans:
            if input_id in inputs and parent >= 0:
                child_time[(input_id, parent)] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for input_id, span, _parent, name, start, end in self.spans:
            if input_id in inputs:
                totals[name] += end - start - child_time.get((input_id, span), 0.0)
                calls[name] += 1
        return totals, calls

    def counted(self, inputs: set[int]) -> dict[tuple[str, str], list]:
        """[calls, seconds] per (function, enclosing span) over inputs."""
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for input_id in inputs:
            for key, (calls, seconds) in self.counts.get(input_id, {}).items():
                out[key][0] += calls
                out[key][1] += seconds
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("input\tspan\tparent\tname\tstart_s\tend_s\n")
            for input_id, span, parent, name, start, end in self.spans:
                out.write(f"{input_id}\t{span}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
