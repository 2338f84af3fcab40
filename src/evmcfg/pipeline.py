"""One analysis run: decode, solve, build the replica graph, check it.

The CLI, the experiment scripts and the test fixtures all run the
pipeline through analyze, so its phase order and the verdict rule live here.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .bytecode import Program, decode_bytecode
from .cfg import Cfg, build_cfg
from .equations import EquationSystem, solve
from .oracle import DEFAULT_MAX_STEPS, TraceSet, Verdict
from .oracle import check_jumps_to, check_walk, enumerate_states


class Analysis(NamedTuple):
    """Artifacts of one run; traces and verdicts are None without the check."""

    program: Program
    system: EquationSystem
    cfg: Cfg
    traces: TraceSet | None
    jumps_to: Verdict | None
    walk: Verdict | None

    @property
    def verdict(self) -> str | None:
        """Both checkers merged: fail beats inconclusive, which beats pass."""
        if self.jumps_to is None or self.walk is None:
            return None
        statuses = {self.jumps_to.status, self.walk.status}
        return next(s for s in ("fail", "inconclusive", "pass") if s in statuses)


def analyze(
    program: Program | str,
    *,
    check: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: Callable[[str], None] | None = None,
) -> Analysis:
    """Run the pipeline on a Program or its hex text.

    Raises AnalysisError for bad input, an unresolved jump, an exceeded
    solver budget, or a concrete state the checker cannot step.
    """
    if isinstance(program, str):
        program = decode_bytecode(program)
    system = solve(program, trace=trace)
    cfg = build_cfg(system)
    traces = jumps_to = walk = None
    if check:
        traces = enumerate_states(program, max_steps=max_steps)
        jumps_to = check_jumps_to(program, system, traces)
        walk = check_walk(program, cfg, system, traces)
    return tuple.__new__(Analysis, (program, system, cfg, traces, jumps_to, walk))
