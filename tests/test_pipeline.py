"""The analyze entry point and its merged verdict."""

from __future__ import annotations

import itertools
import sys

from evmcfg import Analysis, GeneratorShape, Verdict, analyze, generate_program
from evmcfg.oracle import Coverage

from conftest import BRANCH_HEX, LINEAR_HEX, SHARED_HEX

STATUSES = ("pass", "inconclusive", "fail")


def test_verdict_precedence():
    coverage = Coverage(0, 0, False)
    for first, second in itertools.product(STATUSES, repeat=2):
        analysis = Analysis(
            None, None, None, None,
            Verdict(first, (), coverage),
            Verdict(second, (), coverage),
        )
        assert analysis.verdict == max(first, second, key=STATUSES.index)


def test_without_check_leaves_check_fields_empty():
    analysis = analyze(LINEAR_HEX, check=False)
    assert analysis.traces is None
    assert analysis.jumps_to is None
    assert analysis.walk is None
    assert analysis.verdict is None
    assert len(analysis.cfg.vertices) == 2


def test_scaled_program_passes_the_check():
    # The benchmark's largest program: 800 branches and 40 callees called
    # from 20 sites each give more than 2^800 maximal traces, while each
    # checker visits the 36,737 states of its closure once.
    shape = GeneratorShape(branch_count=800, callee_count=40, sites_per_callee=20)
    analysis = analyze(generate_program(1, shape))
    assert analysis.verdict == "pass"
    assert analysis.jumps_to.coverage.states == 36_737


def python_calls(hex_text: str) -> int:
    """Python-level calls, generator resumptions included, in one analyze."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        analyze(hex_text)
    finally:
        sys.setprofile(None)
    return calls


def test_analysis_fixed_cost_stays_low():
    # On tiny programs each analysis's fixed cost outweighs its fixpoint, so
    # count the Python-level calls one checked analyze makes. The bounds are
    # the counts on Python 3.11, after the result records became NamedTuples
    # built by tuple.__new__ and the start state was built once (77/91/141
    # before). They are upper bounds: Python 3.12 and later inline
    # comprehensions, whose calls then go uncounted.
    bounds = {LINEAR_HEX: 59, BRANCH_HEX: 73, SHARED_HEX: 123}
    for hex_text, bound in bounds.items():
        analyze(hex_text)  # nothing left to set up on first use
        assert python_calls(hex_text) <= bound
