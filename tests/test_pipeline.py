"""The analyze entry point and its merged verdict."""

from __future__ import annotations

import itertools

from evmcfg import Analysis, Verdict, analyze
from evmcfg.oracle import Coverage

from conftest import LINEAR_HEX

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

