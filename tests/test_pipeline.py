"""The analyze entry point and its merged verdict."""

from __future__ import annotations

import itertools
import json
import sys

from hypothesis import given, settings

from evmcfg import (
    Analysis,
    GeneratorShape,
    Verdict,
    analyze,
    build_cfg,
    decode_bytecode,
    export_json,
    generate_program,
    solve,
)
from evmcfg.errors import AnalysisError, StackArityError
from evmcfg.oracle import Coverage

from conftest import BRANCH_HEX, LINEAR_HEX, SHARED_HEX, front_end_bytes

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
    # the counts on Python 3.11, after build_cfg began numbering each
    # block's contexts in one dict read from the solved states (44/53/77
    # before; 56/70/119 before the closure began folding each run in one
    # frame; 59/73/123 before the worklist pulled blocks from the scan as it
    # entered them; 77/91/141 before the result records became
    # NamedTuples). They are upper bounds: Python 3.12 and later inline
    # comprehensions, whose calls then go uncounted.
    bounds = {LINEAR_HEX: 37, BRANCH_HEX: 44, SHARED_HEX: 66}
    for hex_text, bound in bounds.items():
        analyze(hex_text)  # nothing left to set up on first use
        assert python_calls(hex_text) <= bound


def python_steps(run) -> int:
    """Python-level calls, generator resumptions included, plus the lines
    and returns they run, in one call of run. A loop inside one frame makes
    no calls, but its lines show."""
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        steps += 1
        return count

    sys.settrace(count)
    try:
        run()
    finally:
        sys.settrace(None)
    return steps


def test_checked_analysis_steps_per_instruction_stay_low():
    # Calls miss work done in a loop inside one frame; the lines it runs do
    # not. Bound the steps of one checked analyze per instruction, on a
    # generated program of 98 and of 1,048 instructions. On Python 3.11
    # they are 89.65 and 110.14; the bounds add 5 %. They were 90.86 and
    # 111.54 before build_cfg numbered each block's contexts in one dict,
    # and 101.62 and 125.66 with a closure that stepped each interior
    # instruction through a call. Python 3.12 and later inline
    # comprehensions, so they count fewer.
    shapes = {
        GeneratorShape(): 94,
        GeneratorShape(branch_count=40, callee_count=8, sites_per_callee=4): 115,
    }
    for shape, bound in shapes.items():
        program = generate_program(1, shape)
        analyze(program)  # nothing left to set up on first use
        steps = python_steps(lambda: analyze(program))
        assert steps <= bound * len(program.instructions)


def test_graph_build_steps_per_instruction_stay_low():
    # build_cfg wires each move with two plain dict lookups and numbers each
    # block's contexts once, without a call per block. On Python 3.11 its
    # steps per instruction are 1.72 and 2.14 on the programs above; the
    # bounds add 5 % and stay below the 2.93 and 3.53 of a build that asked
    # the system for each block's entry contexts.
    shapes = {
        GeneratorShape(): 1.81,
        GeneratorShape(branch_count=40, callee_count=8, sites_per_callee=4): 2.25,
    }
    for shape, bound in shapes.items():
        program = generate_program(1, shape)
        system = solve(program)
        build_cfg(system)  # nothing left to set up on first use
        steps = python_steps(lambda: build_cfg(system))
        assert steps <= bound * len(program.instructions)


def test_failing_solve_cost_does_not_grow_with_the_code_after_it():
    # ADD at pc 0 underflows in the first block, so the JUMPDESTs after it
    # are never scanned, however many there are.
    def steps_to_fail(n: int) -> int:
        program = decode_bytecode("01" + "5b" * n)
        errors = []

        def run():
            try:
                solve(program)
            except AnalysisError as err:
                errors.append(err)

        run()  # nothing left to set up on first use
        steps = python_steps(run)
        assert [(type(e), e.pc) for e in errors] == [(StackArityError, 0)] * 2
        return steps

    assert steps_to_fail(10) == steps_to_fail(10_000)


def test_solved_system_lists_every_block_after_a_halt():
    # STOP at pc 0 enters no other block, yet the finished scan lists them.
    n = 10_000
    system = solve(decode_bytecode("00" + "5b" * n))
    assert len(system.blocks) == n + 1
    document = json.loads(export_json(build_cfg(system), system))
    assert [b["start"] for b in document["blocks"]] == list(range(n + 1))


@settings(max_examples=300, deadline=None)
@given(front_end_bytes())
def test_random_bytes_end_in_an_analysis_or_a_typed_error(raw: bytes):
    # Nothing but an AnalysisError escapes: no StopIteration from the block
    # scan, no KeyError from a lookup.
    try:
        result = analyze(raw.hex())
    except AnalysisError:
        return
    assert type(result) is Analysis
