"""Seeded inputs, the per-input pipeline and the output checks of each workload.

Every workload is a closed loop: one caller hands evmcfg the next hex string
only after the previous one has finished. The program under test sees only
the generated hex, never the seed.

  * corpus: generated call/branch programs under random_shape, the traffic
    of the soundness campaign, run through the whole pipeline with both
    checkers. Trace enumeration and the checkers dominate.
  * scaled: one program at the largest shape of the roadmap's bench corpus
    (800 branches, 40 callees x 20 sites), analysed without the check and
    repeated. The worklist solver dominates and the oracle is idle. The
    program is generator seed 1 whatever the run's seed: at this shape the
    solve time of other generator seeds ranges from 3.5 s to 13.6 s, which
    would drown any bound in the choice of program.
  * fuzz: short random byte strings biased towards JUMPDEST, JUMP, JUMPI and
    PUSH1 of an in-range pc, after a fixed set of known inputs (the README
    fixtures, a loop, and three inputs that hang the solver). Per-call and
    decode overhead dominate, about half the inputs end in typed errors, and
    a per-input CPU-time limit turns hangs into counted failures. A run
    classifies one seeded batch of inputs and then replays it until its time
    is up, so the inputs it attempts and the ones that fail depend only on
    the seed, not on how fast the machine ran.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import signal
from dataclasses import dataclass
from time import thread_time
from typing import Callable, Iterator

from evmcfg import bytecode, cfg, equations, oracle
from evmcfg.errors import AnalysisError

FIXTURES = (
    "6003565b00",
    "6001600657005b00",
    "60056010565b600b6010565b00fefefe5b56",
)
# The loop is inconclusive for the trace-based checkers; the last three grow
# entry contexts at a pc without bound, so solve never returns.
FUZZ_FIXED = FIXTURES + (
    "5b600160005700",
    "5b6000600056",
    "5b5f600056c091611500575f008091815b81",
    "600b5b6007600256585b565b",
)

SCALED_SHAPE = {"branch_count": 800, "callee_count": 40, "sites_per_callee": 20}
TINY_SCALED_SHAPE = {"branch_count": 10, "callee_count": 5, "sites_per_callee": 3}
SCALED_PROGRAM_SEED = 1

# Outcomes that count as failed, beside any failed output check.
FAILED_OUTCOMES = ("fail", "timeout", "other")
# Outcomes without a definite answer.
UNDECIDED_OUTCOMES = ("inconclusive", "timeout", "other")


@dataclass(frozen=True)
class Size:
    """Run size: the full benchmark or the smoke test's miniature."""

    name: str
    corpus_prefix: int
    naive_subset: int
    fuzz_prefix: int
    scaled_shape: dict


SIZES = {
    "full": Size("full", corpus_prefix=300, naive_subset=10, fuzz_prefix=5000,
                 scaled_shape=SCALED_SHAPE),
    "tiny": Size("tiny", corpus_prefix=10, naive_subset=2, fuzz_prefix=100,
                 scaled_shape=TINY_SCALED_SHAPE),
}


def corpus_inputs(seed: int, size: Size) -> Iterator[str]:
    """Generator seeds seed*10^6, seed*10^6 + 1, ... under random_shape."""
    for index in itertools.count():
        program_seed = seed * 1_000_000 + index
        shape = oracle.random_shape(random.Random(program_seed))
        yield oracle.generate_program(program_seed, shape).to_bytes().hex()


def scaled_inputs(seed: int, size: Size) -> Iterator[str]:
    shape = oracle.GeneratorShape(**size.scaled_shape)
    program = oracle.generate_program(SCALED_PROGRAM_SEED, shape)
    return itertools.repeat(program.to_bytes().hex())


def _fuzz_bytes(rng: random.Random) -> str:
    length = rng.randint(1, 64)
    out = bytearray()
    while len(out) < length:
        draw = rng.random()
        if draw < 0.12:
            out.append(bytecode.JUMPDEST_BYTE)
        elif draw < 0.20:
            out.append(bytecode.JUMP_BYTE)
        elif draw < 0.28:
            out.append(bytecode.JUMPI_BYTE)
        elif draw < 0.45:
            out += bytes((0x60, rng.randrange(length)))  # PUSH1 of an in-range pc
        else:
            out.append(rng.randrange(256))
    return bytes(out[:length]).hex()


def fuzz_inputs(seed: int, size: Size) -> Iterator[str]:
    yield from FUZZ_FIXED
    rng = random.Random(seed)
    while True:
        yield _fuzz_bytes(rng)


def analyse(hex_text: str, art: dict, check: bool, dot: bool) -> None:
    """One input through the pipeline, leaving each artifact in art.

    Functions are looked up on their modules at call time, so the tracer's
    wrappers see every call.
    """
    program = art["program"] = bytecode.decode_bytecode(hex_text)
    system = art["system"] = equations.solve(program)
    graph = art["cfg"] = cfg.build_cfg(system)
    art["json"] = cfg.export_json(graph, system)
    if dot:
        art["dot"] = cfg.export_dot(graph, system)
    if check:
        traces = art["traces"] = oracle.enumerate_states(program)
        art["verdicts"] = (
            oracle.check_jumps_to(program, system, traces),
            oracle.check_walk(program, graph, system, traces),
        )


def classify(art: dict) -> str:
    """pass, fail or inconclusive from the two verdicts; graph without check."""
    if "verdicts" not in art:
        return "graph"
    statuses = {verdict.status for verdict in art["verdicts"]}
    if "fail" in statuses:
        return "fail"
    return "inconclusive" if "inconclusive" in statuses else "pass"


class InputTimeout(BaseException):
    """Raised by SIGPROF when one input exceeds its CPU-time limit.

    A BaseException, so no `except Exception` inside the code under test
    can swallow it.
    """


def on_alarm(signum, frame):
    raise InputTimeout


def execute(workload, hex_text: str, index: int, ctx: dict, tracer=None):
    """Analyse one input under the workload's limit and check its output.

    Returns (outcome, seconds, artifacts, problems). Only the pipeline is
    timed, in CPU seconds of this thread: the pipeline neither waits nor
    spawns, so that is its wall time without the moments the machine
    spent elsewhere. The limit counts the same CPU time (the process runs
    no other thread), so a stall of the machine cannot turn an input that
    finishes into a timeout. The output checks run after it.
    """
    art: dict = {}
    if tracer is not None:
        tracer.begin(index)
    try:
        started = thread_time()
        try:
            try:
                signal.setitimer(signal.ITIMER_PROF, workload.limit_s)
                analyse(hex_text, art, workload.check, workload.dot)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
            outcome = classify(art)
        except InputTimeout:
            outcome = "timeout"
        except AnalysisError as err:
            outcome = err.kind
            art["error"] = err.message
        except Exception as err:  # counted as a failure, never hidden
            outcome = "other"
            art["error"] = repr(err)
        elapsed = thread_time() - started
        problems = workload.verify(index, hex_text, art, outcome, ctx)
    finally:
        if tracer is not None:
            tracer.end()
    return outcome, elapsed, art, problems


def json_digest(art: dict) -> str:
    return hashlib.sha256(art["json"].encode()).hexdigest()


def _values(system) -> dict:
    return {pc: var.value for pc, var in system.vars.items()}


def check_corpus(index: int, hex_text: str, art: dict, outcome: str, ctx: dict) -> list[str]:
    ran = ctx["ran"]
    ran["both verdicts pass"] += 1
    if outcome != "pass":
        return [f"expected pass, got {outcome}"]
    problems = []
    ran["verify_fixpoint is empty"] += 1
    if equations.verify_fixpoint(art["system"]):
        problems.append("worklist result is not a fixpoint")
    if index < ctx["size"].naive_subset:
        ran["naive fixpoint equals worklist"] += 1
        naive = art["naive"] = equations.solve(art["program"], mode="naive")
        if _values(naive) != _values(art["system"]):
            problems.append("naive fixpoint differs from the worklist fixpoint")
    return problems


def check_scaled(index: int, hex_text: str, art: dict, outcome: str, ctx: dict) -> list[str]:
    ran = ctx["ran"]
    ran["graph built"] += 1
    if outcome != "graph":
        return [f"expected a graph, got {outcome}"]
    problems = []
    if index == 0:
        ran["verify_fixpoint is empty"] += 1
        if equations.verify_fixpoint(art["system"]):
            problems.append("worklist result is not a fixpoint")
    ran["export_json digest pinned"] += 1
    digest = json_digest(art)
    if digest != ctx["pinned"]["export_json_sha256"]:
        problems.append(f"export_json digest {digest} differs from the pinned one")
    return problems


def check_fuzz(index: int, hex_text: str, art: dict, outcome: str, ctx: dict) -> list[str]:
    ran = ctx["ran"]
    ran["no fail verdict or untyped exception"] += 1
    if outcome in ("fail", "other"):
        return [f"{outcome}: {art.get('error', '')}"]
    if hex_text in FIXTURES:
        ran["README fixture passes"] += 1
        if outcome != "pass":
            return [f"README fixture gave {outcome}, expected pass"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, Size], Iterator[str]]
    verify: Callable[[int, str, dict, str, dict], list[str]]
    check: bool  # run enumerate_states and both checkers
    dot: bool  # run export_dot
    limit_s: float  # per-input limit in CPU seconds
    prefix: Callable[[Size], int]  # inputs every run completes; per-layer figures cover them
    fixed: tuple[str, ...] = ()  # known inputs the stream starts with
    # Replay the prefix instead of drawing new inputs once it is done; only
    # the first pass counts towards attempted, failed and decided.
    replay: bool = False


WORKLOADS = {
    "corpus": Workload("corpus", corpus_inputs, check_corpus, check=True, dot=False,
                       limit_s=10.0, prefix=lambda size: size.corpus_prefix),
    "scaled": Workload("scaled", scaled_inputs, check_scaled, check=False, dot=True,
                       limit_s=120.0, prefix=lambda size: 1),
    "fuzz": Workload("fuzz", fuzz_inputs, check_fuzz, check=True, dot=False,
                     limit_s=0.25, prefix=lambda size: len(FUZZ_FIXED) + size.fuzz_prefix,
                     fixed=FUZZ_FIXED, replay=True),
}


def pin(workload: Workload, seed: int, size: Size) -> dict:
    """Digest, instruction count and code bytes of a run's first inputs."""
    hexes = list(itertools.islice(workload.inputs(seed, size), workload.prefix(size)))
    return {
        "seed": seed,
        "inputs": len(hexes),
        "sha256": hashlib.sha256("\n".join(hexes).encode()).hexdigest(),
        "instructions": sum(len(bytecode.decode_bytecode(h).instructions) for h in hexes),
        "code_bytes": sum(len(h) // 2 for h in hexes),
    }
