"""Stack-sensitive control-flow graphs for EVM bytecode.

The pipeline: decode bytecode, solve a flow constraint system over its
basic blocks, scanned as the solver reaches them, that tracks pushed jump
destinations through the operand stack, and expand each block into one
graph vertex per reaching stack shape. An executable reference semantics
double-checks the result: it runs the bytecode block by block and checks
each run against its replica.
"""

from .blocks import Block, Terminator, partition_blocks
from .bytecode import Instruction, OpSpec, Program, decode_bytecode
from .cfg import Cfg, ReplicaId, build_cfg, cfg_from_json, export_dot, export_json
from .domain import (
    AbstractState,
    StackState,
    bottom,
    idmap,
    join,
    leq,
)
from .equations import EquationSystem, initial_state, solve, verify_fixpoint
from .errors import AnalysisError
from .oracle import (
    ConcreteState,
    GeneratorShape,
    TraceSet,
    Verdict,
    check_jumps_to,
    check_walk,
    enumerate_states,
    generate_program,
    random_shape,
    step,
)
from .pipeline import Analysis, analyze
from .transfer import transfer, update_stack

__version__ = "0.1.0"

__all__ = [
    "AbstractState",
    "Analysis",
    "AnalysisError",
    "Block",
    "Cfg",
    "ConcreteState",
    "EquationSystem",
    "GeneratorShape",
    "Instruction",
    "OpSpec",
    "Program",
    "ReplicaId",
    "StackState",
    "Terminator",
    "TraceSet",
    "Verdict",
    "analyze",
    "bottom",
    "build_cfg",
    "cfg_from_json",
    "check_jumps_to",
    "check_walk",
    "decode_bytecode",
    "enumerate_states",
    "export_dot",
    "export_json",
    "generate_program",
    "idmap",
    "initial_state",
    "join",
    "leq",
    "partition_blocks",
    "random_shape",
    "solve",
    "step",
    "transfer",
    "update_stack",
    "verify_fixpoint",
]
