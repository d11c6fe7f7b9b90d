"""stabforge: construct, verify and simulate stabilizer error-correcting codes."""

from .pauli import PauliOperator, commutes, identity, multiply, parse, single, square_sign, weight
from .stabilizer import StabilizerGroup, Syndrome, check_correctability, syndrome, validate
from .codewords import FormalState, basis, codeword, encode, seed_generators
from .bounds import degenerate_max_k, qhb_max_k, qhb_table, rate_bound
from .family import CodeSpec, assign_numbers, build_code, derive_generators
from .oracle import StateVector, dense_from_formal, verify_code
from .ecc_sim import Simulator, build_syndrome_table, run_campaign

__version__ = "0.1.0"

__all__ = [
    "PauliOperator", "commutes", "identity", "multiply", "parse", "single",
    "square_sign", "weight",
    "StabilizerGroup", "Syndrome", "check_correctability", "syndrome", "validate",
    "FormalState", "basis", "codeword", "encode", "seed_generators",
    "degenerate_max_k", "qhb_max_k", "qhb_table", "rate_bound",
    "CodeSpec", "assign_numbers", "build_code", "derive_generators",
    "StateVector", "dense_from_formal", "verify_code",
    "Simulator", "build_syndrome_table", "run_campaign",
    "__version__",
]
