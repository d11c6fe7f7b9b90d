"""The n = 2^j code family saturating the quantum Hamming bound at t = 1.

For each qubit i a distinct (j+2)-bit syndrome value is assigned to X_i,
Z_i and Y_i = X_i xor Z_i: the first two bits say which letter it is
(01 = X, 10 = Z, 11 = Y), the last j bits encode i.  The X values count
i-1 in binary; the Z values count 0,0,1,1,2,2,... with the bitwise NOT
applied to one member of each pair (which member depends on the parity of
j).  Reading the assignment column-wise yields the a = j+2 generators of a
stabilizer group on n qubits that corrects one error and encodes
k = n - j - 2 qubits, meeting the quantum Hamming bound with equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codewords, pauli
from .pauli import PauliOperator, PureXList, _integer, _json_name
from .stabilizer import DependentGeneratorError, MinusIdentityError, StabilizerGroup, validate

CONSTRUCTION_NAME = "gottesman-hamming-saturating"

MIN_J = 3
MAX_J = 16

FORMAT_VERSION = 2  # the CodeSpec file version that save writes


@dataclass(frozen=True)
class NumberAssignment:
    """Syndrome values for all single-qubit errors; arrays indexed by i-1."""

    j: int
    fx: np.ndarray
    fz: np.ndarray
    fy: np.ndarray

    @property
    def n(self) -> int:
        return 1 << self.j

    @property
    def bit_width(self) -> int:
        return self.j + 2

    def as_string(self, value: int) -> str:
        return format(value, f"0{self.bit_width}b")


def assign_numbers(j: int) -> NumberAssignment:
    """Assign the distinct (j+2)-bit numbers to X_i, Z_i, Y_i for n = 2^j."""
    if j < 3:
        raise ValueError(f"j must be at least 3, got {j}")
    n = 1 << j
    i = np.arange(1, n + 1, dtype=np.int64)
    fx = (0b01 << j) | (i - 1)
    zlow = (i - 1) >> 1
    if j % 2 == 0:
        invert = i % 2 == 1
    else:
        half = 1 << (j - 1)
        invert = np.where(i <= half, i % 2 == 1, i % 2 == 0)
    mask = (1 << j) - 1
    zlow = np.where(invert, ~zlow & mask, zlow)
    fz = (0b10 << j) | zlow
    fy = fx ^ fz
    for arr in (fx, fz, fy):
        arr.flags.writeable = False
    return NumberAssignment(j, fx, fz, fy)


def derive_generators(assignment: NumberAssignment) -> list[PauliOperator]:
    """Generators M_1..M_{j+2}: M_r anticommutes with a one-qubit error P
    exactly when bit r of f(P) is set, so its X/Z bits on qubit i are bit r
    of f(Z_i) / f(X_i).  All signs +1."""
    n = assignment.n
    width = assignment.bit_width
    # the numbers in the narrowest unsigned type that holds width bits: less to read per generator
    dtype = np.min_scalar_type((1 << width) - 1)
    fz, fx = assignment.fz.astype(dtype), assignment.fx.astype(dtype)
    gens = []
    for r in range(1, width + 1):
        bit = dtype.type(1 << (width - r))
        x_bits = int.from_bytes(np.packbits((fz & bit) != 0, bitorder="little").tobytes(), "little")
        z_bits = int.from_bytes(np.packbits((fx & bit) != 0, bitorder="little").tobytes(), "little")
        gens.append(PauliOperator(n, x_bits, z_bits, 1))
    return gens


@dataclass(frozen=True)
class CodeSpec:
    """Persistent description of a code: parameters, generators, seeds.

    The constructor is the one gate for every CodeSpec, built or loaded, so
    save writes only files that load accepts: n, k and j integers (numpy
    ones stored as ints, bools refused), n in 1..2^MAX_J, construction a
    string, k = n - len(generators), each generator a PauliOperator, the
    generators a stabilizer group by stabilizer.validate (on n qubits,
    squaring to +1, commuting, and none a product of earlier ones, up to
    sign, so k is n minus the rank; a tuple is stored), and the seeds one
    PureXList on n qubits.  It raises TypeError or ValueError with load's
    text after "malformed code spec: ".  Files are written in version 2,
    each generator as a Pauli string and each seed as its qubit support,
    e.g. [1, 3] for X_1 X_3; version 1 files, whose seeds are Pauli
    strings, still load.
    """

    n: int
    k: int
    j: int
    generators: tuple[PauliOperator, ...]
    seed_generators: PureXList
    construction: str = CONSTRUCTION_NAME

    def __post_init__(self):
        for name in ("n", "k", "j"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        n, generators = self.n, tuple(self.generators)
        _require_n(n)
        if not isinstance(self.construction, str):
            raise TypeError(f"construction must be a string, got {_json_name(self.construction)}")
        if self.k != n - len(generators):
            raise ValueError(f"k = {_json_name(self.k)} but n - len(generators) = {n - len(generators)}")
        for idx, op in enumerate(generators, 1):
            if not isinstance(op, PauliOperator):
                raise TypeError(f"generator {idx} must be a PauliOperator, got {_json_name(op)}")
        try:
            validate(n, generators)
        except (DependentGeneratorError, MinusIdentityError) as exc:
            raise ValueError(f"generator {exc.r} is a product of earlier generators, up to sign") from exc
        object.__setattr__(self, "generators", generators)
        codewords._require_seeds(self.seed_generators, n)

    def group(self) -> StabilizerGroup:
        """The generators as a StabilizerGroup; the constructor validated them."""
        return StabilizerGroup(self.n, self.generators)

    def to_json_dict(self) -> dict:
        """The version 2 JSON form."""
        return {
            "n": self.n,
            "k": self.k,
            "j": self.j,
            "generators": [pauli.format(g) for g in self.generators],
            "seed_generators": self.seed_generators.supports(),
            "construction": self.construction,
            "version": FORMAT_VERSION,
        }

    def to_json(self) -> str:
        """to_json_dict() laid out as json.dumps(..., indent=2) lays it out,
        except that each seed support stays on one line.  At j = 16 that is
        2.2 MB; indent=2 throughout would give 3.4 MB, a line per qubit, and
        run json's pure-Python encoder over all 65,518 seeds (0.3 s)."""
        fields = []
        for key, value in self.to_json_dict().items():
            if key == "seed_generators" and value:
                # json.dumps writes only digits, ", " and brackets here, so "], [" parts two seeds
                text = "[\n  " + json.dumps(value)[1:-1].replace("], [", "],\n  [") + "\n]"
            else:
                text = json.dumps(value, indent=2)
            fields.append(f"  {json.dumps(key)}: " + text.replace("\n", "\n  "))
        return "{\n" + ",\n".join(fields) + "\n}"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_json_dict(cls, data: dict) -> "CodeSpec":
        """Decode the JSON form; the constructor checks the fields.  Only
        the decoding is checked here: a JSON object, n, k and j present and
        integers, the version (1 when absent) 1 or 2, n in range (it bounds
        the seeds), the generators a list of Pauli strings, and the seeds:
        version 1 ones +1 pure-X Pauli strings on n qubits, version 2 ones
        lists of integer qubits, strictly ascending in 1..n.  Any violation,
        here or in the constructor, raises ValueError("malformed code spec: ...")."""
        try:
            if not isinstance(data, dict):
                raise TypeError(f"expected a JSON object, got {'null' if data is None else type(data).__name__}")
            n, k, j = (_integer(data[key], key) for key in ("n", "k", "j"))
            version = _integer(data.get("version", 1), "version")
            if version not in (1, 2):
                raise ValueError(f"version must be 1 or 2, got {_json_name(version)}")
            _require_n(n)
            generators = _json_operators(data, "generators")
            key = "seed_generators"
            seeds = _pure_x_list(n, _json_operators(data, key)) if version == 1 else _json_supports(data, key, n)
            return cls(n, k, j, generators, seeds, data.get("construction", CONSTRUCTION_NAME))
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"malformed code spec: {reason}") from exc

    @classmethod
    def load(cls, path) -> "CodeSpec":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long for int()
            raise ValueError(f"malformed code spec file: {exc}") from exc
        except RecursionError:
            raise ValueError("malformed code spec: JSON nested too deeply") from None
        return cls.from_json_dict(data)


def _require_n(n: int) -> None:
    """The range of a CodeSpec's n: 1 up to the n of the largest family code."""
    if n < 1:
        raise ValueError(f"n must be positive, got {_json_name(n)}")
    if n > 1 << MAX_J:
        raise ValueError(f"n must be at most {1 << MAX_J}, got {_json_name(n)}")


def _json_operators(data: dict, key: str) -> tuple[PauliOperator, ...]:
    texts = data[key]
    if not isinstance(texts, list) or not all(isinstance(s, str) for s in texts):
        raise TypeError(f"{key} must be a list of Pauli strings")
    return tuple(pauli.parse(s) for s in texts)


def _pure_x_list(n: int, ops) -> PureXList:
    """Version 1 seeds, +1 pure-X operators on n qubits (else ValueError), as
    one PureXList, their qubits from one numpy pass over their 64-bit words."""
    for idx, op in enumerate(ops, 1):
        if op.n != n or op.z_bits or op.sign != 1:
            raise ValueError(f"seed generator {idx} is not a +1 pure-X operator on {n} qubits")
    words = (n + 63) // 64
    raw = np.frombuffer(b"".join(op.x_bits.to_bytes(8 * words, "little") for op in ops), dtype="<u8")
    flat = np.flatnonzero(raw)  # flat indices and divmod: numpy's 2-d nonzero is several times slower
    row, word = np.divmod(flat, words)
    which, bit = np.divmod(np.flatnonzero(np.unpackbits(raw[flat].view(np.uint8), bitorder="little")), 64)
    return PureXList(n, np.cumsum(np.bincount(row[which], minlength=len(ops))), word[which] * 64 + bit + 1)


def _json_supports(data: dict, key: str, n: int) -> PureXList:
    supports = data[key]
    if not isinstance(supports, list) or not set(map(type, supports)) <= {list}:
        raise TypeError(f"{key} must be a list of qubit lists")
    try:
        return pauli.pure_xs(n, supports)
    except (TypeError, ValueError) as exc:  # n >= 1 here, so the error names a support
        raise type(exc)(f"seed generator {exc.support_index}: {exc}") from exc


def build_code(j: int) -> CodeSpec:
    """The family code for 3 <= j <= 16, validated once, by the CodeSpec constructor."""
    if not MIN_J <= j <= MAX_J:
        raise ValueError(f"j must lie in [{MIN_J}, {MAX_J}], got {j}")
    assignment = assign_numbers(j)
    n, gens = assignment.n, tuple(derive_generators(assignment))
    seeds = codewords.seed_generators(StabilizerGroup(n, gens))  # the constructor validates gens
    return CodeSpec(n=n, k=n - j - 2, j=j, generators=gens, seed_generators=seeds)


def letter_census(op: PauliOperator) -> tuple[int, int, int, int]:
    """Counts of (I, X, Y, Z) letters in an operator."""
    n_y = (op.x_bits & op.z_bits).bit_count()
    n_x = op.x_bits.bit_count() - n_y
    n_z = op.z_bits.bit_count() - n_y
    return op.n - n_x - n_y - n_z, n_x, n_y, n_z


def commutes_by_disagreement(p: PauliOperator, q: PauliOperator) -> bool:
    """Commutation test by counting qubits where both act and disagree."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    both = (p.x_bits | p.z_bits) & (q.x_bits | q.z_bits)
    differ = (p.x_bits ^ q.x_bits) | (p.z_bits ^ q.z_bits)
    return (both & differ).bit_count() % 2 == 0
