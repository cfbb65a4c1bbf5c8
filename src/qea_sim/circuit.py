"""Circuit IR, text-format parser and transpiler.

The executable gate set is {H, S, Rx, Ry, Rz, CX}.  CP and SWAP are
composite: the transpiler rewrites them into the executable set, tracking
the global phase produced by the CP rewrite.  Qubit 0 is the most
significant bit of the state index throughout.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np


class GateKind(enum.Enum):
    H = "h"
    S = "s"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CX = "cx"
    # composite kinds, removed by the transpiler
    CP = "cp"
    SWAP = "swap"

    # Members are singletons that compare by identity, so identity hashing
    # keeps every set and dict lookup correct; Enum's own __hash__ is Python
    # code (hash(self._name_)), paid on every classify and Gate check.
    __hash__ = object.__hash__


PARAMETERIZED = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.CP})
TWO_QUBIT = frozenset({GateKind.CX, GateKind.CP, GateKind.SWAP})
COMPOSITE = frozenset({GateKind.CP, GateKind.SWAP})

SPARSE = "sparse"
DENSE = "dense"
CX = "cx"

_CLASS = {
    GateKind.S: SPARSE,
    GateKind.RZ: SPARSE,
    GateKind.H: DENSE,
    GateKind.RX: DENSE,
    GateKind.RY: DENSE,
    GateKind.CX: CX,
}


class CircuitParseError(ValueError):
    """Parse or validation failure; carries 1-based line/column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        prefix = ""
        if line is not None:
            prefix = f"line {line}: " if column is None else f"line {line}, col {column}: "
        super().__init__(prefix + message)


_INT = frozenset({int})   # a tuple of only these qubit types is stored as it is


def _not_bool(v):
    """v, refused if it is a bool: Python reads JSON true and false as the numbers 1 and 0."""
    if isinstance(v, bool):
        raise TypeError(f"expected a number, got {str(v).lower()}")
    return v


@dataclass(frozen=True, slots=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __reduce__(self):   # copy and pickle build through __init__, so through the checks
        return Gate, (self.kind, self.qubits, self.angle)

    def __post_init__(self) -> None:
        if type(self.qubits) is not tuple or not _INT.issuperset(map(type, self.qubits)):
            # operator.index turns np.int64 and the like into int and refuses a
            # float; it takes a bool as an int, so a bool is refused before it
            object.__setattr__(self, "qubits", tuple([operator.index(_not_bool(q)) for q in self.qubits]))
        _not_bool(self.angle)
        arity = 2 if self.kind in TWO_QUBIT else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind.value} takes {arity} qubit(s), got {len(self.qubits)}")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.kind.value} operands must be distinct")
        if (self.angle is not None) != (self.kind in PARAMETERIZED):
            raise ValueError(f"{self.kind.value}: angle {'required' if self.kind in PARAMETERIZED else 'not allowed'}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.kind.value}: angle must be finite, got {self.angle!r}")


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range for n={self.n}")


@dataclass(frozen=True)
class TranspiledCircuit(Circuit):
    """Executable-set gates plus the phase accumulated while rewriting, checked
    as a Circuit, with each gate's class (classify) worked out once, here."""

    global_phase: float = 0.0
    classes: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.global_phase):
            raise ValueError(f"global phase must be finite, got {self.global_phase!r}")
        super().__post_init__()
        object.__setattr__(self, "classes", tuple(map(classify, self.gates)))

    def as_circuit(self) -> Circuit:
        return Circuit(self.n, self.gates)


def classify(g: Gate) -> str:
    """Gate class for dispatch: diagonal -> sparse, full 2x2 -> dense, CX -> cx."""
    try:
        return _CLASS[g.kind]
    except KeyError:
        raise ValueError(f"composite gate {g.kind.value} has no execution class") from None


def gate_matrix(g: Gate) -> np.ndarray:
    """2x2 double-precision unitary of a single-qubit gate."""
    if g.kind in TWO_QUBIT:
        raise ValueError(f"{g.kind.value} has no 2x2 matrix")
    if g.kind is GateKind.H:
        s = 1.0 / math.sqrt(2.0)
        return np.array([[s, s], [s, -s]], dtype=np.complex128)
    if g.kind is GateKind.S:
        return np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=np.complex128)
    half = g.angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if g.kind is GateKind.RX:
        return np.array([[c, -1.0j * s], [-1.0j * s, c]], dtype=np.complex128)
    if g.kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    # RZ
    return np.array([[complex(c, -s), 0.0], [0.0, complex(c, s)]], dtype=np.complex128)


def transpile(c: Circuit | TranspiledCircuit) -> TranspiledCircuit:
    """Rewrite CP and SWAP into the executable set.

    An already transpiled circuit is returned as is, keeping its phase.

    CP(theta) on (control, target) becomes
        Rz(theta/2) @ control, CX, Rz(-theta/2) @ target, CX, Rz(theta/2) @ target
    and contributes theta/4 of global phase (the five-gate product equals
    e^{-i theta/4} CP(theta)), reduced mod 2 pi into [-pi, pi] so the sum
    stays finite for any finite angles; the reduction is exact and leaves
    theta/4 unchanged when |theta/4| <= pi.  SWAP becomes the usual three
    CX gates.
    """
    if isinstance(c, TranspiledCircuit):
        return c
    out: list[Gate] = []
    phase = 0.0
    for g in c.gates:
        if g.kind is GateKind.CP:
            ctrl, tgt = g.qubits
            half = g.angle / 2.0
            out.append(Gate(GateKind.RZ, (ctrl,), half))
            out.append(Gate(GateKind.CX, (ctrl, tgt)))
            out.append(Gate(GateKind.RZ, (tgt,), -half))
            out.append(Gate(GateKind.CX, (ctrl, tgt)))
            out.append(Gate(GateKind.RZ, (tgt,), half))
            phase += math.remainder(g.angle / 4.0, math.tau)
        elif g.kind is GateKind.SWAP:
            a, b = g.qubits
            out.append(Gate(GateKind.CX, (a, b)))
            out.append(Gate(GateKind.CX, (b, a)))
            out.append(Gate(GateKind.CX, (a, b)))
        else:
            out.append(g)
    return TranspiledCircuit(c.n, tuple(out), phase)


# ---------------------------------------------------------------------------
# Text format: `qubits <n>` header, then one gate per line.
#   h/s <q> | rx/ry/rz <theta> <q> | cx <c> <t> | cp <theta> <c> <t> | swap <a> <b>
# '#' starts a comment; blank lines are ignored.
# ---------------------------------------------------------------------------

_KINDS = {k.value: k for k in GateKind}


def _parse_qubit(tok: str, n: int, lineno: int, col: int) -> int:
    try:
        q = int(tok)
    except ValueError:
        raise CircuitParseError(f"expected qubit index, got {tok!r}", lineno, col) from None
    if not 0 <= q < n:
        raise CircuitParseError(f"qubit {q} out of range (n={n})", lineno, col)
    return q


def _parse_angle(tok: str, lineno: int, col: int) -> float:
    try:
        theta = float(tok)
    except ValueError:
        raise CircuitParseError(f"invalid angle {tok!r}", lineno, col) from None
    if not math.isfinite(theta):
        raise CircuitParseError(f"invalid angle {tok!r}", lineno, col)
    return theta


def parse_circuit(text: str) -> Circuit:
    n: int | None = None
    gates: list[Gate] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        cols, end = [], 0
        for t in toks:   # each token's own column, repeated tokens included
            end = line.index(t, end)
            cols.append(end + 1)
            end += len(t)
        head = toks[0].lower()

        if n is None:
            if head != "qubits":
                raise CircuitParseError("expected 'qubits <n>' header", lineno, cols[0])
            if len(toks) != 2:
                raise CircuitParseError("'qubits' takes exactly one count", lineno, cols[0])
            try:
                n = int(toks[1])
            except ValueError:
                raise CircuitParseError(f"invalid qubit count {toks[1]!r}", lineno, cols[1]) from None
            if n < 1:
                raise CircuitParseError(f"qubit count must be >= 1, got {n}", lineno, cols[1])
            continue

        if head == "qubits":
            raise CircuitParseError("duplicate 'qubits' header", lineno, cols[0])

        kind = _KINDS.get(head)
        if kind is None:
            raise CircuitParseError(f"unknown gate {head!r}", lineno, cols[0])
        angled = kind in PARAMETERIZED
        arity = 2 if kind in TWO_QUBIT else 1
        if len(toks) != 1 + angled + arity:
            usage = f"{'<angle> and ' if angled else ''}{arity} operand{'s' if arity > 1 else ''}"
            raise CircuitParseError(f"'{head}' takes {usage}, got {len(toks) - 1} token(s)", lineno, cols[0])
        theta = _parse_angle(toks[1], lineno, cols[1]) if angled else None
        qubits = tuple(_parse_qubit(t, n, lineno, c) for t, c in zip(toks[1 + angled:], cols[1 + angled:]))
        try:
            gates.append(Gate(kind, qubits, theta))
        except ValueError as exc:   # Gate owns the remaining rules
            raise CircuitParseError(str(exc), lineno, cols[-1]) from None

    if n is None:
        raise CircuitParseError("missing 'qubits <n>' header")
    return Circuit(n, tuple(gates))


# Structured (JSON-friendly) serialization; same fields as the dataclasses.

def circuit_to_dict(c: Circuit | TranspiledCircuit) -> dict:
    d = {
        "n": c.n,
        "gates": [
            {"kind": g.kind.value, "qubits": list(g.qubits)}
            | ({"angle": g.angle} if g.angle is not None else {})
            for g in c.gates
        ],
    }
    if isinstance(c, TranspiledCircuit):
        d["global_phase"] = c.global_phase
    return d


def circuit_from_dict(d: dict) -> Circuit | TranspiledCircuit:
    """Inverse of circuit_to_dict; raises CircuitParseError on a malformed dict."""
    try:
        # Gate refuses non-integer and bool qubits and a bool angle; Circuit checks ranges
        gates = tuple(Gate(GateKind(g["kind"]), g["qubits"], g.get("angle")) for g in d["gates"])
        n = operator.index(_not_bool(d["n"]))
        return TranspiledCircuit(n, gates, _not_bool(d["global_phase"])) if "global_phase" in d else Circuit(n, gates)
    except KeyError as exc:
        raise CircuitParseError(f"missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise CircuitParseError(f"malformed circuit: {exc}") from None
