import copy
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qea_sim.circuit import (CX, DENSE, SPARSE, Circuit, CircuitParseError,
                             PARAMETERIZED, TWO_QUBIT, Gate, GateKind, TranspiledCircuit,
                             circuit_from_dict, circuit_to_dict, classify,
                             gate_matrix, parse_circuit, transpile)
from qea_sim.generators import generate_qft, qft_transpiled_gate_count


class TestParser:
    def test_minimal(self):
        c = parse_circuit("qubits 1\nh 0\n")
        assert c.n == 1
        assert c.gates == (Gate(GateKind.H, (0,)),)

    def test_comments_and_blanks(self):
        c = parse_circuit("# full example\nqubits 2\n\nh 0   # hadamard\n  s 1\n")
        assert [g.kind for g in c.gates] == [GateKind.H, GateKind.S]

    def test_composites_kept(self):
        c = parse_circuit("qubits 2\nh 0\ncp 1.5707963 0 1\nswap 0 1\n")
        assert [g.kind for g in c.gates] == [GateKind.H, GateKind.CP, GateKind.SWAP]
        assert c.gates[1].angle == pytest.approx(math.pi / 2, abs=1e-6)

    def test_angled_gates(self):
        c = parse_circuit("qubits 1\nrx 0.5 0\nry -0.25 0\nrz 3e-2 0\n")
        assert [g.angle for g in c.gates] == [0.5, -0.25, 0.03]

    def test_duplicate_operand(self):
        # the column is the repeated operand's own, not its first occurrence's
        for line, col in (("cx 0 0", 6), ("cp 0.5 1 1", 10), ("swap 1 1", 8)):
            with pytest.raises(CircuitParseError, match="distinct") as info:
                parse_circuit(f"qubits 2\nh 0\n{line}\n")
            assert info.value.line == 3
            assert info.value.column == col

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError, match="unknown gate 't'"):
            parse_circuit("qubits 1\nt 0\n")

    def test_out_of_range(self):
        with pytest.raises(CircuitParseError, match="out of range"):
            parse_circuit("qubits 2\nh 2\n")

    def test_arity_mismatch(self):
        with pytest.raises(CircuitParseError, match="takes 1 operand"):
            parse_circuit("qubits 2\nh 0 1\n")

    def test_missing_angle(self):
        for line, gate in (("rz 0", "'rz' takes"), ("rx 0", "'rx' takes"), ("cp 0.5 0", "'cp' takes")):
            with pytest.raises(CircuitParseError, match=gate):
                parse_circuit(f"qubits 2\n{line}\n")

    def test_invalid_angle(self):
        with pytest.raises(CircuitParseError, match="invalid angle"):
            parse_circuit("qubits 1\nrz abc 0\n")

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="header"):
            parse_circuit("h 0\n")

    def test_duplicate_header(self):
        with pytest.raises(CircuitParseError, match="duplicate"):
            parse_circuit("qubits 1\nqubits 2\n")

    @pytest.mark.parametrize("text,message", [
        ("qubits 2\nh x\n", "line 2, col 3: expected qubit index, got 'x'"),
        ("qubits 1\nrz inf 0\n", "line 2, col 4: invalid angle 'inf'"),   # float() reads it, the parser refuses it
        ("qubits 2 3\n", "line 1, col 1: 'qubits' takes exactly one count"),
        ("qubits x\n", "line 1, col 8: invalid qubit count 'x'"),
        ("qubits 0\n", "line 1, col 8: qubit count must be >= 1, got 0"),
        ("# no header\n\n   \n", "missing 'qubits <n>' header"),
    ], ids=["bad-qubit", "inf-angle", "two-counts", "bad-count", "zero-count", "no-header"])
    def test_refusal_messages(self, text, message):
        with pytest.raises(CircuitParseError, match=f"^{re.escape(message)}$"):
            parse_circuit(text)

    def test_error_carries_line_number(self):
        try:
            parse_circuit("qubits 2\nh 0\ncx 1 1\n")
        except CircuitParseError as exc:
            assert exc.line == 3
            assert "line 3" in str(exc)
        else:
            pytest.fail("expected parse error")


class TestClassify:
    @pytest.mark.parametrize("gate,expected", [
        (Gate(GateKind.S, (0,)), SPARSE),
        (Gate(GateKind.RZ, (0,), 0.3), SPARSE),
        (Gate(GateKind.H, (0,)), DENSE),
        (Gate(GateKind.RX, (0,), 0.3), DENSE),
        (Gate(GateKind.RY, (0,), 0.3), DENSE),
        (Gate(GateKind.CX, (0, 1)), CX),
    ])
    def test_classes(self, gate, expected):
        assert classify(gate) == expected

    def test_composites_rejected(self):
        with pytest.raises(ValueError):
            classify(Gate(GateKind.CP, (0, 1), 0.5))
        with pytest.raises(ValueError):
            classify(Gate(GateKind.SWAP, (0, 1)))


class TestGateMatrix:
    def test_rz_zero_is_identity(self):
        np.testing.assert_allclose(gate_matrix(Gate(GateKind.RZ, (0,), 0.0)), np.eye(2))

    def test_h_entries(self):
        u = gate_matrix(Gate(GateKind.H, (0,)))
        assert np.allclose(np.abs(u), 1 / math.sqrt(2))

    def test_s_diag(self):
        u = gate_matrix(Gate(GateKind.S, (0,)))
        np.testing.assert_array_equal(u, np.diag([1, 1j]))

    def test_unitarity_random_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            kind = [GateKind.RX, GateKind.RY, GateKind.RZ][rng.integers(0, 3)]
            u = gate_matrix(Gate(kind, (0,), float(rng.uniform(-10, 10))))
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)

    def test_cx_rejected(self):
        with pytest.raises(ValueError):
            gate_matrix(Gate(GateKind.CX, (0, 1)))


class TestTranspile:
    def test_passthrough(self):
        tc = transpile(Circuit(1, (Gate(GateKind.H, (0,)),)))
        assert len(tc.gates) == 1
        assert tc.global_phase == 0.0

    def test_swap_expansion(self):
        tc = transpile(Circuit(2, (Gate(GateKind.SWAP, (0, 1)),)))
        assert [g.kind for g in tc.gates] == [GateKind.CX] * 3
        assert [g.qubits for g in tc.gates] == [(0, 1), (1, 0), (0, 1)]
        assert tc.global_phase == 0.0

    def test_cp_expansion_structure(self):
        theta = 0.7
        tc = transpile(Circuit(2, (Gate(GateKind.CP, (0, 1), theta),)))
        kinds = [g.kind for g in tc.gates]
        assert kinds == [GateKind.RZ, GateKind.CX, GateKind.RZ, GateKind.CX, GateKind.RZ]
        assert tc.global_phase == pytest.approx(theta / 4)

    def test_cp_unitary_equivalence(self):
        theta = math.pi / 2
        tc = transpile(Circuit(2, (Gate(GateKind.CP, (0, 1), theta),)))
        got = np.exp(1j * tc.global_phase) * oracles.circuit_matrix(2, tc.gates)
        np.testing.assert_allclose(got, oracles.cp_matrix(2, 0, 1, theta), atol=1e-12)

    def test_qft_phase_is_the_unreduced_sum(self):
        # every QFT angle/4 is within pi, where the per-CP reduction is exact
        c = generate_qft(17)
        want = sum(g.angle / 4.0 for g in c.gates if g.kind is GateKind.CP)
        assert transpile(c).global_phase == want

    def test_huge_cp_angles_keep_the_phase_finite(self):
        theta = 1.7e308
        tc = transpile(Circuit(2, (Gate(GateKind.CP, (0, 1), theta),) * 5))
        assert tc.global_phase == 5 * math.remainder(theta / 4.0, math.tau)
        assert abs(tc.global_phase) <= 5 * math.pi

    def test_qft17_gate_count(self):
        assert len(transpile(generate_qft(17)).gates) == 721

    @pytest.mark.parametrize("n", range(1, 18))
    def test_qft_count_formula(self, n):
        assert len(transpile(generate_qft(n)).gates) == qft_transpiled_gate_count(n)

    def test_idempotent(self):
        tc = transpile(generate_qft(4))
        again = transpile(tc.as_circuit())
        assert again.gates == tc.gates
        assert again.global_phase == 0.0

    def test_unitary_equivalence_random(self):
        # e^{i phase} * product(transpiled) == product(original), n <= 6
        rng = np.random.default_rng(31)
        kinds = ["h", "s", "rx", "ry", "rz", "cx", "cp", "swap"]
        for n in (2, 3, 6):
            for _ in range(8):
                gates = []
                for _ in range(12):
                    kind = kinds[rng.integers(0, len(kinds))]
                    qs = list(rng.choice(n, size=2, replace=False))
                    if kind in ("h", "s"):
                        gates.append(Gate(GateKind(kind), (qs[0],)))
                    elif kind in ("rx", "ry", "rz"):
                        gates.append(Gate(GateKind(kind), (qs[0],), float(rng.uniform(-6, 6))))
                    elif kind == "cx":
                        gates.append(Gate(GateKind.CX, tuple(qs)))
                    elif kind == "cp":
                        gates.append(Gate(GateKind.CP, tuple(qs), float(rng.uniform(-6, 6))))
                    else:
                        gates.append(Gate(GateKind.SWAP, tuple(qs)))
                c = Circuit(n, tuple(gates))
                tc = transpile(c)
                got = np.exp(1j * tc.global_phase) * oracles.circuit_matrix(n, tc.gates)
                want = oracles.circuit_matrix(n, c.gates)
                assert np.max(np.abs(got - want)) < 1e-10

    def test_composite_in_transpiled_rejected(self):
        with pytest.raises(ValueError):
            TranspiledCircuit(2, (Gate(GateKind.CP, (0, 1), 0.5),))


class TestSerialization:
    def test_round_trip_circuit(self):
        c = parse_circuit("qubits 3\nh 0\ncp 0.5 0 2\nswap 1 2\nrz -1.5 1\n")
        assert circuit_from_dict(circuit_to_dict(c)) == c

    def test_round_trip_transpiled(self):
        tc = transpile(generate_qft(3))
        back = circuit_from_dict(circuit_to_dict(tc))
        assert isinstance(back, TranspiledCircuit)
        assert back == tc

    def test_non_finite_global_phase_refused(self):
        # JSON reads NaN; a transpiled circuit refuses it as it refuses inf
        doc = json.loads(json.dumps({"n": 2, "gates": [], "global_phase": math.nan}))
        with pytest.raises(CircuitParseError, match="^malformed circuit: global phase must be finite, got nan$"):
            circuit_from_dict(doc)

    def test_gate_round_trips_through_pickle_and_copy(self):
        # GateKind hashes by identity: a copied or unpickled member is the
        # same object, so it finds the same set and dict entries
        for g in (Gate(GateKind.RX, (0,), 0.5), Gate(GateKind.CX, (1, 0)), Gate(GateKind.SWAP, (0, 2))):
            for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
                assert back == g and hash(back) == hash(g) and back.kind is g.kind
                assert (back.kind in TWO_QUBIT) == (g.kind in TWO_QUBIT)


# any finite angle, signed zeros and subnormals included
_ANGLES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _any_circuits(draw):
    """0-10 gates of every kind, composites included, on 1-6 qubits."""
    n = draw(st.integers(1, 6))
    kinds = list(GateKind) if n > 1 else [k for k in GateKind if k not in TWO_QUBIT]
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        arity = 2 if kind in TWO_QUBIT else 1
        qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity, unique=True)))
        gates.append(Gate(kind, qubits, draw(_ANGLES) if kind in PARAMETERIZED else None))
    return Circuit(n, tuple(gates))


def _circuit_text(c: Circuit) -> str:
    lines = [f"qubits {c.n}"]
    for g in c.gates:
        angle = [repr(g.angle)] if g.angle is not None else []
        lines.append(" ".join([g.kind.value, *angle, *map(str, g.qubits)]))
    return "\n".join(lines) + "\n"


def _identical(a, b) -> bool:
    """Equal IR, every float compared by its repr, so -0.0 differs from 0.0."""
    return a == b and repr(circuit_to_dict(a)) == repr(circuit_to_dict(b))


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(c=_any_circuits())
    def test_text_ir_json_ir(self, c):
        parsed = parse_circuit(_circuit_text(c))
        assert _identical(parsed, c)
        for ir in (parsed, transpile(parsed)):   # the transpiled one carries its global phase
            back = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(ir))))
            assert type(back) is type(ir)
            assert _identical(back, ir)


class TestValidation:
    def test_gate_arity(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0, 1))
        with pytest.raises(ValueError):
            Gate(GateKind.CX, (0,))

    def test_angle_presence(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0,), 0.5)
        with pytest.raises(ValueError):
            Gate(GateKind.RZ, (0,))

    def test_non_finite_angle(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Gate(GateKind.RZ, (0,), bad)

    @pytest.mark.parametrize("qubits,message", [
        ((0.5,), "'float' object cannot be interpreted as an integer"),
        ((1.0,), "'float' object cannot be interpreted as an integer"),
        ((True,), "expected a number, got true"),       # a bool is an int to operator.index
        ((False,), "expected a number, got false"),
        ((0, True), "expected a number, got true"),
    ], ids=["float", "whole-float", "true", "false", "int-and-true"])
    def test_qubit_type(self, qubits, message):
        # the float once ran as far as _track, and True as qubit 1
        with pytest.raises(TypeError, match=message):
            Gate(GateKind.H if len(qubits) == 1 else GateKind.CX, qubits)

    def test_bool_angle(self):
        with pytest.raises(TypeError, match="expected a number, got true"):
            Gate(GateKind.RZ, (0,), True)

    def test_integer_qubits_stored_as_int(self):
        g = Gate(GateKind.CX, [np.int64(1), np.int32(0)])
        assert g.qubits == (1, 0) and all(type(q) is int for q in g.qubits)
        assert g == Gate(GateKind.CX, (1, 0)) and hash(g) == hash(Gate(GateKind.CX, (1, 0)))
        assert Gate(GateKind.H, (np.int64(1),)).qubits == (1,)

    def test_gate_is_slotted_and_rebuilt_through_its_checks(self):
        # no per-gate __dict__; copy and pickle build through __init__, so a
        # gate whose fields were forced past the checks is refused on the way
        g = Gate(GateKind.RZ, (np.int64(2),), 0.5)
        assert not hasattr(g, "__dict__")
        for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert type(back) is Gate and back == g and type(back.qubits[0]) is int
        object.__setattr__(g, "angle", math.inf)
        for rebuild in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
            with pytest.raises(ValueError, match=r"^rz: angle must be finite, got inf$"):
                rebuild(g)

    def test_circuit_bounds(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate(GateKind.H, (2,)),))
        with pytest.raises(ValueError):
            Circuit(0, ())

    @pytest.mark.parametrize("n,gates", [
        (0, ()),
        (-2, ()),
        (3, (Gate(GateKind.H, (7,)), Gate(GateKind.CX, (0, 9)))),
        (3, (Gate(GateKind.CX, (0, 9)),)),
        (3, (Gate(GateKind.RZ, (-1,), 0.5),)),
    ])
    def test_transpiled_checked_as_circuit(self, n, gates):
        # every run and cycle estimate takes a TranspiledCircuit, so this is
        # the one check that keeps them from a bad n or qubit
        with pytest.raises(ValueError) as want:
            Circuit(n, gates)
        with pytest.raises(ValueError) as got:
            TranspiledCircuit(n, gates, 0.25)
        assert str(got.value) == str(want.value)

    def test_transpiled_classes(self):
        tc = transpile(generate_qft(5))
        assert tc.classes == tuple(classify(g) for g in tc.gates)
        assert tc.classes.count(CX) == 2 * 10 + 3 * 2
        assert "classes" not in repr(tc)
        assert tc == TranspiledCircuit(tc.n, tc.gates, tc.global_phase)
        assert hash(tc) == hash(TranspiledCircuit(tc.n, tc.gates, tc.global_phase))
