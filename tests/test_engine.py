import hashlib
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import apply_1q_flagloop
from qea_sim import engine
from qea_sim import fixedpoint as fx
from qea_sim.circuit import DENSE, PARAMETERIZED, SPARSE, Circuit, Gate, GateKind, gate_matrix, transpile
from qea_sim.engine import (FIXED, FLOAT, GateApplication, StateVector,
                            apply_1q, apply_cx,
                            format_dump, make_application, parse_dump,
                            reference_run, run_circuit)
from qea_sim.generators import generate_qft, generate_template


def random_unitary_2x2(rng):
    # QR of a random complex matrix gives a Haar-ish unitary; good enough here
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_app(u, target, arith=FLOAT):
    conv = (lambda x: fx.to_fixed(x).raw) if arith == FIXED else float
    ent = [(conv(z.real), conv(z.imag)) for z in u.reshape(4)]
    return GateApplication(ent[0], ent[1], ent[2], ent[3], target, DENSE)


class TestInitState:
    def test_one_qubit(self):
        sv = StateVector.zero(1)
        np.testing.assert_array_equal(sv.to_complex(), [1, 0])

    def test_three_qubits(self):
        sv = StateVector.zero(3)
        np.testing.assert_array_equal(sv.to_complex(), [1, 0, 0, 0, 0, 0, 0, 0])

    def test_fixed_variant_exact_one(self):
        sv = StateVector.zero(2, FIXED)
        assert sv.planes[0][0] == 0x40000000
        assert not sv.planes[0][1:].any() and not sv.planes[1].any()

    def test_bad_n(self):
        with pytest.raises(ValueError):
            StateVector.zero(0)
        with pytest.raises(ValueError, match="physical memory"):
            StateVector(40, FIXED)      # 8 TiB of planes; refused before allocating


class TestRefusals:
    @pytest.mark.parametrize("call,message", [
        (lambda: engine.check_fits(3, "bogus"), "unknown arithmetic variant 'bogus'"),
        (lambda: StateVector.from_complex(np.ones(3)), "length 3 is not a power of two"),
        (lambda: GateApplication((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0), 0, "cx"), "unknown mode 'cx'"),
        (lambda: make_application(Gate(GateKind.CX, (0, 1)), FIXED), "CX is handled by the swapper, not as a matrix"),
    ], ids=["arith", "length", "mode", "cx-application"])
    def test_messages(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestApply1q:
    def test_hadamard_on_zero(self):
        sv = StateVector.zero(1)
        apply_1q(sv, make_application(Gate(GateKind.H, (0,)), FLOAT))
        np.testing.assert_allclose(sv.to_complex(), [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_rz_phases_on_basis_states(self):
        theta = 0.83
        for n, q, basis in [(3, 0, 5), (3, 2, 5), (4, 1, 9)]:
            sv = StateVector.from_complex(np.eye(1 << n)[basis])
            apply_1q(sv, make_application(Gate(GateKind.RZ, (q,), theta), FLOAT))
            bit = (basis >> (n - 1 - q)) & 1
            want = np.exp(1j * theta / 2) if bit else np.exp(-1j * theta / 2)
            assert sv.to_complex()[basis] == pytest.approx(want, abs=1e-15)
            assert np.count_nonzero(sv.to_complex()) == 1

    def test_random_gate_matches_kron_oracle(self):
        rng = np.random.default_rng(41)
        u = random_unitary_2x2(rng)
        psi = oracles.random_state(3, rng)
        sv = StateVector.from_complex(psi)
        apply_1q(sv, dense_app(u, 1))
        want = oracles.embed_1q(3, 1, u) @ psi
        np.testing.assert_allclose(sv.to_complex(), want, atol=1e-14)

    def test_fixed_random_gate_close_to_oracle(self):
        rng = np.random.default_rng(43)
        u = random_unitary_2x2(rng)
        psi = oracles.random_state(3, rng)
        sv = StateVector.from_complex(psi, FIXED)
        apply_1q(sv, dense_app(u, 1, FIXED))
        # oracle acts on the quantized input with the quantized matrix
        uq = np.array([[fx.FixedComplex.from_complex(complex(z)).to_complex()
                        for z in row] for row in u])
        psi_q = StateVector.from_complex(psi, FIXED).to_complex()
        want = oracles.embed_1q(3, 1, uq) @ psi_q
        got = sv.to_complex()
        assert np.max(np.abs(got.real - want.real)) <= 2**-28
        assert np.max(np.abs(got.imag - want.imag)) <= 2**-28

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stride_correctness_all_targets(self, n):
        rng = np.random.default_rng(100 + n)
        for target in range(n):
            u = random_unitary_2x2(rng)
            psi = oracles.random_state(n, rng)
            sv = StateVector.from_complex(psi)
            apply_1q(sv, dense_app(u, target))
            want = oracles.embed_1q(n, target, u) @ psi
            np.testing.assert_allclose(sv.to_complex(), want, atol=1e-13)

    def test_sparse_dense_agreement_float(self):
        rng = np.random.default_rng(47)
        g = Gate(GateKind.RZ, (1,), 1.234)
        psi = oracles.random_state(4, rng)
        a = StateVector.from_complex(psi)
        b = StateVector.from_complex(psi)
        app = make_application(g, FLOAT)
        apply_1q(a, app)
        apply_1q(b, GateApplication(app.u00, (0.0, 0.0), (0.0, 0.0), app.u11, 1, DENSE))
        np.testing.assert_array_equal(a.to_complex(), b.to_complex())

    def test_sparse_dense_agreement_fixed(self):
        rng = np.random.default_rng(53)
        g = Gate(GateKind.RZ, (0,), 1.234)
        psi = oracles.random_state(3, rng)
        a = StateVector.from_complex(psi, FIXED)
        b = StateVector.from_complex(psi, FIXED)
        app = make_application(g, FIXED)
        apply_1q(a, app)
        apply_1q(b, GateApplication(app.u00, (0, 0), (0, 0), app.u11, 0, DENSE))
        np.testing.assert_array_equal(a.planes[0], b.planes[0])
        np.testing.assert_array_equal(a.planes[1], b.planes[1])

    def test_sparse_mode_rejects_offdiagonal(self):
        with pytest.raises(ValueError):
            GateApplication((1.0, 0.0), (0.1, 0.0), (0.0, 0.0), (1.0, 0.0), 0, SPARSE)

    @pytest.mark.parametrize("entry", [(fx.RAW_MIN, fx.RAW_MIN), (1 << 40, 0), (0, -(1 << 40)), (0, 1 << 31),
                                       (fx.RAW_ONE // 2, 0.5), (np.int64(fx.RAW_MIN), np.int64(-1))])
    @pytest.mark.parametrize("mode", [SPARSE, DENSE])
    def test_fixed_entries_beyond_modulus_two_rejected(self, entry, mode):
        # (RAW_MIN, RAW_MIN), -2-2i, on the word pair (RAW_MIN, RAW_MIN) sums
        # the cross terms to 2^63, one past int64; a word beyond the Q2.30
        # range, 2^31 (modulus 2) included, or a float is not a raw word at
        # all.  Nothing is written.
        sv = StateVector(1, FIXED)
        sv.planes[:] = fx.RAW_MIN
        with pytest.raises(ValueError, match="modulus at most 2"):
            apply_1q(sv, GateApplication(entry, (0, 0), (0, 0), (fx.RAW_ONE, 0), 0, mode))
        assert (sv.planes == fx.RAW_MIN).all()

    @pytest.mark.parametrize("mode", [SPARSE, DENSE])
    def test_fixed_entries_of_modulus_two_accepted(self, mode):
        # -2 on -2-2i: both components saturate, as in the flag loop
        a, b = StateVector(1, FIXED), StateVector(1, FIXED)
        a.planes[:] = b.planes[:] = fx.RAW_MIN
        app = GateApplication((fx.RAW_MIN, 0), (0, 0), (0, 0), (np.int32(fx.RAW_MIN), np.int32(0)), 0, mode)
        apply_1q(a, app)
        apply_1q_flagloop(b, app)
        assert (a.planes == fx.RAW_MAX).all()
        assert a.planes.tobytes() == b.planes.tobytes()

    def test_target_out_of_range(self):
        sv = StateVector.zero(2)
        with pytest.raises(ValueError):
            apply_1q(sv, dense_app(np.eye(2, dtype=complex), 2))

    def test_norm_preserved_float(self):
        rng = np.random.default_rng(59)
        sv = StateVector.from_complex(oracles.random_state(6, rng))
        for _ in range(25):
            apply_1q(sv, dense_app(random_unitary_2x2(rng), int(rng.integers(0, 6))))
            assert abs(sv.norm_sq() - 1.0) <= 1e-12


class TestFlagLoop:
    def test_matches_pair_kernel_float(self):
        rng = np.random.default_rng(61)
        for n, target in [(1, 0), (3, 0), (3, 1), (3, 2), (5, 2)]:
            u = random_unitary_2x2(rng)
            psi = oracles.random_state(n, rng)
            a = StateVector.from_complex(psi)
            b = StateVector.from_complex(psi)
            app = dense_app(u, target)
            apply_1q(a, app)
            apply_1q_flagloop(b, app)
            np.testing.assert_array_equal(a.to_complex(), b.to_complex())

    def test_matches_pair_kernel_fixed(self):
        rng = np.random.default_rng(67)
        for n, target in [(2, 0), (3, 1), (4, 3)]:
            u = random_unitary_2x2(rng)
            psi = oracles.random_state(n, rng)
            a = StateVector.from_complex(psi, FIXED)
            b = StateVector.from_complex(psi, FIXED)
            app = dense_app(u, target, FIXED)
            apply_1q(a, app)
            apply_1q_flagloop(b, app)
            np.testing.assert_array_equal(a.planes[0], b.planes[0])
            np.testing.assert_array_equal(a.planes[1], b.planes[1])
        # raw words spanning [RAW_MIN, RAW_MAX], half of them at the ends:
        # products and sums saturate, and the flag loop checks the kernel's
        # rounding and saturation against the scalar fx.cmul / fx.cadd
        for n, target in [(3, 0), (4, 2), (5, 4)]:
            words = rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1, size=(2, 1 << n))
            ends = rng.random(words.shape) < 0.5
            words[ends] = rng.choice([fx.RAW_MIN, fx.RAW_MAX], size=int(ends.sum()))
            for app in (dense_app(random_unitary_2x2(rng), target, FIXED),
                        make_application(Gate(GateKind.RZ, (target,), 2.1), FIXED)):
                a, b = StateVector(n, FIXED), StateVector(n, FIXED)
                a.planes[:] = b.planes[:] = words
                apply_1q(a, app)
                apply_1q_flagloop(b, app)
                np.testing.assert_array_equal(a.planes, b.planes)

    def test_sparse_branch_matches(self):
        rng = np.random.default_rng(71)
        app = make_application(Gate(GateKind.RZ, (1,), 0.77), FLOAT)
        psi = oracles.random_state(4, rng)
        a = StateVector.from_complex(psi)
        b = StateVector.from_complex(psi)
        apply_1q(a, app)
        apply_1q_flagloop(b, app)
        np.testing.assert_array_equal(a.to_complex(), b.to_complex())


class TestFlagLoopSmallTiles(TestFlagLoop):
    """TestFlagLoop with 4-pair tiles, so its small states reach both tile
    shapes (part of one block's offsets, and groups of whole blocks)."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(engine, "_TILE", 4)


_1Q_KINDS = [GateKind.H, GateKind.S, GateKind.RX, GateKind.RY, GateKind.RZ]
# full-range raw words, about half of them at RAW_MIN / RAW_MAX
_WORDS = st.one_of(st.sampled_from([fx.RAW_MIN, fx.RAW_MAX]), st.integers(fx.RAW_MIN, fx.RAW_MAX))
# values with both signed zeros, which pin the kernel's (-ui)*x == -(ui*x)
_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


class TestKernelProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 6), arith=st.sampled_from([FIXED, FLOAT]),
           kind=st.sampled_from(_1Q_KINDS), angle=st.floats(-7.0, 7.0),
           tile=st.sampled_from([1, 2, 4, engine._TILE]), workers=st.sampled_from([1, 2, 3]))
    def test_kernel_matches_flagloop(self, data, n, arith, kind, angle, tile, workers):
        target = data.draw(st.integers(0, n - 1))
        words = data.draw(st.lists(_WORDS if arith == FIXED else _VALUES,
                                   min_size=2 << n, max_size=2 << n))
        gate = Gate(kind, (target,), angle if kind in PARAMETERIZED else None)
        app = make_application(gate, arith)
        a, b = StateVector(n, arith), StateVector(n, arith)
        a.planes[:] = b.planes[:] = np.reshape(words, (2, 1 << n))
        with mock.patch.object(engine, "_TILE", tile):
            apply_1q(a, app, workers)
        apply_1q_flagloop(b, app)
        assert a.planes.tobytes() == b.planes.tobytes()   # bits, signed zeros included


_PLAN_KINDS = _1Q_KINDS + [GateKind.CX]


# angles with exact +-pi among them: Rx(pi) and Ry(pi) have diagonal words
# that quantize to exactly 0, one nonzero entry per column
_ANGLES = st.one_of(st.sampled_from([math.pi, -math.pi]), st.floats(-7.0, 7.0))


@st.composite
def _circuits(draw, n):
    """1-12 gates of H/S/Rx/Ry/Rz/CX on n qubits, targets drawn per gate, so
    consecutive gates change stride and tile shape."""
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(_PLAN_KINDS if n > 1 else _1Q_KINDS))
        if kind is GateKind.CX:
            control = draw(st.integers(0, n - 1))
            target = draw(st.integers(0, n - 1).filter(lambda q: q != control))
            gates.append(Gate(kind, (control, target)))
        else:
            angle = draw(_ANGLES) if kind in PARAMETERIZED else None
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), angle))
    return transpile(Circuit(n, tuple(gates)))


def _gate_by_gate(sv, tc):
    """tc applied to sv one gate at a time: the scalar flag loop for
    one-qubit gates, the CX index permutation for CX (amplitude x takes
    the one at x with the target's bit flipped where the control's is 1)."""
    index = np.arange(len(sv))
    for g in tc.gates:
        if g.kind is GateKind.CX:
            c, t = g.qubits
            sv.planes[:] = sv.planes[:, index ^ (index >> (sv.n - 1 - c) & 1) << (sv.n - 1 - t)]
        else:
            apply_1q_flagloop(sv, make_application(g, sv.arith))
    return sv


class TestPlanProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 6), arith=st.sampled_from([FIXED, FLOAT]),
           tile=st.sampled_from([1, 2, 4, engine._TILE]), workers=st.sampled_from([1, 2, 3]))
    def test_run_matches_gate_by_gate(self, data, n, arith, tile, workers):
        # run_circuit's plan against the scalar flag loop and the CX permutation
        # oracle applied gate by gate, bit for bit; in float, also against the
        # dense matrix oracle within acceptance test 4's tolerance
        tc = data.draw(_circuits(n))
        words = data.draw(st.lists(_WORDS if arith == FIXED else _VALUES,
                                   min_size=2 << n, max_size=2 << n))
        a, b = StateVector(n, arith), StateVector(n, arith)
        a.planes[:] = b.planes[:] = np.reshape(words, (2, 1 << n))
        psi = a.to_complex()
        with mock.patch.object(engine, "_TILE", tile):
            _, stats = run_circuit(tc, a, workers)
        assert a.planes.tobytes() == _gate_by_gate(b, tc).planes.tobytes()
        assert stats.total_gates == len(tc.gates)
        if arith == FLOAT:
            want = oracles.circuit_matrix(n, tc.gates) @ psi
            assert np.max(np.abs(a.to_complex() - want)) <= 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 6), scale=st.floats(1.9, 2.1),
           tile=st.sampled_from([1, 2, 4, engine._TILE]), workers=st.sampled_from([1, 2, 3]))
    def test_run_near_clamp_threshold(self, data, n, scale, tile, workers):
        # fixed states with 2-norms of about 1.9-2.1 * 2^30 raw, around where
        # the saturation bound stops holding: both narrow steps run, and each
        # run matches the saturating flag loop and the CX oracle bit for bit
        tc = data.draw(_circuits(n))
        direction = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 << n, max_size=2 << n)))
        norm = np.linalg.norm(direction)
        words = np.rint(direction * (scale * fx.RAW_ONE / norm)) if norm else direction
        a, b = StateVector(n, FIXED), StateVector(n, FIXED)
        a.planes[:] = b.planes[:] = np.clip(words, fx.RAW_MIN, fx.RAW_MAX).reshape(2, 1 << n)
        with mock.patch.object(engine, "_TILE", tile):
            _, stats = run_circuit(tc, a, workers)
        assert a.planes.tobytes() == _gate_by_gate(b, tc).planes.tobytes()
        if stats.clamp_free:   # then no word of the flag loop met a clamp
            assert not np.isin(b.planes, [fx.RAW_MIN, fx.RAW_MAX]).any()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 6), arith=st.sampled_from([FIXED, FLOAT]),
           kind=st.sampled_from(["basis", "zero", "block"]),
           tile=st.sampled_from([1, 2, 4, engine._TILE]), workers=st.sampled_from([1, 2, 3]))
    def test_sparse_inputs_match_gate_by_gate(self, data, n, arith, kind, tile, workers):
        # inputs with classical qubits: a basis state, the all-zero state, or
        # random words on the amplitudes whose bits agree with `bits` on the
        # qubits of `mask`, the rest zero.  Fixed runs sweep only a compact
        # state; float runs sweep every amplitude.  Both match the flag loop
        # and the CX oracle bit for bit, signed zeros included.
        tc = data.draw(_circuits(n))
        size = 1 << n
        mask = {"basis": size - 1, "zero": 0, "block": data.draw(st.integers(0, size - 1))}[kind]
        bits = data.draw(st.integers(0, size - 1))
        block = np.flatnonzero((np.arange(size) ^ bits) & mask == 0) if kind != "zero" else np.arange(0)
        # full-range words clamp; small ones let the run be clamp-free
        values = st.one_of(_WORDS, st.integers(-fx.RAW_ONE // 8, fx.RAW_ONE // 8)) if arith == FIXED else _VALUES
        words = data.draw(st.lists(values, min_size=2 * block.size, max_size=2 * block.size))
        a, b = StateVector(n, arith), StateVector(n, arith)
        a.planes[:, block] = b.planes[:, block] = np.reshape(words, (2, block.size))
        with mock.patch.object(engine, "_TILE", tile):
            _, stats = run_circuit(tc, a, workers)
        assert a.planes.tobytes() == _gate_by_gate(b, tc).planes.tobytes()
        assert stats.swept_amps <= len(tc.gates) << n
        if arith == FLOAT:   # every one-qubit gate and every CX pass sweeps the state
            assert stats.swept_amps == (stats.sparse_gates + stats.dense_gates + stats.cx_passes) << n


@st.composite
def _cx_circuits(draw, n):
    """Circuits weighted toward CX, n >= 2: 1-4 runs of 2-8 CXs, SWAPs and
    cancelling CX pairs, each followed by 0-3 one-qubit gates (exact +-pi
    angles among them) on the run's controls or on any qubit, so dense and
    sparse gates meet qubits inside and outside the pending map."""
    qubit = st.integers(0, n - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    gates = []
    for _ in range(draw(st.integers(1, 4))):
        controls = []
        for _ in range(draw(st.integers(2, 8))):
            a, b = draw(pair)
            kind = draw(st.sampled_from(["cx", "swap", "pair"]))
            if kind == "swap":
                gates.append(Gate(GateKind.SWAP, (a, b)))
            else:
                gates += [Gate(GateKind.CX, (a, b))] * (2 if kind == "pair" else 1)
            controls.append(a)
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(_1Q_KINDS))
            angle = draw(_ANGLES) if kind in PARAMETERIZED else None
            gates.append(Gate(kind, (draw(st.one_of(st.sampled_from(controls), qubit)),), angle))
    return transpile(Circuit(n, tuple(gates)))


class TestDeferredCx:
    """CX as a pending index map (engine._track): every run matches the
    flag loop and the CX oracle gate by gate, bit for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(2, 6), arith=st.sampled_from([FIXED, FLOAT]),
           kind=st.sampled_from(["dense", "basis", "zero", "block"]),
           tile=st.sampled_from([1, 2, 4, engine._TILE]), workers=st.sampled_from([1, 2, 3]))
    def test_cx_runs_match_gate_by_gate(self, data, n, arith, kind, tile, workers):
        # sparse inputs as in test_sparse_inputs_match_gate_by_gate: in fixed
        # point their classical qubits carry frame bits into the map
        tc = data.draw(_cx_circuits(n))
        size = 1 << n
        mask = {"dense": 0, "basis": size - 1, "zero": 0, "block": data.draw(st.integers(0, size - 1))}[kind]
        bits = data.draw(st.integers(0, size - 1))
        block = np.flatnonzero((np.arange(size) ^ bits) & mask == 0) if kind != "zero" else np.arange(0)
        values = st.one_of(_WORDS, st.integers(-fx.RAW_ONE // 8, fx.RAW_ONE // 8)) if arith == FIXED else _VALUES
        words = data.draw(st.lists(values, min_size=2 * block.size, max_size=2 * block.size))
        a, b = StateVector(n, arith), StateVector(n, arith)
        a.planes[:, block] = b.planes[:, block] = np.reshape(words, (2, block.size))
        with mock.patch.object(engine, "_TILE", tile):
            _, stats = run_circuit(tc, a, workers)
        assert a.planes.tobytes() == _gate_by_gate(b, tc).planes.tobytes()
        assert stats.cx_passes <= stats.cx_gates
        assert stats.swept_amps <= len(tc.gates) << n


class TestCxPasses:
    """RunStats.cx_passes: the quarter swaps and gathers that carried out a run's CXs."""

    def test_qft17_basis_inputs_take_one_gather(self):
        # the qft-dump inputs at seed 1: every CP's CX has a classical control,
        # and the SWAP network's 24 CXs are one gather, in the write-back
        n = 17
        rng = np.random.default_rng(1)
        qft = generate_qft(n)
        for _ in range(4):
            x = int(rng.integers(0, 1 << n))
            prefix = tuple(Gate(GateKind.RX, (q,), math.pi) for q in range(n) if x >> (n - 1 - q) & 1)
            _, stats = run_circuit(transpile(Circuit(n, prefix + qft.gates)), StateVector.zero(n, FIXED))
            assert stats.cx_passes == 1

    @pytest.mark.parametrize("topology", ["chain", "alternating", "all_to_all"])
    def test_float_cx_templates_take_one_gather(self, topology):
        n = 12
        tc = transpile(generate_template(topology, n, 2, 3))
        psi = oracles.random_state(n, np.random.default_rng(131))
        sv, stats = run_circuit(tc, StateVector.from_complex(psi))
        assert (stats.cx_passes, stats.swept_amps) == (1, 1 << n)
        # amplitude x after the run is the input's at g_1(g_2(...g_k(x))),
        # each CX g flipping the target's bit where the control's is 1
        index = np.arange(1 << n)
        for g in reversed(tc.gates):
            c, t = g.qubits
            index ^= (index >> (n - 1 - c) & 1) << (n - 1 - t)
        assert sv.to_complex().tobytes() == psi[index].tobytes()

    def test_apply_cx_on_a_dense_state_is_one_quarter_swap(self):
        rng = np.random.default_rng(113)
        sv = StateVector.from_complex(oracles.random_state(6, rng))
        with mock.patch.object(engine, "_swap", wraps=engine._swap) as swap, \
                mock.patch.object(engine, "_gather", wraps=engine._gather) as gather:
            apply_cx(sv, 4, 1)
        assert (swap.call_count, gather.call_count) == (1, 0)

    def test_permutation_passes_are_one_part(self):
        # one-pair tiles and 3 workers shard every one-qubit gate; the quarter
        # swap of CX(1, 2) before H(2) and the gather of CX(1, 3), CX(2, 3)
        # before H(3) each run as one part
        gates = [Gate(GateKind.CX, (1, 2)), Gate(GateKind.H, (2,)),
                 Gate(GateKind.CX, (1, 3)), Gate(GateKind.CX, (2, 3)), Gate(GateKind.H, (3,))]
        tc = transpile(Circuit(4, tuple(gates)))
        psi = oracles.random_state(4, np.random.default_rng(137))
        a, b = StateVector.from_complex(psi), StateVector.from_complex(psi)
        with mock.patch.object(engine, "_TILE", 1), \
                mock.patch.object(engine, "_swap", wraps=engine._swap) as swap, \
                mock.patch.object(engine, "_gather", wraps=engine._gather) as gather:
            _, stats = run_circuit(tc, a, 3)
        assert (stats.cx_passes, swap.call_count, gather.call_count) == (2, 1, 1)
        assert a.planes.tobytes() == _gate_by_gate(b, tc).planes.tobytes()

    def test_cancelled_pair_makes_no_pass(self):
        rng = np.random.default_rng(127)
        psi = oracles.random_state(5, rng)
        for arith in (FIXED, FLOAT):
            sv = StateVector.from_complex(psi, arith)
            want = sv.planes.copy()
            tc = transpile(Circuit(5, (Gate(GateKind.CX, (3, 0)), Gate(GateKind.CX, (3, 0)))))
            _, stats = run_circuit(tc, sv)
            assert (stats.cx_passes, stats.swept_amps) == (0, 0)
            assert sv.planes.tobytes() == want.tobytes()


class TestSweptAmps:
    """RunStats.swept_amps: the amplitudes each executed step ran on."""

    def test_dense_input_sweeps_every_amplitude(self):
        rng = np.random.default_rng(107)
        tc = transpile(generate_template("rotation", 5, 2, 3))
        tc = transpile(Circuit(5, tc.gates + transpile(generate_qft(5)).gates))
        for arith in (FIXED, FLOAT):
            sv = StateVector.from_complex(oracles.random_state(5, rng), arith)
            _, stats = run_circuit(tc, sv)
            assert stats.swept_amps == (stats.sparse_gates + stats.dense_gates + stats.cx_passes) << 5

    def test_qft17_basis_inputs_sweep_a_tenth_at_most(self):
        # the basis inputs of perfbench's qft-dump workload at seed 1: Rx(pi)
        # on the qubits whose bit of x is 1, then QFT(17), from |0...0>
        n = 17
        rng = np.random.default_rng(1)
        qft = generate_qft(n)
        swept = 0
        for _ in range(4):
            x = int(rng.integers(0, 1 << n))
            prefix = tuple(Gate(GateKind.RX, (q,), math.pi) for q in range(n) if x >> (n - 1 - q) & 1)
            _, stats = run_circuit(transpile(Circuit(n, prefix + qft.gates)), StateVector.zero(n, FIXED))
            swept += stats.swept_amps
        assert swept <= 0.1 * 4 * 721 * 2 ** n

    def test_cx_with_classical_control_sweeps_nothing(self):
        # |10>: both qubits are classical.  CX(0, 1) has control 1 and flips
        # qubit 1's frame (|11>), CX(1, 0) then flips qubit 0's (|01>); no
        # step runs
        sv = StateVector.from_complex([0, 0, 1, 0], FIXED)
        _, stats = run_circuit(transpile(Circuit(2, (Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (1, 0))))), sv)
        assert stats.swept_amps == 0
        assert sv.planes[0].tolist() == [0, fx.RAW_ONE, 0, 0]


class TestRawNorm:
    @pytest.mark.parametrize("n", [1, 3, 14, 15])
    def test_matches_the_exact_sum_of_squares(self, n):
        # full-range words, about half at RAW_MIN / RAW_MAX, over one partial
        # chunk up to four full ones: within a relative 2^-38 of the exact root
        rng = np.random.default_rng(109 + n)
        planes = rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1, size=(2, 1 << n)).astype(np.int32)
        ends = rng.random(planes.shape) < 0.5
        planes[ends] = rng.choice([fx.RAW_MIN, fx.RAW_MAX], size=int(ends.sum()))
        exact = math.sqrt(sum(w * w for w in planes.ravel().tolist()))
        assert abs(engine._raw_norm(planes) - exact) <= 2.0 ** -38 * exact
        assert engine._raw_norm(np.zeros((2, 1 << n), np.int32)) == 0.0


class TestClampFree:
    """The per-run choice of narrow steps (engine._clamp_free)."""

    def test_zero_state_runs_are_clamp_free(self):
        for tc in (transpile(generate_qft(6)), transpile(generate_template("rotation", 5, 3, 7))):
            _, stats = run_circuit(tc, StateVector.zero(tc.n, FIXED))
            assert stats.clamp_free
            _, stats = run_circuit(tc, StateVector.zero(tc.n, FLOAT))
            assert not stats.clamp_free   # float runs have no clamps to skip

    def test_full_range_words_clamp(self):
        # TestFlagLoop's full-range words: the bound fails, the run clamps,
        # and it still matches the flag loop
        rng = np.random.default_rng(67)
        n = 4
        words = rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1, size=(2, 1 << n))
        ends = rng.random(words.shape) < 0.5
        words[ends] = rng.choice([fx.RAW_MIN, fx.RAW_MAX], size=int(ends.sum()))
        tc = transpile(Circuit(n, (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 3)),
                                   Gate(GateKind.RZ, (2,), 2.1), Gate(GateKind.RY, (3,), 0.4))))
        a, b = StateVector(n, FIXED), StateVector(n, FIXED)
        a.planes[:] = b.planes[:] = words
        _, stats = run_circuit(tc, a)
        assert not stats.clamp_free
        assert a.planes.tobytes() == _gate_by_gate(b, tc).planes.tobytes()

    def test_clamping_run_saturates_a_word(self):
        # H on (RAW_MAX, RAW_MAX): the exact sum, 2^31.5 raw, is beyond RAW_MAX
        sv = StateVector(1, FIXED)
        sv.planes[0] = fx.RAW_MAX
        want = StateVector(1, FIXED)
        want.planes[:] = sv.planes
        tc = transpile(Circuit(1, (Gate(GateKind.H, (0,)),)))
        exact = oracles.circuit_matrix(1, tc.gates) @ sv.to_complex() * fx.RAW_ONE
        assert exact[0].real > fx.RAW_MAX
        _, stats = run_circuit(tc, sv)
        assert not stats.clamp_free
        assert sv.planes[0, 0] == fx.RAW_MAX
        assert sv.planes.tobytes() == _gate_by_gate(want, tc).planes.tobytes()

    def test_clamp_free_run_near_the_top(self):
        # one word 4096 raw units below RAW_MAX, moved between the planes by S
        # and between amplitudes by CX: the bound holds, nothing may clamp,
        # and the run keeps the word's modulus, within 2^-19 of the range
        n, w = 3, fx.RAW_MAX - 4096
        tc = transpile(Circuit(n, tuple(Gate(GateKind.S, (q,)) for q in range(n))
                               + (Gate(GateKind.CX, (0, 1)),) + tuple(Gate(GateKind.S, (q,)) for q in range(n))))
        sv, want = StateVector(n, FIXED), StateVector(n, FIXED)
        sv.planes[0, -1] = want.planes[0, -1] = w
        _, stats = run_circuit(tc, sv)
        assert stats.clamp_free
        assert np.abs(sv.planes).max() == w
        assert sv.planes.tobytes() == _gate_by_gate(want, tc).planes.tobytes()

    def test_non_unitary_gates_saturate(self):
        # apply_1q takes any entries: the bound must use the gates' own
        # norms, since one near 2 takes a state of norm 1.2-1.5 past RAW_MAX
        # while a quantized unitary's bound would let the words wrap
        dense = GateApplication((fx.RAW_MAX, 0), (0, 0), (0, 0), (fx.RAW_ONE, 0), 0, DENSE)
        u00 = 1.9 * np.exp(0.2j) * fx.RAW_ONE
        sparse = GateApplication((round(u00.real), round(u00.imag)), (0, 0), (0, 0), (fx.RAW_ONE, 0), 0, SPARSE)
        x = 1.15 * np.exp(-0.2j) * fx.RAW_ONE
        for app, n, amps in ((dense, 1, [[3 << 29, 0], [0, 0]]),
                             (sparse, 2, [[round(x.real), 0, 0, 3 << 28], [round(x.imag), 0, 0, 3 << 27]])):
            a, b = StateVector(n, FIXED), StateVector(n, FIXED)
            a.planes[:] = b.planes[:] = amps
            assert 1.1 < math.sqrt(a.norm_sq()) < 1.6
            apply_1q(a, app)
            apply_1q_flagloop(b, app)
            assert a.planes[0, 0] == fx.RAW_MAX
            assert a.planes.tobytes() == b.planes.tobytes()

    def test_gate_norms_bound_the_matrix_norm(self):
        # s_g is at least the 2-norm of the words' matrix, from full-range
        # words to quantized unitaries, and below 1 + 2^-28 for the latter
        rng = np.random.default_rng(73)
        full = rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1, size=(2000, 4, 2))
        full[0], full[1] = [fx.RAW_MIN, 0], 0        # all entries -2; the zero matrix
        full[2] = [[fx.RAW_ONE, 0], [0, 0], [0, 0], [0, 1]]
        gates = [Gate(kind, (0,), angle) for kind in (GateKind.RX, GateKind.RY, GateKind.RZ)
                 for angle in rng.uniform(-7.0, 7.0, 300)] + [Gate(GateKind.H, (0,)), Gate(GateKind.S, (0,))]
        unitary = engine._words(np.array([gate_matrix(g) for g in gates]), FIXED)
        for words in (full, unitary):
            m = words.astype(np.float64) / fx.RAW_ONE
            exact = np.linalg.svd((m[..., 0] + 1j * m[..., 1]).reshape(-1, 2, 2), compute_uv=False)[:, 0]
            s = engine._gate_norms(words)
            assert (s >= exact * (1.0 + 2.0 ** -42)).all()
            assert (s <= exact * (1.0 + 2.0 ** -39) + 2.0 ** -60).all()
        assert engine._gate_norms(unitary).max() < 1.0 + 2.0 ** -28

    def test_cx_only_runs_are_clamp_free(self):
        # a permutation cannot saturate: full-range words, no norm pass
        rng = np.random.default_rng(79)
        sv = StateVector(3, FIXED)
        sv.planes[:] = rng.choice([fx.RAW_MIN, fx.RAW_MAX], size=(2, 8))
        want = sv.planes[:, [0, 1, 2, 3, 6, 7, 4, 5]]
        with mock.patch.object(engine, "_raw_norm", side_effect=AssertionError):
            _, stats = run_circuit(transpile(Circuit(3, (Gate(GateKind.CX, (0, 1)),))), sv)
            apply_cx(sv, 0, 1)
            apply_cx(sv, 0, 1)
        assert stats.clamp_free
        assert sv.planes.tobytes() == want.tobytes()

    def test_bound_monotone_in_norm_and_gates(self):
        norms = [0.0, 1.0, 2.0 ** 20, 2.0 ** 30, 2.0 ** 31, 1e300]
        gates = [0, 1, 12, 721, 1 << 20, 1 << 40, 10 ** 400]
        for words in (2, 1 << 18):
            table = [[engine._saturation_bound(nu, g, words) for g in gates] for nu in norms]
            for row in table:
                assert row == sorted(row)
            for column in zip(*table):
                assert list(column) == sorted(column)
            assert table[0][-1] == math.inf   # the power overflows: no run is clamp-free
            assert table[3][0] > 2.0 ** 30     # nu itself is raised for float error


class TestApplyCx:
    def test_defining_action(self):
        sv = StateVector.from_complex([0, 0, 1, 0])          # |10>
        apply_cx(sv, 0, 1)
        np.testing.assert_array_equal(sv.to_complex(), [0, 0, 0, 1])   # |11>

    def test_control_not_set(self):
        sv = StateVector.from_complex([0, 1, 0, 0])          # |01>
        apply_cx(sv, 0, 1)
        np.testing.assert_array_equal(sv.to_complex(), [0, 1, 0, 0])

    def test_all_pairs_match_permutation_oracle(self):
        rng = np.random.default_rng(73)
        for n in range(2, 7):
            psi = oracles.random_state(n, rng)
            for control in range(n):
                for target in range(n):
                    if control == target:
                        continue
                    sv = StateVector.from_complex(psi)
                    apply_cx(sv, control, target)
                    want = oracles.cx_matrix(n, control, target) @ psi
                    np.testing.assert_array_equal(sv.to_complex(), want)

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(79)
        psi = oracles.random_state(5, rng)
        for arith in (FLOAT, FIXED):
            sv = StateVector.from_complex(psi, arith)
            before = sv.to_complex()
            apply_cx(sv, 1, 3)
            apply_cx(sv, 1, 3)
            np.testing.assert_array_equal(sv.to_complex(), before)

    def test_fixed_is_pure_permutation(self):
        rng = np.random.default_rng(83)
        sv = StateVector.from_complex(oracles.random_state(4, rng), FIXED)
        words = sorted(zip(sv.planes[0].tolist(), sv.planes[1].tolist()))
        apply_cx(sv, 2, 0)
        assert sorted(zip(sv.planes[0].tolist(), sv.planes[1].tolist())) == words

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            apply_cx(StateVector.zero(2), 1, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_cx(StateVector.zero(2), 0, 2)


class TestRunCircuit:
    def test_empty_circuit(self):
        tc = transpile(Circuit(3, ()))
        sv, stats = run_circuit(tc, StateVector.zero(3))
        np.testing.assert_array_equal(sv.to_complex(), StateVector.zero(3).to_complex())
        assert stats.total_gates == 0

    def test_counts_by_class(self):
        c = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.S, (1,)),
                        Gate(GateKind.CX, (0, 1)), Gate(GateKind.RZ, (0,), 0.1)))
        _, stats = run_circuit(transpile(c), StateVector.zero(2))
        assert (stats.sparse_gates, stats.dense_gates, stats.cx_gates) == (2, 1, 1)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(89)
        kinds = ["h", "s", "rx", "ry", "rz", "cx"]
        for n in (2, 4, 6):
            for _ in range(5):
                gates = []
                for _ in range(20):
                    kind = kinds[rng.integers(0, len(kinds))]
                    qs = list(rng.choice(n, size=2, replace=False))
                    if kind in ("h", "s"):
                        gates.append(Gate(GateKind(kind), (qs[0],)))
                    elif kind == "cx":
                        gates.append(Gate(GateKind.CX, tuple(qs)))
                    else:
                        gates.append(Gate(GateKind(kind), (qs[0],), float(rng.uniform(-6, 6))))
                tc = transpile(Circuit(n, tuple(gates)))
                psi = oracles.random_state(n, rng)
                sv = StateVector.from_complex(psi)
                run_circuit(tc, sv)
                want = oracles.circuit_matrix(n, tc.gates) @ psi
                assert np.max(np.abs(sv.to_complex() - want)) < 1e-10

    def test_qft_equal_superposition(self):
        for n in (1, 4, 8):
            tc = transpile(generate_qft(n))
            sv, _ = run_circuit(tc, StateVector.zero(n))
            # compensating the transpile phase leaves exactly 1/sqrt(N)
            amps = np.exp(1j * tc.global_phase) * sv.to_complex()
            np.testing.assert_allclose(amps, np.full(1 << n, 1 / math.sqrt(1 << n)), atol=1e-12)

    def test_qft_matches_dft_matrix(self):
        for n in (1, 2, 3, 5):
            tc = transpile(generate_qft(n))
            got = np.exp(1j * tc.global_phase) * oracles.circuit_matrix(n, tc.gates)
            np.testing.assert_allclose(got, oracles.dft_matrix(n), atol=1e-12)

    def test_linearity_float(self):
        rng = np.random.default_rng(97)
        tc = transpile(Circuit(3, (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 2)),
                                   Gate(GateKind.RY, (1,), 0.9))))
        psi, phi = oracles.random_state(3, rng), oracles.random_state(3, rng)
        a, b = 0.6, complex(0.4, 0.3)
        mixed = StateVector.from_complex(a * psi + b * phi)
        run_circuit(tc, mixed)
        pa = StateVector.from_complex(psi)
        pb = StateVector.from_complex(phi)
        run_circuit(tc, pa)
        run_circuit(tc, pb)
        np.testing.assert_allclose(mixed.to_complex(), a * pa.to_complex() + b * pb.to_complex(), atol=1e-12)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            run_circuit(transpile(Circuit(3, ())), StateVector.zero(2))


class TestReferenceRun:
    def test_bit_for_bit_with_float_run(self):
        tc = transpile(generate_qft(5))
        ref = reference_run(tc, StateVector.zero(5, FIXED))
        direct, _ = run_circuit(tc, StateVector.zero(5, FLOAT))
        np.testing.assert_array_equal(ref.to_complex(), direct.to_complex())

    def test_qft8_amplitudes(self):
        tc = transpile(generate_qft(8))
        ref = reference_run(tc, StateVector.zero(8))
        amps = np.exp(1j * tc.global_phase) * ref.to_complex()
        np.testing.assert_allclose(amps, np.full(256, 1 / 16), atol=1e-12)

    def test_input_not_mutated(self):
        tc = transpile(generate_qft(3))
        src = StateVector.zero(3, FIXED)
        reference_run(tc, src)
        assert src.planes[0][0] == fx.RAW_ONE and not src.planes[0][1:].any()


# sha256 of the QFT(6) dumps, recorded from the complex128 / twin-int32
# engine that preceded the planar layout
QFT6_DUMP_SHA256 = {
    FIXED: "f0e745af1afa0acaecb32fe83a4ff8d325600d62252f070601e1e4f94e2a9d47",
    FLOAT: "35dba8c476c929444ef9f4c2bbd28b240d643dba9cac5de7346c6a856db7bf27",
}


class TestWorkers:
    @pytest.mark.parametrize("arith", [FLOAT, FIXED])
    def test_dumps_identical_across_worker_counts(self, arith):
        tc = transpile(generate_qft(6))
        base = None
        for workers in (1, 2, 4, 8):
            sv, _ = run_circuit(tc, StateVector.zero(6, arith), workers)
            dump = format_dump(sv)
            if base is None:
                base = dump
            else:
                assert dump == base
        assert hashlib.sha256(base.encode()).hexdigest() == QFT6_DUMP_SHA256[arith]


class TestWorkersSmallTiles(TestWorkers):
    """TestWorkers with 4-pair tiles: QFT(6) has 8 tiles, one shard per worker."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(engine, "_TILE", 4)

    def test_concurrent_callers_share_one_pool(self):
        # callers on several threads shard their gates over the shared pool,
        # which is replaced by a larger one while the others still use it
        tc = transpile(generate_qft(6))
        counts = (2, 3, 5, 8)
        digests = {}

        def run(workers):
            for arith in (FLOAT, FIXED):
                sv, _ = run_circuit(tc, StateVector.zero(6, arith), workers)
                digests[workers, arith] = hashlib.sha256(format_dump(sv).encode()).hexdigest()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in counts]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert digests == {(w, a): QFT6_DUMP_SHA256[a] for w in counts for a in (FLOAT, FIXED)}
        pool = engine._pool
        run_circuit(tc, StateVector.zero(6, FIXED), 2)
        assert engine._pool is pool   # one pool across gates and runs, not one per gate


# A 2-qubit fixed dump, header first, edited per case of TestDumpFormat's
# rejection table: {file line: new text, or None to drop the line}.
_DUMP2 = ["n=2 arith=fixed", "0 40000000 00000000 1.0 0.0", "1 00000000 00000000 0.0 0.0",
          "2 00000000 00000000 0.0 0.0", "3 00000000 00000000 0.0 0.0"]


def _per_line_dump(sv) -> str:
    """The dump text by the per-line writer format_dump replaced: two float
    reprs per line, formatted one line at a time."""
    values = sv._values()
    line = "{} {:08x} {:08x} {!r} {!r}\n".format
    return f"n={sv.n} arith={sv.arith}\n" + "".join(map(line, range(1 << sv.n), *fx.to_fixed_array(values).view(np.uint32).tolist(),
                                                         *values.tolist()))


def _traced_peak(fn):
    """fn() and the peak of the memory traced while it ran, above what was
    traced when it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def _edited_dump(edits: dict) -> str:
    lines = [edits.get(k, ln) for k, ln in enumerate(_DUMP2, start=1)]
    return "\n".join(ln for ln in lines if ln is not None) + "\n"


class TestDumpFormat:
    def test_header_and_shape(self):
        sv = StateVector.zero(2, FIXED)
        lines = format_dump(sv).splitlines()
        assert lines[0] == "n=2 arith=fixed"
        assert len(lines) == 5
        assert lines[1].split() == ["0", "40000000", "00000000", "1.0", "0.0"]

    def test_round_trip_fixed(self):
        rng = np.random.default_rng(101)
        sv = StateVector.from_complex(oracles.random_state(3, rng), FIXED)
        back = parse_dump(format_dump(sv))
        np.testing.assert_array_equal(back.planes[0], sv.planes[0])
        np.testing.assert_array_equal(back.planes[1], sv.planes[1])

    def test_round_trip_float(self):
        rng = np.random.default_rng(103)
        sv = StateVector.from_complex(oracles.random_state(3, rng))
        back = parse_dump(format_dump(sv))
        np.testing.assert_array_equal(back.to_complex(), sv.to_complex())

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 5), arith=st.sampled_from([FIXED, FLOAT]),
           piece=st.sampled_from([1, 50, engine._DUMP_PIECE]), chunk=st.sampled_from([1, 3, engine._DUMP_SLICE]))
    def test_format_parse_format_identical(self, data, n, arith, piece, chunk):
        # full-range fixed words, RAW_MIN / RAW_MAX included; any finite float,
        # both signed zeros and subnormals included; text split into lines a
        # piece of `piece` characters at a time, written `chunk` lines at a time
        values = _WORDS if arith == FIXED else st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1040]), st.floats(allow_nan=False, allow_infinity=False))
        sv = StateVector(n, arith)
        sv.planes[:] = np.reshape(data.draw(st.lists(values, min_size=2 << n, max_size=2 << n)), (2, 1 << n))
        with mock.patch.object(engine, "_DUMP_PIECE", piece), mock.patch.object(engine, "_DUMP_SLICE", chunk):
            text = format_dump(sv)
            back = parse_dump(text)
        assert back.arith == arith and back.planes.tobytes() == sv.planes.tobytes()
        assert format_dump(back) == text

    def test_rejects_repeated_index(self):
        lines = format_dump(StateVector.zero(2, FIXED)).splitlines()
        lines[2] = "0" + lines[2][1:]      # index 1 relabelled 0
        with pytest.raises(ValueError, match="repeated"):
            parse_dump("\n".join(lines))

    def test_rejects_missing_header_key(self):
        lines = format_dump(StateVector.zero(2, FLOAT)).splitlines()
        lines[0] = "n=2"
        with pytest.raises(ValueError, match="header"):
            parse_dump("\n".join(lines))

    @pytest.mark.parametrize("arith,line,match", [
        (FLOAT, "0 zzzzzzzz 00000000 1.0 0.0", "line 2: unreadable"),        # bad hex
        (FIXED, "0 40000000 00000000 nonsense 0.0", "line 2: unreadable"),   # bad float
        (FIXED, "0 40000000 00000000 0.5 0.0", "index 0: hex"),              # columns disagree
        (FLOAT, "0 40000000 00000000 nan 0.0", "non-finite"),
    ])
    def test_rejects_bad_columns(self, arith, line, match):
        lines = format_dump(StateVector.zero(1, arith)).splitlines()
        lines[1] = line
        with pytest.raises(ValueError, match=match):
            parse_dump("\n".join(lines))

    @pytest.mark.parametrize("edits,message", [
        ({3: "1 00000000 00000000 0.0"}, "dump line 3: expected 5 fields, got 4"),
        ({3: "1 00000000 00000000 0.0 0.0 0.0"}, "dump line 3: expected 5 fields, got 6"),
        ({3: "x 00000000 00000000 0.0 0.0"}, "dump line 3: unreadable field in 'x 00000000 00000000 0.0 0.0'"),
        ({3: "1.0 00000000 00000000 0.0 0.0"}, "dump line 3: unreadable field in '1.0 00000000 00000000 0.0 0.0'"),
        ({3: "1 0000000g 00000000 0.0 0.0"}, "dump line 3: unreadable field in '1 0000000g 00000000 0.0 0.0'"),
        ({3: "1 00000000 -0000001 0.0 0.0"}, "dump line 3: unreadable field in '1 00000000 -0000001 0.0 0.0'"),
        ({3: "1 00000000 00000000 0.0.0 0.0"}, "dump line 3: unreadable field in '1 00000000 00000000 0.0.0 0.0'"),
        ({3: "1 00000000 00000000 0.0 nonsense"}, "dump line 3: unreadable field in '1 00000000 00000000 0.0 nonsense'"),
        ({3: "1 100000000 00000000 0.0 0.0"}, "dump line 3: unreadable field in '1 100000000 00000000 0.0 0.0'"),
        ({3: "1 00000000 fffffffff 0.0 0.0"}, "dump line 3: unreadable field in '1 00000000 fffffffff 0.0 0.0'"),
        ({3: "4 00000000 00000000 0.0 0.0"}, "dump line 3: index 4 out of range or repeated"),
        ({3: "-1 00000000 00000000 0.0 0.0"}, "dump line 3: index -1 out of range or repeated"),
        ({3: "99999999999999999999 00000000 00000000 0.0 0.0"},
         "dump line 3: index 99999999999999999999 out of range or repeated"),
        ({4: "1 00000000 00000000 0.0 0.0"}, "dump line 4: index 1 out of range or repeated"),
        ({5: None}, "n=2 needs 2^2 amplitude lines, got 3"),
        ({5: "3 00000000 00000000 0.0 0.0\n4 00000000 00000000 0.0 0.0"}, "n=2 needs 2^2 amplitude lines, got 5"),
        ({2: "0 40000000 00000000 inf 0.0"}, "cannot quantize non-finite values"),
        ({4: "2 00000000 00000000 0.0 -nan"}, "cannot quantize non-finite values"),
        ({4: "2 00000000 00000001 0.0 0.0"}, "dump index 2: hex columns are not the quantized float columns"),
        # the first disagreeing index, not line, is named
        ({3: "3 00000000 00000001 0.0 0.0", 5: "1 00000000 00000000 0.5 0.0"},
         "dump index 1: hex columns are not the quantized float columns"),
        # the first bad line is named; line errors come before value errors
        ({3: "1 00000000 00000000 nan 0.0", 4: "2 x 00000000 0.0 0.0", 5: "3 00000000"},
         "dump line 4: unreadable field in '2 x 00000000 0.0 0.0'"),
        ({2: "0 40000000 00000000 0.5 0.0", 4: "2 00000000 00000000 inf 0.0"}, "cannot quantize non-finite values"),
        # blank lines are skipped and not counted
        ({2: "\n  \t\n0 40000000 00000000 1.0 0.0\n", 4: "\n2 00000000 00000000 0.0"},
         "dump line 4: expected 5 fields, got 4"),
        ({1: "\nn=2 arith=fixed\n", 4: None}, "n=2 needs 2^2 amplitude lines, got 3"),
        # the header's n is a plain ASCII numeral, as the body's fields are
        ({1: "n=\u0662 arith=fixed"}, "dump header must be 'n=<n> arith=<fixed|float>', got 'n=\u0662 arith=fixed'"),
        ({1: "n=0_2 arith=fixed"}, "dump header must be 'n=<n> arith=<fixed|float>', got 'n=0_2 arith=fixed'"),
        # no line but a blank one: no header at all
        (dict.fromkeys(range(1, 6)), "dump header must be 'n=<n> arith=<fixed|float>', got ''"),
    ])
    def test_rejection_table(self, edits, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_dump(_edited_dump(edits))

    @pytest.mark.parametrize("edits", [
        {3: "1 0 00000000 0.0 0.0"},                  # hex without its leading zeros
        {3: "1 00000000 000000000 0.0 0.0"},          # hex with one leading zero too many
        {2: "0 0x40000000 00000000 1.0 0.0"},         # hex with a 0x prefix
        {2: "0 0x400000 00000000 0.00390625 0.0"},    # the same, 8 characters long
        {2: "0 4000_0000 00000000 1.0 0.0"},          # hex with an underscore
        {3: "0_1 00000000 00000000 0.0 0.0"},         # index with an underscore
        {3: "\u0661 00000000 00000000 0.0 0.0"},      # index in Arabic-Indic digits
        {2: "0 40000000 00000000 1.0_0 0.0"},         # float with an underscore
        {2: "0 40000000 00000000 \u0661.0 0.0"},      # float in Arabic-Indic digits
    ])
    def test_rejects_non_canonical_numerals(self, edits):
        # int(), int(x, 16) and float() accept these; the reader takes only
        # plain ASCII numerals and 8-digit hex, as format_dump writes them
        [(lineno, line)] = edits.items()
        with pytest.raises(ValueError, match=f"^dump line {lineno}: unreadable field in {re.escape(repr(line))}$"):
            parse_dump(_edited_dump(edits))

    @pytest.mark.parametrize("kind", ["fixed", "float", "qft"])
    def test_writer_matches_per_line_oracle(self, kind):
        # n=17 crosses many dump slices and the 10^4 and 10^5 index widths
        rng = np.random.default_rng(1717)
        if kind == "fixed":
            sv = StateVector.from_complex(oracles.random_state(17, rng), FIXED)
        elif kind == "float":   # any magnitude, signed zeros and subnormals
            sv = StateVector(17, FLOAT)
            sv.planes[:] = rng.normal(size=(2, 1 << 17)) * 10.0 ** rng.integers(-300, 300, size=(2, 1 << 17))
            sv.planes[:, ::5] = 0.0
            sv.planes[:, 1::5] = -0.0
            sv.planes[:, 2::5] = 5e-324 * rng.integers(-2 ** 52, 2 ** 52, size=sv.planes[:, 2::5].shape)
        else:   # a fixed QFT of a basis state, as qea-sim run dumps it: few magnitudes, each many times
            sv = StateVector(17, FIXED)
            sv.planes[0, int(rng.integers(0, 1 << 17))] = fx.RAW_ONE
            run_circuit(transpile(generate_qft(17)), sv)
            assert np.unique(np.abs(sv.planes)).size < sv.planes.size // 4
        text = format_dump(sv)
        assert text == _per_line_dump(sv)
        assert format_dump(parse_dump(text)) == text

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 6), arith=st.sampled_from([FIXED, FLOAT]),
           chunk=st.sampled_from([1, 3, engine._DUMP_SLICE]))
    def test_repeated_magnitudes_match_per_line_oracle(self, data, n, arith, chunk):
        # planes drawn from a pool of 1-4 magnitudes and 0, each with a random
        # sign: the writer's table holds each magnitude once for both signs,
        # 0.0 and -0.0 included (fixed words: 0 and the full range, RAW_MIN too)
        magnitude = st.one_of(st.sampled_from([0, 1, fx.RAW_ONE, 1 << 31]), st.integers(0, 1 << 31)) \
            if arith == FIXED else st.one_of(st.sampled_from([5e-324, 2.0 ** -1040, 2.2250738585072014e-308,
                                                              1.7976931348623157e308]),
                                             st.floats(0.0, allow_nan=False, allow_infinity=False))
        pool = data.draw(st.lists(magnitude, min_size=1, max_size=4)) + [0]
        picks = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=2 << n, max_size=2 << n)))
        signs = np.array(data.draw(st.lists(st.booleans(), min_size=2 << n, max_size=2 << n)))
        sv = StateVector(n, arith)
        signed = np.where(signs, -picks, picks)
        sv.planes[:] = (np.clip(signed, fx.RAW_MIN, fx.RAW_MAX) if arith == FIXED else signed).reshape(2, -1)
        with mock.patch.object(engine, "_DUMP_SLICE", chunk):
            assert format_dump(sv) == _per_line_dump(sv)

    @pytest.mark.parametrize("arith", [FIXED, FLOAT])
    def test_writer_peak_memory(self, arith):
        # every magnitude distinct, the writer's largest table of reprs: its
        # traced peak stays within 3x the text.  A memory bound, not a time one.
        sv = StateVector.from_complex(oracles.random_state(14, np.random.default_rng(1414)), arith)
        format_dump(sv)   # first-call allocations out of the count
        text, peak = _traced_peak(lambda: format_dump(sv))
        assert peak <= 3 * len(text)

    def test_short_text_refused_before_allocating(self):
        # a two-line text cannot hold 2^28 amplitude lines: parse_dump
        # refuses it before allocating a 2 GiB state
        def parse():
            with pytest.raises(ValueError, match=r"^n=28 needs 2\^28 amplitude lines, got 1$"):
                parse_dump("n=28 arith=fixed\n0 40000000 00000000 1.0 0.0\n")
        assert _traced_peak(parse)[1] < 1 << 20

    @pytest.mark.parametrize("edits,words", [
        ({}, [0x40000000, 0, 0, 0, 0, 0, 0, 0]),
        ({1: "\n \t\nn=2 arith=fixed", 3: "\n\n1 00000000 00000000 0.0 0.0\n   ",
          5: "3\t00000000  00000000 \t0.0 0.0 "}, [0x40000000, 0, 0, 0, 0, 0, 0, 0]),
        ({4: "2 0000000A 3FFFFFFF 9.313225746154785e-09 0.9999999990686774"},
         [0x40000000, 0, 0xA, 0, 0, 0, 0x3FFFFFFF, 0]),
        ({2: "3 00000000 c0000000 0.0 -1.0", 5: "0 40000000 00000000 1 +0"},
         [0x40000000, 0, 0, 0, 0, 0, 0, 0xC0000000]),
    ])
    def test_accepted_variants(self, edits, words):
        # blank lines, tabs and runs of spaces, upper-case hex, signs, short floats
        assert parse_dump(_edited_dump(edits)).planes.view(np.uint32).ravel().tolist() == words


class TestDumpFormatSmallPieces(TestDumpFormat):
    """TestDumpFormat with the text split one line at a time and written in
    4-line chunks, so pieces hold the header alone, blank lines alone, or
    one body line."""

    @pytest.fixture(autouse=True)
    def small_pieces(self, monkeypatch):
        monkeypatch.setattr(engine, "_DUMP_PIECE", 1)
        monkeypatch.setattr(engine, "_DUMP_SLICE", 4)

    # run once above: the property tests set their sizes themselves, 2^17
    # one-line pieces make the oracle test slow, and the memory bound is
    # the default slice's
    test_format_parse_format_identical = test_writer_matches_per_line_oracle = None
    test_repeated_magnitudes_match_per_line_oracle = test_writer_peak_memory = None


@pytest.mark.nightly
@pytest.mark.parametrize("arith", [FIXED, FLOAT])
def test_dump_round_trip_n20(arith):
    """n=20, the first size whose indices cross the 10^6 width: the text
    survives parse_dump and format_dump unchanged (no time bound)."""
    sv = StateVector.from_complex(oracles.random_state(20, np.random.default_rng(2020)), arith)
    text = format_dump(sv)
    assert format_dump(parse_dump(text)) == text
