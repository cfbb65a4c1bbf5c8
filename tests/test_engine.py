import hashlib
import math

import numpy as np
import pytest

import oracles
from qea_sim import fixedpoint as fx
from qea_sim.circuit import DENSE, SPARSE, Circuit, Gate, GateKind, transpile
from qea_sim.engine import (FIXED, FLOAT, GateApplication, StateVector,
                            apply_1q, apply_1q_flagloop, apply_cx,
                            format_dump, make_application, parse_dump,
                            reference_run, run_circuit)
from qea_sim.generators import generate_qft


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
