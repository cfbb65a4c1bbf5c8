import json
from unittest import mock

import numpy as np
import pytest

import oracles
from qea_sim import pe_model
from qea_sim.engine import FIXED, StateVector
from qea_sim.generators import generate_qft, generate_template
from qea_sim.metrics import (bench_circuit, fidelity, mse, ngs, norm_error,
                             reports_to_jsonl, run_benchmark)


def basis_state(n, i):
    v = np.zeros(1 << n, dtype=complex)
    v[i] = 1.0
    return v


class TestFidelity:
    def test_self_is_one(self):
        rng = np.random.default_rng(1)
        psi = oracles.random_state(4, rng)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert fidelity(basis_state(3, 0), basis_state(3, 1)) == 0.0

    def test_phase_compensation(self):
        rng = np.random.default_rng(2)
        psi = oracles.random_state(4, rng)
        phi = 0.77
        rotated = np.exp(1j * phi) * psi
        assert fidelity(psi, rotated, -phi) == pytest.approx(1.0, abs=1e-12)
        # and fidelity itself is phase-insensitive in magnitude
        assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_norm_invariance(self):
        rng = np.random.default_rng(3)
        psi = oracles.random_state(4, rng)
        assert fidelity(psi, 0.5 * psi) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = oracles.random_state(5, rng)
        b = oracles.random_state(5, rng)
        assert fidelity(a, b, 0.3) == pytest.approx(fidelity(b, a, -0.3), abs=1e-12)

    def test_accepts_state_vectors(self):
        sv = StateVector.zero(3, FIXED)
        assert fidelity(sv, StateVector.zero(3)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(basis_state(2, 0), basis_state(3, 0))
        with pytest.raises(ValueError, match="^dimension mismatch: 4 vs 8 amplitudes$"):
            mse(basis_state(2, 0), StateVector.zero(3, FIXED))

    def test_zero_norm(self):
        with pytest.raises(ValueError):
            fidelity(np.zeros(4, dtype=complex), basis_state(2, 0))


class TestMse:
    def test_self_is_zero(self):
        rng = np.random.default_rng(5)
        psi = oracles.random_state(4, rng)
        assert mse(psi, psi) == 0.0

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_orthogonal_basis_states(self, n):
        got = mse(basis_state(n, 0), basis_state(n, 1))
        assert got == pytest.approx(2 / 2**n)

    def test_phase_alignment(self):
        rng = np.random.default_rng(6)
        psi = oracles.random_state(4, rng)
        assert mse(psi, np.exp(1j * 0.4) * psi, -0.4) == pytest.approx(0.0, abs=1e-15)

    def test_matches_fidelity_at_unity(self):
        rng = np.random.default_rng(7)
        psi = oracles.random_state(5, rng)
        assert mse(psi, psi) <= 1e-12 and 1 - fidelity(psi, psi) <= 1e-12


class TestWithoutBlas:
    """fidelity and norm_error sum over the float64 planes by einsum."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_match_the_vdot_forms(self, n):
        # a near pair, as a fixed run and its reference are.  Each side sums
        # 2^(n+1) products in its own order, each sum within a relative r =
        # 2^(n+1) 2^-53 of the exact one: norms agree within 2r < 2^(n-50).
        # Fidelity's overlap squared and two norms make 4r per side (the
        # imaginary part of a near pair's overlap is about 1e-6 of the real)
        rng = np.random.default_rng(200 + n)
        a = oracles.random_state(n, rng)
        b = a + 1e-6 * oracles.random_state(n, rng)
        tol = 2.0 ** (n - 50)
        want = abs(np.vdot(a, np.exp(0.3j) * b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)
        assert fidelity(a, b, 0.3) == pytest.approx(want, rel=4 * tol, abs=0)
        for v in (a, b, StateVector.from_complex(b)):
            w = v.to_complex() if isinstance(v, StateVector) else v
            assert norm_error(v) == pytest.approx(abs(np.vdot(w, w).real - 1.0), rel=0, abs=tol)

    def test_no_vdot_call(self):
        rng = np.random.default_rng(211)
        a, b = oracles.random_state(4, rng), StateVector.from_complex(oracles.random_state(4, rng), FIXED)
        with mock.patch.object(np, "vdot", side_effect=AssertionError):
            fidelity(a, b)
            norm_error(b)


class TestNgs:
    def test_qft17_table_row(self):
        assert ngs(0.329, 721, 17) == pytest.approx(3.48e-9, rel=0.005)

    def test_second_table_row(self):
        assert ngs(18.4, 528, 16) == pytest.approx(5.33e-7, rel=0.01)

    def test_unit_case(self):
        assert ngs(1.0, 1, 0) == 1.0

    def test_scaling_linear(self):
        assert ngs(4.0, 10, 5) == 4.0 * ngs(1.0, 10, 5)  # power-of-two scale is exact
        assert ngs(3.0, 10, 5) == pytest.approx(3.0 * ngs(1.0, 10, 5), rel=1e-15)

    def test_zero_gates_rejected(self):
        with pytest.raises(ValueError):
            ngs(1.0, 0, 4)


class TestNormError:
    def test_unit_state(self):
        assert norm_error(basis_state(3, 5)) == 0.0

    def test_scaled_state(self):
        assert norm_error(0.5 * basis_state(2, 0)) == pytest.approx(0.75)


class TestBench:
    def test_report_fields_consistent(self):
        rep = bench_circuit("qft:4", generate_qft(4), repeats=1)
        assert rep.n == 4
        assert rep.post_gates == 4 + 5 * 6 + 3 * 2
        assert rep.pre_composite == 6 + 2
        assert rep.pre_dense == 4
        # NGS recomputed independently from the reported fields
        assert rep.ngs == rep.wall_time_s / (rep.post_gates * 2**rep.n)
        assert 0 <= rep.fidelity <= 1 + 1e-12
        assert rep.mse >= 0
        assert rep.mem_qea_bytes == pe_model.estimate_memory_qea(4, rep.post_gates)
        assert rep.mem_matmul_bytes == pe_model.estimate_memory_matmul(4)

    def test_qft_suite_high_fidelity(self):
        suite = [(f"qft:{n}", generate_qft(n)) for n in range(3, 7)]
        reports = run_benchmark(suite, repeats=1)
        assert len(reports) == 4
        for rep in reports:
            assert rep.fidelity >= 0.999999
            assert rep.mse <= 1e-10

    def test_empty_suite(self):
        assert run_benchmark([]) == []

    def test_modeled_and_wall_time_both_present(self):
        rep = bench_circuit("t", generate_template("rotation", 4, 1, 0), repeats=1)
        assert rep.modeled_time_s > 0
        assert rep.wall_time_s > 0
        assert rep.modeled_time_s != rep.wall_time_s

    def test_jsonl_round_trip(self):
        reports = run_benchmark([("qft:3", generate_qft(3))], repeats=1)
        lines = reports_to_jsonl(reports).strip().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["name"] == "qft:3"
        assert rec["post_sparse"] + rec["post_dense"] + rec["post_cx"] == 21
