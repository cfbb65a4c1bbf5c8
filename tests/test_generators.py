import math

import pytest

from qea_sim.circuit import GateKind, transpile
from qea_sim.generators import (TOPOLOGIES, generate_qft, generate_template,
                                qft_transpiled_gate_count, template_gate_count)


class TestQft:
    def test_n1(self):
        c = generate_qft(1)
        assert [g.kind for g in c.gates] == [GateKind.H]

    def test_n3_structure(self):
        c = generate_qft(3)
        kinds = [g.kind for g in c.gates]
        assert kinds == [GateKind.H, GateKind.CP, GateKind.CP,
                         GateKind.H, GateKind.CP, GateKind.H, GateKind.SWAP]
        # CP angles fall off as pi/2^d
        angles = [g.angle for g in c.gates if g.kind is GateKind.CP]
        assert angles == [math.pi / 2, math.pi / 4, math.pi / 2]

    def test_n3_transpiled_count(self):
        assert len(transpile(generate_qft(3)).gates) == 21

    def test_n17_transpiled_count(self):
        assert len(transpile(generate_qft(17)).gates) == 721

    @pytest.mark.parametrize("n", range(1, 18))
    def test_count_formula(self, n):
        assert len(transpile(generate_qft(n)).gates) == qft_transpiled_gate_count(n)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            generate_qft(0)


class TestTemplates:
    def test_chain_structure(self):
        c = generate_template("chain", 4)
        assert [g.kind for g in c.gates] == [GateKind.CX] * 3
        assert [g.qubits for g in c.gates] == [(0, 1), (1, 2), (2, 3)]

    def test_all_to_all_count(self):
        c = generate_template("all_to_all", 4)
        assert len(c.gates) == 6

    def test_alternating_structure(self):
        c = generate_template("alternating", 5)
        assert [g.qubits for g in c.gates] == [(0, 1), (2, 3), (1, 2), (3, 4)]

    def test_rotation_one_per_qubit(self):
        c = generate_template("rotation", 6, layers=2, seed=3)
        assert len(c.gates) == 12
        assert all(g.kind in (GateKind.RX, GateKind.RY, GateKind.RZ) for g in c.gates)
        assert [g.qubits[0] for g in c.gates] == [0, 1, 2, 3, 4, 5] * 2

    def test_layers_repeat(self):
        assert len(generate_template("chain", 4, layers=3).gates) == 9

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_count_formula(self, topology):
        for n in range(1 if topology == "rotation" else 2, 9):
            for layers in (1, 2, 3):
                want = len(generate_template(topology, n, layers, seed=n).gates)
                assert template_gate_count(topology, n, layers) == want

    def test_same_seed_identical(self):
        a = generate_template("rotation", 5, layers=2, seed=42)
        b = generate_template("rotation", 5, layers=2, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_template("rotation", 5, layers=2, seed=42)
        b = generate_template("rotation", 5, layers=2, seed=43)
        assert a != b

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            generate_template("ring", 4)

    @pytest.mark.parametrize("args,message", [
        (("chain", 4, 0), "layers must be >= 1"),
        (("rotation", 0), "n must be >= 1"),
    ], ids=["no-layers", "no-qubits"])
    def test_refusal_messages(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_template(*args)

    def test_entangling_needs_two_qubits(self):
        with pytest.raises(ValueError):
            generate_template("chain", 1)
        generate_template("rotation", 1)  # fine

    def test_all_topologies_run(self):
        for topology in TOPOLOGIES:
            c = generate_template(topology, 4, layers=2, seed=1)
            assert c.n == 4 and len(c.gates) > 0
