import dataclasses
import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qea_sim.circuit import (CX, PARAMETERIZED, SPARSE, TWO_QUBIT, Circuit, Gate, GateKind, TranspiledCircuit,
                             classify, transpile)
from qea_sim.generators import generate_qft
from qea_sim.pe_model import (CONTROLLER_BYTES, GATE_BYTES, CycleReport,
                              PEConfig, calibrate_overhead,
                              cx_gate_cycles, dense_gate_cycles,
                              estimate_cycles, estimate_memory_matmul,
                              estimate_memory_qea, memory_ratio,
                              partition_state, sparse_gate_cycles)


def tc_of(n, gates):
    return transpile(Circuit(n, tuple(gates)))


class TestPartition:
    def test_four_pes_n4(self):
        layout = partition_state(4, PEConfig())
        assert layout.block_size == 4
        assert [layout.owner(i) for i in (0, 3, 4, 12, 15)] == [0, 0, 1, 3, 3]

    def test_one_amp_per_pe(self):
        layout = partition_state(2, PEConfig())
        assert layout.block_size == 1
        assert [layout.owner(i) for i in range(4)] == [0, 1, 2, 3]

    def test_owner_13(self):
        assert partition_state(4, PEConfig()).owner(13) == 3

    def test_too_small(self):
        with pytest.raises(ValueError):
            partition_state(1, PEConfig())

    def test_blocks_cover_exactly_once(self):
        layout = partition_state(5, PEConfig())
        owners = [layout.owner(i) for i in range(32)]
        for pe in range(4):
            assert owners.count(pe) == layout.block_size


class TestCycleFormulas:
    # hand-evaluated defaults (8 SUs): dense = ceil(2^(n-1)/8)*2,
    # sparse = ceil(2^n/16), cx = ceil(2^(n-2)/8)
    def test_golden_values_n4(self):
        cfg = PEConfig()
        assert dense_gate_cycles(4, cfg) == 2
        assert sparse_gate_cycles(4, cfg) == 1
        assert cx_gate_cycles(4, cfg) == 1

    def test_golden_values_n10(self):
        cfg = PEConfig()
        assert dense_gate_cycles(10, cfg) == 128
        assert sparse_gate_cycles(10, cfg) == 64
        assert cx_gate_cycles(10, cfg) == 32

    @pytest.mark.parametrize("n", range(2, 18))
    def test_sparse_is_half_dense(self, n):
        cfg = PEConfig()
        assert sparse_gate_cycles(n, cfg) * 2 == dense_gate_cycles(n, cfg)

    def test_dense_local_gate_n4(self):
        # H on q3: stride 1 < block 4, no cross-PE traffic
        rep = estimate_cycles(tc_of(4, [Gate(GateKind.H, (3,))]))
        assert rep.dense_cycles == 2
        assert rep.cross_pe_accesses == 0
        assert rep.total_cycles == 2

    def test_dense_crossing_gate_n4(self):
        # H on q0: stride 8 >= block 4, all 8 pairs cross PEs
        rep = estimate_cycles(tc_of(4, [Gate(GateKind.H, (0,))]))
        assert rep.dense_cycles == 2
        assert rep.cross_pe_accesses == 8
        assert rep.total_cycles == 2 + 8

    def test_cross_pe_iff_stride_at_least_block(self):
        # n=6, block 16: targets 0,1 cross (stride 32, 16); 2..5 local
        for target in range(6):
            rep = estimate_cycles(tc_of(6, [Gate(GateKind.RZ, (target,), 0.1)]))
            stride = 1 << (6 - 1 - target)
            if stride >= 16:
                assert rep.cross_pe_accesses == 1 << 5
            else:
                assert rep.cross_pe_accesses == 0

    def test_cx_pairs_cross_by_target(self):
        rep = estimate_cycles(tc_of(6, [Gate(GateKind.CX, (5, 0))]))
        assert rep.cross_pe_accesses == 1 << 4
        rep = estimate_cycles(tc_of(6, [Gate(GateKind.CX, (0, 5))]))
        assert rep.cross_pe_accesses == 0

    def test_monotonic_in_gates(self):
        base = estimate_cycles(transpile(generate_qft(5))).total_cycles
        for extra in (Gate(GateKind.S, (4,)), Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1))):
            grown = transpile(Circuit(5, generate_qft(5).gates + (extra,)))
            assert estimate_cycles(grown).total_cycles > base

    def test_linear_in_gate_count(self):
        gates = [Gate(GateKind.H, (2,)), Gate(GateKind.RZ, (1,), 0.3), Gate(GateKind.CX, (0, 3))]
        one = estimate_cycles(tc_of(6, gates)).total_cycles
        three = estimate_cycles(tc_of(6, gates * 3)).total_cycles
        assert three == 3 * one

    def test_proportional_to_state_size(self):
        # same structure, one more qubit, same targets: per-gate work doubles
        gates = [Gate(GateKind.H, (0,)), Gate(GateKind.RZ, (0,), 0.3), Gate(GateKind.CX, (1, 0))]
        small = estimate_cycles(tc_of(10, gates)).total_cycles
        big = estimate_cycles(tc_of(11, gates)).total_cycles
        assert big == 2 * small

    def test_overhead_counts_per_gate(self):
        cfg = PEConfig(per_gate_overhead_cycles=10.0)
        tc = transpile(generate_qft(4))
        rep = estimate_cycles(tc, cfg)
        assert rep.overhead_cycles == 10.0 * len(tc.gates)

    def test_report_sums(self):
        rep = estimate_cycles(transpile(generate_qft(6)))
        assert rep.total_cycles == (rep.sparse_cycles + rep.dense_cycles
                                    + rep.cx_cycles + rep.cross_pe_cycles
                                    + rep.overhead_cycles)
        assert rep.total_gates == len(transpile(generate_qft(6)).gates)

    def test_huge_n_refused_before_building_2_to_the_n(self):
        tc = TranspiledCircuit(10**7, ())
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"10000000 qubits: the model's figures, about 2\^10000000, overflow"):
                estimate_cycles(tc)
            assert partition_state(10**7).n == 10**7
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError):
            estimate_cycles(TranspiledCircuit(sys.float_info.max_exp, ()))
        assert estimate_cycles(TranspiledCircuit(sys.float_info.max_exp - 1, ())).total_cycles == 0


def _per_gate_cycles(tc, cfg):
    """The cycle model gate by gate: each gate's class cycles, and its pairs
    times the penalty where its stride reaches the PE block size."""
    n = tc.n
    block = partition_state(n, cfg).block_size
    rep = CycleReport(n=n, freq_hz=cfg.freq_hz)
    for g in tc.gates:
        cls = classify(g)
        if cls == CX:
            rep.cx_gates += 1
            rep.cx_cycles += cx_gate_cycles(n, cfg)
            stride = 1 << (n - 1 - g.qubits[1])
            pairs = 1 << (n - 2)
        else:
            stride = 1 << (n - 1 - g.qubits[0])
            pairs = 1 << (n - 1)
            if cls == SPARSE:
                rep.sparse_gates += 1
                rep.sparse_cycles += sparse_gate_cycles(n, cfg)
            else:
                rep.dense_gates += 1
                rep.dense_cycles += dense_gate_cycles(n, cfg)
        if stride >= block:
            rep.cross_pe_accesses += pairs
            rep.cross_pe_cycles += pairs * cfg.cross_pe_penalty_cycles
    rep.overhead_cycles = cfg.per_gate_overhead_cycles * rep.total_gates
    return rep


_KINDS = [GateKind.H, GateKind.S, GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.CX, GateKind.CP, GateKind.SWAP]


@st.composite
def _transpiled(draw):
    """A transpiled circuit of 0-40 gates on n = 1-14 qubits (no CX at n = 1)."""
    n = draw(st.integers(1, 14))
    qubit = st.integers(0, n - 1)
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(_KINDS if n > 1 else _KINDS[:5]))
        if kind in TWO_QUBIT:
            qs = tuple(draw(st.lists(qubit, min_size=2, max_size=2, unique=True)))
        else:
            qs = (draw(qubit),)
        gates.append(Gate(kind, qs, 0.5 if kind in PARAMETERIZED else None))
    return transpile(Circuit(n, tuple(gates)))


class TestCycleOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tc=_transpiled(), pe_bits=st.integers(0, 4), sus=st.integers(1, 3),
           penalty=st.integers(0, 3), overhead=st.sampled_from([0, 2.5]))
    def test_matches_per_gate_model(self, tc, pe_bits, sus, penalty, overhead):
        # every field, in value and type, against the gate-by-gate stride walk
        cfg = PEConfig(num_pes=1 << min(pe_bits, tc.n), sus_per_pe=sus, cross_pe_penalty_cycles=penalty,
                       per_gate_overhead_cycles=overhead)
        got, want = estimate_cycles(tc, cfg), _per_gate_cycles(tc, cfg)
        fields = [f.name for f in dataclasses.fields(CycleReport)]
        assert [(getattr(got, f), type(getattr(got, f))) for f in fields] == \
            [(getattr(want, f), type(getattr(want, f))) for f in fields]


class TestModeledTime:
    def test_one_second(self):
        rep = CycleReport(n=4, dense_cycles=int(2.5e8), freq_hz=2.5e8)
        assert rep.modeled_time_s == 1.0

    def test_empty_is_zero(self):
        rep = estimate_cycles(tc_of(4, []))
        assert rep.modeled_time_s == 0.0

    def test_qft17_within_10x_of_329ms(self):
        rep = estimate_cycles(transpile(generate_qft(17)))
        assert rep.modeled_time_s > 0
        ratio = 0.329 / rep.modeled_time_s
        assert 0.1 < ratio < 10.0

    def test_calibration_hits_target(self):
        tc = transpile(generate_qft(17))
        cfg = PEConfig()
        overhead = calibrate_overhead(tc, cfg, 0.329)
        assert overhead > 0
        calibrated = estimate_cycles(tc, PEConfig(per_gate_overhead_cycles=overhead))
        assert calibrated.modeled_time_s == pytest.approx(0.329, rel=0.02)


class TestMemory:
    def test_qea_n7_no_gates(self):
        assert estimate_memory_qea(7, 0) == 2048

    def test_gate_increment(self):
        for g in (0, 1, 5, 999):
            assert estimate_memory_qea(9, g + 1) - estimate_memory_qea(9, g) == GATE_BYTES

    def test_state_portion_n13(self):
        assert estimate_memory_qea(13, 0) - CONTROLLER_BYTES == 65536

    def test_matmul_n1(self):
        assert estimate_memory_matmul(1) == 64

    def test_ratio_windows_state_dominated(self):
        assert 10**1.8 <= memory_ratio(7) <= 10**2.4
        assert 10**3.5 <= memory_ratio(13) <= 10**4.3

    def test_ratio_grows_like_2n(self):
        for n in range(20, 24):
            assert memory_ratio(n + 1) / memory_ratio(n) == pytest.approx(2.0, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_memory_qea(0, 0)
        with pytest.raises(ValueError):
            estimate_memory_qea(3, -1)
        with pytest.raises(ValueError):
            estimate_memory_matmul(0)


class TestPEConfig:
    def test_power_of_two_pes(self):
        with pytest.raises(ValueError):
            PEConfig(num_pes=3)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            PEConfig(sus_per_pe=0)
        with pytest.raises(ValueError):
            PEConfig(freq_hz=0)

    @pytest.mark.parametrize("field,value", [
        ("freq_hz", math.nan), ("freq_hz", math.inf), ("freq_hz", -1.0),
        ("per_gate_overhead_cycles", math.nan), ("per_gate_overhead_cycles", math.inf),
        ("per_gate_overhead_cycles", -1.0), ("cross_pe_penalty_cycles", math.nan),
    ])
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PEConfig(**{field: value})

    def test_defaults_match_hardware(self):
        cfg = PEConfig()
        assert (cfg.num_pes, cfg.sus_per_pe, cfg.freq_hz) == (4, 2, 2.5e8)
