"""The benchmark's workloads: seeded inputs, one operation per CLI path,
the output checks, and the traced replay.

Each operation makes the same public `qea_sim` calls as the CLI command
it stands for, in process, with circuits given as text and dumps kept in
memory.  A run cycles through a seeded pool of inputs.  The first output
of each input is checked in full against `reference`, and every later
operation on that input must reproduce it exactly.
"""
from __future__ import annotations

import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from qea_sim import circuit, engine, generators, metrics, pe_model

import reference as ref
from reference import CheckError
from spans import KERNEL_CELLS, band

FIXED, FLOAT = engine.FIXED, engine.FLOAT
WORKERS = 1        # QEA_SIM_THREADS for every operation
OTHER_WORKERS = 2  # for the bit-identity check and engine.workers_speedup


@dataclass
class CircuitIn:
    """One circuit of an input: its text plus the reference's view of it."""

    name: str
    text: str
    qft: bool = False             # a QFT, so its gate total has a closed form
    x: int | None = None          # basis index, for the closed-form QFT state
    n: int = 0
    gates: list = field(default_factory=list)
    phase: float = 0.0

    def prepare(self) -> None:
        self.n, self.gates = ref.parse_text(self.text)
        self.phase = ref.transpile_phase(self.gates)

    def ideal(self) -> np.ndarray:
        if self.x is not None:
            return ref.qft_of_basis(self.n, self.x)
        return ref.simulate(self.n, self.gates)


@dataclass
class Input:
    """What one operation processes; a run cycles through a pool of these."""

    name: str
    circuits: list[CircuitIn]
    fingerprint: str = ""
    fixed_mse: float = 0.0
    modeled_s: float = 0.0


@dataclass
class Res:
    """Program outputs for one circuit of one operation."""

    tc: object
    fixed: object
    stats: object
    run_s: float
    ref: object = None
    fid: float | None = None
    mse: float | None = None
    dump: str | None = None
    back: object = None
    cycles: object = None


def circuit_text(c: circuit.Circuit) -> str:
    """The circuit in the text format `parse_circuit` reads."""
    lines = [f"qubits {c.n}"]
    for g in c.gates:
        args = ([repr(g.angle)] if g.angle is not None else []) + [str(q) for q in g.qubits]
        lines.append(" ".join([g.kind.value, *args]))
    return "\n".join(lines) + "\n"


def _span(tr, name, op, **attrs):
    return tr.span(name, op, **attrs) if tr is not None else nullcontext({})


def _parse_and_transpile(text):
    return circuit.transpile(circuit.parse_circuit(text))


def _run_fixed(tc, workers):
    t = time.perf_counter()
    state, stats = engine.run_circuit(tc, engine.StateVector.zero(tc.n, FIXED), workers)
    return state, stats, time.perf_counter() - t


def _raw(state):
    """Q2.30 words of a fixed state; to_complex is exact, so this is too."""
    v = state.to_complex()
    return (np.rint(v.real * ref.RAW_ONE).astype(np.int64), np.rint(v.imag * ref.RAW_ONE).astype(np.int64))


BYTES_PER_AMP = {FIXED: 8, FLOAT: 16}


class Workload:
    name = ""
    pool = 1                 # inputs per round
    reference_zero = FIXED   # the state reference_run starts from on this path
    check_workers = False    # check the first output on OTHER_WORKERS too

    def build(self, seed: int, tr=None) -> list[Input]:
        raise NotImplementedError

    def op(self, inp: Input) -> list[Res]:
        raise NotImplementedError

    # -- checks ------------------------------------------------------------

    def validate(self, inp: Input, out: list[Res]) -> None:
        """Full check of an input's first output; records what later ops must repeat."""
        mses, modeled = [], 0.0
        for ci, r in zip(inp.circuits, out):
            what = f"{self.name}/{ci.name}"
            counts = ref.transpiled_counts(ci.gates)
            got = {"sparse": r.stats.sparse_gates, "dense": r.stats.dense_gates, "cx": r.stats.cx_gates}
            if got != counts or len(r.tc.gates) != sum(counts.values()):
                raise CheckError(f"{what}: gate classes {got}, closed form {counts}")
            if ci.qft and len(r.tc.gates) != ref.qft_gate_total(ci.n) + sum(
                    1 for kind, _, _ in ci.gates if kind == "rx"):
                raise CheckError(f"{what}: {len(r.tc.gates)} transpiled gates, closed form disagrees")
            if abs(r.tc.global_phase - ci.phase) > 1e-9:
                raise CheckError(f"{what}: global phase {r.tc.global_phase}, expected {ci.phase}")
            cyc = r.cycles if r.cycles is not None else pe_model.estimate_cycles(r.tc)
            if (cyc.sparse_gates, cyc.dense_gates, cyc.cx_gates) != (counts["sparse"], counts["dense"], counts["cx"]):
                raise CheckError(f"{what}: cycle model counts differ from the closed form")
            if cyc.sparse_gates and cyc.dense_gates and \
                    2 * cyc.sparse_cycles * cyc.dense_gates != cyc.dense_cycles * cyc.sparse_gates:
                raise CheckError(f"{what}: a sparse gate does not cost half a dense gate")
            modeled += cyc.modeled_time_s

            ideal = ci.ideal()
            one_q = counts["sparse"] + counts["dense"]
            fixed_raw = _raw(r.fixed)
            ref.check_q230(*fixed_raw, ideal, ci.phase, one_q, what)
            mses.append(ref.mse(ref.aligned(r.fixed.to_complex(), ci.phase), ideal))
            if r.dump is not None:
                ref.check_dump(r.dump, ci.n, *fixed_raw, what)
                ref.check_identical(_raw(r.back), fixed_raw, f"{what}: parse_dump")
            if r.ref is not None:
                fv, rv = r.fixed.to_complex(), r.ref.to_complex()
                ref.check_float(rv, ideal, ci.phase, what)
                ref.check_agree(r.fid, ref.fidelity(fv, rv), f"{what}: fidelity")
                ref.check_agree(r.mse, ref.mse(fv, rv), f"{what}: mse")
            if self.check_workers:
                other, _, _ = _run_fixed(r.tc, OTHER_WORKERS)
                ref.check_identical(_raw(other), fixed_raw, f"{what}: {WORKERS} vs {OTHER_WORKERS} workers")
        inp.fixed_mse = sum(mses) / len(mses)
        inp.modeled_s = modeled
        inp.fingerprint = self.fingerprint(out)

    def recheck(self, inp: Input, out: list[Res]) -> None:
        if self.fingerprint(out) != inp.fingerprint:
            raise CheckError(f"{self.name}/{inp.name}: output differs from the first, checked output")

    @staticmethod
    def fingerprint(out: list[Res]) -> str:
        h = hashlib.sha256()
        for r in out:
            h.update(r.fixed.to_complex().tobytes())
            h.update(repr((r.stats.sparse_gates, r.stats.dense_gates, r.stats.cx_gates,
                           r.tc.global_phase, r.fid, r.mse)).encode())
            if r.ref is not None:
                h.update(r.ref.to_complex().tobytes())
            if r.dump is not None:
                h.update(r.dump.encode())
                h.update(r.back.to_complex().tobytes())
            if r.cycles is not None:
                h.update(repr((r.cycles.total_cycles, r.cycles.cross_pe_accesses)).encode())
        return h.hexdigest()


class QftDump(Workload):
    """`qea-sim run` of a fixed-point QFT, then `parse_dump` of its dump."""

    name = "qft-dump"
    n = 17
    pool = 4

    def build(self, seed, tr=None):
        rng = np.random.default_rng(seed)
        with _span(tr, "generators.generate", "setup"):
            qft = generators.generate_qft(self.n)
        inputs = []
        for _ in range(self.pool):
            x = int(rng.integers(0, 1 << self.n))
            prefix = tuple(circuit.Gate(circuit.GateKind.RX, (q,), math.pi)
                           for q in range(self.n) if x >> (self.n - 1 - q) & 1)
            c = circuit.Circuit(self.n, prefix + qft.gates)
            inputs.append(Input(f"x={x}", [CircuitIn(f"qft:{self.n}", circuit_text(c), qft=True, x=x)]))
        return inputs

    def op(self, inp):
        ci = inp.circuits[0]
        tc = _parse_and_transpile(ci.text)
        state, stats, run_s = _run_fixed(tc, engine.max_workers())
        dump = engine.format_dump(state)
        back = engine.parse_dump(dump)
        return [Res(tc, state, stats, run_s, dump=dump, back=back)]


class AnsatzCompare(Workload):
    """`qea-sim compare` of a layered hardware-efficient ansatz."""

    name = "ansatz-compare"
    n = 16
    layers = 4
    pool = 24
    reference_zero = FLOAT
    check_workers = True

    def build(self, seed, tr=None):
        rng = np.random.default_rng(seed)
        inputs = []
        for i in range(self.pool):
            gates = []
            with _span(tr, "generators.generate", "setup"):
                for _ in range(self.layers):
                    rot = generators.generate_template("rotation", self.n, 1, int(rng.integers(0, 2**31)))
                    gates += rot.gates + generators.generate_template("chain", self.n, 1).gates
            c = circuit.Circuit(self.n, tuple(gates))
            inputs.append(Input(f"ansatz{i}", [CircuitIn(f"ansatz:{self.n}:{self.layers}", circuit_text(c))]))
        return inputs

    def op(self, inp):
        ci = inp.circuits[0]
        tc = _parse_and_transpile(ci.text)
        workers = engine.max_workers()
        fixed, stats, run_s = _run_fixed(tc, workers)
        refst = engine.reference_run(tc, engine.StateVector.zero(tc.n, FLOAT), workers)
        fid = metrics.fidelity(fixed, refst)
        err = metrics.mse(fixed, refst)
        metrics.norm_error(fixed)
        return [Res(tc, fixed, stats, run_s, ref=refst, fid=fid, mse=err)]


class BenchSweep(Workload):
    """One pass of `qea-sim bench <dir>` over small text circuits, 1 worker."""

    name = "bench-sweep"
    qubits = range(4, 13)
    layers = 2
    pool = 8

    def build(self, seed, tr=None):
        rng = np.random.default_rng(seed)
        with _span(tr, "generators.generate", "setup"):
            qfts = [circuit_text(generators.generate_qft(n)) for n in self.qubits]
        inputs = []
        for i in range(self.pool):
            cs = [CircuitIn(f"qft:{n}", text, qft=True) for n, text in zip(self.qubits, qfts)]
            with _span(tr, "generators.generate", "setup"):
                for topo in generators.TOPOLOGIES:
                    for n in self.qubits:
                        c = generators.generate_template(topo, n, self.layers, int(rng.integers(0, 2**31)))
                        cs.append(CircuitIn(f"{topo}:{n}", circuit_text(c)))
            inputs.append(Input(f"suite{i}", cs))
        return inputs

    def op(self, inp):
        out = []
        workers = engine.max_workers()
        for ci in inp.circuits:
            tc = _parse_and_transpile(ci.text)
            fixed, stats, run_s = _run_fixed(tc, workers)
            refst = engine.reference_run(tc, engine.StateVector.zero(tc.n, FIXED), workers)
            fid = metrics.fidelity(fixed, refst)
            err = metrics.mse(fixed, refst)
            metrics.norm_error(fixed)
            cycles = pe_model.estimate_cycles(tc)
            pe_model.estimate_memory_qea(tc.n, len(tc.gates))
            pe_model.estimate_memory_matmul(tc.n)
            metrics.ngs(run_s, len(tc.gates), tc.n)
            out.append(Res(tc, fixed, stats, run_s, ref=refst, fid=fid, mse=err, cycles=cycles))
        return out


WORKLOADS = {w.name: w for w in (QftDump(), AnsatzCompare(), BenchSweep())}


# ---------------------------------------------------------------------------
# Traced replay.
# ---------------------------------------------------------------------------

def _replay(tr, op_id, tc, arith):
    """Run the circuit gate by gate through the public kernels, one span each."""
    n = tc.n
    amps = 1 << n
    word = BYTES_PER_AMP[arith]
    state = engine.StateVector.zero(n, arith)
    with tr.span("engine.replay", op_id, arith=arith):
        for g in tc.gates:
            cls = circuit.classify(g)
            if cls == circuit.CX:
                # the control-set half of the amplitudes is read and written
                with tr.span("engine.apply_cx", op_id, arith=arith, amps=amps, bytes=amps * word):
                    engine.apply_cx(state, g.qubits[0], g.qubits[1], WORKERS)
            else:
                with tr.span("engine.make_application", op_id, arith=arith):
                    app = engine.make_application(g, arith)
                with tr.span("engine.apply_1q", op_id, arith=arith, mode=cls, band=band(g.qubits[0], n),
                             amps=amps, bytes=2 * amps * word):
                    engine.apply_1q(state, app, WORKERS)
    return state


def traced_op(wl: Workload, inp: Input, tr, op_id: int) -> None:
    """One operation with a span around every layer call.

    Beyond the untraced operation's calls it replays each circuit gate by
    gate in both arithmetics, dumps both results, reruns the fixed pass on
    OTHER_WORKERS, and calls the bench path's reference_run,
    fidelity, mse and estimate_cycles, so every layer is timed on every
    workload.  Replayed states must dump byte-identically to run_circuit's.
    """
    with tr.span("op", op_id, input=inp.name):
        for ci in inp.circuits:
            what = f"{wl.name}/{ci.name}"
            with tr.span("circuit.parse_circuit", op_id) as s:
                c = circuit.parse_circuit(ci.text)
            s["gates"] = len(c.gates)
            with tr.span("circuit.transpile", op_id, gates=len(c.gates)):
                tc = circuit.transpile(c)
            n, amps = tc.n, 1 << tc.n
            states = {}
            for arith in (FIXED, FLOAT):
                with tr.span("engine.run_circuit", op_id, arith=arith, workers=WORKERS) as s:
                    state, stats = engine.run_circuit(tc, engine.StateVector.zero(n, arith), WORKERS)
                s.update(sparse=stats.sparse_gates, dense=stats.dense_gates, cx=stats.cx_gates)
                replayed = _replay(tr, op_id, tc, arith)
                with tr.span("engine.format_dump", op_id, arith=arith, role="run", amps=amps) as s:
                    dump = engine.format_dump(state)
                s["bytes"] = len(dump)
                with tr.span("engine.format_dump", op_id, arith=arith, role="replay", amps=amps):
                    replay_dump = engine.format_dump(replayed)
                if replay_dump != dump:
                    raise CheckError(f"{what}: {arith} replay does not dump like run_circuit")
                if arith == FIXED:
                    with tr.span("engine.parse_dump", op_id, amps=amps):
                        back = engine.parse_dump(dump)
                    ref.check_identical(_raw(back), _raw(state), f"{what}: parse_dump")
                states[arith] = state
            with tr.span("engine.run_circuit", op_id, arith=FIXED, workers=OTHER_WORKERS):
                again, _ = engine.run_circuit(tc, engine.StateVector.zero(n, FIXED), OTHER_WORKERS)
            ref.check_identical(_raw(again), _raw(states[FIXED]), f"{what}: {WORKERS} vs {OTHER_WORKERS} workers")
            with tr.span("engine.reference_run", op_id):
                refst = engine.reference_run(tc, engine.StateVector.zero(n, wl.reference_zero), WORKERS)
            with tr.span("metrics.fidelity", op_id):
                metrics.fidelity(states[FIXED], refst)
            with tr.span("metrics.mse", op_id):
                metrics.mse(states[FIXED], refst)
            with tr.span("pe_model.estimate_cycles", op_id, gates=len(tc.gates)) as s:
                rep = pe_model.estimate_cycles(tc)
            s.update(total_cycles=rep.total_cycles, cross_pe_accesses=rep.cross_pe_accesses)


def probe_missing_cells(wl: Workload, inputs: list[Input], tr, repeats: int = 4) -> None:
    """Time one gate per kernel cell (arithmetic, class, target band) that
    the replayed circuits did not cover, at the workload's largest n."""
    seen = {(s["arith"], s["mode"], s["band"]) for s in tr.spans if s["name"] == "engine.apply_1q"}
    n = max(ci.n for inp in inputs for ci in inp.circuits)
    targets = {"t0": 0, "tmid": n // 2, "tlast": n - 1}
    kinds = {"sparse": circuit.GateKind.RZ, "dense": circuit.GateKind.RY}
    for arith, mode, b in KERNEL_CELLS:
        if (arith, mode, b) in seen:
            continue
        app = engine.make_application(circuit.Gate(kinds[mode], (targets[b],), 0.3), arith)
        state = engine.StateVector.zero(n, arith)
        for _ in range(repeats):
            with tr.span("engine.apply_1q", "probe", arith=arith, mode=mode, band=b,
                         amps=1 << n, bytes=2 * (1 << n) * BYTES_PER_AMP[arith]):
                engine.apply_1q(state, app, WORKERS)
