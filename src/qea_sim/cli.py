"""Command-line front end: run, bench, compare, estimate.

Circuit sources are either a file (text format, or .json structured form)
or a --generate spec in compact name:params syntax:
    qft:<n>
    template:<topology>:<n>[:<layers>[:<seed>]]
Worker count is capped by the QEA_SIM_THREADS environment variable.
Output files are written atomically (temp file, then rename).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from . import metrics, pe_model
from .circuit import (Circuit, CircuitParseError, TranspiledCircuit,
                      circuit_from_dict, circuit_to_dict, parse_circuit,
                      transpile)
from .engine import FIXED, FLOAT, StateVector, format_dump, max_workers, run_circuit
from .generators import TOPOLOGIES, generate_qft, generate_template


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def parse_generate_spec(spec: str) -> tuple[str, Circuit]:
    parts = spec.split(":")
    name = parts[0].lower()
    if name == "qft":
        if len(parts) != 2:
            raise ValueError(f"qft spec is qft:<n>, got {spec!r}")
        n = int(parts[1])
        return f"qft:{n}", generate_qft(n)
    if name == "template":
        if not 3 <= len(parts) <= 5:
            raise ValueError(f"template spec is template:<topology>:<n>[:<layers>[:<seed>]], got {spec!r}")
        topology = parts[1]
        n = int(parts[2])
        layers = int(parts[3]) if len(parts) > 3 else 1
        seed = int(parts[4]) if len(parts) > 4 else 0
        return f"template:{topology}:{n}:{layers}:{seed}", generate_template(topology, n, layers, seed)
    raise ValueError(f"unknown generator {name!r} (expected qft or template)")


def load_circuit_file(path: str) -> tuple[str, Circuit | TranspiledCircuit]:
    """A transpiled JSON circuit is returned as is, keeping its global phase."""
    text = Path(path).read_text()
    if path.endswith(".json"):
        return Path(path).stem, circuit_from_dict(json.loads(text))
    return Path(path).stem, parse_circuit(text)


def _resolve_source(args) -> tuple[str, Circuit | TranspiledCircuit]:
    if getattr(args, "generate", None):
        if getattr(args, "circuit", None):
            raise ValueError("give either a circuit file or --generate, not both")
        return parse_generate_spec(args.generate)
    if getattr(args, "circuit", None):
        return load_circuit_file(args.circuit)
    raise ValueError("no circuit source: pass a file or --generate <spec>")


def _parse_qubit_range(text: str) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty qubit range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _pe_config(args) -> pe_model.PEConfig:
    kwargs = {}
    if getattr(args, "pes", None) is not None:
        kwargs["num_pes"] = args.pes
    if getattr(args, "freq", None) is not None:
        kwargs["freq_hz"] = args.freq
    return pe_model.PEConfig(**kwargs)


def cmd_run(args) -> int:
    name, circ = _resolve_source(args)
    tc = transpile(circ)
    state = StateVector.zero(circ.n, args.arith)
    state, stats = run_circuit(tc, state, max_workers())
    dump = format_dump(state)
    if args.out:
        _atomic_write(args.out, dump)
        info = sys.stdout
    else:
        sys.stdout.write(dump)
        info = sys.stderr
    if args.circuit_out:
        _atomic_write(args.circuit_out, json.dumps(circuit_to_dict(tc), sort_keys=True) + "\n")
    print(f"{name}: n={circ.n} arith={args.arith} transpiled_gates={len(tc.gates)} "
          f"(sparse={stats.sparse_gates} dense={stats.dense_gates} cx={stats.cx_gates}) "
          f"wall_time_s={stats.wall_time_s:.6f} global_phase={tc.global_phase:.12g}",
          file=info)
    return 0


def _bench_suite(args):
    """(name, loader) pairs; loading is deferred so one bad entry cannot
    abort the suite."""
    what = args.what
    if what == "qft":
        return [(f"qft:{n}", lambda n=n: generate_qft(n))
                for n in _parse_qubit_range(args.qubits or "3..10")]
    if what == "template":
        if not args.topology:
            raise ValueError("bench template requires --topology")
        suite = []
        for n in _parse_qubit_range(args.qubits or "4"):
            name = f"template:{args.topology}:{n}:{args.layers}:{args.seed}"
            suite.append((name, lambda n=n: generate_template(args.topology, n, args.layers, args.seed)))
        return suite
    # otherwise: a directory of circuit files
    root = Path(what)
    if not root.is_dir():
        raise ValueError(f"{what!r} is not 'qft', 'template', or a circuit directory")
    suite = [(path.stem, lambda path=path: load_circuit_file(str(path))[1])
             for path in sorted(root.iterdir())
             if path.suffix in (".qc", ".txt", ".json")]
    if not suite:
        raise ValueError(f"no circuit files found under {what!r}")
    return suite


_BENCH_COLS = ("name", "n", "gates", "fidelity", "mse", "wall_time_s", "modeled_time_s", "ngs")


def cmd_bench(args) -> int:
    suite = _bench_suite(args)
    cfg = _pe_config(args)
    reports = []
    failed = 0
    for name, load in suite:
        try:
            reports.append(metrics.bench_circuit(name, load(), cfg, args.repeats, max_workers()))
        except Exception as exc:  # keep the suite going, flag the entry
            failed += 1
            print(f"{name}: FAILED: {exc}", file=sys.stderr)
    print("  ".join(_BENCH_COLS))
    for r in reports:
        print(f"{r.name}  {r.n}  {r.post_gates}  {r.fidelity:.9f}  {r.mse:.3e}  "
              f"{r.wall_time_s:.6f}  {r.modeled_time_s:.6e}  {r.ngs:.3e}")
    if args.out:
        _atomic_write(args.out, metrics.reports_to_jsonl(reports))
    return 1 if failed else 0


def cmd_compare(args) -> int:
    name, circ = _resolve_source(args)
    tc = transpile(circ)
    workers = max_workers()
    fixed, _ = run_circuit(tc, StateVector.zero(circ.n, FIXED), workers)
    ref, _ = run_circuit(tc, StateVector.zero(circ.n, FLOAT), workers)
    fid = metrics.fidelity(fixed, ref)
    err = metrics.mse(fixed, ref)
    drift = metrics.norm_error(fixed)
    print("name  n  gates  fidelity  mse  norm_error")
    print(f"{name}  {circ.n}  {len(tc.gates)}  {fid:.12f}  {err:.6e}  {drift:.6e}")
    if args.out:
        record = {"name": name, "n": circ.n, "gates": len(tc.gates),
                  "fidelity": fid, "mse": err, "norm_error": drift}
        _atomic_write(args.out, json.dumps(record, sort_keys=True) + "\n")
    return 0


def cmd_estimate(args) -> int:
    cfg = _pe_config(args)
    name, tc = None, None
    if args.generate or args.circuit:
        name, circ = _resolve_source(args)
        tc = transpile(circ)
    gates = len(tc.gates) if tc is not None else 0

    rows = []
    for n in _parse_qubit_range(args.qubits):
        qea = pe_model.estimate_memory_qea(n, gates)
        mm = pe_model.estimate_memory_matmul(n)
        rows.append({"n": n, "gates": gates, "qea_bytes": qea,
                     "matmul_bytes": mm, "ratio": mm / qea})
    print("n  gates  qea_bytes  matmul_bytes  ratio  log10_ratio")
    for row in rows:
        print(f"{row['n']}  {row['gates']}  {row['qea_bytes']}  {row['matmul_bytes']}  "
              f"{row['ratio']:.2f}  {math.log10(row['ratio']):.3f}")

    out_lines = [json.dumps(row, sort_keys=True) for row in rows]
    if tc is not None:
        rep = pe_model.estimate_cycles(tc, cfg)
        print(f"{name}: total_cycles={rep.total_cycles:.0f} "
              f"(sparse={rep.sparse_cycles} dense={rep.dense_cycles} cx={rep.cx_cycles} "
              f"cross_pe={rep.cross_pe_cycles} overhead={rep.overhead_cycles:.0f}) "
              f"modeled_time_s={rep.modeled_time_s:.6e}")
        out_lines.append(json.dumps({
            "name": name, "n": tc.n, "total_cycles": rep.total_cycles,
            "cross_pe_accesses": rep.cross_pe_accesses,
            "modeled_time_s": rep.modeled_time_s}, sort_keys=True))
    if args.out:
        _atomic_write(args.out, "\n".join(out_lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qea-sim",
                                     description="Fixed-point state-vector simulator and accelerator model")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("circuit", nargs="?", help="circuit file (.qc text or .json)")
        p.add_argument("--generate", metavar="SPEC", help="generator spec, e.g. qft:8")

    p_run = sub.add_parser("run", help="execute a circuit and dump the final state")
    add_source(p_run)
    p_run.add_argument("--arith", choices=(FIXED, FLOAT), default=FIXED)
    p_run.add_argument("--out", help="state dump path (default: stdout)")
    p_run.add_argument("--circuit-out", help="write the transpiled circuit as JSON")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="benchmark a suite of circuits")
    p_bench.add_argument("what", help="'qft', 'template', or a directory of circuit files")
    p_bench.add_argument("--qubits", help="qubit count or range a..b")
    p_bench.add_argument("--topology", choices=TOPOLOGIES)
    p_bench.add_argument("--layers", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--pes", type=int)
    p_bench.add_argument("--freq", type=float)
    p_bench.add_argument("--out", help="JSONL report path")
    p_bench.set_defaults(func=cmd_bench)

    p_cmp = sub.add_parser("compare", help="fixed-point vs double-precision accuracy")
    add_source(p_cmp)
    p_cmp.add_argument("--out", help="JSON record path")
    p_cmp.set_defaults(func=cmd_compare)

    p_est = sub.add_parser("estimate", help="memory and cycle model tables")
    add_source(p_est)
    p_est.add_argument("--qubits", required=True, help="qubit count or range a..b")
    p_est.add_argument("--pes", type=int)
    p_est.add_argument("--freq", type=float)
    p_est.add_argument("--out", help="JSONL table path")
    p_est.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CircuitParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
