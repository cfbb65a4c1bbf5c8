"""Command-line front end: run, bench, compare, estimate.

Circuit sources are either a file (text format, or .json structured form)
or a --generate spec in compact name:params syntax:
    qft:<n>
    template:<topology>:<n>[:<layers>[:<seed>]]
Worker count is capped by the QEA_SIM_THREADS environment variable: unset or
empty means 1, and run, compare and bench refuse any value but a positive
integer with exit code 2.
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
                      parse_float, parse_int, transpile)
from .engine import FIXED, FLOAT, StateVector, check_fits, format_dump, max_workers, run_circuit
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


def _generator(spec: str):
    """(name, n, build) of a generator spec; build() generates the circuit."""
    parts = spec.split(":")
    name = parts[0].lower()
    if name == "qft":
        if len(parts) != 2:
            raise ValueError(f"qft spec is qft:<n>, got {spec!r}")
        n = parse_int(parts[1])
        return f"qft:{n}", n, lambda: generate_qft(n)
    if name == "template":
        if not 3 <= len(parts) <= 5:
            raise ValueError(f"template spec is template:<topology>:<n>[:<layers>[:<seed>]], got {spec!r}")
        topology = parts[1]
        n = parse_int(parts[2])
        layers = parse_int(parts[3]) if len(parts) > 3 else 1
        seed = parse_int(parts[4]) if len(parts) > 4 else 0
        return (f"template:{topology}:{n}:{layers}:{seed}", n,
                lambda: generate_template(topology, n, layers, seed))
    raise ValueError(f"unknown generator {name!r} (expected qft or template)")


def parse_generate_spec(spec: str) -> tuple[str, Circuit]:
    name, _, build = _generator(spec)
    return name, build()


def load_circuit_file(path: str) -> tuple[str, Circuit | TranspiledCircuit]:
    """A transpiled JSON circuit is returned as is, keeping its global phase.
    Bytes that are not UTF-8 text, and a .json file that is not JSON, are a
    CircuitParseError, like any other malformed circuit file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        if path.endswith(".json"):
            return Path(path).stem, circuit_from_dict(json.loads(text))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:   # a JSON message names its line and column
        raise CircuitParseError(str(exc)) from None
    except RecursionError:
        raise CircuitParseError("JSON nested too deeply") from None
    return Path(path).stem, parse_circuit(text)


def _resolve_source(args, check) -> tuple[str, Circuit | TranspiledCircuit]:
    """The circuit to use; check(n) refuses a generated n before any gate is
    built, and a file's n once it is read."""
    if args.generate:
        if args.circuit:
            raise ValueError("give either a circuit file or --generate, not both")
        name, n, build = _generator(args.generate)
        check(n)
        return name, build()
    if args.circuit:
        name, circ = load_circuit_file(args.circuit)
        check(circ.n)
        return name, circ
    raise ValueError("no circuit source: pass a file or --generate <spec>")


def _parse_qubit_range(text: str, check) -> range:
    """check(hi) refuses the range before any of it is built."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = parse_int(lo_s), parse_int(hi_s)
        if hi < lo:
            raise ValueError(f"empty qubit range {text!r}")
    else:
        lo = hi = parse_int(text)
    check(hi)
    return range(lo, hi + 1)


def _check_float_state(n: int) -> None:
    # bench and compare also run the float reference, the larger state
    check_fits(n, FLOAT)


def _pe_config(args) -> pe_model.PEConfig:
    given = {"num_pes": args.pes, "freq_hz": args.freq}
    return pe_model.PEConfig(**{k: v for k, v in given.items() if v is not None})


def cmd_run(args) -> int:
    name, circ = _resolve_source(args, lambda n: check_fits(n, args.arith))
    tc = transpile(circ)
    state = StateVector.zero(circ.n, args.arith)
    state, stats = run_circuit(tc, state, args.workers)
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
          f"swept_amps={stats.swept_amps} of {len(tc.gates) << circ.n} cx_passes={stats.cx_passes} "
          f"wall_time_s={stats.wall_time_s:.6f} global_phase={tc.global_phase:.12g}",
          file=info)
    return 0


def _bench_suite(args):
    """(name, loader) pairs; loading is deferred so one bad entry cannot
    abort the suite."""
    what = args.what
    if what == "qft":
        specs = [f"qft:{n}" for n in _parse_qubit_range(args.qubits or "3..10", _check_float_state)]
    elif what == "template":
        if not args.topology:
            raise ValueError("bench template requires --topology")
        specs = [f"template:{args.topology}:{n}:{args.layers}:{args.seed}"
                 for n in _parse_qubit_range(args.qubits or "4", _check_float_state)]
    else:   # a directory of circuit files
        root = Path(what)
        if not root.is_dir():
            raise ValueError(f"{what!r} is not 'qft', 'template', or a circuit directory")
        suite = [(path.stem, lambda path=path: load_circuit_file(str(path))[1])
                 for path in sorted(root.iterdir())
                 if path.suffix in (".qc", ".txt", ".json")]
        if not suite:
            raise ValueError(f"no circuit files found under {what!r}")
        return suite
    return [(name, build) for name, _, build in map(_generator, specs)]


_BENCH_COLS = ("name", "n", "gates", "fidelity", "mse", "wall_time_s", "modeled_time_s", "ngs")


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {args.repeats}")
    suite = _bench_suite(args)
    cfg = _pe_config(args)
    reports = []
    failed = 0
    for name, load in suite:
        try:
            reports.append(metrics.bench_circuit(name, load(), cfg, args.repeats, args.workers))
        except Exception as exc:  # keep the suite going, flag the entry
            failed += 1
            print(f"{name}: FAILED: {exc}", file=sys.stderr)
    print("  ".join(_BENCH_COLS))
    for r in reports:
        print(f"{r.name}  {r.n}  {r.post_gates}  {r.fidelity:.9f}  {r.mse:.3e}  "
              f"{r.wall_time_s:.6f}  {r.modeled_time_s:.6e}  {r.ngs:.3e}")
    if args.out:
        _atomic_write(args.out, metrics.reports_to_jsonl(reports))
    if failed:
        print(f"error: {failed} of {len(suite)} bench entries failed", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    name, circ = _resolve_source(args, _check_float_state)
    tc = transpile(circ)
    cmp = metrics.compare_runs(tc, args.workers)
    record = {"name": name, "n": circ.n, "gates": len(tc.gates),
              "fidelity": cmp.fidelity, "mse": cmp.mse, "norm_error": cmp.norm_error}
    print("  ".join(record))
    print("{name}  {n}  {gates}  {fidelity:.12f}  {mse:.6e}  {norm_error:.6e}".format(**record))
    if args.out:
        _atomic_write(args.out, json.dumps(record, sort_keys=True) + "\n")
    return 0


def cmd_estimate(args) -> int:
    cfg = _pe_config(args)
    name, tc = None, None
    if args.generate or args.circuit:
        name, circ = _resolve_source(args, pe_model.check_figures)
        tc = transpile(circ)
    gates = len(tc.gates) if tc is not None else 0
    rep = pe_model.estimate_cycles(tc, cfg) if tc is not None else None   # may refuse: before any row

    rows = []
    for n in _parse_qubit_range(args.qubits, pe_model.check_figures):
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

    # the type=int and type=float options read parse_int's and parse_float's
    # numerals; argparse names a bad value's type by the option's type, int
    # or float, so its message stays the same
    for p in (p_bench, p_est):
        p.register("type", int, parse_int)
        p.register("type", float, parse_float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is not cmd_estimate:   # a bad worker count is refused like a bad option, before any work
        try:
            args.workers = max_workers()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # CircuitParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CircuitParseError) else 1


if __name__ == "__main__":
    sys.exit(main())
