"""In-memory spans for the traced run, and the per-layer metrics derived
from them.

A span records its name, start, end, parent span, the operation it belongs
to, and a few attributes (arithmetic, gate class, target band, amplitudes
touched, bytes moved).  Spans stay in memory and are written once, as
JSON, when the run ends.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": op,
               "parent": self._stack[-1] if self._stack else None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._stack.pop()
            rec["start"] = start - self.t0
            rec["end"] = end - self.t0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _ratio(spans, num, den) -> float:
    total = sum(den(s) for s in spans)
    return sum(num(s) for s in spans) / total


def _per_op_median(spans) -> float:
    """Median over operations of the summed span time within each."""
    per_op = defaultdict(float)
    for s in spans:
        per_op[s["op"]] += _dur(s)
    return statistics.median(per_op.values())


def band(target: int, n: int) -> str:
    """t0: stride 2^(n-1), one block; tlast: stride 1; tmid: the rest."""
    if target == 0:
        return "t0"
    return "tlast" if target == n - 1 else "tmid"


KERNEL_CELLS = [(arith, mode, b) for arith in ("fixed", "float")
                for mode in ("sparse", "dense") for b in ("t0", "tmid", "tlast")]


def per_layer(spans: list[dict], op_workers: int, untraced_p50: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}.

    Times per amplitude or per gate are ratios of sums over all traced
    operations; times per operation are medians over traced operations;
    counts are totals over the traced operations.
    """
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    out = {}

    kern = by["engine.apply_1q"]
    for arith, mode, b in KERNEL_CELLS:
        cell = [s for s in kern if (s["arith"], s["mode"], s["band"]) == (arith, mode, b)]
        out[f"engine.apply_1q.{arith}.{mode}.{b}.ns_per_amp"] = (
            1e9 * _ratio(cell, _dur, lambda s: s["amps"]), "ns")
    for arith in ("fixed", "float"):
        cx = [s for s in by["engine.apply_cx"] if s["arith"] == arith]
        out[f"engine.apply_cx.{arith}.ns_per_amp"] = (1e9 * _ratio(cx, _dur, lambda s: s["amps"]), "ns")
    for arith in ("fixed", "float"):
        apps = [s for s in by["engine.make_application"] if s["arith"] == arith]
        out[f"engine.make_application.{arith}.us_per_gate"] = (1e6 * _ratio(apps, _dur, lambda s: 1), "us")
    runs = by["engine.run_circuit"]
    for arith in ("fixed", "float"):
        mine = [s for s in runs if s["arith"] == arith and s["workers"] == op_workers]
        out[f"engine.run_circuit.{arith}.s"] = (_per_op_median(mine), "s")
    fixed_runs = [s for s in runs if s["arith"] == "fixed"]
    w1 = sum(_dur(s) for s in fixed_runs if s["workers"] == 1)
    w2 = sum(_dur(s) for s in fixed_runs if s["workers"] == 2)
    out["engine.workers_speedup"] = (w1 / w2, "1")
    for arith in ("fixed", "float"):
        ks = [s for s in kern + by["engine.apply_cx"] if s["arith"] == arith]
        out[f"engine.kernel_gb_per_s.{arith}"] = (_ratio(ks, lambda s: s["bytes"], _dur) / 1e9, "GB/s")
    fixed_dumps = [s for s in by["engine.format_dump"] if s["arith"] == "fixed"]
    out["engine.format_dump.ns_per_amp"] = (1e9 * _ratio(fixed_dumps, _dur, lambda s: s["amps"]), "ns")
    out["engine.parse_dump.ns_per_amp"] = (1e9 * _ratio(by["engine.parse_dump"], _dur, lambda s: s["amps"]), "ns")
    dump_bytes = defaultdict(int)
    for s in fixed_dumps:
        if s["role"] == "run":
            dump_bytes[s["op"]] += s["bytes"]
    out["engine.dump_mb"] = (statistics.median(dump_bytes.values()) / 1e6, "MB")
    out["engine.reference_run.s"] = (_per_op_median(by["engine.reference_run"]), "s")
    op_runs = [s for s in fixed_runs if s["workers"] == op_workers]
    for cls in ("sparse", "dense", "cx"):
        out[f"engine.gates.{cls}"] = (sum(s[cls] for s in op_runs), "count")
    out["circuit.parse_circuit.us_per_gate"] = (
        1e6 * _ratio(by["circuit.parse_circuit"], _dur, lambda s: s["gates"]), "us")
    out["circuit.transpile.us_per_gate"] = (
        1e6 * _ratio(by["circuit.transpile"], _dur, lambda s: s["gates"]), "us")
    out["generators.generate.s"] = (sum(_dur(s) for s in by["generators.generate"]), "s")
    out["metrics.fidelity.s"] = (_per_op_median(by["metrics.fidelity"]), "s")
    out["metrics.mse.s"] = (_per_op_median(by["metrics.mse"]), "s")
    est = by["pe_model.estimate_cycles"]
    out["pe_model.estimate_cycles.us_per_gate"] = (1e6 * _ratio(est, _dur, lambda s: s["gates"]), "us")
    out["pe_model.total_cycles"] = (int(sum(s["total_cycles"] for s in est)), "count")
    out["pe_model.cross_pe_accesses"] = (sum(s["cross_pe_accesses"] for s in est), "count")
    out["trace.overhead_s"] = (statistics.median(_dur(s) for s in by["op"]) - untraced_p50, "s")
    return out
