"""Wall-clock benchmark of qea-sim's run, compare and bench paths.

    python3 perfbench/run.py --workload qft-dump --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  One client in this process runs a closed loop: the next operation
starts when the previous one has finished.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a separate traced pass with --trace 1.  Raw timings and spans go to
perfbench/out/.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
TRACED_OPS = 4          # the first inputs of the pool, traced once each


def _import_program() -> None:
    """Put ./src first on the path and make sure qea_sim comes from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qea_sim
    if Path(qea_sim.__file__).resolve().parent.parent != src:
        raise ImportError(f"qea_sim was imported from {qea_sim.__file__}, not from {src}")


def setup_probe(workload: str, seed: int) -> float:
    """Package import plus input building, timed from this process's start."""
    _import_program()
    import workloads
    workloads.WORKLOADS[workload].build(seed)
    return time.perf_counter() - T_START


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, one after the other."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def timed_rounds(wl, inputs, seconds: float, rec: dict) -> None:
    """Whole rounds over the input pool until `seconds` have passed."""
    end = time.perf_counter() + seconds
    while True:
        for inp in inputs:
            rec["attempted"] += 1
            t = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception:                   # the program failed; count it and go on
                rec["failed"] += 1
                traceback.print_exc()
                continue
            dt = time.perf_counter() - t
            if inp.fingerprint:
                wl.recheck(inp, out)
            else:                               # first output of this input
                wl.validate(inp, out)
            rec["op_s"].append(dt)
            rec["run_s"] += sum(r.run_s for r in out)
            rec["gate_amps"] += sum(len(r.tc.gates) << r.tc.n for r in out)
        if time.perf_counter() >= end:
            return


def run(args) -> dict:
    phases = {}
    t = time.perf_counter()
    setup_s = measure_setup(args.workload, args.seed)
    phases["setup_probes"] = time.perf_counter() - t
    _import_program()
    import selftest
    import spans
    import workloads

    selftest.run_selftest()
    wl = workloads.WORKLOADS[args.workload]
    os.environ["QEA_SIM_THREADS"] = str(workloads.WORKERS)
    tracer = spans.Tracer() if args.trace else None
    inputs = wl.build(args.seed, tracer)
    for inp in inputs:
        for ci in inp.circuits:
            ci.prepare()
    phases["selftest_and_build"] = time.perf_counter() - t - phases["setup_probes"]

    rec = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "setup_s": setup_s,
           "attempted": 0, "failed": 0, "op_s": [], "run_s": 0.0, "gate_amps": 0, "phases": phases}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        t = time.perf_counter()
        wl.validate(inputs[0], wl.op(inputs[0]))     # warm-up, not timed
        phases["warmup"] = time.perf_counter() - t
        timed_rounds(wl, inputs, args.seconds / 2 if args.trace else args.seconds, rec)
        if not rec["op_s"]:
            raise RuntimeError("every timed operation failed")
        p50 = statistics.median(rec["op_s"])
        phases["timed"] = time.perf_counter() - t - phases["warmup"]
        if args.trace:
            for op_id, inp in enumerate(inputs[:TRACED_OPS]):
                workloads.traced_op(wl, inp, tracer, op_id)
            workloads.probe_missing_cells(wl, inputs, tracer)
            tracer.write(OUT / f"trace-{wl.name}-s{args.seed}.json")
            layers = spans.per_layer(tracer.spans, op_workers=workloads.WORKERS, untraced_p50=p50)
            phases["traced"] = time.perf_counter() - t - phases["warmup"] - phases["timed"]
        else:
            layers = {}
    except workloads.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result["correct"] = False
        layers, p50 = {}, None
    result["attempted"], result["failed"] = rec["attempted"], rec["failed"]

    if args.trace:
        metrics = layers
    elif result["correct"]:
        metrics = {
            "op_s.p50": (p50, "s"),
            "ngs_ns": (1e9 * rec["run_s"] / rec["gate_amps"], "ns"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "modeled_device_s": (statistics.fmean(inp.modeled_s for inp in inputs), "s"),
            "fixed_mse": (statistics.fmean(inp.fixed_mse for inp in inputs), "1"),
        }
    else:
        metrics = {}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(rec | {"result": result}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("qft-dump", "ansatz-compare", "bench-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            print(f"{setup_probe(args.workload, args.seed):.9f}")
            return 0
        result = run(args)
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
