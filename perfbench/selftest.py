"""Self-test of the reference checks: each must pass a correct output and
reject each of four corrupted ones.

    python3 perfbench/selftest.py

The correct output is built without the program: the closed-form QFT of a
basis state, times the transpiler's global phase, quantized to Q2.30 and
written as a dump.  The corruptions are one flipped raw word, a reversed
qubit order, a dropped global phase, and a dump with a duplicated index.
A state-level check sees the duplicated-index dump as the program's
parse_dump decodes it: the last line wins and the skipped index is zero.
"""
from __future__ import annotations

import math

import numpy as np

import reference as ref
from reference import CheckError

N, X = 6, 0b101101


def _quantize(v):
    return np.rint(v.real * ref.RAW_ONE).astype(np.int64), np.rint(v.imag * ref.RAW_ONE).astype(np.int64)


def _dump(re, im) -> str:
    lines = [f"n={len(re).bit_length() - 1} arith=fixed"]
    for i, (a, b) in enumerate(zip(re.tolist(), im.tolist())):
        lines.append(f"{i} {a & 0xFFFFFFFF:08x} {b & 0xFFFFFFFF:08x} {a / ref.RAW_ONE!r} {b / ref.RAW_ONE!r}")
    return "\n".join(lines) + "\n"


def _bit_reverse(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return np.array([int(format(i, f"0{n}b")[::-1], 2) for i in idx])


def run_selftest() -> None:
    text = f"qubits {N}\n" + "".join(f"rx {math.pi!r} {q}\n" for q in range(N) if X >> (N - 1 - q) & 1)
    for q in range(N):
        text += f"h {q}\n" + "".join(f"cp {math.pi / (1 << (k - q))!r} {k} {q}\n" for k in range(q + 1, N))
    text += "".join(f"swap {q} {N - 1 - q}\n" for q in range(N // 2))
    n, gates = ref.parse_text(text)
    phase = ref.transpile_phase(gates)
    ideal = ref.qft_of_basis(n, X)
    if np.max(np.abs(ref.simulate(n, gates) - ideal)) > ref.FLOAT_TOL:
        raise RuntimeError("self-test: tensordot simulator and closed-form DFT disagree")
    counts = ref.transpiled_counts(gates)
    if sum(counts.values()) != ref.qft_gate_total(n) + bin(X).count("1"):
        raise RuntimeError("self-test: closed-form class counts and QFT gate total disagree")
    one_q = counts["sparse"] + counts["dense"]

    program = ideal * np.exp(-1j * phase)          # what a correct engine produces
    good = _quantize(program)
    good_dump = _dump(*good)
    rev = _bit_reverse(n)

    def flip(v):
        w = v.copy()
        w[3] = complex((int(np.rint(w[3].real * ref.RAW_ONE)) ^ 1 << 28) / ref.RAW_ONE, w[3].imag)
        return w

    def duplicate(v):
        # line 1 relabelled as index 0: decoded last-wins, index 1 stays zero
        w = v.copy()
        w[0], w[1] = v[1], 0
        return w

    corruptions = {
        "flipped raw word": flip,
        "reversed qubit order": lambda v: v[rev],
        "dropped global phase": lambda v: v * np.exp(1j * phase),
        "duplicated index": duplicate,
    }
    dup_lines = good_dump.split("\n")
    dup_lines[2] = "0" + dup_lines[2][dup_lines[2].index(" "):]

    def dump_of(name, raw):
        return "\n".join(dup_lines) if name == "duplicated index" else _dump(*raw)

    checks = {
        "check_q230": lambda v, raw, dump: ref.check_q230(*raw, ideal, phase, one_q, "selftest"),
        "check_float": lambda v, raw, dump: ref.check_float(v, ideal, phase, "selftest"),
        "check_identical": lambda v, raw, dump: ref.check_identical(raw, good, "selftest"),
        "check_dump": lambda v, raw, dump: ref.check_dump(dump, n, *good, "selftest"),
    }
    for cname, check in checks.items():
        check(program, good, good_dump)             # a correct output passes
        for corruption, corrupt in corruptions.items():
            v = corrupt(program)
            raw = _quantize(v)
            try:
                check(v, raw, dump_of(corruption, raw))
            except CheckError:
                continue
            raise RuntimeError(f"self-test: {cname} accepted a {corruption}")
    try:
        ref.check_agree(0.5 * (1 + 1e-6), 0.5, "selftest")
    except CheckError:
        return
    raise RuntimeError("self-test: check_agree accepted a value off by 1e-6")


if __name__ == "__main__":
    run_selftest()
    print("self-test passed: every check rejects each corruption")
