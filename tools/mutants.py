"""Mutation gate: the tests' strength as a committed table.

Each row of MUTANTS puts one small fault into a temporary copy of the
repository (src/, tests/ and pyproject.toml) and runs `pytest -x` on the
row's tests there; the tests must fail on it.  Before the mutants, each
distinct test selection runs once on an unmutated copy and must pass, so a
failure can only be the mutant's.

    python tools/mutants.py          # every row
    python tools/mutants.py 2 9      # rows 2 and 9 only, numbered from 1

Exits 1 if a mutant survives, if a row's old text is not found exactly once
in its file (so the table cannot go stale silently), or if pytest ends in
anything but pass or fail: a collection error or an unknown option is a
broken row, not a killed mutant.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
# acceptance test 9 alone takes about half of tier-1 and checks scalar helpers no row mutates
DEFAULT_TESTS = ("tests/test_engine.py", "tests/test_fixedpoint.py", "tests/test_acceptance.py", "-k", "not test_9")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    tests: tuple = DEFAULT_TESTS


MUTANTS = [
    Mutant("src/qea_sim/engine.py",
           "for step in _prepare(planes, _CLAMP_FREE if clamp_free else arith, steps, words, workers, track):",
           "for step in _prepare(planes, _CLAMP_FREE if clamp_free else arith, steps, words, workers, True):",
           "one-term forms for the in-place float run, which drops the two-term form's signs of zero"),
    Mutant("src/qea_sim/engine.py",
           "[((_ALL, _REV) if s0 else (), (_REV, _REV) if s1 else (_REV,)) for s0 in (0, 1) for s1 in (0, 1)]",
           "[((), (_REV,)) for s0 in (0, 1) for s1 in (0, 1)]",
           "no plane swap in view_d: an imaginary entry's one-term product reads the wrong plane"),
    Mutant("src/qea_sim/engine.py",
           "step = -(-total // min(workers, total, _MAX_PARTS))",
           "step = -(-total // min(workers, total))",
           "_split without _MAX_PARTS: more parts than the pool's threads and its buffer rows"),
    Mutant("src/qea_sim/engine.py",
           'return _rounded_product(a, b, b).clip(*_RAW_RANGE, out=out, casting="unsafe")',
           "return _rounded_product(a, b, out)",
           "_fixed_product without its clip: an overflowing product wraps instead of saturating"),
    Mutant("src/qea_sim/cli.py",
           "except (ValueError, OSError) as exc:   # CircuitParseError is a ValueError",
           "except OSError as exc:",
           "main lets ValueError through: bad input ends in a traceback, not an error line and exit code",
           ("tests/test_cli.py",)),
    Mutant("src/qea_sim/engine.py",
           "nonzero = words.reshape(-1, 4, 2).any(axis=2).tolist() if values else None",
           "nonzero = (abs(words.reshape(-1, 4, 2)) >= 1e-12).any(axis=2).tolist() if values else None",
           "_track drops float gate entries below 1e-12, so a tiny entry no longer activates its qubit"),
    Mutant("src/qea_sim/fixedpoint.py",
           "    carry &= 1\n",
           "    carry[...] = 1\n",
           "round_q60_array rounds half up, not to even"),
    Mutant("src/qea_sim/engine.py",
           "return float(s.max()) * bound + 2.0 <= fx.RAW_MAX",
           "return True",
           "_clamp_free always true: runs that can saturate take the unclamped steps"),
    Mutant("src/qea_sim/fixedpoint.py",
           "if len(text) != 8:",
           "if False:",
           "Fixed.from_hex without its length check: unhexlify reads any even number of digits"),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(src, dest / name)


def stale(rows) -> list[str]:
    """A message for each (number, row) whose old text is not in its file exactly once."""
    counts = [(k, m, (ROOT / m.file).read_text().count(m.old)) for k, m in rows]
    return [f"row {k}: old text found {c} times in {m.file}, not once: {m.old!r}" for k, m, c in counts if c != 1]


def _pytest(tree: Path, tests: tuple) -> tuple[int, str]:
    """pytest -x on tests in tree: its exit code, and the failed test's
    summary line, else the last line of its output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines() or [""]
    return proc.returncode, next((ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))), lines[-1])


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    rows = [(k, MUTANTS[k - 1]) for k in picked]
    errors = stale(rows)
    if errors:
        print(*errors, sep="\n")
        return 1
    start = time.perf_counter()
    survived = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        for tests in dict.fromkeys(m.tests for _, m in rows):
            t0 = time.perf_counter()
            code, last = _pytest(clean, tests)
            print(f"unmutated {' '.join(tests)}: exit {code} in {time.perf_counter() - t0:.0f} s: {last}", flush=True)
            if code != 0:
                return 1
        for k, m in rows:
            tree = Path(tmp) / f"row{k}"
            _copy(tree)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            code, last = _pytest(tree, m.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"BROKEN (pytest exit {code})")
            print(f"row {k} {verdict} in {time.perf_counter() - t0:.0f} s: {m.why}: {last}", flush=True)
            if code != 1:
                survived.append(k)
            shutil.rmtree(tree)
    print(f"{len(rows) - len(survived)} of {len(rows)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
