import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_row_applies():
    # the nightly gate runs the mutants; a row whose old text the code lost
    # would fail it only there, so the table's anchors are checked here
    assert mutants.stale(enumerate(mutants.MUTANTS, start=1)) == []


def test_a_missing_old_text_is_stale():
    row = mutants.Mutant("src/qea_sim/fixedpoint.py", "no such text", "", "a stale row")
    assert mutants.stale([(10, row)]) == [
        "row 10: old text found 0 times in src/qea_sim/fixedpoint.py, not once: 'no such text'"]
