import hashlib
import json
import math

import numpy as np
import pytest

from qea_sim import cli
from qea_sim.cli import main, parse_generate_spec
from qea_sim.engine import parse_dump


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerateSpec:
    def test_qft(self):
        name, c = parse_generate_spec("qft:5")
        assert name == "qft:5" and c.n == 5

    def test_template_full(self):
        name, c = parse_generate_spec("template:chain:4:2:7")
        assert c.n == 4 and len(c.gates) == 6

    def test_template_defaults(self):
        _, c = parse_generate_spec("template:all_to_all:4")
        assert len(c.gates) == 6

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_generate_spec("ghz:4")


class TestRun:
    def test_generated_qft3_float(self, capsys):
        code, out, err = run_cli(capsys, "run", "--generate", "qft:3", "--arith", "float")
        assert code == 0
        state = parse_dump(out)
        assert state.n == 3
        probs = np.abs(state.to_complex()) ** 2
        np.testing.assert_allclose(probs, 1 / 8, atol=1e-12)

    def test_parse_error_cites_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.qc"
        bad.write_text("qubits 2\nh 5\n")
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code != 0
        assert "line 2" in err

    def test_qft17_fixed_reports_721(self, capsys):
        code, out, err = run_cli(capsys, "run", "--generate", "qft:17", "--arith", "fixed")
        assert code == 0
        assert "transpiled_gates=721" in err  # dump on stdout, stats on stderr

    def test_out_file_and_circuit_json(self, tmp_path, capsys):
        dump_path = tmp_path / "state.dump"
        circ_path = tmp_path / "circ.json"
        code, out, err = run_cli(capsys, "run", "--generate", "qft:3",
                                 "--out", str(dump_path), "--circuit-out", str(circ_path))
        assert code == 0
        state = parse_dump(dump_path.read_text())
        assert state.n == 3
        circ = json.loads(circ_path.read_text())
        assert circ["n"] == 3 and len(circ["gates"]) == 21

    def test_text_circuit_file(self, tmp_path, capsys):
        src = tmp_path / "bell.qc"
        src.write_text("qubits 2\nh 0\ncx 0 1\n")
        code, out, err = run_cli(capsys, "run", str(src), "--arith", "float")
        assert code == 0
        state = parse_dump(out)
        np.testing.assert_allclose(np.abs(state.to_complex()) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_json_circuit_file(self, tmp_path, capsys):
        src = tmp_path / "circ.json"
        src.write_text(json.dumps({"n": 1, "gates": [{"kind": "h", "qubits": [0]}]}))
        code, out, err = run_cli(capsys, "run", str(src), "--arith", "float")
        assert code == 0
        assert parse_dump(out).n == 1

    def test_transpiled_json_keeps_global_phase(self, tmp_path, capsys):
        circ_path = tmp_path / "qft3.json"
        code, out, err = run_cli(capsys, "run", "--generate", "qft:3", "--circuit-out", str(circ_path))
        assert code == 0
        phase = json.loads(circ_path.read_text())["global_phase"]
        assert phase != 0
        code, out2, err2 = run_cli(capsys, "run", str(circ_path))
        assert code == 0
        assert f"global_phase={phase:.12g}" in err2
        assert out2 == out

    def test_huge_cp_angles_run(self, tmp_path, capsys):
        # five CP angles/4 near the float maximum would sum to inf unreduced
        src = tmp_path / "huge.qc"
        src.write_text("qubits 2\n" + "cp 1.7e308 0 1\n" * 5)
        code, out, err = run_cli(capsys, "run", str(src))
        assert code == 0
        phase = float(err.split("global_phase=")[1].split()[0])
        assert math.isfinite(phase) and abs(phase) <= 5 * math.pi
        assert parse_dump(out).n == 2


class TestBench:
    def test_qft_range_monotone_model(self, tmp_path, capsys):
        out_path = tmp_path / "reports.jsonl"
        code, out, err = run_cli(capsys, "bench", "qft", "--qubits", "3..6",
                                 "--repeats", "1", "--out", str(out_path))
        assert code == 0
        recs = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(recs) == 4
        modeled = [r["modeled_time_s"] for r in recs]
        assert modeled == sorted(modeled)
        assert all(m1 < m2 for m1, m2 in zip(modeled, modeled[1:]))

    def test_template_deterministic(self, tmp_path, capsys):
        args = ("bench", "template", "--topology", "chain", "--qubits", "4",
                "--layers", "2", "--seed", "7", "--repeats", "1")
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
        skip_timing = ("wall_time_s", "ngs")
        recs1 = [json.loads(l) for l in out1.read_text().splitlines()]
        recs2 = [json.loads(l) for l in out2.read_text().splitlines()]
        for a, b in zip(recs1, recs2):
            for key in a:
                if key not in skip_timing:
                    assert a[key] == b[key]

    def test_directory_suite(self, tmp_path, capsys):
        (tmp_path / "a.qc").write_text("qubits 2\nh 0\n")
        (tmp_path / "b.qc").write_text("qubits 2\nh 0\ncx 0 1\n")
        code, out, err = run_cli(capsys, "bench", str(tmp_path), "--repeats", "1")
        assert code == 0
        assert "a  2" in out and "b  2" in out

    def test_failed_entry_flagged_without_abort(self, tmp_path, capsys):
        (tmp_path / "bad.qc").write_text("qubits 2\nh 9\n")
        (tmp_path / "good.qc").write_text("qubits 2\nh 0\n")
        code, out, err = run_cli(capsys, "bench", str(tmp_path), "--repeats", "1")
        assert code != 0
        assert "bad" in err and "FAILED" in err
        assert "good" in out


class TestCompare:
    def test_qft8_accuracy(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--generate", "qft:8")
        assert code == 0
        row = out.splitlines()[1].split()
        fidelity, err_mse = float(row[3]), float(row[4])
        assert fidelity >= 0.999999
        assert err_mse <= 1e-10

    def test_single_gate_fidelity_one(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--generate", "template:rotation:1:1:3")
        assert code == 0
        fidelity = float(out.splitlines()[1].split()[3])
        assert fidelity == pytest.approx(1.0, abs=1e-9)


class TestEstimate:
    def test_ratio_windows(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--qubits", "7..7")
        assert code == 0
        ratio = float(out.splitlines()[1].split()[4])
        assert 10**1.8 <= ratio <= 10**2.4
        code, out, err = run_cli(capsys, "estimate", "--qubits", "13")
        ratio = float(out.splitlines()[1].split()[4])
        assert 10**3.5 <= ratio <= 10**4.3

    def test_ratio_doubles_for_large_n(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--qubits", "20..21")
        rows = [line.split() for line in out.splitlines()[1:3]]
        assert float(rows[1][4]) / float(rows[0][4]) == pytest.approx(2.0, rel=1e-3)

    def test_circuit_cycle_report(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--qubits", "4", "--generate", "qft:4")
        assert code == 0
        assert "total_cycles" in out and "modeled_time_s" in out


class TestExitCodes:
    def test_missing_source(self, capsys):
        assert run_cli(capsys, "run")[0] != 0

    def test_conflicting_sources(self, tmp_path, capsys):
        p = tmp_path / "c.qc"
        p.write_text("qubits 1\nh 0\n")
        assert run_cli(capsys, "run", str(p), "--generate", "qft:2")[0] != 0

    def test_oversized_state(self, capsys):
        code, out, err = run_cli(capsys, "run", "--generate", "qft:40")
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("estimate", "--qubits", "1100"),               # the memory ratio overflows a float
        ("estimate", "--qubits", "1..1000000000"),      # refused before any row is built
        ("estimate", "--qubits", "4", "--generate", "qft:3000"),
        ("run", "--generate", "qft:3000"),
        ("run", "--generate", "qft:1000"),
        ("run", "--generate", "template:rotation:1000"),
        ("compare", "--generate", "qft:1000"),
        ("bench", "qft", "--qubits", "3..1000"),
    ])
    def test_oversized_n_refused_before_generating(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("a generator ran for an oversized n")
        monkeypatch.setattr(cli, "generate_qft", refuse)
        monkeypatch.setattr(cli, "generate_template", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("bench", "qft", "--qubits", "3", "--freq", "nan", "--repeats", "1"),
        ("bench", "qft", "--qubits", "3", "--freq", "inf", "--repeats", "1"),
        ("estimate", "--generate", "qft:3", "--qubits", "3", "--freq", "nan"),
        ("estimate", "--qubits", "3", "--freq=-inf"),
    ])
    def test_non_finite_frequency(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: freq_hz must be finite") and "Traceback" not in err
        assert "modeled_time_s" not in out

    @pytest.mark.parametrize("doc", [
        {"n": 2},
        {"gates": []},
        {"n": "2", "gates": []},
        {"n": 2, "gates": [{"qubits": [0]}]},
        {"n": 2, "gates": [{"kind": "h", "qubits": [0.5]}]},
        {"n": 2, "gates": [{"kind": "rz", "qubits": [0], "angle": "pi"}]},
        {"n": 2, "gates": [{"kind": "h", "qubits": [5]}]},
        {"n": 2, "gates": [], "global_phase": None},
        [1, 2],
    ])
    def test_malformed_json_circuit(self, tmp_path, capsys, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "run", str(p))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


# sha256 of `qea-sim run` dumps, recorded before the prepared run plan;
# every worker count must give the same bytes
RUN_DUMP_SHA256 = {
    ("qft:14", "fixed"): "4787ff3cdd0d7cbd80c729b87e6c1ea81e53161072546de685e2f6e2426fc24e",
    ("qft:14", "float"): "6df1b72995a4c152f8ee842b0ac1b444c32836a95a9ea8067f68fbce1c1b8d81",
    ("template:rotation:10:3:7", "fixed"): "bb20733f650a961eff4eea93f98fc23420e22634819f545c5f78ce711af28227",
    ("template:rotation:10:3:7", "float"): "608eacacb183228467bbb6cc4e884cbe579522855170f211ceecb825591d4535",
}


class TestPinnedDumps:
    @pytest.mark.parametrize("threads", ["1", "2", "4", "8"])
    @pytest.mark.parametrize("spec,arith", sorted(RUN_DUMP_SHA256))
    def test_run_dump_sha256(self, capsys, monkeypatch, spec, arith, threads):
        monkeypatch.setenv("QEA_SIM_THREADS", threads)
        code, out, err = run_cli(capsys, "run", "--generate", spec, "--arith", arith)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == RUN_DUMP_SHA256[spec, arith]
