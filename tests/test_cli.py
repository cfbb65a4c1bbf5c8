import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from qea_sim import cli, engine, pe_model
from qea_sim.circuit import transpile
from qea_sim.cli import main, parse_generate_spec
from qea_sim.engine import parse_dump
from qea_sim.generators import generate_qft


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

    @pytest.mark.parametrize("arith", ["fixed", "float"])
    def test_summary_reports_swept_amplitudes(self, capsys, arith):
        # QFT(4) has 4 H + 6 x 5 CP gates + 2 x 3 SWAP CX: 40 gates x 16 amplitudes;
        # a fixed run from |0000> skips provably zero amplitudes, a float run
        # sweeps all 16 in each of its 22 one-qubit gates and its CX passes
        code, out, err = run_cli(capsys, "run", "--generate", "qft:4", "--arith", arith)
        assert code == 0
        swept, passes = map(int, re.search(r" swept_amps=(\d+) of 640 cx_passes=(\d+) ", err).groups())
        assert swept < 640 if arith == "fixed" else swept == (22 + passes) << 4

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

    def test_out_record(self, tmp_path, capsys):
        path = tmp_path / "compare.json"
        code, out, err = run_cli(capsys, "compare", "--generate", "qft:4", "--out", str(path))
        assert code == 0
        rec = json.loads(path.read_text())
        assert path.read_text().count("\n") == 1
        assert sorted(rec) == ["fidelity", "gates", "mse", "n", "name", "norm_error"]
        assert (rec["name"], rec["n"], rec["gates"]) == ("qft:4", 4, 40)
        row = out.splitlines()[1].split()
        assert row == ["qft:4", "4", "40", f"{rec['fidelity']:.12f}", f"{rec['mse']:.6e}", f"{rec['norm_error']:.6e}"]


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

    def test_out_records(self, tmp_path, capsys):
        path = tmp_path / "estimate.jsonl"
        code, out, err = run_cli(capsys, "estimate", "--qubits", "3..4", "--generate", "qft:4", "--out", str(path))
        assert code == 0
        *rows, cycles = map(json.loads, path.read_text().splitlines())
        assert [(r["n"], r["gates"]) for r in rows] == [(3, 40), (4, 40)]
        for r, line in zip(rows, out.splitlines()[1:3]):
            assert r["qea_bytes"] == pe_model.estimate_memory_qea(r["n"], 40)
            assert r["matmul_bytes"] == pe_model.estimate_memory_matmul(r["n"])
            assert line.split()[:4] == [str(r["n"]), "40", str(r["qea_bytes"]), str(r["matmul_bytes"])]
            assert r["ratio"] == r["matmul_bytes"] / r["qea_bytes"]
        rep = pe_model.estimate_cycles(transpile(generate_qft(4)))
        assert cycles == {"name": "qft:4", "n": 4, "total_cycles": rep.total_cycles,
                          "cross_pe_accesses": rep.cross_pe_accesses, "modeled_time_s": rep.modeled_time_s}


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
        ("run", "--generate", "template:chain:3:20000"),
        ("compare", "--generate", "template:rotation:4:10000"),
        ("estimate", "--qubits", "4", "--generate", "template:all_to_all:5:4000"),
        ("run", "--generate", "qft:8"),                  # 160 gates once transpiled
    ])
    def test_gate_budget_refused_before_generating(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(engine, "_GATE_BUDGET", 100)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert err.startswith("error: ") and "gates are more than the 100 that fit" in err
        assert "Traceback" not in err
        assert peak < 1 << 20   # the 40,000 gates alone would take about 7 MB

    def test_gate_budget_fails_one_bench_entry(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "_GATE_BUDGET", 100)
        code, out, err = run_cli(capsys, "bench", "template", "--topology", "chain",
                                 "--qubits", "3..4", "--layers", "40", "--repeats", "1")
        assert code == 1
        assert err.startswith("template:chain:4:40:0: FAILED: 120 gates are more than the 100")
        assert "template:chain:3:40:0" in out   # 80 gates: within the budget, so it ran

    @pytest.mark.parametrize("name,text", [
        ("huge.qc", "qubits 3000\nh 0\n"),                       # refused by its n, before any cycle count
        ("wide.qc", "qubits 1023\n" + "h 0\n" * 40),              # the cycle total overflows a float
        ("wide.json", json.dumps({"n": 1023, "gates": [{"kind": "h", "qubits": [0]}] * 40})),
        (None, None),                                                # the same from a generator spec
    ], ids=["qc-3000", "qc-1023", "json-1023", "generated-1023"])
    def test_estimate_cycle_overflow_refused(self, tmp_path, capsys, name, text):
        if name is None:
            source = ("--generate", "template:rotation:1023:2")
        else:
            (tmp_path / name).write_text(text)
            source = (str(tmp_path / name),)
        code, out, err = run_cli(capsys, "estimate", "--qubits", "4", *source)
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""   # no table row

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
        {"n": True, "gates": []},                                      # JSON true is not the number 1
        {"n": 2, "gates": [{"kind": "h", "qubits": [True]}]},
        {"n": 2, "gates": [{"kind": "h", "qubits": [False]}]},
        {"n": 2, "gates": [], "global_phase": True},
        {"n": 2, "gates": [{"kind": "rz", "qubits": [0], "angle": True}]},
        {"n": 2, "gates": [], "global_phase": math.nan},               # json writes and reads NaN
    ])
    def test_malformed_json_circuit(self, tmp_path, capsys, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "run", str(p))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (("run", "--generate", "qft:3:4"), "qft spec is qft:<n>, got 'qft:3:4'"),
        (("run", "--generate", "template:chain"),
         "template spec is template:<topology>:<n>[:<layers>[:<seed>]], got 'template:chain'"),
        (("estimate", "--qubits", "5..3"), "empty qubit range '5..3'"),
        (("bench", "qft", "--qubits", "3", "--pes", "3", "--repeats", "1"), "num_pes must be a power of two, got 3"),
        (("estimate", "--qubits", "4", "--pes", "3"), "num_pes must be a power of two, got 3"),
        (("bench", "template", "--qubits", "4"), "bench template requires --topology"),
        (("bench", "{tmp}/c.qc"), "'{tmp}/c.qc' is not 'qft', 'template', or a circuit directory"),
        (("bench", "{tmp}/empty"), "no circuit files found under '{tmp}/empty'"),
    ], ids=["qft-spec", "template-spec", "empty-range", "bench-pes", "estimate-pes", "no-topology",
            "bench-file", "bench-empty-dir"])
    def test_refusal_messages(self, tmp_path, capsys, argv, message):
        (tmp_path / "c.qc").write_text("qubits 1\nh 0\n")
        (tmp_path / "empty").mkdir()
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1
        assert err == f"error: {message.format(tmp=tmp_path)}\n" and "Traceback" not in err
        assert out == ""

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(cli.os, "replace", refuse)
        code, out, err = run_cli(capsys, "run", "--generate", "qft:2", "--out", str(tmp_path / "state.dump"))
        assert code == 1
        assert err == "error: replace refused\n" and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_deeply_nested_json_circuit(self, tmp_path, capsys):
        # json.dumps cannot build it; json.loads would raise RecursionError
        p = tmp_path / "deep.json"
        p.write_text("[" * 10**5 + "]" * 10**5)
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
    @pytest.mark.parametrize("threads", ["1", "2", "4", "8", "abc"])   # an unreadable count runs one worker
    @pytest.mark.parametrize("spec,arith", sorted(RUN_DUMP_SHA256))
    def test_run_dump_sha256(self, capsys, monkeypatch, spec, arith, threads):
        monkeypatch.setenv("QEA_SIM_THREADS", threads)
        code, out, err = run_cli(capsys, "run", "--generate", spec, "--arith", arith)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == RUN_DUMP_SHA256[spec, arith]
