"""Command-line interface: report shapes, exit codes, files, CSV."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from qddsim.circuit import Circuit, GateInstance, emit_qasm, gen_wstate
from qddsim.cli import main

from conftest import LEADING, MOTIVATING, bell_pair

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1]
     / "src" / "qddsim" / "schema" / "run_report.schema.json").read_text()
)


@pytest.fixture
def qasm_file(tmp_path):
    def write(circuit, name="circ.qasm"):
        path = tmp_path / name
        path.write_text(emit_qasm(circuit))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- simulate --------------------------------------------------------------

def test_simulate_report_validates(qasm_file, capsys):
    code, report = run_json(capsys, ["simulate", qasm_file(MOTIVATING)])
    assert code == 0
    jsonschema.validate(report, SCHEMA)
    assert report["mode"] == "limdd"
    assert report["policy"] == {
        "coeffs": "exact", "tolerance": 0.0, "norm_rule": "low",
    }
    assert report["circuit"]["n_qubits"] == 2
    assert report["circuit"]["gates_raw"] == 6
    assert report["circuit"]["t_count"] == 2
    assert report["measurement"]["p0_float"] == 1.0
    assert report["checks"] == {"coeff_bound": None, "width_bound": None}
    assert report["violations"] == []
    assert report["bound_report"] is None


@pytest.mark.parametrize("flags,ops", [([], 29), (["--check-bounds"], 57)])
def test_simulate_reports_applied_operations(qasm_file, capsys, flags, ops):
    """W-8 fuses its runs of single-qubit gates; a per-gate check applies
    every gate on its own."""
    code, report = run_json(capsys, ["simulate", qasm_file(gen_wstate(8)), *flags])
    assert code == 0
    jsonschema.validate(report, SCHEMA)
    assert report["circuit"]["gates_raw"] == 57
    assert report["circuit"]["ops_applied"] == ops


def test_simulate_float_backend_fields(qasm_file, capsys):
    code, report = run_json(capsys, [
        "simulate", qasm_file(LEADING), "--coeffs", "float", "--backend", "evdd",
    ])
    assert code == 0
    jsonschema.validate(report, SCHEMA)
    assert report["mode"] == "evdd"
    assert report["policy"]["tolerance"] == 1e-14
    assert report["measurement"]["p0_symbolic"] is None


def test_simulate_exact_symbolic_probability(qasm_file, capsys):
    code, report = run_json(capsys, [
        "simulate", qasm_file(LEADING), "--check-coeffs", "--check-bounds",
    ])
    assert code == 0
    jsonschema.validate(report, SCHEMA)
    assert report["measurement"]["p0_symbolic"] is not None
    assert report["checks"] == {"coeff_bound": True, "width_bound": True}
    bound = report["bound_report"]
    assert bound is not None and bound["native_ccx"] is True
    assert bound["t_count"] == 2 and bound["limdd_width_bound"] == 4


def test_simulate_sampling_block(qasm_file, capsys):
    code, report = run_json(capsys, [
        "simulate", qasm_file(bell_pair()), "--shots", "40", "--seed", "7",
        "--qubit", "1",
    ])
    assert code == 0
    jsonschema.validate(report, SCHEMA)
    samples = report["measurement"]["samples"]
    assert samples["shots"] == 40 and samples["seed"] == 7
    assert samples["zeros"] + samples["ones"] == 40
    assert report["measurement"]["qubit"] == 1
    # same seed reproduces the same draw
    _, again = run_json(capsys, [
        "simulate", qasm_file(bell_pair()), "--shots", "40", "--seed", "7",
        "--qubit", "1",
    ])
    assert again["measurement"]["samples"] == samples


def test_simulate_stats_and_dot_files(qasm_file, capsys, tmp_path):
    stats = tmp_path / "report.json"
    dot = tmp_path / "diagram.dot"
    code, report = run_json(capsys, [
        "simulate", qasm_file(MOTIVATING),
        "--stats", str(stats), "--dot", str(dot),
    ])
    assert code == 0
    assert json.loads(stats.read_text()) == report
    text = dot.read_text()
    assert text.startswith("digraph")
    assert '"q0"' in text or "q0" in text
    # deterministic output
    main(["simulate", qasm_file(MOTIVATING), "--dot", str(dot)])
    capsys.readouterr()
    assert dot.read_text() == text


@pytest.mark.parametrize("coeffs, root_label", [
    ("exact", "(1/2*sqrt2)*XI"),
    ("float", "((0.7071067811865476+0j))*XI"),
])
def test_dot_labels_show_the_factor_and_pauli_string(qasm_file, capsys, tmp_path,
                                                     coeffs, root_label):
    """x q[0] then h q[1] leaves an X on the LIMDD root label, drawn after
    the factor; the float backend draws the factor as a complex repr."""
    dot = tmp_path / "diagram.dot"
    circ = Circuit(2, (GateInstance("x", (0,)), GateInstance("h", (1,))))
    assert main(["simulate", qasm_file(circ), "--coeffs", coeffs, "--dot", str(dot)]) == 0
    capsys.readouterr()
    roots = [line for line in dot.read_text().splitlines() if line.startswith("  root ->")]
    assert len(roots) == 1 and roots[0].endswith(f"[label={json.dumps(root_label)}];")


def test_simulate_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_qasm(bell_pair())))
    code, report = run_json(capsys, ["simulate", "-"])
    assert code == 0
    assert report["circuit"]["n_qubits"] == 2


def test_simulate_exit_one_on_bad_input(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.qasm")]) == 1
    bad = tmp_path / "bad.qasm"
    bad.write_text("qreg q[2]; foo q[0];")
    assert main(["simulate", str(bad)]) == 1
    good = tmp_path / "ok.qasm"
    good.write_text("qreg q[2]; h q[0];")
    capsys.readouterr()
    for qubit in ("5", "2", "-1"):
        assert main(["simulate", str(good), "--qubit", qubit]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --qubit must be an integer in [0, 2), got {qubit}")
    assert main(["simulate", str(good), "--backend", "bogus"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["simulate", str(good), "--coeffs", "exact",
                 "--tolerance", "0.1"]) == 1
    capsys.readouterr()
    assert main(["simulate", str(good), "--shots", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: shots")


def test_non_finite_tolerance_is_one_error_line(qasm_file, capsys):
    path = qasm_file(LEADING)
    for value in ("nan", "inf"):
        for argv in (
            ["simulate", path, "--coeffs", "float"],
            ["compare", path],
            ["bench", "wstate", "--sizes", "2"],
        ):
            assert main(argv + ["--tolerance", value]) == 1, (argv, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: tolerance")
            assert captured.err.count("\n") == 1, captured.err


def test_simulate_exit_one_on_resource_errors(tmp_path, capsys, monkeypatch):
    deep = tmp_path / "deep.qasm"
    deep.write_text("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2000];\nh q[1999];\n")
    assert main(["simulate", str(deep)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: RecursionError") and err.count("\n") == 1

    import qddsim.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "simulate", exhausted)
    assert main(["simulate", str(deep)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError") and err.count("\n") == 1


def test_exit_two_on_check_violation(qasm_file, capsys, monkeypatch):
    import qddsim.gates as gates

    monkeypatch.setattr(gates, "verify_coeff_bound", lambda *a, **k: False)
    code, report = run_json(capsys, [
        "simulate", qasm_file(LEADING), "--check-coeffs",
    ])
    assert code == 2
    assert report["violations"] == ["coeff_bound"]
    assert report["checks"]["coeff_bound"] is False
    jsonschema.validate(report, SCHEMA)


def test_gc_capacity_option(qasm_file, capsys):
    code, report = run_json(capsys, [
        "simulate", qasm_file(LEADING), "--gc-capacity", "4",
    ])
    assert code == 0 and report["gc_runs"] >= 1
    assert main(["simulate", qasm_file(LEADING), "--gc-capacity", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: gc_capacity")


# -- bounds ----------------------------------------------------------------

def test_bounds_command(qasm_file, capsys):
    code, report = run_json(capsys, ["bounds", qasm_file(LEADING)])
    assert code == 0
    assert report["native_ccx"] is False
    assert report["t_count"] == 2
    assert report["limdd_width_bound"] == 4
    assert len(report["per_gate"]) == len(LEADING.gates)
    code, native = run_json(capsys, [
        "bounds", qasm_file(LEADING), "--native-ccx",
    ])
    assert code == 0 and native["native_ccx"] is True


def test_bounds_output_is_pinned(qasm_file, capsys):
    """The W-8 ``bounds`` report, byte for byte, as its SHA-256."""
    assert main(["bounds", qasm_file(gen_wstate(8))]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 1924
    assert hashlib.sha256(out).hexdigest() == (
        "ec2581f89d6ac7e78da90da1a5d0534781acf98d861013aba45eaa4ac082ac8f"
    )


@pytest.mark.parametrize("module", ["qddsim", "qddsim.cli"])
def test_python_dash_m_runs_the_cli(qasm_file, module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", module, "bounds", qasm_file(LEADING)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["limdd_width_bound"] == 4


# -- compare ---------------------------------------------------------------

def test_compare_command(qasm_file, capsys):
    code, report = run_json(capsys, [
        "compare", qasm_file(MOTIVATING), "--backend", "evdd",
    ])
    assert code == 0
    assert report["mode"] == "evdd"
    assert report["tolerance"] == 1e-14
    assert report["incorrect"] is False
    assert report["p0_abs_delta"] <= 1e-9
    assert isinstance(report["node_delta"], int)
    for side in ("exact", "float"):
        jsonschema.validate(report[side], SCHEMA)
    assert report["exact"]["policy"]["coeffs"] == "exact"
    assert report["float"]["policy"]["coeffs"] == "float"


# -- bench -----------------------------------------------------------------

def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_bench_stdout_rows(capsys):
    code = main(["bench", "wstate", "--sizes", "2,4"])
    out = capsys.readouterr().out
    assert code == 0
    rows = read_csv(out)
    # sizes x seeds x {exact, float}
    assert len(rows) == 4
    assert [r["name"] for r in rows] == [
        "wstate-2", "wstate-2", "wstate-4", "wstate-4",
    ]
    assert {r["coeffs"] for r in rows} == {"exact", "float"}
    assert all(r["seed"] == "" for r in rows)
    assert rows[0]["p0"].startswith("0.5")
    assert rows[2]["p0"].startswith("0.75")
    w2 = next(r for r in rows if r["name"] == "wstate-2")
    assert w2["final_nodes"] == "3" and w2["n_qubits"] == "2"

    # --norm-rule applies to the float rows; the exact rows keep the low rule
    def exact_rows(rule):
        argv = ["bench", "wstate", "--sizes", "4", "--backend", "evdd", "--norm-rule", rule]
        assert main(argv) == 0
        rows = read_csv(capsys.readouterr().out)
        return [{**r, "runtime_ms": ""} for r in rows if r["coeffs"] == "exact"]

    assert exact_rows("l2") == exact_rows("low")


def test_bench_append_semantics(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "random", "--sizes", "3", "--depth", "12",
                 "--seeds", "2", "--out", str(out)]) == 0
    first = out.read_text().splitlines()
    assert len(first) == 1 + 4  # header + 1 size x 2 seeds x 2 policies
    assert main(["bench", "random", "--sizes", "3", "--depth", "12",
                 "--seeds", "1", "--out", str(out)]) == 0
    second = out.read_text().splitlines()
    assert len(second) == 1 + 4 + 2  # appended without a second header
    assert second[: len(first)] == first
    rows = read_csv(out.read_text())
    assert rows[0]["name"] == "random-3-d12"
    assert {r["seed"] for r in rows} == {"0", "1"}
    capsys.readouterr()


def test_bench_grover_family(capsys):
    code = main(["bench", "grover", "--sizes", "2", "--seeds", "2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 4
    assert all(r["name"] == "grover-2" for r in rows)
    assert {r["seed"] for r in rows} == {"0", "1"}


def test_bench_usage_errors(capsys):
    assert main(["bench", "wstate", "--sizes", "two"]) == 1
    assert main(["bench", "wstate", "--sizes", ""]) == 1
    assert main(["bench", "wstate", "--sizes", "2", "--seeds", "0"]) == 1
    assert main(["bench", "wstate", "--sizes", "3"]) == 1  # not a power of two
    capsys.readouterr()
    assert main(["bench", "random", "--sizes", "3", "--depth", "10", "--max-t", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: gate ceilings")
    assert captured.err.count("\n") == 1
