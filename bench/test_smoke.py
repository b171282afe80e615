"""Smoke test of the benchmark at a tiny size (five cheap fields):

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import prepare
import run

with open(os.path.join(prepare.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(prepare.BENCH, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.2",
         "--trace", str(trace), "--mix", "tiny"],
        capture_output=True, text=True, cwd=prepare.ROOT, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    printed = {tuple(line.split()[::2]) for line in lines[:-1]}
    for name, unit in expected.items():
        assert (name, unit) in printed, f"{name} [{unit}] not printed"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "results" in doc:
        doc["results"][0]["status"] = "FAIL"
    else:
        c = doc["coeffs"][2]
        c["re"] = str(Fraction(c["re"]) + 1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("workload,table", [
    ("normalize-mix", "phi_1.json"), ("normalize-mix", "psi_2.json"),
    ("borel-mix", "phihat_1.json"), ("check-warm", "check_report.json"),
])
def test_corrupted_output_table_counts_as_failed(workload, table,
                                                 monkeypatch, capsys):
    cli = prepare.import_program()
    program_main = cli.main

    def corrupting_main(argv):
        code = program_main(argv)
        _corrupt(os.path.join(argv[argv.index("--output-dir") + 1], table))
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    # run.main points this at its work directory; restore it afterwards
    monkeypatch.setenv(run.CACHE_DIR_ENV, "")
    assert run.main(["--workload", workload, "--seed", "7", "--seconds",
                     "0", "--mix", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_JOBS
