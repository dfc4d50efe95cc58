"""Smoke tests for the benchmark itself, at tiny lattice sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    text = proc.stdout
    if trace:
        for metric in run.PRINTED_ONLY:
            assert f"  {metric} " in text
        assert "traced pass time (ratio 1.000000)" in text
    else:
        assert "error_rate                                  0 ratio" in text
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0
        if name == "defect_dump":
            assert "  dump_mb_per_s " in text


def test_all_workloads_match_the_reference_exactly_at_the_default_seed():
    proc = bench("--workload", "all", "--seconds", "0.2", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}/{m['name']}" for w in workloads.WORKLOADS for m in SPEC["end_to_end"]
    }


def test_closed_forms_match_hand_counts():
    assert workloads.tri(2048) + workloads.unit(2048) == 2_096_128
    assert workloads.tri(768) + workloads.unit(768) == 294_528
    assert workloads.build("simplex_sequence", 1).points_per_pass == 1_336_556
    # closed triangle at R=4: (i, j) with i, j <= 3 and i + j <= 4
    assert workloads.tri(4, True) == sum(
        1 for i in range(4) for j in range(4) if i + j <= 4
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "triangle_certify", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
