"""Tests of the benchmark itself: every workload on the smoke inputs, and the output checks.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cantor_sweep", "cloud_index", "ladder_extend"])
def test_smoke_run_is_correct(workload, trace):
    out = _run(HERE.parent, "--workload", workload, "--smoke", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "cloud_index", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _index_csv(sizes_by_row):
    rows = ["epsilon,index,level_sizes"]
    for eps, sizes in zip(workloads.DYADIC_GRID, sizes_by_row):
        index = str(len(sizes) - 1) if sizes[-1] == 0 else "SATURATED"
        rows.append(f"{eps!r},{index},{';'.join(map(str, sizes))}")
    return "\n".join(rows) + "\n"


def test_index_check_rejects_growing_levels():
    good = [[10, 4, 0]] * 8
    assert workloads.check_index(_index_csv(good), 10)[0] == []
    assert workloads.check_index(_index_csv([[10, 4, 4, 0]] + good[1:]), 10)[0]
    assert workloads.check_index(_index_csv(good[:7]), 10)[0]


def test_ex1_check_rejects_broken_bounds():
    rows = ["depth,method,epsilon,index"]
    for method, index in (("layered", "2"), ("limsup", "SATURATED")):
        rows += [f"8,{method},{eps!r},{index}" for eps in workloads.CANTOR_GRID]
    text = "\n".join(rows) + "\n"
    assert workloads.check_ex1(text, [8])[0] == []
    assert workloads.check_ex1(text.replace("layered,0.5,2", "layered,0.5,4"), [8])[0]
    third = repr(3.0**-1)
    assert workloads.check_ex1(text.replace(f"limsup,{third},SATURATED", f"limsup,{third},2"), [8])[0]


def test_extend_check_rejects_a_changed_value_on_y():
    doc = {"instance": {"subsets": {"Y": [0, 1]},
                        "fields": {"f": {"domain": [0, 1], "values": [0.5, 1.0]},
                                   "F_glue": {"domain": [0, 1, 2], "values": [0.5, 1.0, 0.0]}}},
           "report": {"patch_magnitude": 0.0, "restriction_error": 0.0}}
    assert workloads.check_extend(json.dumps(doc), "glue")[0] == []
    doc["instance"]["fields"]["F_glue"]["values"][1] = 1.0 + 2.0**-52
    assert workloads.check_extend(json.dumps(doc), "glue")[0]
