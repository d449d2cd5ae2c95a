"""The benchmark's own test, on the tiny 3x3 single-zone workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import CELL, END, NAME, PARENT, START, Tracer  # noqa: E402

EPS = 1e-6


def bench(workdir: Path, trace: int, seed: str = "1", cwd: Path = ROOT,
          script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "tiny", "--seed", seed,
         "--seconds", "1", "--trace", str(trace), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    return work, result_of(bench(work, 1))


def test_untraced_run_emits_every_end_to_end_metric(tmp_path, declared):
    res = result_of(bench(tmp_path, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced, declared):
    _, res = traced
    assert res["correct"] and res["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["adversary.path_checks"] == m["roads.path_exists.calls"]
    assert m["adversary.candidates_kept"] <= m["adversary.path_checks"]
    assert m["engine.decoy_streams"] == (
        m["mixzone.decoy_plans.rsu"] + m["mixzone.decoy_plans.relay"])


def test_spans_nest_and_self_times_fit_the_cell(traced):
    work, _ = traced
    doc = json.loads((work / "tiny" / "spans.json").read_text(encoding="utf-8"))
    tracer = Tracer()
    tracer.spans = doc["spans"]
    spans = tracer.spans
    assert spans
    for s in spans:
        assert s[START] <= s[END]
        if s[PARENT] >= 0:
            p = spans[s[PARENT]]
            assert p[CELL] == s[CELL]
            assert p[START] <= s[START] and s[END] <= p[END]
    cells = {s[CELL] for s in spans}
    for cid in cells:
        roots = [s for s in spans if s[CELL] == cid and s[NAME] == "cell"]
        assert len(roots) == 1
        cell_span = roots[0][END] - roots[0][START]
        own = tracer.self_times(cid)
        assert all(v >= -EPS for v in own.values())
        in_cell = sum(v for k, v in own.items() if k != "engine.audit")
        assert in_cell <= cell_span + EPS


def test_repeat_runs_compare_fingerprints(tmp_path):
    assert result_of(bench(tmp_path, 0))["correct"]
    records = list((tmp_path / "tiny" / "fingerprints").rglob("seed1.json"))
    assert len(records) == 1
    # a second set of runs of the same code must match the first exactly
    assert result_of(bench(tmp_path, 0))["correct"]
    # a recorded digest that the outputs no longer match fails every cell
    rec = json.loads(records[0].read_text(encoding="utf-8"))
    name = sorted(rec["files"])[0]
    rec["files"][name] = "0" * 64
    records[0].write_text(json.dumps(rec), encoding="utf-8")
    res = result_of(bench(tmp_path, 0))
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(tmp_path / "work", 0, cwd=bare,
                 script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
