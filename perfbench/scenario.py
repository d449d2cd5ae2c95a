"""Workload definitions and scenario-file generation for the benchmark.

The workloads live in workloads.json next to this file. A workload's scenario
files are made through the program's own `decoymix gen-grid` command, then the
few keys gen-grid has no flag for are patched into scenario.json.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_spec() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def gen_grid_argv(gen: dict, out_dir: Path) -> list[str]:
    return [
        "gen-grid", "--rows", str(gen["rows"]), "--cols", str(gen["cols"]),
        "--spacing", str(gen["spacing"]), "--zones", str(gen["zones"]),
        "--vehicles", str(gen["vehicles"]),
        "--arrival-rate", str(gen["arrival_rate"]),
        "--duration", str(gen["duration"]),
        "--out", str(out_dir), "--force",
    ]


def generate(cli, workload: dict, out_dir: Path) -> Path:
    """Write graph.json and scenario.json for one workload; return the
    scenario path. `cli` is the imported decoymix.cli module."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(gen_grid_argv(workload["gen_grid"], out_dir))
    if rc != 0:
        raise RuntimeError(f"gen-grid exited with {rc}")
    path = out_dir / "scenario.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    overrides = dict(workload["scenario_overrides"])
    ears = overrides.pop("eaves_range_m", None)
    if ears is not None:
        for e in doc["eavesdroppers"]:
            e["range_m"] = ears
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
