"""decoymix benchmark: wall time of whole sweep cells through `decoymix run`.

A cell is one `decoymix.cli.main(["run", ...])` call for one seed at the
workload's relay_fraction, with --workers 1, in this process. Cells run
closed-loop: the next starts when the previous one has finished and been
checked. Every cell is checked (exit code, the engine's audits, success rate
in [0, 1], and output digests and counts that must repeat exactly).

One workload:

    python3 perfbench/run.py --workload grid4-decoy --seed 3 --seconds 30 --trace 0

The last stdout line is a JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are cell_s, setup_s and peak_rss_mb;
with --trace 1 cells alternate untraced and traced, and the metrics are the
per-layer ones, with the tracing overhead. --seed takes a comma list; cells
cycle through it. Without --seed the seeds come from workloads.json, which also
names a hold-out seed that is never used by default.

Every workload, each in a fresh process, untraced and then traced, with the
summary and breakdown tables:

    python3 perfbench/run.py
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from scenario import HERE, ROOT, SRC, load_spec
from spans import Tracer

SETUP_PROBES = 7
MB = 1 << 20
# X, Y, SPD and HDG are float64 and ZIDX int64, each nv x nticks
POSE_BYTES_PER_CELL = 5 * 8

# per-layer metrics: (name, unit)
PER_LAYER = (
    ("cell.simulate.s", "s"),
    ("cell.attack.s", "s"),
    ("cell.score.s", "s"),
    ("cell.write.s", "s"),
    ("cell.other.s", "s"),
    ("metrics.write_overhead_csv.s", "s"),
    ("metrics.overhead.s", "s"),
    ("metrics.overhead.entities", "count"),
    ("metrics.build_linkability_report.s", "s"),
    ("metrics.anonymity_set_sizes.s", "s"),
    ("roads.snap.calls", "count"),
    ("roads.snap.s", "s"),
    ("roads.path_exists.calls", "count"),
    ("roads.path_exists.s", "s"),
    ("roads.shortest_path.calls", "count"),
    ("roads.zone_from_center.s", "s"),
    ("adversary.build_tracks.s", "s"),
    ("adversary.link.s", "s"),
    ("adversary.path_checks", "count"),
    ("adversary.candidates_kept", "count"),
    ("adversary.kept_per_check", "ratio"),
    ("adversary.chain.s", "s"),
    ("chaff_filter.serialize.calls", "count"),
    ("chaff_filter.serialize.s", "s"),
    ("chaff_filter.contains.calls", "count"),
    ("chaff_filter.insert.s", "s"),
    ("chaff_filter.remove.calls", "count"),
    ("vpki.provision_chaff.s", "s"),
    ("vpki.retire_chaff.calls", "count"),
    ("vpki.issue_pseudonyms.s", "s"),
    ("mixzone.handle_join.calls", "count"),
    ("mixzone.handle_join.s", "s"),
    ("mixzone.note_exit.s", "s"),
    ("mixzone.decoy_plans.rsu", "count"),
    ("mixzone.decoy_plans.relay", "count"),
    ("engine.run.self_s", "s"),
    ("engine.export_events.s", "s"),
    ("engine.export_events.mb", "MB"),
    ("engine.export_observations.s", "s"),
    ("engine.events", "count"),
    ("engine.beacons", "count"),
    ("engine.decoy_streams", "count"),
    ("engine.audit.s", "s"),
    ("engine.peak_active", "count"),
    ("engine.pose_matrix_mb", "MB"),
    ("mobility.synthesize_trips.s", "s"),
    ("mobility.trip_samples_with_edges.s", "s"),
    ("mobility.samples", "count"),
    ("cli.scenario_load.s", "s"),
    ("core.sign.calls", "count"),
    ("core.sign.s", "s"),
    ("trace.cell_s", "s"),
    ("trace.untraced_cell_s", "s"),
    ("trace.overhead", "ratio"),
)

# the four stages of a cell, as sums of inclusive span times
STAGES = {
    "simulate": ("engine.run",),
    "attack": ("cli.attack_result",),
    "score": ("metrics.build_linkability_report", "metrics.overhead"),
    "write": ("engine.export_events", "engine.export_observations",
              "adversary.export_candidate_sets", "metrics.write_linkability_csv",
              "metrics.write_overhead_csv"),
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def code_digest() -> str:
    """Digest of the program and benchmark sources; fingerprints recorded by
    one version are never compared with another's."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")) + [
        HERE / "workloads.json"
    ]:
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(workload: str, out_dir: Path) -> float:
    """Median set-up time over fresh interpreters; the last probe's files are
    the ones the cells use."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--out", str(out_dir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


class CellRunner:
    """Runs and checks cells of one workload in this process."""

    def __init__(self, workload: dict, scenario: Path, work: Path) -> None:
        from decoymix import cli, engine

        self.cli = cli
        self.engine = engine
        self.relay = workload["relay_fraction"]
        self.scenario = scenario
        self.out = Path(os.path.relpath(work / "out", ROOT))
        self.records = work / "fingerprints" / code_digest()
        self.reference: dict[int, dict] = {}

    def argv(self, seed: int) -> list[str]:
        return [
            "run", "--scenario", str(self.scenario), "--seeds", str(seed),
            "--sweep", f"relay_fraction={self.relay:g}",
            "--out", str(self.out), "--workers", "1",
        ]

    def run_cell(self, seed: int, tracer: Tracer | None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        cli = self.cli
        captured = []
        inner_run = cli.run

        def capture_run(cfg):
            result = inner_run(cfg)
            captured.append(result)
            return result

        argv = self.argv(seed)
        errors: list[str] = []
        rc = None
        cli.run = capture_run
        gc.collect()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        rc = cli.main(argv)
                    else:
                        with tracer.span("cell"):
                            rc = cli.main(argv)
                finally:
                    cell_s = time.perf_counter() - t0
        except Exception:  # a crashing cell is a failed cell, not a crash
            errors.append(traceback.format_exc())
        finally:
            cli.run = inner_run
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if rc != 0:
            errors.append(f"decoymix run exited with {rc}")
        cell = {"seed": seed, "cell_s": cell_s, "rss_kb": rss_kb,
                "traced": tracer is not None, "errors": errors}
        if not captured:
            errors.append("no RunResult was produced")
            return cell
        result = captured.pop()
        audit = contextlib.nullcontext() if tracer is None else tracer.span(
            "engine.audit")
        with audit:
            violations = (
                list(result.audit_violations)
                + self.engine.audit_observability(result)
                + self.engine.audit_single_pseudonym(result)
                + self.engine.audit_ground_truth(result)
            )
        errors.extend(f"audit: {v}" for v in violations[:5])
        if len(violations) > 5:
            errors.append(f"audit: {len(violations) - 5} more violations")
        cell["fingerprint"] = self.fingerprint(result, errors)
        if tracer is not None:  # traced cells also pin their exact call counts
            cell["fingerprint"]["calls"] = tracer.calls(tracer.cell)
        cell["config"] = result.config
        del result
        self.check_repeat(cell, errors)
        return cell

    def fingerprint(self, result, errors: list[str]) -> dict:
        """Every non-timing output of a cell that must repeat exactly."""
        files = {
            p.relative_to(self.out).as_posix(): sha256_file(p)
            for p in sorted(self.out.rglob("*")) if p.is_file()
        }
        cell_dirs = {p.parent for p in self.out.rglob("events.jsonl")}
        if len(cell_dirs) != 1:
            errors.append(f"expected one cell directory, found {len(cell_dirs)}")
            return {"files": files}
        d = cell_dirs.pop()
        with open(d / "linkability.csv", encoding="utf-8") as fh:
            rate_text = fh.read().splitlines()[1].split(",")[2]
        try:
            rate = float(rate_text)
        except ValueError:
            rate = math.nan
        # an empty rate means no transition was observed on both sides, so
        # the attack and scoring stages had nothing to measure
        if not 0.0 <= rate <= 1.0:
            errors.append(f"success rate {rate_text!r} is not in [0, 1]")
        n_sets = n_cands = 0
        with open(d / "candidate_sets.jsonl", encoding="utf-8") as fh:
            for line in fh:
                n_sets += 1
                n_cands += len(json.loads(line)["candidates"])
        events = Counter(e["type"] for e in result.events)
        sources = Counter(
            e["source"] for e in result.events if e["type"] == "decoy_start"
        )
        return {
            "files": files,
            "events": dict(sorted(events.items())),
            "decoy_sources": dict(sorted(sources.items())),
            "success_rate": rate_text,
            "candidate_sets": n_sets,
            "candidates": n_cands,
            "events_bytes": (d / "events.jsonl").stat().st_size,
        }

    def check_repeat(self, cell: dict, errors: list[str]) -> None:
        """Compare with earlier cells of the same seed, in this run and in
        earlier runs of the same code (recorded under the work directory)."""
        seed = cell["seed"]
        fp = cell["fingerprint"]
        ref = self.reference.get(seed)
        if ref is None:
            path = self.records / f"seed{seed}.json"
            ref = {}
            if path.exists():
                ref = json.loads(path.read_text(encoding="utf-8"))
            self.reference[seed] = ref
        for key, value in fp.items():
            if key in ref and ref[key] != value:
                errors.append(f"{key} differs from an earlier run of seed {seed}")
            ref.setdefault(key, value)

    def save_records(self) -> None:
        self.records.mkdir(parents=True, exist_ok=True)
        for seed, ref in self.reference.items():
            path = self.records / f"seed{seed}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(ref, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)


def pose_matrix_mb(cfg, n_vehicles: int) -> float:
    """Computed, not measured: nv x nticks x 40 bytes, with the engine's
    tick lattice."""
    tick_ds = math.gcd(
        math.gcd(round(cfg.gamma_v_s * 10), round(cfg.gamma_mz_s * 10)),
        round(cfg.filter_tx_interval_s * 10),
    )
    nticks = round(cfg.duration_s * 10) // tick_ds + 1
    return n_vehicles * nticks * POSE_BYTES_PER_CELL / MB


def layer_metrics(tracer: Tracer, cid: int, cell: dict) -> dict[str, float]:
    own = tracer.self_times(cid)
    inc = tracer.inclusive_times(cid)
    calls = tracer.calls(cid)
    fp = cell["fingerprint"]
    stages = {k: sum(inc.get(n, 0.0) for n in names) for k, names in STAGES.items()}
    checks = calls.get("roads.path_exists", 0)
    kept = tracer.kept.get(cid, 0)
    m = {f"cell.{k}.s": v for k, v in stages.items()}
    m["cell.other.s"] = inc["cell"] - sum(stages.values())
    for name in ("metrics.write_overhead_csv", "metrics.overhead",
                 "metrics.build_linkability_report", "metrics.anonymity_set_sizes",
                 "roads.snap", "roads.path_exists", "roads.zone_from_center",
                 "adversary.build_tracks", "adversary.link", "adversary.chain",
                 "chaff_filter.serialize", "chaff_filter.insert",
                 "vpki.provision_chaff", "vpki.issue_pseudonyms",
                 "mixzone.handle_join", "mixzone.note_exit",
                 "engine.export_events", "engine.export_observations",
                 "mobility.synthesize_trips", "mobility.trip_samples_with_edges",
                 "cli.scenario_load", "core.sign"):
        m[f"{name}.s"] = own.get(name, 0.0)
    for name in ("roads.snap", "roads.path_exists", "roads.shortest_path",
                 "chaff_filter.serialize", "chaff_filter.contains",
                 "chaff_filter.remove", "vpki.retire_chaff",
                 "mixzone.handle_join", "core.sign"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["metrics.overhead.entities"] = tracer.entities.get(cid, 0)
    m["adversary.path_checks"] = checks
    m["adversary.candidates_kept"] = kept
    m["adversary.kept_per_check"] = kept / checks if checks else 0.0
    m["mixzone.decoy_plans.rsu"] = fp["decoy_sources"].get("rsu", 0)
    m["mixzone.decoy_plans.relay"] = fp["decoy_sources"].get("relay", 0)
    m["engine.run.self_s"] = own.get("engine.run", 0.0)
    m["engine.export_events.mb"] = fp["events_bytes"] / MB
    m["engine.events"] = sum(fp["events"].values())
    m["engine.beacons"] = fp["events"].get("beacon", 0)
    m["engine.decoy_streams"] = fp["events"].get("decoy_start", 0)
    m["engine.audit.s"] = inc.get("engine.audit", 0.0)
    m["engine.peak_active"] = tracer.peak_active(cid)
    m["engine.pose_matrix_mb"] = pose_matrix_mb(
        cell["config"], calls.get("mobility.trip_samples_with_edges", 0))
    m["mobility.samples"] = tracer.samples.get(cid, 0)
    m["trace.cell_s"] = cell["cell_s"]
    return m


def parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")
    return seeds


def run_workload(args) -> int:
    spec = load_spec()
    workload = spec["workloads"][args.workload]
    seeds = args.seed or spec["seeds"]
    work = Path(args.workdir) / args.workload
    scen_dir = work / "scenario"
    setup_s = measure_setup(args.workload, scen_dir)
    sys.path.insert(0, str(SRC))
    # a path relative to the root keeps manifest.json free of the checkout path
    scenario = Path(os.path.relpath(scen_dir / "scenario.json", ROOT))
    runner = CellRunner(workload, scenario, work)
    tracer = Tracer() if args.trace else None

    # a step is one untraced cell, plus with --trace 1 a traced cell of the
    # same seed, so the tracing overhead is a paired figure; a step starts
    # only if a median step still fits in the measuring time
    cells: list[dict] = []
    t_start = time.perf_counter()
    step_walls: list[float] = []
    while True:
        s0 = time.perf_counter()
        seed = seeds[len(step_walls) % len(seeds)]
        cells.append(runner.run_cell(seed, None))
        if tracer is not None:
            cid = len(cells)
            tracer.cell = cid
            with tracer.installed():
                cell = runner.run_cell(seed, tracer)
            cells.append(cell)
            if "fingerprint" in cell:
                cell["layers"] = layer_metrics(tracer, cid, cell)
        step_walls.append(time.perf_counter() - s0)
        used = time.perf_counter() - t_start
        if used + statistics.median(step_walls) > args.seconds:
            break
    runner.save_records()
    shutil.rmtree(runner.out, ignore_errors=True)

    failed = sum(1 for c in cells if c["errors"])
    for c in cells:
        for e in c["errors"]:
            print(f"FAILED cell (seed {c['seed']}): {e}", file=sys.stderr)
    untraced = [c["cell_s"] for c in cells if not c["traced"]]
    print(f"workload {args.workload}: relay_fraction={workload['relay_fraction']:g}"
          f", seeds {','.join(map(str, seeds))}, {len(cells)} cells, "
          f"closed loop, 1 client, --workers 1")
    if tracer is None:
        metrics = {
            "cell_s": (statistics.median(untraced), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (cells[0]["rss_kb"] / 1024, "MB"),
        }
        print(f"  cell_s       {metrics['cell_s'][0]:10.4f} s   median of "
              f"{len(untraced)} cells")
        print(f"  setup_s      {setup_s:10.4f} s   median of {SETUP_PROBES} fresh "
              f"interpreters")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:10.1f} MB  ru_maxrss "
              f"after set-up and the first cell")
    else:
        metrics = traced_metrics(cells, untraced)
        print_breakdown(args.workload, cells, metrics)
        write_spans(tracer, work / "spans.json")
    print(f"  failed_cells {failed}/{len(cells)} = {failed / len(cells):.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(cells),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(cells: list[dict], untraced: list[float]) -> dict:
    layered = [c["layers"] for c in cells if "layers" in c]
    out = {}
    for name, unit in PER_LAYER:
        values = [m[name] for m in layered if name in m]
        if values:
            out[name] = (statistics.median(values), unit)
    out["trace.untraced_cell_s"] = (statistics.median(untraced), "s")
    if "trace.cell_s" in out:
        out["trace.overhead"] = (
            out["trace.cell_s"][0] / out["trace.untraced_cell_s"][0] - 1.0,
            "ratio",
        )
    return out


def print_breakdown(workload: str, cells: list[dict], metrics: dict) -> None:
    if "trace.cell_s" not in metrics:
        return
    cell = metrics["trace.cell_s"][0]
    print(f"  breakdown of a traced {workload} cell (median of "
          f"{sum('layers' in c for c in cells)}), {cell:.3f} s:")
    for stage in ("simulate", "attack", "score", "write", "other"):
        v = metrics[f"cell.{stage}.s"][0]
        print(f"    {stage:<9}{v:9.3f} s  {v / cell:6.1%}")
    print("  top self times:")
    # the audits are the benchmark's own check, run after the cell
    times = sorted(
        ((v, k) for k, (v, u) in metrics.items()
         if u == "s" and k != "engine.audit.s"
         and not k.startswith(("cell.", "trace."))),
        reverse=True,
    )
    for v, k in times[:8]:
        print(f"    {k:<38}{v:9.3f} s  {v / cell:6.1%}")
    checks = metrics["adversary.path_checks"][0]
    print(f"  adversary.kept_per_check {metrics['adversary.kept_per_check'][0]:.4f}"
          f" of {checks:g} path checks")
    print(f"  engine.pose_matrix_mb {metrics['engine.pose_matrix_mb'][0]:.1f} MB "
          "(computed: vehicles x ticks x 40 bytes)")
    print(f"  tracing overhead {metrics['trace.overhead'][0]:+.1%} "
          f"({cell:.3f} s traced vs {metrics['trace.untraced_cell_s'][0]:.3f} s "
          "untraced, paired by seed)")


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "fields": ["name", "start", "end", "parent", "cell"],
        "spans": tracer.spans,
        "counts": {str(k): v for k, v in tracer.counts.items()},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def run_all(args) -> int:
    """Every benchmark workload in a fresh process, untraced then traced."""
    spec = load_spec()
    rows = []
    ok = True
    summary = {}
    for name, wl in spec["workloads"].items():
        if wl.get("smoke"):
            continue
        summary[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--workdir", str(args.workdir)]
            if args.seed:
                cmd += ["--seed", ",".join(map(str, args.seed))]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exited with {proc.returncode}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            summary[name][f"trace{trace}"] = res
        r = summary[name].get("trace0")
        if r:
            m = r["metrics"]
            rows.append(
                f"{name:<13}{m['cell_s']['value']:9.3f} s (n={r['attempted']})"
                f"{m['setup_s']['value']:9.3f} s{m['peak_rss_mb']['value']:10.1f} MB"
                f"   {r['failed']}/{r['attempted']} = {r['failed'] / r['attempted']:.3f}"
            )
    print("\nworkload     cell_s (median)        setup_s   peak_rss_mb   failed_cells")
    print("\n".join(rows))
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(load_spec()["workloads"]),
                    help="one workload; default: all of them")
    ap.add_argument("--seed", type=parse_seeds,
                    help="comma list of cell seeds (default: workloads.json)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default=str(ROOT / ".perfbench_work"),
                    help="work directory for scenario files, outputs and records")
    args = ap.parse_args(argv)
    if args.seconds is None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = bench["run_seconds"]
    args.workdir = str(Path(args.workdir).resolve())
    os.chdir(ROOT)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
