"""Command line front end: batch runs, grid scenario generation, offline attack.

Three subcommands:

  decoymix run       sweep a scenario over seeds and parameter axes
  decoymix gen-grid  synthesize a grid road network with zones placed centrally
  decoymix attack    rerun the linking adversary on an exported observation log

All outputs are deterministic functions of the inputs; nothing writes a
timestamp, so rerunning an identical manifest reproduces every file byte for
byte. Exit codes: 0 ok, 2 bad configuration or input, 3 IO or overwrite
refusal, 4 a run's audits found a broken invariant (its cell's files are
written first).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .adversary import (
    LinkCandidateSet,
    attach_truth,
    build_tracks,
    chain,
    chain_distance_m,
    export_candidate_sets,
    flat_tracks,
    hbc_rsu_link,
    link,
    parse_observation_csv,
)
from .engine import run, zone_geometries
from .errors import AuditFailure, ConfigError
from .eventlog import Observations
from .metrics import (
    build_linkability_report,
    overhead,
    write_linkability_csv,
    write_overhead_csv,
)
from .roads import RoadGraph, central_junctions, make_grid
from .scenario import SWEEP_AXES, ScenarioConfig

MAX_JOBS = 10_000

ZONE_RADIUS_M = 100.0
EAVES_RANGE_M = 250.0


# ---------------------------------------------------------------------------
# attack pipeline (shared by `run`, `attack`, and tests)


def attack_rows(
    obs: Observations,
    g: RoadGraph,
    zone_geoms: Iterable[tuple[str, object]],
    eaves_ranges: Mapping[str, float],
    *,
    v_min: float,
    chain_seed: int,
    hbc: Mapping[str, tuple[Mapping[str, str], frozenset]] | None = None,
):
    """Full linking attack over an observation table.

    zone_geoms holds (zone_id, geometry) pairs, in the order the sets come
    out. hbc optionally maps a zone id to (decrypted old->new view, own
    chaff ids) for zones whose RSU cooperates with the adversary.
    """
    tracks_by_class = build_tracks(obs)
    sets: list[LinkCandidateSet] = []
    for zid, geom in zone_geoms:
        zsets = link(
            tracks_by_class, geom, g, v_min,
            zone_id=zid, eaves_ranges=eaves_ranges,
        )
        if hbc and zid in hbc:
            internal, own_chaff = hbc[zid]
            zsets = hbc_rsu_link(zsets, internal, own_chaff)
        sets.extend(zsets)
    chains = chain(sets, chain_seed)
    return sets, chains, flat_tracks(tracks_by_class)


def attack_result(result, chain_seed: int | None = None):
    """In-process attack on a finished run, honest-but-curious zones included.

    Returns (candidate sets with truth attached, chains, tracks by id)."""
    cfg = result.config
    eaves_ranges = {e.eaves_id: e.range_m for e in cfg.eavesdroppers}
    hbc = {}
    for zi in result.zones:
        if zi.hbc:
            internal = {
                tr.old_id: tr.new_id
                for tr in result.transitions
                if tr.zone_id == zi.zone_id
            }
            hbc[zi.zone_id] = (internal, zi.chaff_ids)
    sets, chains, tracks = attack_rows(
        result.observations,
        cfg.graph,
        zone_geometries(cfg).items(),
        eaves_ranges,
        v_min=cfg.v_min_mps,
        chain_seed=cfg.rng_seed if chain_seed is None else chain_seed,
        hbc=hbc or None,
    )
    truth = {(tr.zone_id, tr.old_id): tr.new_id for tr in result.transitions}
    return attach_truth(sets, truth), chains, tracks


# ---------------------------------------------------------------------------
# run manifests


@dataclass(frozen=True)
class RunManifest:
    scenario: Path
    seeds: tuple[int, ...]
    sweep: tuple[tuple[str, tuple[float, ...]], ...]  # sorted by axis name
    out: Path
    fmt: str = "csv"
    workers: int = 1

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be unique")
        for axis, values in self.sweep:
            if axis not in SWEEP_AXES:
                raise ConfigError(
                    f"unknown sweep axis {axis!r}; allowed: {', '.join(SWEEP_AXES)}"
                )
            if not values:
                raise ConfigError(f"sweep axis {axis} has no values")
            # each value names its own cell directory and summary row
            labels = [f"{v:g}" for v in values]
            if len(set(labels)) != len(labels):
                raise ConfigError(
                    f"sweep axis {axis} repeats a value: {', '.join(labels)}"
                )
        n_jobs = len(self.seeds)
        for _, values in self.sweep:
            n_jobs *= len(values)
        if n_jobs > MAX_JOBS:
            raise ConfigError(f"sweep grid of {n_jobs} jobs exceeds {MAX_JOBS}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def points(self) -> list[dict[str, float]]:
        """Cartesian product of the sweep axes, in manifest order."""
        if not self.sweep:
            return [{}]
        names = [a for a, _ in self.sweep]
        grids = [v for _, v in self.sweep]
        return [dict(zip(names, combo)) for combo in itertools.product(*grids)]

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenario": str(self.scenario),
                "seeds": list(self.seeds),
                "sweep": {a: list(v) for a, v in self.sweep},
                "format": self.fmt,
            },
            sort_keys=True, indent=2,
        )


def parse_seeds(text: str) -> tuple[int, ...]:
    """Either a..b inclusive or a comma list."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ConfigError(f"empty seed range {text!r}")
            if hi - lo + 1 > MAX_JOBS:
                raise ConfigError(
                    f"seed range {text!r} holds more than {MAX_JOBS} seeds"
                )
            return tuple(range(lo, hi + 1))
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse seeds {text!r}") from None


def parse_sweep(specs: Sequence[str]) -> tuple[tuple[str, tuple[float, ...]], ...]:
    axes: dict[str, tuple[float, ...]] = {}
    for spec in specs:
        axis, _, rest = spec.partition("=")
        if not rest:
            raise ConfigError(f"sweep spec {spec!r} is not key=v1,v2,...")
        axis = axis.strip()
        if axis in axes:
            raise ConfigError(f"sweep axis {axis} given twice")
        try:
            axes[axis] = tuple(float(v) for v in rest.split(","))
        except ValueError:
            raise ConfigError(f"bad sweep values in {spec!r}") from None
    return tuple(sorted(axes.items()))


def point_label(point: Mapping[str, float]) -> str:
    if not point:
        return "base"
    return "-".join(f"{k}={v:g}" for k, v in sorted(point.items()))


def _refuse_overwrite(out: Path, force: bool) -> None:
    if out.exists() and any(out.iterdir()) and not force:
        raise FileExistsError(
            f"output directory {out} is not empty; pass --force to overwrite"
        )


# ---------------------------------------------------------------------------
# run subcommand


def cell_reports(result):
    """(candidate sets, linkability report, overhead report) of one run.

    Beacons, messages and reception summaries stay columns: overhead folds
    them as such, and anonymity sets read only the protocol events, so the
    dict view `result.events` is never built."""
    sets, chains, tracks = attack_result(result)
    log = result.log
    link_rep = build_linkability_report(
        result.transitions, sets, chains, tracks, log.protocol
    )
    over_rep = overhead(
        log.protocol, result.config.duration_s, log.beacons, log.receptions,
        log.messages,
    )
    return sets, link_rep, over_rep


def _execute_job(job: tuple) -> tuple:
    """One (sweep point, seed) cell: simulate, attack, write reports, then
    raise AuditFailure if the run's audits found anything.

    events.jsonl, the largest file, is written last, once the overhead
    report, the candidate sets and the observation table are dropped.

    Module level, and its job picklable, so a process pool can ship it."""
    cfg, point, seed, run_dir, fmt = job
    result = run(cfg)
    sets, link_rep, over_rep = cell_reports(result)

    d = Path(run_dir)
    d.mkdir(parents=True, exist_ok=True)
    label = f"{point_label(point)}/seed{seed}"
    if fmt == "json":
        (d / "linkability.json").write_text(link_rep.to_json(), encoding="utf-8")
        (d / "overhead.json").write_text(over_rep.to_json(), encoding="utf-8")
    else:
        with open(d / "linkability.csv", "w", encoding="utf-8") as fh:
            write_linkability_csv({label: link_rep}, fh)
        with open(d / "overhead.csv", "w", encoding="utf-8") as fh:
            write_overhead_csv(over_rep, fh)
    del over_rep
    with open(d / "candidate_sets.jsonl", "w", encoding="utf-8") as fh:
        export_candidate_sets(sets, fh)
    del sets
    with open(d / "observations.csv", "w", encoding="utf-8") as fh:
        result.export_observations(fh)
    # the cached observation table, which the run and the attack have read
    del result.observations
    with open(d / "events.jsonl", "w", encoding="utf-8") as fh:
        result.export_events(fh)
    found = result.audit_violations
    if found:
        raise AuditFailure(
            f"{label}: {len(found)} audit finding(s), the first: {found[0]}"
        )
    return (tuple(sorted(point.items())), seed, link_rep.success_rate)


def cmd_run(args) -> int:
    manifest = RunManifest(
        scenario=Path(args.scenario),
        seeds=parse_seeds(args.seeds),
        sweep=parse_sweep(args.sweep or ()),
        out=Path(args.out),
        fmt=args.format,
        workers=args.workers,
    )
    manifest.validate()
    # fail fast on a bad scenario or sweep value, before any file is written
    cfg = ScenarioConfig.from_file(manifest.scenario)
    zone_geometries(cfg)
    for point in manifest.points():
        cfg.replaced(**point).validate()

    _refuse_overwrite(manifest.out, args.force)
    manifest.out.mkdir(parents=True, exist_ok=True)
    (manifest.out / "manifest.json").write_text(
        manifest.to_json(), encoding="utf-8"
    )

    jobs = [
        (
            cfg.replaced(rng_seed=seed, **point), point, seed,
            str(manifest.out / point_label(point) / f"seed{seed}"),
            manifest.fmt,
        )
        for point in manifest.points()
        for seed in manifest.seeds
    ]
    # a process pool starts all its workers at once, so no more of them
    # than there are jobs or CPUs
    workers = min(manifest.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery costs every other run memory
        # and start-up time for nothing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_job, jobs))
    else:
        outcomes = [_execute_job(j) for j in jobs]

    by_point: dict[tuple, list[float]] = {}
    for point_key, _seed, rate in outcomes:
        by_point.setdefault(point_key, [])
        if rate is not None:
            by_point[point_key].append(rate)

    axes = [a for a, _ in manifest.sweep]
    with open(manifest.out / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(axes + ["n_seeds", "success_rate_mean",
                                  "success_rate_std"]) + "\n")
        for point in manifest.points():
            key = tuple(sorted(point.items()))
            rates = by_point.get(key, [])
            mean = f"{statistics.fmean(rates):.6f}" if rates else ""
            std = f"{statistics.stdev(rates):.6f}" if len(rates) >= 2 else ""
            cells = [f"{point[a]:g}" for a in axes]
            fh.write(",".join(cells + [str(len(manifest.seeds)), mean, std]) + "\n")
    print(f"{len(jobs)} runs -> {manifest.out}")
    return 0


# ---------------------------------------------------------------------------
# gen-grid subcommand


def cmd_gen_grid(args) -> int:
    """Write graph.json and scenario.json, both checked before either is
    written."""
    for flag, value in (("--spacing", args.spacing),
                        ("--arrival-rate", args.arrival_rate),
                        ("--duration", args.duration)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.rows < 2 or args.cols < 2:
        raise ConfigError("grid needs at least 2 rows and 2 cols")
    if args.zones < 1:
        raise ConfigError(f"--zones must be at least 1, got {args.zones}")
    interior = max(0, (args.rows - 2) * (args.cols - 2))
    if args.zones > interior:
        raise ConfigError(
            f"{args.zones} zones exceed the {interior} interior junctions"
        )
    if args.spacing <= 2 * ZONE_RADIUS_M:
        raise ConfigError("spacing must exceed one zone diameter")

    try:
        g = make_grid(args.rows, args.cols, args.spacing)
        picked = central_junctions(g, args.zones, 2 * ZONE_RADIUS_M)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    zones = []
    eaves = []
    for jid in picked:
        x, y = g.junctions[jid]
        zones.append({
            "zone_id": f"z-{jid}", "center_x_m": x, "center_y_m": y,
            "radius_m": ZONE_RADIUS_M,
        })
        eaves.append({
            "eaves_id": f"eav-{jid}", "x_m": x, "y_m": y,
            "range_m": EAVES_RANGE_M,
        })
    scenario = {
        "traffic": {
            "n_vehicles": args.vehicles,
            "arrival_rate_per_s": args.arrival_rate,
        },
        "zones": zones,
        "eavesdroppers": eaves,
        "duration_s": args.duration,
        "gamma_v_s": 0.5,
        "gamma_mz_s": 1.0,
        "filter_bandwidth_bytes_per_s": 50_000.0,
        "filter_tx_interval_s": 1.0,
        "sparse_threshold": 2,
        "rsu_range_m": 600.0,
    }
    zone_geometries(ScenarioConfig.over_graph(g, scenario))

    out = Path(args.out)
    _refuse_overwrite(out, args.force)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.json").write_text(g.to_json(), encoding="utf-8")
    (out / "scenario.json").write_text(
        json.dumps({"graph_file": "graph.json", **scenario}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"grid {args.rows}x{args.cols}, {len(zones)} zones -> {out}")
    return 0


# ---------------------------------------------------------------------------
# attack subcommand


def cmd_attack(args) -> int:
    cfg = ScenarioConfig.from_file(args.scenario)
    geoms = zone_geometries(cfg)
    try:
        with open(args.obs, encoding="utf-8") as fh:
            obs = parse_observation_csv(fh)
    except FileNotFoundError:
        raise ConfigError(f"observation file not found: {args.obs}") from None
    except ValueError as exc:
        raise ConfigError(f"malformed observation CSV: {exc}") from None

    eaves_ranges = {e.eaves_id: e.range_m for e in cfg.eavesdroppers}
    sets, chains, tracks = attack_rows(
        obs, cfg.graph, geoms.items(), eaves_ranges,
        v_min=cfg.v_min_mps, chain_seed=args.chain_seed,
    )

    out = Path(args.out)
    _refuse_overwrite(out, args.force)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "candidate_sets.jsonl", "w", encoding="utf-8") as fh:
        export_candidate_sets(sets, fh)

    size_hist: dict[str, int] = {}
    for s in sets:
        k = str(len(s.candidates))
        size_hist[k] = size_hist.get(k, 0) + 1
    summary = {
        "no_transitions": not sets,
        "n_entering": len(sets),
        "candidate_set_sizes": dict(sorted(size_hist.items())),
        "n_chains": len(chains),
        "chain_distances_m": [
            round(chain_distance_m(ch, tracks), 3) for ch in chains
        ],
    }
    (out / "attack_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"{len(sets)} candidate sets -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="decoymix",
        description="mix-zone privacy simulator with decoy traffic",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a scenario sweep and emit reports")
    pr.add_argument("--scenario", required=True, help="scenario JSON file")
    pr.add_argument("--seeds", default="0",
                    help="comma list or a..b range (default 0)")
    pr.add_argument("--sweep", action="append", metavar="AXIS=V1,V2,...",
                    help="sweep one config axis; repeatable")
    pr.add_argument("--out", required=True, help="output directory")
    pr.add_argument("--force", action="store_true",
                    help="allow writing into a non-empty output directory")
    pr.add_argument("--workers", type=int, default=1,
                    help="parallel worker processes, at most one per job "
                         "and per CPU (default 1)")
    pr.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="per-run report format (default csv)")
    pr.set_defaults(func=cmd_run)

    pg = sub.add_parser("gen-grid", help="generate a grid scenario")
    pg.add_argument("--rows", type=int, required=True)
    pg.add_argument("--cols", type=int, required=True)
    pg.add_argument("--spacing", type=float, default=1000.0,
                    help="junction spacing in metres (default 1000)")
    pg.add_argument("--zones", type=int, default=2,
                    help="number of central mix-zones (default 2)")
    pg.add_argument("--vehicles", type=int, default=200)
    pg.add_argument("--arrival-rate", type=float, default=0.1,
                    help="vehicle arrivals per second (default 0.1)")
    pg.add_argument("--duration", type=float, default=600.0)
    pg.add_argument("--out", required=True, help="output directory")
    pg.add_argument("--force", action="store_true")
    pg.set_defaults(func=cmd_gen_grid)

    pa = sub.add_parser("attack", help="rerun the adversary on an exported log")
    pa.add_argument("--obs", required=True, help="observation CSV file")
    pa.add_argument("--scenario", required=True,
                    help="scenario JSON file (graph, zones, eavesdroppers)")
    pa.add_argument("--chain-seed", type=int, default=0)
    pa.add_argument("--out", required=True, help="output directory")
    pa.add_argument("--force", action="store_true")
    pa.set_defaults(func=cmd_attack)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AuditFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
