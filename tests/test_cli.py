"""CLI subcommands: manifest parsing, sweeps, grid generation, offline attack."""

import concurrent.futures
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from decoymix import cli, engine, eventlog
from decoymix.adversary import export_candidate_sets
from decoymix.cli import (
    RunManifest,
    attack_result,
    attack_rows,
    main,
    parse_seeds,
    parse_sweep,
    point_label,
)
from decoymix.engine import RunResult, run
from decoymix.errors import ConfigError
from decoymix.eventlog import Observations
from decoymix.roads import make_grid, zone_from_center
from decoymix.scenario import EavesdropperSpec, ScenarioConfig, ZoneSpec

from test_roads import dead_end_crossing


def test_parse_seeds_range_and_list():
    assert parse_seeds("1..5") == (1, 2, 3, 4, 5)
    assert parse_seeds("3,7,1") == (3, 7, 1)
    assert parse_seeds("9") == (9,)


def test_parse_seeds_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_seeds("a,b")
    with pytest.raises(ConfigError):
        parse_seeds("5..2")


def test_parse_sweep():
    axes = parse_sweep(["relay_fraction=0,0.5,1", "gamma_v_s=0.2,1.0"])
    assert axes == (
        ("gamma_v_s", (0.2, 1.0)),
        ("relay_fraction", (0.0, 0.5, 1.0)),
    )
    with pytest.raises(ConfigError):
        parse_sweep(["relay_fraction"])
    with pytest.raises(ConfigError):
        parse_sweep(["relay_fraction=0", "relay_fraction=1"])
    with pytest.raises(ConfigError):
        parse_sweep(["relay_fraction=zero"])


def test_manifest_validation(tmp_path):
    good = RunManifest(
        scenario=tmp_path / "s.json", seeds=(1, 2),
        sweep=(("relay_fraction", (0.0, 1.0)),), out=tmp_path / "out",
    )
    good.validate()
    assert good.points() == [{"relay_fraction": 0.0}, {"relay_fraction": 1.0}]

    with pytest.raises(ConfigError):
        RunManifest(tmp_path / "s", (1, 1), (), tmp_path).validate()
    with pytest.raises(ConfigError):
        RunManifest(tmp_path / "s", (1,), (("zone_radius", (1.0,)),),
                    tmp_path).validate()
    with pytest.raises(ConfigError):
        RunManifest(tmp_path / "s", (1,), (), tmp_path, fmt="yaml").validate()


def test_point_label():
    assert point_label({}) == "base"
    assert point_label({"relay_fraction": 0.25}) == "relay_fraction=0.25"
    assert (point_label({"gamma_v_s": 0.5, "relay_fraction": 1.0})
            == "gamma_v_s=0.5-relay_fraction=1")


# ---------------------------------------------------------------------------
# gen-grid


def test_gen_grid_writes_loadable_scenario(tmp_path):
    out = tmp_path / "grid"
    rc = main(["gen-grid", "--rows", "4", "--cols", "4", "--zones", "2",
               "--out", str(out)])
    assert rc == 0
    cfg = ScenarioConfig.from_file(out / "scenario.json")
    assert len(cfg.graph.junctions) == 16
    assert len(cfg.zones) == 2
    assert len(cfg.eavesdroppers) == 2
    for z in cfg.zones:
        assert z.radius_m == 100.0
    for e in cfg.eavesdroppers:
        assert e.range_m == 250.0
    # non-overlap between the two placed zones
    (a, b) = cfg.zones
    d = ((a.center_x_m - b.center_x_m) ** 2 + (a.center_y_m - b.center_y_m) ** 2) ** 0.5
    assert d > 200.0


def test_gen_grid_rejects_too_many_zones(tmp_path):
    rc = main(["gen-grid", "--rows", "4", "--cols", "4", "--zones", "5",
               "--out", str(tmp_path / "g")])
    assert rc == 2


def test_gen_grid_rejects_tight_spacing(tmp_path):
    rc = main(["gen-grid", "--rows", "4", "--cols", "4", "--zones", "1",
               "--spacing", "150", "--out", str(tmp_path / "g")])
    assert rc == 2


@pytest.mark.parametrize("flag,value", [
    ("--spacing", "inf"), ("--spacing", "nan"), ("--vehicles", "-1"),
    ("--duration", "0.05"), ("--arrival-rate", "nan"),
    ("--arrival-rate", "-inf"), ("--duration", "inf"), ("--duration", "1e300"),
])
def test_gen_grid_bad_value_exits_2_and_writes_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "g"
    rc = main(["gen-grid", "--rows", "4", "--cols", "4", "--zones", "1",
               f"{flag}={value}", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("zones", ["-1", "0"])
def test_gen_grid_zones_below_one_exits_2_and_writes_nothing(tmp_path, capsys, zones):
    # a 3x3 grid has one interior junction; a count below 1 once placed a
    # zone on every junction, corners included
    out = tmp_path / "g"
    rc = main(["gen-grid", "--rows", "3", "--cols", "3", "--zones", zones,
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--zones" in err
    assert not out.exists()


def test_gen_grid_spacing_500_zones_stay_apart(tmp_path):
    out = tmp_path / "g500"
    rc = main(["gen-grid", "--rows", "4", "--cols", "4", "--zones", "4",
               "--spacing", "500", "--out", str(out)])
    assert rc == 0
    cfg = ScenarioConfig.from_file(out / "scenario.json")
    zs = cfg.zones
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            d = ((zs[i].center_x_m - zs[j].center_x_m) ** 2
                 + (zs[i].center_y_m - zs[j].center_y_m) ** 2) ** 0.5
            assert d >= zs[i].radius_m + zs[j].radius_m


# ---------------------------------------------------------------------------
# run


def small_scenario(tmp_path, vehicles=8, duration=120.0):
    out = tmp_path / "scen"
    rc = main(["gen-grid", "--rows", "3", "--cols", "3", "--zones", "1",
               "--vehicles", str(vehicles), "--duration", str(duration),
               "--arrival-rate", "0.15", "--out", str(out)])
    assert rc == 0
    return out / "scenario.json"


def test_run_sweep_layout_and_summary(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "runs"
    rc = main(["run", "--scenario", str(scenario), "--seeds", "1,2",
               "--sweep", "relay_fraction=0,1", "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()
    for label in ("relay_fraction=0", "relay_fraction=1"):
        for seed in (1, 2):
            d = out / label / f"seed{seed}"
            for name in ("events.jsonl", "observations.csv",
                         "candidate_sets.jsonl", "linkability.csv",
                         "overhead.csv"):
                assert (d / name).exists(), (d, name)
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "relay_fraction,n_seeds,success_rate_mean,success_rate_std"
    assert len(lines) == 3
    assert lines[1].startswith("0,2,")
    assert lines[2].startswith("1,2,")


def test_run_refuses_overwrite_then_force(tmp_path):
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    out = tmp_path / "runs"
    argv = ["run", "--scenario", str(scenario), "--seeds", "1",
            "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 3  # would overwrite
    first = (out / "summary.csv").read_bytes()
    assert main(argv + ["--force"]) == 0
    assert (out / "summary.csv").read_bytes() == first  # deterministic rerun


def test_run_missing_scenario_exits_2(tmp_path):
    rc = main(["run", "--scenario", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_run_bad_sweep_axis_exits_2(tmp_path):
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    rc = main(["run", "--scenario", str(scenario), "--sweep", "zone_radius=5",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("values", [
    "0.5,0.5", "0.50,.5", "0,0.25,0.5,.25", "0.1234567,0.12345671",
])
def test_run_repeated_sweep_value_exits_2(tmp_path, capsys, values):
    # a repeated value, or two whose labels coincide, would run one cell
    # directory twice and write its summary row twice
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["run", "--scenario", str(scenario), "--seeds", "1",
               "--sweep", f"relay_fraction={values}", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "repeats a value" in err
    assert not out.exists()


@pytest.mark.parametrize("sweep, message", [
    ("relay_fraction=0,1.5", "relay_fraction must lie in [0, 1]"),
    ("gamma_v_s=0.5,nan", "gamma_v_s must be one of (0.2, 0.5, 1.0)"),
], ids=["relay-above-one", "gamma-nan"])
def test_run_bad_sweep_value_exits_2_before_any_cell(tmp_path, capsys, sweep, message):
    # every sweep point is checked before manifest.json is written, so a bad
    # value after a good one leaves no cell of the good one behind
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["run", "--scenario", str(scenario), "--seeds", "1",
               "--sweep", sweep, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_seed_range_beyond_the_job_cap_exits_2(tmp_path, capsys):
    # refused from the span alone, before any seed tuple is built
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    capsys.readouterr()
    rc = main(["run", "--scenario", str(scenario), "--seeds", f"0..{10 ** 12}",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "more than 10000 seeds" in err
    with pytest.raises(ConfigError):
        parse_seeds(f"-5..{10 ** 18}")
    assert len(parse_seeds("1..10000")) == 10_000


def test_run_audit_finding_exits_4_after_writing_the_cell(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(
        "decoymix.engine.audit_ground_truth", lambda result: ["injected finding"]
    )
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    out = tmp_path / "runs"
    capsys.readouterr()
    rc = main(["run", "--scenario", str(scenario), "--seeds", "1",
               "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "injected finding" in err
    d = out / "base" / "seed1"
    for name in ("events.jsonl", "observations.csv", "candidate_sets.jsonl",
                 "linkability.csv", "overhead.csv"):
        assert (d / name).exists(), name
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("path, value", [
    (("duration_s",), "60"),
    (("relay_fraction",), None),
    (("rng_seed",), "x"),
    (("sparse_threshold",), 1.5),
    (("zones", 0, "center_x_m"), "500"),
    (("traffic", "n_vehicles"), "abc"),
    (("rsu_range_m",), 10 ** 400),
    (("zones", 0, "radius_m"), 10 ** 400),
    # finite, but the engine compares squared distances with a range
    (("vehicle_radio_range_m",), 1e200),
    (("rsu_range_m",), 1e200),
    (("eavesdroppers", 0, "range_m"), 1e300),
], ids=[
    "duration_s-string", "relay_fraction-null", "rng_seed-string",
    "sparse_threshold-1.5", "zone-center_x_m-string", "traffic-n_vehicles-string",
    "rsu_range_m-beyond-float", "zone-radius_m-beyond-float",
    "vehicle_radio_range_m-square-beyond-float", "rsu_range_m-square-beyond-float",
    "eavesdropper-range_m-square-beyond-float",
])
def test_run_mistyped_scenario_field_exits_2(tmp_path, capsys, path, value):
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    doc = json.loads(scenario.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scenario.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and path[-1] in err
    assert not (tmp_path / "o").exists()


def test_run_with_more_chaff_than_the_filter_holds_exits_2_and_writes_no_cell(
    tmp_path, capsys
):
    # provisioning 3,000 chaff ids into a filter sized for 100 saturates it;
    # the scenario is refused before any cell runs
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    doc = json.loads(scenario.read_text())
    doc.update(chaff_per_zone=3000, filter_capacity=100)
    scenario.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "o"
    rc = main(["run", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "chaff_per_zone" in err and "filter_capacity" in err
    assert not out.exists()


def test_run_duration_past_the_exact_decisecond_range_exits_2(tmp_path, capsys):
    # 1e301 deciseconds is finite and integral, but no clock counts to it
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    doc = json.loads(scenario.read_text())
    doc["duration_s"] = 1e300
    scenario.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "o"
    rc = main(["run", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "duration_s" in err
    assert not out.exists()


def _crawling_graph(tmp_path):
    """A 3x3 scenario whose every road has a speed limit of 1e-300 m/s."""
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    graph = scenario.parent / "graph.json"
    doc = json.loads(graph.read_text())
    for e in doc["edges"]:
        e["speed_limit"] = 1e-300
    graph.write_text(json.dumps(doc))
    return scenario


def _late_departures(tmp_path):
    """A 3x3 scenario whose trips depart about 1e300 s apart."""
    out = tmp_path / "scen"
    assert main(["gen-grid", "--rows", "3", "--cols", "3", "--zones", "1",
                 "--vehicles", "3", "--duration", "60", "--arrival-rate",
                 "1e-300", "--out", str(out)]) == 0
    return out / "scenario.json"


@pytest.mark.parametrize("make", [_crawling_graph, _late_departures])
def test_run_samples_trips_only_over_the_run(tmp_path, make):
    # a trip that arrives or departs past any clock is sampled up to the
    # run's end only
    scenario = make(tmp_path)
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert (out / "base" / "seed0" / "events.jsonl").exists()


def test_gen_grid_spacing_past_the_snap_grid_cap_exits_2(tmp_path):
    # a 1e300 m road would cover some 1e298 snap-grid cells; the graph
    # refuses it before building any. Run under a 2 GB address-space limit
    # and a timeout, so a graph that built its cells would fail, not
    # exhaust the machine's memory
    out = tmp_path / "g"
    argv = ["gen-grid", "--rows", "3", "--cols", "3", "--zones", "1",
            "--vehicles", "5", "--spacing", "1e300", "--out", str(out)]
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from decoymix.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: edge ") and proc.stderr.count("\n") == 1
    assert "snap grid" in proc.stderr
    assert not out.exists()


def test_run_scenario_with_an_int_too_long_to_parse_exits_2(tmp_path, capsys):
    # json refuses ints of more than 4,300 digits with a bare ValueError
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    text = scenario.read_text()
    scenario.write_text(text.replace("{", '{"rng_seed": ' + "7" * 5000 + ", ", 1))
    capsys.readouterr()
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not valid JSON" in err


def _edit_first_edge(change):
    """A graph.json edit that applies change to the first edge's record."""
    def edit(text):
        doc = json.loads(text)
        change(doc["edges"][0])
        return json.dumps(doc)
    return edit


# each case turns graph.json's text into a broken text
_BROKEN_GRAPHS = {
    "truncated": lambda text: text[: len(text) // 2],
    "missing-speed-limit": _edit_first_edge(lambda e: e.pop("speed_limit")),
    "unknown-junction": _edit_first_edge(lambda e: e.update(to="nowhere")),
    "speed-limit-0": _edit_first_edge(lambda e: e.update(speed_limit=0)),
    "nan-in-shape": _edit_first_edge(lambda e: e["shape"].append([float("nan"), 0.0])),
    "inf-junction": lambda text: text.replace('"x": 0.0', '"x": 1e999', 1),
    "one-point-shape": _edit_first_edge(lambda e: e.update(shape=e["shape"][:1])),
}


def _cli_argv(command, scenario, out):
    """run or attack argv on scenario, writing to out; attack reads an
    observation file with no rows."""
    if command == "run":
        return ["run", "--scenario", str(scenario), "--out", str(out)]
    obs = scenario.parent / "obs.csv"
    obs.write_text("time,pseudonym_id,x,y,speed,heading,length,eavesdropper_id\n")
    return ["attack", "--obs", str(obs), "--scenario", str(scenario), "--out", str(out)]


@pytest.mark.parametrize("command", ["run", "attack"])
@pytest.mark.parametrize("case", sorted(_BROKEN_GRAPHS))
def test_broken_graph_file_exits_2_and_writes_no_cell(tmp_path, capsys, command, case):
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    graph = scenario.parent / "graph.json"
    text = graph.read_text()
    broken = _BROKEN_GRAPHS[case](text)
    assert broken != text
    graph.write_text(broken)
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(_cli_argv(command, scenario, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: graph file {graph}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "attack"])
def test_zone_no_road_crosses_exits_2_and_writes_no_cell(tmp_path, capsys, command):
    # gen-grid's 3x3 grid has roads every 1000 m; a 100 m disk between
    # them touches none
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    doc = json.loads(scenario.read_text())
    doc["zones"].append({"zone_id": "z-field", "center_x_m": 500.0,
                         "center_y_m": 500.0, "radius_m": 100.0})
    scenario.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(_cli_argv(command, scenario, out)) == 2
    err = capsys.readouterr().err
    assert err == "error: zone z-field: no road runs through its disk\n"
    assert not out.exists()


def test_zone_round_a_dead_end_is_refused():
    # the disk round n2 is crossed twice, by the road in and the road back
    # out, but the no-U-turn rule leaves no path from the one to the other
    doc = {"zones": [{"zone_id": "z-c", "center_x_m": 500.0, "center_y_m": 500.0,
                      "radius_m": 100.0}], "traffic": {"n_vehicles": 0}}
    g = dead_end_crossing()
    engine.zone_geometries(ScenarioConfig.over_graph(g, doc))
    doc["zones"].append({"zone_id": "z-n2", "center_x_m": 500.0,
                         "center_y_m": 2500.0, "radius_m": 100.0})
    cfg = ScenarioConfig.over_graph(g, doc)
    with pytest.raises(ConfigError, match="^zone z-n2: no road runs through its disk$"):
        engine.zone_geometries(cfg)


@pytest.mark.parametrize("overrides", [
    {"vehicle_radio_range_m": -300.0},
    {"vehicle_radio_range_m": 0.0},
    {"rsu_range_m": 0.0},
    {"rsu_range_m": -600.0},
    {"rsu_chaff_duration_s": -60.0},
    {"rsu_chaff_duration_s": 0.0},
    {"filter_bandwidth_bytes_per_s": 1e-300},
    {"filter_bandwidth_bytes_per_s": -50000.0},
    {"filter_bandwidth_bytes_per_s": 5.0, "filter_tx_interval_s": 0.1},
], ids=[
    "radio-negative", "radio-zero", "rsu-zero", "rsu-negative",
    "chaff-duration-negative", "chaff-duration-zero", "bandwidth-tiny",
    "bandwidth-negative", "chunk-under-one-byte",
])
def test_out_of_range_setting_is_rejected(tmp_path, overrides):
    # checked through from_dict, not run: a sub-byte chunk used to make the
    # engine build ~1e300 chunk payloads
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    doc = json.loads(scenario.read_text())
    doc.update(overrides)
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(doc, base_dir=scenario.parent)
    message = str(info.value)
    assert "\n" not in message
    assert next(iter(overrides)) in message


def test_one_byte_chunks_are_accepted(tmp_path):
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    doc = json.loads(scenario.read_text())
    doc.update(filter_bandwidth_bytes_per_s=10.0, filter_tx_interval_s=0.1)
    cfg = ScenarioConfig.from_dict(doc, base_dir=scenario.parent)
    assert cfg.filter_bandwidth_bytes_per_s * cfg.filter_tx_interval_s == 1.0


def test_run_never_builds_the_event_dicts(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("RunResult.events built by decoymix run")

    monkeypatch.setattr(RunResult, "events", property(refuse))
    scenario = small_scenario(tmp_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(scenario), "--seeds", "1",
                 "--sweep", "relay_fraction=1", "--out", str(out)]) == 0
    assert (out / "relay_fraction=1" / "seed1" / "events.jsonl").stat().st_size


def test_run_never_builds_tuple_views_of_the_observations(tmp_path, monkeypatch):
    # the attack reads the observation table's columns; an ObsRow is built
    # for a track's ends only, never one per row
    def refuse(*args):
        raise AssertionError("observation rows turned into tuples by decoymix run")

    monkeypatch.setattr(Observations, "from_rows", classmethod(refuse))
    made = []
    obs_row = eventlog.ObsRow
    monkeypatch.setattr(eventlog, "ObsRow", lambda *a: made.append(a) or obs_row(*a))
    scenario = small_scenario(tmp_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(scenario), "--seeds", "1",
                 "--sweep", "relay_fraction=1", "--out", str(out)]) == 0
    csv = (out / "relay_fraction=1" / "seed1" / "observations.csv").read_text()
    rows = csv.splitlines()[1:]
    ids = {line.split(",")[1] for line in rows}
    assert made and len(made) <= 2 * len(ids) < len(rows)


def test_zone_geometry_is_built_once_per_scenario_load(tmp_path, monkeypatch):
    scen = tmp_path / "scen"
    assert main(["gen-grid", "--rows", "4", "--cols", "4", "--zones", "2",
                 "--vehicles", "4", "--duration", "60", "--arrival-rate", "0.15",
                 "--out", str(scen)]) == 0
    scenario = scen / "scenario.json"
    # the benchmark's traced run times both through these engine names
    built, synthesized = [], []
    zone_from_center = engine.zone_from_center
    monkeypatch.setattr(
        engine, "zone_from_center",
        lambda g, center, radius: built.append(center) or zone_from_center(g, center, radius),
    )
    synthesize_trips = engine.synthesize_trips
    monkeypatch.setattr(
        engine, "synthesize_trips",
        lambda *a: synthesized.append(a) or synthesize_trips(*a),
    )
    cfg = ScenarioConfig.from_file(scenario)
    engine.zone_geometries(cfg)
    assert len(built) == 2
    run(cfg.replaced(rng_seed=3))
    assert len(built) == 2 and len(synthesized) == 1
    # decoymix run loads the scenario once, and its jobs reuse the load
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(scenario), "--seeds", "1,2",
                 "--out", str(out)]) == 0
    assert len(built) == 2 + 2 and len(synthesized) == 1 + 2
    assert main(["attack", "--obs", str(out / "base" / "seed1" / "observations.csv"),
                 "--scenario", str(scenario), "--out", str(tmp_path / "a")]) == 0
    assert len(built) == 2 + 2 + 2


def test_run_json_format(tmp_path):
    scenario = small_scenario(tmp_path, vehicles=3, duration=60.0)
    out = tmp_path / "runs"
    rc = main(["run", "--scenario", str(scenario), "--seeds", "4",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    d = out / "base" / "seed4"
    doc = json.loads((d / "linkability.json").read_text())
    assert "success_rate" in doc
    doc = json.loads((d / "overhead.json").read_text())
    assert "entities" in doc


def test_run_parallel_matches_serial(tmp_path):
    scenario = small_scenario(tmp_path, vehicles=4, duration=60.0)
    serial, parallel = tmp_path / "s", tmp_path / "p"
    base = ["run", "--scenario", str(scenario), "--seeds", "1,2"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(parallel), "--workers", "2"]) == 0
    assert ((serial / "summary.csv").read_bytes()
            == (parallel / "summary.csv").read_bytes())
    a = serial / "base" / "seed1" / "candidate_sets.jsonl"
    b = parallel / "base" / "seed1" / "candidate_sets.jsonl"
    assert a.read_bytes() == b.read_bytes()


def test_run_starts_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # the pool is sized to the jobs, whatever --workers asks for; a fake
    # pool records its size and runs the jobs in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # the pool class is looked up only when a pool runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    scenario = small_scenario(tmp_path, vehicles=4, duration=60.0)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(scenario), "--seeds", "1,2",
                 "--out", str(out), "--workers", "10000"]) == 0
    assert sizes == [2]
    # one job, or one CPU, runs in this process without a pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert main(["run", "--scenario", str(scenario), "--seeds", "1,2",
                 "--out", str(out), "--force", "--workers", "10000"]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(["run", "--scenario", str(scenario), "--seeds", "3",
                 "--out", str(out), "--force", "--workers", "10000"]) == 0
    assert sizes == [2]


def test_serial_run_imports_no_process_pool(tmp_path):
    # the pool machinery costs a fresh interpreter memory and start-up
    # time, so a run without a pool never imports it
    scenario = small_scenario(tmp_path, vehicles=4, duration=60.0)
    argv = ["run", "--scenario", str(scenario), "--seeds", "1,2",
            "--out", str(tmp_path / "runs"), "--workers", "1"]
    code = (
        "import sys\n"
        "from decoymix.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# ---------------------------------------------------------------------------
# attack round trip


def mixed_run(
    zones=(ZoneSpec("z-a", 1000.0, 1000.0, 100.0),),
    eavesdroppers=(EavesdropperSpec("eav-0", 1000.0, 1000.0, 250.0),),
):
    g = make_grid(3, 3, 1000.0)
    cfg = ScenarioConfig(
        graph=g, zones=zones, eavesdroppers=eavesdroppers,
        n_vehicles=10, arrival_rate_per_s=0.1,
        rng_seed=21, duration_s=240.0, relay_fraction=1.0,
    )
    return cfg, run(cfg)


def write_mixed_scenario(tmp_path, cfg):
    (tmp_path / "graph.json").write_text(cfg.graph.to_json(), encoding="utf-8")
    doc = {
        "graph_file": "graph.json",
        "traffic": {"n_vehicles": cfg.n_vehicles,
                    "arrival_rate_per_s": cfg.arrival_rate_per_s},
        "zones": [
            {"zone_id": z.zone_id, "center_x_m": z.center_x_m,
             "center_y_m": z.center_y_m, "radius_m": z.radius_m}
            for z in cfg.zones
        ],
        "eavesdroppers": [
            {"eaves_id": e.eaves_id, "x_m": e.x_m, "y_m": e.y_m,
             "range_m": e.range_m}
            for e in cfg.eavesdroppers
        ],
        "duration_s": cfg.duration_s,
        "relay_fraction": cfg.relay_fraction,
        "rng_seed": cfg.rng_seed,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_attack_round_trip_matches_in_process(tmp_path):
    # one zone; then two listed in descending id order, which the run and
    # the attack both take in id order
    two_zones = mixed_run(
        (ZoneSpec("z-b", 1000.0, 1000.0, 100.0), ZoneSpec("z-a", 1000.0, 0.0, 100.0)),
        (EavesdropperSpec("eav-0", 1000.0, 1000.0, 250.0),
         EavesdropperSpec("eav-1", 1000.0, 0.0, 250.0)),
    )
    for case, (cfg, result) in enumerate([mixed_run(), two_zones]):
        d = tmp_path / str(case)
        d.mkdir()
        obs_path = d / "observations.csv"
        with open(obs_path, "w", encoding="utf-8") as fh:
            result.export_observations(fh)
        scenario = write_mixed_scenario(d, cfg)

        out = d / "attack"
        rc = main(["attack", "--obs", str(obs_path), "--scenario", str(scenario),
                   "--chain-seed", "21", "--out", str(out)])
        assert rc == 0

        zone_geoms = [(zi.zone_id, zi.geometry) for zi in result.zones]
        eaves_ranges = {e.eaves_id: e.range_m for e in cfg.eavesdroppers}
        sets, _, _ = attack_rows(
            result.observations, cfg.graph, zone_geoms, eaves_ranges,
            v_min=cfg.v_min_mps, chain_seed=21,
        )
        assert {s.zone_id for s in sets} == {z.zone_id for z in cfg.zones}, (
            "scenario produced no linking instances in some zone"
        )
        buf = io.StringIO()
        export_candidate_sets(sets, buf)
        assert (out / "candidate_sets.jsonl").read_text() == buf.getvalue()
        summary = json.loads((out / "attack_summary.json").read_text())
        assert summary["no_transitions"] is False
        assert summary["n_entering"] == len(sets)


def empty_scenario(tmp_path):
    """A 2x2 grid scenario with one zone and no traffic."""
    g = make_grid(2, 2, 1000.0)
    (tmp_path / "graph.json").write_text(g.to_json(), encoding="utf-8")
    doc = {
        "graph_file": "graph.json", "traffic": {"n_vehicles": 0},
        "zones": [{"zone_id": "z-a", "center_x_m": 0.0, "center_y_m": 0.0,
                   "radius_m": 100.0}],
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    return scenario


def test_attack_zero_crossings(tmp_path):
    scenario = empty_scenario(tmp_path)
    obs = tmp_path / "obs.csv"
    obs.write_text("time,pseudonym_id,x,y,speed,heading,length,eavesdropper_id\n")
    out = tmp_path / "attack"
    rc = main(["attack", "--obs", str(obs), "--scenario", str(scenario),
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "attack_summary.json").read_text())
    assert summary["no_transitions"] is True
    assert summary["n_entering"] == 0


def test_attack_malformed_csv_exits_2(tmp_path):
    scenario = empty_scenario(tmp_path)
    obs = tmp_path / "obs.csv"
    obs.write_text("header\nnot,a,valid,row\n")
    rc = main(["attack", "--obs", str(obs), "--scenario", str(scenario),
               "--out", str(tmp_path / "a")])
    assert rc == 2


OBS_FIELDS = ("time", "pseudonym_id", "x", "y", "speed", "heading", "length",
              "eavesdropper_id")


@pytest.mark.parametrize("field", ["time", "x", "y", "speed", "heading", "length"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_attack_non_finite_observation_exits_2(tmp_path, capsys, field, value):
    # a row beside the zone, heading away from it, with one value not finite
    fine = dict(zip(OBS_FIELDS, ("1.0", "ab", "150.000", "0.000", "10.000",
                                 "0.000000", "4.5", "eav-0")))
    bad = {**fine, field: value}
    obs = tmp_path / "obs.csv"
    obs.write_text(",".join(OBS_FIELDS) + "\n" + ",".join(fine.values()) + "\n"
                   + ",".join(bad.values()) + "\n")
    rc = main(["attack", "--obs", str(obs), "--scenario", str(empty_scenario(tmp_path)),
               "--out", str(tmp_path / "a")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: malformed observation CSV: ")
    assert "\n" not in err


@pytest.mark.parametrize("length", ["1e308", "-1e308"])
def test_attack_length_without_a_class_exits_2(tmp_path, capsys, length):
    # finite, but a length over LENGTH_CLASS_PRECISION_M is not, so the
    # row has no length class
    obs = tmp_path / "obs.csv"
    obs.write_text(",".join(OBS_FIELDS) + "\n"
                   + f"1.0,ab,150.000,0.000,10.000,0.000000,{length},eav-0\n")
    rc = main(["attack", "--obs", str(obs), "--scenario", str(empty_scenario(tmp_path)),
               "--out", str(tmp_path / "a")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: malformed observation CSV: length out of range in row ")
    assert length in err and "\n" not in err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("first", [
    "1.0,ab,150.000,0.000,10.000,0.000000,4.5,eav-0",
    "time,pseudonym,x,y,speed,heading,length,eavesdropper",
])
def test_attack_refuses_a_first_line_that_is_not_the_header(tmp_path, capsys, first):
    # a headerless file would lose its first observation, and a header
    # naming other columns would be read by position
    obs = tmp_path / "obs.csv"
    obs.write_text(first + "\n1.5,ab,155.000,0.000,10.000,0.000000,4.5,eav-0\n")
    rc = main(["attack", "--obs", str(obs), "--scenario", str(empty_scenario(tmp_path)),
               "--out", str(tmp_path / "a")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: malformed observation CSV: first line ")
    assert "\n" not in err
    assert not (tmp_path / "a").exists()


def test_attack_zero_byte_observation_file_exits_2(tmp_path, capsys):
    # an export always writes the header, so an empty file is not one
    obs = tmp_path / "obs.csv"
    obs.write_bytes(b"")
    rc = main(["attack", "--obs", str(obs), "--scenario", str(empty_scenario(tmp_path)),
               "--out", str(tmp_path / "a")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: malformed observation CSV: ")
    assert "\n" not in err
    assert not (tmp_path / "a").exists()


def test_attack_missing_obs_exits_2(tmp_path):
    scenario = empty_scenario(tmp_path)
    rc = main(["attack", "--obs", str(tmp_path / "none.csv"),
               "--scenario", str(scenario), "--out", str(tmp_path / "a")])
    assert rc == 2


# ---------------------------------------------------------------------------
# in-process attack helpers


def test_attack_result_attaches_truth_and_scores():
    cfg, result = mixed_run()
    sets, chains, tracks = attack_result(result)
    truth = {(tr.zone_id, tr.old_id): tr.new_id for tr in result.transitions}
    assert truth, "scenario produced no pseudonym changes"
    for s in sets:
        assert s.truth == truth.get((s.zone_id, s.entering))
    assert all(pid in tracks for ch in chains for pid in ch.ids
               if pid in tracks)  # tracks keyed by observed pseudonym


def test_attack_result_hbc_zone_gives_singletons():
    g = make_grid(3, 3, 1000.0)
    cfg = ScenarioConfig(
        graph=g,
        zones=(ZoneSpec("z-a", 1000.0, 1000.0, 100.0),),
        eavesdroppers=(EavesdropperSpec("eav-0", 1000.0, 1000.0, 250.0),),
        n_vehicles=10, arrival_rate_per_s=0.1,
        rng_seed=21, duration_s=240.0, relay_fraction=1.0,
        hbc_rsu_fraction=1.0,
    )
    result = run(cfg)
    sets, _, _ = attack_result(result)
    internal = {tr.old_id: tr.new_id for tr in result.transitions}
    hit = 0
    for s in sets:
        if s.entering in internal:
            assert s.candidates == frozenset({internal[s.entering]})
            hit += 1
    assert hit > 0
