"""In-memory span tracer for the benchmark's traced run.

The program's files stay unchanged: while `Tracer.installed()` is active, the
names one decoymix module imports from another (and a few class methods) are
replaced by wrappers that record a span per call, or only count the call
where the function is too hot for a span. Spans are [name, start, end,
parent index, cell id]; every span of one sweep cell carries that cell's id.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, owner attribute or None, attribute, span name, kind)
# kind "span" records a span per call, "count" only counts calls.
PATCHES = (
    ("decoymix.cli", None, "run", "engine.run", "span"),
    ("decoymix.cli", None, "attack_result", "cli.attack_result", "span"),
    ("decoymix.cli", None, "build_tracks", "adversary.build_tracks", "span"),
    ("decoymix.cli", None, "link", "adversary.link", "span"),
    ("decoymix.cli", None, "chain", "adversary.chain", "span"),
    ("decoymix.cli", None, "export_candidate_sets",
     "adversary.export_candidate_sets", "span"),
    ("decoymix.cli", None, "build_linkability_report",
     "metrics.build_linkability_report", "span"),
    ("decoymix.cli", None, "overhead", "metrics.overhead", "span"),
    ("decoymix.cli", None, "write_linkability_csv",
     "metrics.write_linkability_csv", "span"),
    ("decoymix.cli", None, "write_overhead_csv",
     "metrics.write_overhead_csv", "span"),
    ("decoymix.metrics", None, "anonymity_set_sizes",
     "metrics.anonymity_set_sizes", "span"),
    ("decoymix.adversary", None, "path_exists", "roads.path_exists", "span"),
    ("decoymix.engine", None, "synthesize_trips",
     "mobility.synthesize_trips", "span"),
    ("decoymix.engine", None, "trip_samples_with_edges",
     "mobility.trip_samples_with_edges", "span"),
    ("decoymix.engine", None, "zone_from_center", "roads.zone_from_center", "span"),
    ("decoymix.engine", None, "sign", "core.sign", "span"),
    ("decoymix.mixzone", None, "sign", "core.sign", "span"),
    ("decoymix.engine", "ScenarioConfig", "from_file", "cli.scenario_load", "span"),
    ("decoymix.engine", "RunResult", "export_events", "engine.export_events", "span"),
    ("decoymix.engine", "RunResult", "export_observations",
     "engine.export_observations", "span"),
    ("decoymix.roads", "RoadGraph", "snap", "roads.snap", "span"),
    ("decoymix.roads", "RoadGraph", "shortest_path", "roads.shortest_path", "count"),
    ("decoymix.chaff_filter", "ChaffFilter", "serialize",
     "chaff_filter.serialize", "span"),
    ("decoymix.chaff_filter", "ChaffFilter", "insert", "chaff_filter.insert", "span"),
    ("decoymix.chaff_filter", "ChaffFilter", "contains",
     "chaff_filter.contains", "count"),
    ("decoymix.chaff_filter", "ChaffFilter", "remove", "chaff_filter.remove", "count"),
    ("decoymix.vpki", "CredentialAuthority", "provision_chaff",
     "vpki.provision_chaff", "span"),
    ("decoymix.vpki", "CredentialAuthority", "retire_chaff",
     "vpki.retire_chaff", "count"),
    ("decoymix.vpki", "CredentialAuthority", "issue_pseudonyms",
     "vpki.issue_pseudonyms", "span"),
    ("decoymix.mixzone", "MixZoneController", "handle_join",
     "mixzone.handle_join", "span"),
    ("decoymix.mixzone", "MixZoneController", "note_exit", "mixzone.note_exit", "span"),
)

NAME, START, END, PARENT, CELL = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(dict)
        self.cell = -1
        self._stack: list[int] = []
        # per-cell observations made at call boundaries
        self.kept: dict[int, int] = defaultdict(int)
        self.entities: dict[int, int] = {}
        self.trip_windows: dict[int, list[tuple[float, float]]] = defaultdict(list)
        self.samples: dict[int, int] = defaultdict(int)

    # -- recording

    @contextlib.contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        i = len(spans)
        spans.append([name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1, self.cell])
        stack.append(i)
        try:
            yield
        finally:
            stack.pop()
            spans[i][END] = time.perf_counter()

    def _wrap(self, name: str, kind: str, fn):
        if kind == "count":
            def counted(*args, **kwargs):
                c = self.counts[self.cell]
                c[name] = c.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        observe = self._observers().get(name)

        def spanned(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(out)
            return out
        return spanned

    def _observers(self):
        def path_result(ok):
            if ok:
                self.kept[self.cell] += 1

        def overhead_result(rep):
            self.entities[self.cell] = len(
                set(rep.bytes_by_entity_second) | set(rep.signs)
                | set(rep.verifies) | set(rep.checks)
            )

        def samples_result(rows):
            self.samples[self.cell] += len(rows)
            if rows:
                self.trip_windows[self.cell].append(
                    (rows[0][0].time_s, rows[-1][0].time_s)
                )

        return {
            "roads.path_exists": path_result,
            "metrics.overhead": overhead_result,
            "mobility.trip_samples_with_edges": samples_result,
        }

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in PATCHES; restore the originals on exit."""
        undo = []
        try:
            for mod_name, owner_name, attr, name, kind in PATCHES:
                owner = importlib.import_module(mod_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, kind, raw.__func__))
                else:
                    new = self._wrap(name, kind, raw)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- analysis

    def cell_spans(self, cell: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[CELL] == cell]

    def self_times(self, cell: int) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans
        cover."""
        idx = self.cell_spans(cell)
        child_total: dict[int, float] = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            if s[PARENT] >= 0:
                child_total[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            out[s[NAME]] += s[END] - s[START] - child_total[i]
        return dict(out)

    def inclusive_times(self, cell: int) -> dict[str, float]:
        """Per span name: summed duration, child spans included."""
        out: dict[str, float] = defaultdict(float)
        for i in self.cell_spans(cell):
            s = self.spans[i]
            out[s[NAME]] += s[END] - s[START]
        return dict(out)

    def calls(self, cell: int) -> dict[str, int]:
        """Exact call counts: spans per name plus counted-only calls."""
        out: dict[str, int] = defaultdict(int)
        for i in self.cell_spans(cell):
            out[self.spans[i][NAME]] += 1
        for name, n in self.counts.get(cell, {}).items():
            out[name] += n
        return dict(out)

    def peak_active(self, cell: int) -> int:
        """Most vehicles on the road at once, from each vehicle's first and
        last sample time."""
        marks = []
        for lo, hi in self.trip_windows.get(cell, ()):
            marks.append((lo, 1))
            marks.append((hi, 2))  # leaves after every arrival at that instant
        active = peak = 0
        for _, kind in sorted(marks):
            active += 1 if kind == 1 else -1
            peak = max(peak, active)
        return peak
