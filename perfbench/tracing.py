"""Span recording around romctl's public functions, installed from outside.

A `Tracer` replaces each traced function where its caller looks the name up
(a module attribute such as `romctl.fom.solve_state`, a name that
`romctl.models` imported such as `romctl.models.weighted_svd`, or a model
method) with a wrapper that records one span per call: name, start, end, the
enclosing span and an optional note taken from the result. Spans stay in
memory until the benchmark writes them out.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

# Span names of the per-call timings reported as .calls / .s (and .ms).
TIMED = (
    "fom.solve_state", "fom.solve_adjoint", "fom.cost", "fom.gradient_fom",
    "transform.transform_snapshots", "basis.weighted_svd",
    "rom_pod.assemble_pod_rom", "rom_pod.project_snapshots", "rom_pod.solve_pod_state",
    "rom_pod.solve_pod_adjoint", "rom_pod.gradient_pod",
    "rom_spod.assemble_spod_rom", "rom_spod.solve_spod_state", "rom_spod.lift_spod",
    "rom_spod.solve_spod_adjoint", "rom_spod.gradient_spod",
    "models.evaluate", "models.cost_only", "models.refine_basis", "models.lift",
    "experiments.build_target", "experiments.build_model",
)
# Spans whose self time is reported (busy time minus traced children).
SELF = ("models.evaluate", "models.cost_only", "models.refine_basis")
SEARCH = "optimizer.two_way_backtracking"
# metrics that are counts, which must repeat exactly between runs of one seed
COUNTS = (
    "optimizer.searches", "optimizer.trials", "optimizer.search_failures",
    "optimizer.bb_steps", "optimizer.refreshes", "basis.modes_max",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, note]
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if note is not None:
                span[4] = note(out)
            return out

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self) -> None:
        from romctl import experiments, fom, models, optimizer, rom_pod, rom_spod

        self.wrap(experiments, "run_scenario", "experiments.run_scenario")
        self.wrap(experiments, "build_model", "experiments.build_model")
        self.wrap(experiments, "build_target", "experiments.build_target")
        self.wrap(experiments, "optimize", "optimizer.optimize")
        self.wrap(optimizer, "two_way_backtracking", SEARCH, note=lambda out: bool(out[1]))
        self.wrap(optimizer, "barzilai_borwein_step", "optimizer.barzilai_borwein_step")
        for cls in (models.FomModel, models.PodModel, models.SpodModel):
            for meth in ("evaluate", "cost_only", "refine_basis", "lift"):
                # only methods the class defines itself, so hasattr checks keep their answer
                if meth in vars(cls):
                    self.wrap(cls, meth, f"models.{meth}")
        for fn in ("solve_state", "solve_adjoint", "cost", "gradient_fom"):
            self.wrap(fom, fn, f"fom.{fn}")
        # models imports these by name, so the wrapper goes where models looks
        self.wrap(models, "transform_snapshots", "transform.transform_snapshots")
        self.wrap(models, "weighted_svd", "basis.weighted_svd")
        for fn in ("truncate_to_basis", "eigenfunction_stationary_basis"):
            self.wrap(models, fn, f"basis.{fn}", note=lambda basis: basis.r)
        for fn in ("assemble_pod_rom", "project_snapshots", "solve_pod_state",
                   "solve_pod_adjoint", "gradient_pod"):
            self.wrap(rom_pod, fn, f"rom_pod.{fn}")
        for fn in ("assemble_spod_rom", "solve_spod_state", "lift_spod",
                   "solve_spod_adjoint", "gradient_spod"):
            self.wrap(rom_spod, fn, f"rom_spod.{fn}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def call_counts(spans: list[list]) -> dict[str, int]:
    return dict(Counter(s[0] for s in spans))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-module metrics of one workload run from its spans."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    def self_s(*names):
        return sum(dur[i] - child[i] for n in names for i in by_name.get(n, ()))

    out: dict[str, float] = {}
    for name in TIMED:
        idx = by_name.get(name, ())
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.s"] = busy(name)
        out[f"{name}.ms"] = 1e3 * statistics.median(dur[i] for i in idx) if idx else 0.0
    for name in SELF:
        out[f"{name}.self_s"] = self_s(name)
    out["experiments.artifacts.s"] = self_s("experiments.run_scenario")
    searches = calls(SEARCH)
    trials = sum(
        1 for s in spans
        if s[0] == "models.cost_only" and s[3] >= 0 and spans[s[3]][0] == SEARCH
    )
    out["optimizer.searches"] = searches
    out["optimizer.trials"] = trials
    out["optimizer.trials_per_search"] = trials / searches if searches else 0.0
    out["optimizer.search_failures"] = sum(1 for i in by_name.get(SEARCH, ()) if not spans[i][4])
    out["optimizer.bb_steps"] = calls("optimizer.barzilai_borwein_step")
    out["optimizer.refreshes"] = calls("models.refine_basis")
    out["optimizer.self_s"] = self_s("optimizer.optimize", SEARCH, "optimizer.barzilai_borwein_step")
    ranks = [
        spans[i][4]
        for n in ("basis.truncate_to_basis", "basis.eigenfunction_stationary_basis")
        for i in by_name.get(n, ())
    ]
    out["basis.modes_max"] = max(ranks, default=0)
    return out


def span_records(spans: list[list]) -> list[dict]:
    """Spans as JSON-ready records, times relative to the first span."""
    t0 = spans[0][1] if spans else 0.0
    return [
        {"name": n, "start": s - t0, "end": e - t0, "parent": p, "note": note}
        for n, s, e, p, note in spans
    ]
