"""romctl benchmark: one workload config, optimized end to end, as `romctl run` does.

    python3 perfbench/run.py --workload fom-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table

Run from the repository root. Each repetition calls
`romctl.experiments.run_scenario` on `perfbench/workloads/<workload>.cfg`:
scenario build, optimization and every artifact, written under
`.perfbench_run/`. The seed picks the initial control: seed 0 is the zero
control of `romctl run`; any other seed is a small smooth signal from
`experiments.smooth_random_signal`, handed to `optimize` in place of the zero
control. Repetitions of the same seed run until `--seconds` is spent (at least
MIN_REPS). run_s sums, phase by phase (before optimize, each optimizer
iteration, the rest), the phase's median over repetitions (see
phase_median_run_s). setup_s is the median over the full repetitions and the
set-up-only repetitions run between them (see Bench.setup_once). Both are then
divided by the host slowdown that hostprobe.py measures between repetitions,
so they read as seconds on the probe's reference host; the wall-clock values
(and the plain median of whole repetitions) go to the result file.

Every repetition is checked: exit status and optimizer status, finite costs,
the full-order cost at the returned control (true_J) below the full-order cost
at the initial control, the model-reported cost (final_J) against the
full-order cost at the control it was evaluated on, the artifacts against the
in-memory result, and exact repetition of iterations, costs and artifact bytes
across repetitions. With `--trace 1` the run first measures untraced
repetitions, then repeats with spans recorded around each module's public
functions (see tracing.py) and reports per-module metrics; their counts must
repeat exactly, and each workload's expected calls must be nonzero.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A fuller record with the environment block goes to
`.perfbench_run/result-<workload>-seed<seed>-trace<t>.json`, and the spans
of a traced run to `.perfbench_run/spans-<workload>-seed<seed>.json`.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
MIN_REPS = 3
# After each untraced repetition, set-up-only repetitions (see
# Bench.setup_once) take up to this share of that repetition's wall time, so
# that setup_s, a few milliseconds on the desk workloads, has many samples.
SETUP_SHARE = 0.15
MAX_SETUP_REPS = 40
# Share of each untraced repetition's wall time spent after it on the host
# probe (hostprobe.py), whose slowdown scales run_s and setup_s.
PROBE_SHARE = 0.08
# Amplitude of the seeded initial control. It stays below pod-adapt-desk's
# mode_tol (1e-6), so the tolerance-chosen ranks and hence the costs do not
# jump between seeds; at 1e-6 that workload's true_J already spreads by 3%.
SEED_AMPLITUDE = 1e-8


@dataclasses.dataclass(frozen=True)
class Workload:
    status: str  # the optimizer status every run must end with
    # largest |final_J - J_fom(u_k)| / J_fom(u_k), u_k the control final_J was evaluated at
    model_rtol: float
    called: tuple[str, ...] = ()  # spans that must record calls in a traced run
    idle: tuple[str, ...] = ()  # spans that must record none
    exact: tuple[tuple[str, int], ...] = ()  # spans with a fixed call count


FOM = ("fom.solve_state", "fom.solve_adjoint", "fom.cost", "fom.gradient_fom")
POD = ("rom_pod.assemble_pod_rom", "rom_pod.project_snapshots", "rom_pod.solve_pod_state",
       "rom_pod.solve_pod_adjoint", "rom_pod.gradient_pod")
SPOD = ("rom_spod.assemble_spod_rom", "rom_spod.solve_spod_state", "rom_spod.lift_spod",
        "rom_spod.solve_spod_adjoint", "rom_spod.gradient_spod")
BASIS = ("basis.weighted_svd", "basis.truncate_to_basis", "basis.eigenfunction_stationary_basis")
DRIVER = ("experiments.build_target", "models.evaluate", "models.refine_basis",
          "optimizer.two_way_backtracking")

WORKLOADS = {
    "fom-desk": Workload(
        "max_iter", 1e-12, called=DRIVER + FOM,
        idle=POD + SPOD + BASIS + ("transform.transform_snapshots",),
    ),
    "spod-eig-desk": Workload(
        "max_iter", 2e-3,
        called=DRIVER + SPOD + ("fom.cost", "models.lift", "basis.eigenfunction_stationary_basis"),
        idle=POD + ("basis.weighted_svd", "transform.transform_snapshots"),
        exact=(("rom_spod.assemble_spod_rom", 1),),
    ),
    "spod-adapt-half": Workload(
        "max_iter", 1e-4,
        called=DRIVER + SPOD + ("fom.solve_state", "fom.cost", "models.lift",
                                "transform.transform_snapshots", "basis.weighted_svd",
                                "basis.truncate_to_basis"),
        idle=POD + ("basis.eigenfunction_stationary_basis",),
    ),
    "pod-adapt-desk": Workload(
        "max_iter", 1e-6,
        called=DRIVER + POD + ("fom.solve_state", "models.lift", "basis.weighted_svd",
                               "basis.truncate_to_basis"),
        idle=SPOD + ("transform.transform_snapshots", "basis.eigenfunction_stationary_basis"),
    ),
}


# OpenBLAS threads, set before numpy loads. One thread: the last bits of the
# costs depend on the thread count, and idle OpenBLAS threads busy-wait between
# the many small calls of the time loops, slowing the stepping thread on a
# shared 2-core machine.
BLAS_THREADS = 1


def import_romctl():
    """Import romctl from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import romctl

    if not Path(romctl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported romctl from {romctl.__file__}, not from {SRC}")
    return romctl


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_sha": None,
        "src_sha256": None,
    }
    # numpy's bundled OpenBLAS reports its own version and live thread count
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for sym, key, restype in (
            ("scipy_openblas_get_config64_", "openblas", ctypes.c_char_p),
            ("scipy_openblas_get_num_threads64_", "blas_threads", ctypes.c_int),
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = restype
                val = fn()
                env[key] = val.decode() if isinstance(val, bytes) else val
    if (ROOT / ".git").exists():
        try:
            env["git_sha"] = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "romctl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _SetupDone(Exception):
    """Ends a set-up-only repetition at the first descent step."""


class Bench:
    """One workload at one seed: reference problem, seeded control, checked runs."""

    def __init__(self, name: str, seed: int):
        import numpy as np
        from romctl import experiments, fom
        from romctl.control import build_fourier_shapes

        self.np, self.experiments = np, experiments
        # held before any tracer wraps them, so checks leave no spans
        self._solve_state, self._cost = fom.solve_state, fom.cost
        self.name, self.spec = name, WORKLOADS[name]
        self.out = RUN_DIR / f"artifacts-{name}-seed{seed}-{os.getpid()}"
        self.cfg = dataclasses.replace(
            experiments.parse_config(HERE / "workloads" / f"{name}.cfg"), out=str(self.out)
        )
        # the full-order reference, built through the same public functions
        cfg = self.cfg
        self.grid = cfg.grid()
        self.shapes = build_fourier_shapes(self.grid, cfg.xi)
        self.y0 = experiments.gaussian_initial_condition(self.grid)
        self.target = experiments.build_target(self.grid, self.y0, cfg.target_spec())
        shape = (self.shapes.m, self.grid.n_t)
        if seed == 0:
            self.u0 = np.zeros(shape)
        else:
            rng = np.random.default_rng(seed)
            self.u0 = experiments.smooth_random_signal(rng, *shape, amp=SEED_AMPLITUDE)
        self.J0 = self.fom_cost(self.u0)
        self.first: dict | None = None  # fingerprint of the first run
        self._capture: dict = {}
        self._setup_only = False
        self._optimize = experiments.optimize
        experiments.optimize = self._seeded_optimize

    def fom_cost(self, u) -> float:
        Y = self._solve_state(self.grid, self.shapes, u, self.y0)
        return self._cost(self.grid, Y, self.target, u, self.cfg.mu).total

    def _seeded_optimize(self, model, u0, *args, callback=None, **kwargs):
        """Stand-in for optimize inside run_scenario: starts from the seeded
        control and keeps the control each iteration evaluated."""
        cap = self._capture
        cap["t_optimize"] = time.perf_counter()
        if self._setup_only:
            refine = model.refine_basis

            def timed_refine(u):
                t = time.perf_counter()
                try:
                    return refine(u)
                finally:
                    cap["basis_s"] = time.perf_counter() - t

            def first_step(u):
                raise _SetupDone()

            # the optimizer's first iteration refines the basis, then evaluates;
            # the overrides are deleted after, as they hold the model in a cycle
            model.refine_basis, model.evaluate = timed_refine, first_step
            try:
                self._optimize(model, self.u0.copy(), *args, callback=callback, **kwargs)
            finally:
                del model.refine_basis, model.evaluate
            raise RuntimeError("optimize did not evaluate the model")
        cap["evaluated"] = cap["latest"] = self.u0

        def track(i, u):
            cap["evaluated"], cap["latest"] = cap["latest"], u
            if callback is not None:
                callback(i, u)

        u, report = self._optimize(model, self.u0.copy(), *args, callback=track, **kwargs)
        cap["u"], cap["report"] = u, report
        return u, report

    def setup_once(self) -> float:
        """setup_s of one set-up-only repetition: run_scenario on the path of a
        full run (scenario build, then the first basis refresh inside optimize),
        stopped where the first descent step would evaluate the model."""
        shutil.rmtree(self.out, ignore_errors=True)
        self._capture.clear()
        self._setup_only = True
        t0 = time.perf_counter()
        try:
            self.experiments.run_scenario(self.cfg, quiet=True)
            raise RuntimeError("set-up repetition did not reach optimize")
        except _SetupDone:
            pass
        finally:
            self._setup_only = False
            shutil.rmtree(self.out, ignore_errors=True)
        return self._capture["t_optimize"] - t0 + self._capture.get("basis_s", 0.0)

    def run_once(self) -> dict:
        """One timed workload run, then its output check outside the timing."""
        np = self.np
        shutil.rmtree(self.out, ignore_errors=True)
        self._capture.clear()
        t0 = time.perf_counter()
        code = self.experiments.run_scenario(self.cfg, quiet=True)
        run_s = time.perf_counter() - t0
        cap = self._capture
        report, u = cap["report"], cap["u"]
        basis_s = report.records[0].timings["basis"] if report.records else 0.0
        before_s = cap["t_optimize"] - t0
        iteration_s = [r.wall for r in report.records]
        rec = {
            "run_s": run_s,
            "setup_s": before_s + basis_s,
            # the run split into phases that every repetition repeats exactly:
            # before optimize, each iteration, and the rest (artifacts, streaming)
            "phases_s": [before_s, *iteration_s, run_s - before_s - sum(iteration_s)],
            "iterations": report.iterations,
            "final_J": report.final_cost,
            "true_J": self.fom_cost(u),
            "status": report.status,
        }
        J_eval = self.fom_cost(cap["evaluated"])
        meta = json.loads((self.out / "run_meta.json").read_text())
        saved_u = np.loadtxt(self.out / "final_control.csv", delimiter=",", skiprows=1, ndmin=2).T
        checks = {
            "exit code 0": code == 0,
            f"status {self.spec.status}": report.status == self.spec.status,
            "finite costs": math.isfinite(rec["final_J"]) and math.isfinite(rec["true_J"]),
            "true_J below J(u0)": rec["true_J"] < self.J0,
            f"final_J within {self.spec.model_rtol:g} of J_fom": (
                abs(rec["final_J"] - J_eval) <= self.spec.model_rtol * abs(J_eval)
            ),
            "run_meta matches": (meta["status"], meta["iterations"], meta["final_cost"])
            == (report.status, report.iterations, report.final_cost),
            "final_control.csv matches": saved_u.shape == u.shape and bool(np.all(saved_u == u)),
            "final_state.bin written": (self.out / "final_state.bin").stat().st_size
            == 16 + 8 * self.grid.n * self.grid.n_t,
        }
        fingerprint = {
            "iterations": rec["iterations"], "final_J": rec["final_J"], "true_J": rec["true_J"],
            "final_control.csv": file_digest(self.out / "final_control.csv"),
            "cost_history.csv": file_digest(self.out / "cost_history.csv"),
        }
        if self.first is None:
            self.first = fingerprint
        checks["repeats the first run exactly"] = fingerprint == self.first
        rec["model_gap"] = abs(rec["final_J"] - J_eval) / abs(J_eval)
        rec["failed_checks"] = [k for k, ok in checks.items() if not ok]
        shutil.rmtree(self.out, ignore_errors=True)
        return rec


def run_setups(bench: Bench, rec: dict) -> None:
    """Set-up-only repetitions after a full one, within SETUP_SHARE of its wall."""
    if "phases_s" not in rec:
        return
    one = max(rec["setup_s"], 1e-3)
    rec["setup_reps_s"] = []
    for _ in range(min(MAX_SETUP_REPS, int(SETUP_SHARE * rec["wall"] / one))):
        try:
            rec["setup_reps_s"].append(bench.setup_once())
        except Exception:
            traceback.print_exc()
            rec["failed_checks"].append("set-up repetition raised")
            return


def run_reps(bench: Bench, deadline: float, min_reps: int, on_end=None,
             probe=None) -> list[dict]:
    """Repeat the workload until the next run would pass the deadline; with a
    probe, each repetition is followed by set-up-only ones and probe samples."""
    reps: list[dict] = []
    while True:
        t0 = time.perf_counter()
        try:
            rec = bench.run_once()
        except Exception:
            traceback.print_exc()
            rec = {"failed_checks": ["raised"]}
        if on_end is not None:
            on_end(rec)
        rec["wall"] = time.perf_counter() - t0
        if probe is not None:
            run_setups(bench, rec)
            probe.run(PROBE_SHARE * rec["wall"])
            rec["wall"] = time.perf_counter() - t0
        reps.append(rec)
        if rec["failed_checks"]:
            print(f"[{bench.name}] run {len(reps)} failed: {rec['failed_checks']}", file=sys.stderr)
        longest = max(r["wall"] for r in reps)
        if len(reps) >= min_reps and time.perf_counter() + longest > deadline:
            return reps


def median_of(reps: list[dict], key: str) -> float:
    vals = [r[key] for r in reps if key in r]
    return statistics.median(vals) if vals else 0.0


def phase_median_run_s(reps: list[dict]) -> float:
    """Run time as the sum over phases of each phase's median across repetitions.

    Every repetition does the same work phase by phase (the repeat check holds
    iterations and costs fixed), so a slow stretch of the shared host that
    hits one iteration of one repetition drops out of that phase's median
    instead of moving the whole repetition. Repetitions whose phase count
    differs from the first are left out.
    """
    phases = [r["phases_s"] for r in reps if "phases_s" in r]
    phases = [p for p in phases if phases and len(p) == len(phases[0])]
    return sum(statistics.median(col) for col in zip(*phases)) if phases else 0.0


def check_calls(name: str, calls: dict[str, int]) -> list[str]:
    """Expectations of a workload on its traced call counts."""
    spec = WORKLOADS[name]
    bad = [f"{n} recorded no calls" for n in spec.called if not calls.get(n)]
    bad += [f"{n} recorded {calls[n]} calls, expected none" for n in spec.idle if calls.get(n)]
    bad += [f"{n} recorded {calls.get(n, 0)} calls, expected {k}"
            for n, k in spec.exact if calls.get(n, 0) != k]
    return bad


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = Bench(name, seed)
    import hostprobe

    probe = hostprobe.Probe()
    # a traced run spends half its time untraced, for the overhead baseline
    untraced_end = t_start + (seconds / 2 if trace else seconds)
    reps = run_reps(bench, untraced_end, 1 if trace else MIN_REPS, probe=probe)
    timed = [r for r in reps if "run_s" in r]
    first = timed[0] if timed else {}
    slowdown = probe.slowdown()
    wall_run_s = phase_median_run_s(timed)
    wall_setup_s = statistics.median(
        [r["setup_s"] for r in timed] + [t for r in timed for t in r.get("setup_reps_s", ())]
    ) if timed else 0.0
    metrics: dict[str, float] = {
        # seconds at the probe's reference host speed (see hostprobe.py)
        "run_s": wall_run_s / slowdown,
        "setup_s": wall_setup_s / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": first.get("iterations", 0),
        "final_J": first.get("final_J", 0.0),
        "true_J": first.get("true_J", 0.0),
    }
    spans: list[list[dict]] = []
    if trace:
        import tracing

        tracer = tracing.Tracer()
        counted: list[tuple[dict, dict]] = []

        def take(rec: dict) -> None:
            taken = tracer.take()
            if "run_s" not in rec:
                return
            rec["calls"] = tracing.call_counts(taken)
            rec["layers"] = tracing.layer_metrics(taken)
            rec["failed_checks"] += check_calls(name, rec["calls"])
            counts = {k: v for k, v in rec["layers"].items() if k in tracing.COUNTS}
            if counted and (rec["calls"], counts) != counted[0]:
                rec["failed_checks"].append("call counts differ from the first traced run")
            counted.append((rec["calls"], counts))
            spans.append(tracing.span_records(taken))

        tracer.install()
        try:
            traced = run_reps(bench, t_start + seconds, 2, on_end=take)
        finally:
            tracer.uninstall()
        reps += traced
        layers = [r["layers"] for r in traced if "layers" in r]
        for key in layers[0] if layers else ():
            # counts repeat exactly (checked above); timings take the median
            exact = key in tracing.COUNTS or key.endswith(".calls")
            metrics[key] = layers[0][key] if exact else statistics.median(d[key] for d in layers)
        metrics["trace.run_s"] = phase_median_run_s(traced) / slowdown
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["run_s"]
    failed = sum(1 for r in reps if r["failed_checks"])
    metrics["pass_rate"] = (len(reps) - failed) / len(reps)
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    RUN_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}"
    (RUN_DIR / f"result-{tag}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "runs": reps, "result": result,
        "all_metrics": metrics, "host_slowdown": slowdown, "probe_medians_s": probe.medians(),
        "wall_run_s": wall_run_s, "wall_run_s_rep_median": median_of(timed, "run_s"),
        "wall_setup_s": wall_setup_s,
    }, indent=1) + "\n")
    if trace:
        (RUN_DIR / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n")
    return result


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload), one table."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"{'metric':44s}" + "".join(f"{w:>17s}" for w in results))
    for m, first in next(iter(results.values()))["metrics"].items() if results else ():
        row = "".join(f"{r['metrics'][m]['value']:17.6g}" for r in results.values())
        print(f"{m + ' [' + first['unit'] + ']':44s}{row}")
    print(f"{'correct':44s}" + "".join(f"{str(r['correct']):>17s}" for r in results.values()))
    print(json.dumps(results))
    return status if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "romctl" / "__init__.py").is_file():
        raise SystemExit(f"romctl sources not found under {SRC}; run from a full checkout")
    if args.workload == "all":
        return run_all(args)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    import_romctl()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in result["metrics"].items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
