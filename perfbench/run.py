"""Pipeline benchmark for falcon.

Runs one workload (see README.md in this directory) for a fixed time and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, taken from spans recorded around every layer call.
Pass times are the process's CPU seconds in multiples of the CPU seconds
of a fixed reference loop run between passes (see reference.py); the raw
wall seconds are in the table and the result file.

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run it from the root of a checkout: it builds nothing, imports falcon from
``src/`` of that checkout and writes only under ``perfbench/_work`` and
``perfbench/_results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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

# One BLAS thread: the matrices are small, and on a box of a few shared
# cores a second thread measures the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
NAN = float("nan")
WORKLOAD_NAMES = ["train", "extract", "network"]


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import falcon.cli; "
                "print(time.perf_counter() - t)")


def import_falcon() -> None:
    """Import the program from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "falcon" / "__init__.py").is_file():
        raise ImportError(f"no falcon package under {src}")
    sys.path.insert(0, str(src))
    import falcon.cli  # noqa: F401  (imports every layer module)

    if Path(sys.modules["falcon"].__file__).resolve().parent != src / "falcon":
        raise ImportError("falcon was imported from outside this checkout")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import ``falcon.cli``, as a user's
    command does."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return float(out.stdout)


def commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def stamp(workload: str, seed: int) -> dict:
    import numpy
    from falcon import accel

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "falcon").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "numba_active": bool(accel.NUMBA_ACTIVE),
        "FALCON_DISABLE_NUMBA": os.environ.get("FALCON_DISABLE_NUMBA"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """The passes of one workload run and the failures seen in them."""

    def __init__(self, workload):
        self.wl = workload
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.refs: list[float] = []
        self.ref_cpus: list[float] = []
        self.peak_rss_mb = NAN
        self.items = 0
        self.commands: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, cli, timed: bool = True) -> float | None:
        """Run and check one pass; return its wall time, or None if it failed.

        A ``cli`` with a tracer runs the pass with every layer wrapped. An
        untimed pass (the warm-up) is checked but its time is not kept.
        """
        from tracing import instrument

        self.attempted += 1
        cli.times, cli.cpu = {}, {}
        try:
            if cli.tracer is None:
                items = self.wl.run_pass(cli)
            else:
                with instrument(cli.tracer), cli.tracer.span("pass"):
                    items = self.wl.run_pass(cli)
            problems = self.wl.check_pass()
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        wall = sum(cli.times.values())
        if cli.tracer is None and timed:
            self.walls.append(wall)
            self.cpus.append(sum(cli.cpu.values()))
            self.items += items
            for command, seconds in cli.times.items():
                self.commands.setdefault(command, []).append(seconds)
        return wall

    def check_run(self) -> None:
        if self.attempted == self.failed:
            return
        try:
            problems = self.wl.check_run()
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            # every pass wrote the same bytes as the first, so all fail together
            self.failed = self.attempted
            self.problems.extend(problems)


def measure(run: Run, seconds: float, tracer=None) -> list[float]:
    """Closed loop: one untimed warm-up pass, then start another pass while
    it would end, on average, by ``seconds``; a run then lasts about
    ``seconds`` at any pass length. The reference loop runs before the
    first timed pass and after each untraced one; peak memory is read
    before it first runs, so that its arrays do not count.

    With a tracer, untraced and traced passes alternate and the traced
    walls are returned.
    """
    from reference import reference_loop
    from workloads import Cli

    cli, traced_cli = Cli(), Cli(tracer)
    traced_walls: list[float] = []
    start = time.perf_counter()
    def reference():
        wall, cpu = reference_loop()
        run.refs.append(wall)
        run.ref_cpus.append(cpu)

    run.one_pass(cli, timed=False)
    run.peak_rss_mb = peak_rss_mb()
    reference()
    while True:
        wall = run.one_pass(cli)
        reference()
        if tracer is not None:
            traced = run.one_pass(traced_cli)
            tracer.end_pass()
            if traced is not None:
                traced_walls.append(traced)
        elapsed = time.perf_counter() - start
        typical = statistics.median(run.walls) if run.walls else (wall or elapsed)
        typical += statistics.median(run.refs)
        if tracer is not None and traced_walls:
            typical += statistics.median(traced_walls)
        if elapsed + typical / 2 > seconds:
            return traced_walls


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, Cli

    work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        repeats = 1 if trace else SETUP_REPEATS
        setup_times = []
        for i in range(repeats):
            root = work / f"setup{i}"
            root.mkdir(parents=True)
            wl = WORKLOADS[name](root, seed)
            imported = 0.0 if trace else import_seconds()
            start = time.perf_counter()
            wl.setup(Cli())
            setup_times.append(imported + time.perf_counter() - start)
        run = Run(wl)
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            traced_walls = measure(run, seconds, tracer)
        else:
            measure(run, seconds)
        run.check_run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"stamp": stamp(name, seed), "attempted": run.attempted,
              "failed": run.failed, "problems": run.problems,
              "passes": len(run.walls), "failed_frac": run.failed / max(1, run.attempted)}
    if not trace:
        measured, cpu = sum(run.walls), sum(run.cpus)
        wall = measured / len(run.walls) if run.walls else NAN
        ref, ref_cpu = statistics.mean(run.refs), statistics.mean(run.ref_cpus)
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "cpu_ref": {"value": cpu / len(run.walls) / ref_cpu if run.walls else NAN,
                        "unit": "ref"},
            "items_per_ref": {"value": run.items / cpu * ref_cpu if run.walls else NAN,
                              "unit": "1/ref"},
            "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
            # wall seconds: what a user waits on this machine at this moment
            "wall_s": {"value": wall, "unit": "s"},
            "wall_ref": {"value": wall / ref, "unit": "ref"},
            "items_per_s": {"value": run.items / measured if run.walls else NAN,
                            "unit": "1/s"},
            "ref_s": {"value": ref, "unit": "s"},
        }
        result["detail"] = {"setup_runs_s": setup_times, "walls_s": run.walls,
                            "cpus_s": run.cpus, "refs_s": run.refs,
                            "ref_cpus_s": run.ref_cpus, "commands_s": run.commands}
    else:
        from tracing import layer_metrics

        metrics, table = layer_metrics(tracer, run.walls, run.commands, traced_walls)
        result["metrics"] = metrics
        result["absent"] = [m["name"] for m in contract_metrics(True)
                            if m["name"] not in metrics]
        result["hook_errors"] = tracer.hook_errors
        result["spans"] = table
        out = HERE / "_results"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"spans-{name}-seed{seed}.npz")
    return result


def contract_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(result: dict, trace: bool) -> dict:
    """The last output line: only the contract's metrics, each a number.

    The contract allows no null, so a metric that was not measured (absent,
    or NaN for want of a pass) reads 0; ``print_table`` names every absent
    one on the lines before, and the result file lists them under
    ``absent``. A run with no timed pass has failed passes, so it is not
    ``correct``.
    """
    metrics = {}
    for m in contract_metrics(trace):
        got = result["metrics"].get(m["name"])
        value = got["value"] if got else 0.0
        metrics[m["name"]] = {"value": 0.0 if value != value else value,
                              "unit": m["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_table(result: dict) -> None:
    s = result["stamp"]
    print(f"# {s['workload']} seed={s['seed']} numba_active={s['numba_active']} "
          f"FALCON_DISABLE_NUMBA={s['FALCON_DISABLE_NUMBA']} python={s['python']} "
          f"numpy={s['numpy']} nproc={s['nproc']} commit={s['commit']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<48} {result['failed_frac']:>14.6g} "
          f"({result['failed']}/{result['attempted']} passes)")
    for absent in result.get("absent", []):
        print(f"  {absent:<48} {'absent':>14} (0 in the JSON line)")
    for span, error in result.get("hook_errors", {}).items():
        print(f"  hook of {span} failed, its counters are absent: {error}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}", file=sys.stderr)


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, each in its own process, one table at the end.

    Untraced, the table also shows the wall-clock metrics of each
    workload's result file, which the JSON line leaves out.
    """
    rows, shown = {}, {}
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited with {proc.returncode}")
        rows[name] = out = json.loads(lines[-1])
        bench = HERE / "_results" / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
        shown[name] = (out if trace else json.loads(bench.read_text(encoding="utf-8")))["metrics"]
        total["correct"] &= out["correct"]
        total["attempted"] += out["attempted"]
        total["failed"] += out["failed"]
        for metric, m in out["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    names = list(shown[WORKLOAD_NAMES[0]]) + ["failed_frac"]
    print(f"{'metric':<28}" + "".join(f"{w:>16}" for w in rows))
    for metric in names:
        cells = []
        for name, out in rows.items():
            if metric == "failed_frac":
                cells.append(f"{out['failed'] / out['attempted']:>16.4g}")
            else:
                m = shown[name][metric]
                cells.append(f"{m['value']:>10.4g} {m['unit']:<5}")
        print(f"{metric:<28}" + "".join(cells))
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        import_falcon()
        contract_metrics(trace)
    except (ImportError, OSError, ValueError, KeyError) as exc:
        return fail(f"cannot run here: {exc}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, trace)

    result = run_workload(args.workload, args.seed, args.seconds, trace)
    print_table(result)
    out = HERE / "_results"
    out.mkdir(exist_ok=True)
    path = out / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, default=float) + "\n", encoding="utf-8")
    print(json.dumps(report(result, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
