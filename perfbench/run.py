"""Small-scale, 16-core benchmark of the SUV/LogTM-SE simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stall-storm --seconds 20
    python3 perfbench/run.py --workload write-overflow --trace 1
    python3 perfbench/run.py --workload all --seconds 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes a traced pass and reports the per-layer metrics (see
``perfbench/README.md``).  ``--workload all`` runs each workload in its
own process and prints every result.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--seed`` seeds the order of the runs inside each pass.  The simulated
inputs come from ``--workload-seed`` (default 3), so every ``--seed``
measures the same simulated work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: cold processes whose set-up time is measured per run (median reported)
SETUP_REPEATS = 5
#: timed passes per run, however short ``--seconds`` is
MIN_PASSES = 2
#: a child process that takes longer than this is killed
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "cpu_s": "s",
    "sim_cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "completed_run_ratio": "ratio",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    from suite import DEFAULT_WORKLOAD_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the run order inside each pass")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="how long the timed passes run (at least "
                         f"{MIN_PASSES} passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int,
                    default=DEFAULT_WORKLOAD_SEED,
                    help="seed of the simulated inputs")
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _check_tree() -> str:
    """Why this checkout cannot be benchmarked ("" if it can)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no simulator sources under {SRC}"
    accel = os.environ.get("REPRO_ACCEL", "")
    if accel not in ("", "pure"):
        return f"REPRO_ACCEL={accel!r}: the benchmark measures the pure backend"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    from layers import UNITS

    for key, units in (("end_to_end", E2E_UNITS), ("per_layer", UNITS)):
        want = {m["name"]: m["unit"] for m in declared[key]}
        if want != units:
            return f"BENCHMARK.json {key} does not match the metrics emitted"
    return ""


def provenance() -> dict[str, str]:
    from repro.accel import default_backend_name

    head = ROOT / ".git" / "HEAD"
    revision = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        revision = ref
    return {
        "python": platform.python_version(),
        "nproc": str(os.cpu_count()),
        "platform": platform.platform(),
        "git_revision": revision,
        "accel_backend": default_backend_name(),
        "REPRO_ACCEL": os.environ.get("REPRO_ACCEL", "(unset)"),
    }


def _import_stack() -> None:
    import repro.runner  # noqa: F401
    import repro.simulator  # noqa: F401
    import repro.workloads  # noqa: F401


def setup_child(args: argparse.Namespace) -> int:
    """Cold set-up: imports, config, workload build, Simulator().

    Prints the set-up's CPU time (interpreter start included) less the
    host gauge's table build and sampling, and its median loop time.
    """
    from hostref import HostGauge
    from suite import prepare

    with HostGauge() as gauge:
        _import_stack()
        for prep in prepare(args.workload, args.workload_seed):
            prep.simulator()
        cpu = time.process_time() - gauge.build_s
    loop_s, spent = gauge.since(0)
    print(json.dumps({"setup_s": cpu - spent, "loop_s": loop_s}))
    return 0


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Set-up times of cold child processes, at nominal host speed."""
    from hostref import rescale

    samples = []
    for _ in range(SETUP_REPEATS):
        proc = _child(["--workload", args.workload, "--workload-seed",
                       str(args.workload_seed), "--setup-child"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.splitlines()[-1])
        samples.append(rescale(child["setup_s"], child["loop_s"]))
    return samples


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _summarize(outcomes: list) -> tuple[int, int, bool]:
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.error)
    wrong = any(o.wrong for o in outcomes)
    return attempted, failed, wrong


def _print_runs(passes: list[list], tag: str) -> None:
    for i, outcomes in enumerate(passes):
        for o in outcomes:
            status = o.error or "ok"
            print(f"  {tag} pass {i}: {o.label:20s} cpu {o.cpu_s:7.3f} s "
                  f"(scaled {o.scaled_cpu_s:7.3f} s, loop {o.loop_s:.4f} s)  "
                  f"cycles {o.cycles:>9d}  events {o.events:>8d}  "
                  f"digest {o.digest or '-'}  {status}")


def _pass_cpu(outcomes: list) -> float:
    """A pass's CPU seconds at the nominal host speed."""
    return sum(o.scaled_cpu_s for o in outcomes)


def _timed_passes(prepared, fields, rng, gauge,
                  seconds: float) -> tuple[list, list]:
    """A warm-up pass, then timed passes for ``seconds``."""
    from suite import run_pass

    warm = run_pass(prepared, fields, rng, gauge)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(prepared, fields, rng, gauge))
    return warm, passes


def timed(args: argparse.Namespace) -> dict:
    from hostref import HostGauge
    from suite import digest_fields, drift, prepare

    setup = measure_setup(args)
    _import_stack()
    fields = digest_fields()
    prepared = prepare(args.workload, args.workload_seed)
    rng = random.Random(args.seed)
    with HostGauge() as gauge:
        warm, passes = _timed_passes(prepared, fields, rng, gauge,
                                     args.seconds)

    cpu = [_pass_cpu(p) for p in passes]
    cycles = [sum(o.cycles for o in p) for p in passes]
    everything = warm + [o for p in passes for o in p]
    attempted, failed, wrong = _summarize(everything)
    drifted = drift([warm, *passes])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "cpu_s": statistics.median(cpu),
        "sim_cycles_per_s": statistics.median(
            c / t for c, t in zip(cycles, cpu)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "sim_cycles": statistics.median_low(cycles),
        "completed_run_ratio": (attempted - failed) / attempted,
    }
    samples = {"cpu_s": len(cpu), "sim_cycles_per_s": len(cpu),
               "setup_s": len(setup), "sim_cycles": len(cycles),
               "peak_rss_mb": 1, "completed_run_ratio": attempted}

    _print_runs([warm], "warm")
    _print_runs(passes, "timed")
    raw = statistics.median(sum(o.cpu_s for o in p) for p in passes)
    print(f"  unscaled pass cpu (s): median {raw:.4f}")
    print(f"  setup samples (s): {' '.join(f'{s:.4f}' for s in setup)}")
    print(f"  failed_run_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:20s} {value:16.6f} {E2E_UNITS[name]:7s} "
              f"(median of n={samples[name]})")
    for label, digests in drifted.items():
        print(f"  DIGEST DRIFT {label}: {digests}")
    return {
        "correct": not wrong and not drifted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, E2E_UNITS[k]) for k, v in metrics.items()},
    }


def traced(args: argparse.Namespace) -> dict:
    from hostref import HostGauge
    from layers import UNITS, LayerProbe
    from spans import SpanRecorder, calibrate
    from suite import digest_fields, drift, prepare, run_pass

    _import_stack()
    fields = digest_fields()
    t0 = time.process_time()
    prepared = prepare(args.workload, args.workload_seed)
    build_s = time.process_time() - t0
    rng = random.Random(args.seed)
    recorder = SpanRecorder()
    probe = LayerProbe(recorder)
    with HostGauge() as gauge:
        warm, passes = _timed_passes(prepared, fields, rng, gauge,
                                     args.seconds)
        traced_pass = run_pass(prepared, fields, rng, gauge,
                               instrument=probe.instrument,
                               release=probe.release)
    untraced_cpu = statistics.median(_pass_cpu(p) for p in passes)
    traced_cpu = _pass_cpu(traced_pass)
    recorder.finish(calibrate())
    metrics = probe.metrics(untraced_cpu, traced_cpu, build_s)

    everything = warm + [o for p in passes for o in p] + traced_pass
    attempted, failed, wrong = _summarize(everything)
    drifted = drift([warm, *passes, traced_pass])
    _print_runs([warm], "warm")
    _print_runs(passes, "untraced")
    _print_runs([traced_pass], "traced")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.6f} {UNITS[name]}")
    for label, digests in drifted.items():
        print(f"  DIGEST DRIFT {label} (traced vs untraced): {digests}")

    stem = HERE / "results" / (
        f"trace-{args.workload}-wseed{args.workload_seed}-seed{args.seed}")
    meta, spans = recorder.write(stem, {
        "workload": args.workload,
        "workload_seed": args.workload_seed,
        "seed": args.seed,
        "provenance": provenance(),
        "metrics": metrics,
        "untraced_cpu_s": untraced_cpu,
        "traced_cpu_s": traced_cpu,
        "digests": {o.label: o.digest for o in traced_pass},
    })
    print(f"  trace written to {meta.relative_to(ROOT)} and "
          f"{spans.relative_to(ROOT)} ({len(recorder.span_fid)} spans)")
    return {
        "correct": not wrong and not drifted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, UNITS[k]) for k, v in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process; metrics keyed workload/metric."""
    from suite import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = _child(["--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace",
                       str(args.trace), "--workload-seed",
                       str(args.workload_seed)])
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} failed:\n{proc.stderr}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    problem = _check_tree()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args)
    if args.workload == "all":
        result = run_all(args)
    else:
        print(f"perfbench {args.workload} workload-seed={args.workload_seed} "
              f"seed={args.seed} trace={args.trace}")
        print("  provenance: " + json.dumps(provenance(), sort_keys=True))
        result = traced(args) if args.trace else timed(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
