"""Benchmark of the gqd package: one workload per run, or all of them.

    python3 bench/run.py --workload dense-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

A run sets up the workload's seeded inputs, runs its operations closed-loop
for about ``--seconds`` (whole cycles; at least one), checks every output,
and prints its metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. Every run also writes a result file, with the
environment, every metric and every failed operation with its inputs, to
``bench/out/``.

``--workload all`` runs each workload in its own process and prints all of
their metrics; with ``--trace 1`` it adds a traced pass after the untraced
one, and ``--out`` keeps the combined record.
"""

from __future__ import annotations

import os

# One BLAS thread and no optimizer pool, fixed before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GQD_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPS = 3
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
# Units of the named figures that runs report next to the bounded metrics.
FIGURE_UNITS = {
    "fail_frac": "fraction", "ops": "count", "items": "count", "item": "", "measured_s": "s",
    "solves_per_s": "1/s", "solve_s_p50": "s", "solve_s_tail": "s",
    "unconverged_frac": "fraction", "exact_cases": "count", "exact_gap_max": "bits",
    "exact_misses": "", "points_per_s": "1/s", "scan_s_p50": "s", "scan_s_tail": "s",
    "verify_s": "s",
}


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def _import_gqd() -> None:
    """Import gqd from this checkout's ``src``; exit with an error if it is not there."""
    for p in (str(SRC), str(ROOT)):
        if p not in sys.path:
            sys.path.insert(0, p)
    try:
        import gqd
    except ImportError as exc:
        sys.exit(f"error: cannot import gqd from {SRC}: {exc}")
    if not Path(gqd.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: gqd imported from {gqd.__file__}, not from {SRC}")


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def blas_info() -> dict:
    """BLAS build information and the thread count its libraries report."""
    import ctypes

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads[Path(lib).name] = int(getattr(handle, sym)())
                break
    info["threads"] = threads
    return info


def environment(seed: int) -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas": blas_info(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "GQD_THREADS": os.environ.get("GQD_THREADS"),
        "workload_seed": seed,
    }


def time_setup(make, seed: int, workdir: Path):
    """Median of SETUP_REPS set-ups: interpreter start with ``import gqd``,
    then input generation. Returns the median and the last inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    totals, cycles = [], None
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import gqd"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        cycles = make(seed, workdir)
        totals.append(perf_counter() - t0)
    return statistics.median(totals), cycles


def run_traffic(cycles, tracer, seconds: float):
    """Closed loop over whole cycles until the next one would pass ``seconds``."""
    results = []
    start = perf_counter()
    k = 0
    while True:
        t0 = perf_counter()
        for op in cycles[k % len(cycles)]:
            with tracer.op(f"op{len(results)}:{op.label}"):
                results.append((op, op.run(tracer)))
        k += 1
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return results, now - start


def tail(times) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    for pct in range(99, 49, -1):
        value = float(np.percentile(times, pct))
        beyond = sum(t > value for t in times)
        if beyond >= TAIL_MIN_BEYOND:
            return {"percentile": pct, "value_s": value, "beyond": beyond,
                    "samples": len(times)}
    return None


def traffic_figures(workload: str, item: str, results, wall: float) -> tuple[dict, dict]:
    """End-to-end metrics (no set-up) and the workload's named figures."""
    from bench import checking

    times = [r.seconds for _, r in results]
    items = sum(r.items for _, r in results)
    failed = sum(1 for _, r in results if r.problems)
    metrics = {"items_per_s": items / sum(times)}
    named = {"fail_frac": failed / len(results), "ops": len(results), "items": items,
             "item": item, "measured_s": wall}
    p50 = statistics.median(times)
    if workload in ("dense-small", "dense-wide"):
        solves = [r for _, r in results if r.converged is not None]
        gaps = [r.exact_gap for r in solves if r.exact_gap is not None]
        named.update(
            solves_per_s=metrics["items_per_s"],
            solve_s_p50=p50,
            solve_s_tail=tail(times),
            unconverged_frac=sum(not r.converged for r in solves) / max(len(solves), 1),
            exact_cases=len(gaps),
            exact_gap_max=max(gaps, default=None),
            # Known-answer solves above the exact value by more than the
            # acceptance tolerance that the checks did not count as failed.
            exact_misses=[op.label for op, r in results if not r.problems
                          and r.exact_gap is not None and r.exact_gap > checking.EXACT_TOL],
        )
    elif workload == "closed-sweep":
        named.update(points_per_s=metrics["items_per_s"], scan_s_p50=p50,
                     scan_s_tail=tail(times))
    else:
        named.update(verify_s=p50)
    return metrics, named


def trace_figures(tracer, results, overhead_us: float) -> dict:
    """Per-layer self-time shares of the traffic and the tracing overhead."""
    selfs = tracer.self_times(op_prefix="op")
    total = sum(selfs.values())
    out = {f"trace.self_share.{layer}": t / total for layer, t in selfs.items()}
    traffic = [s for s in tracer.spans if s.op.startswith("op")]
    spans_per_op = (len(traffic) - len(results)) / len(results)
    out["trace.spans_per_op"] = spans_per_op
    out["trace.overhead_frac"] = spans_per_op * overhead_us * 1e-6 / (total / len(results))
    return out


def run_one(args, spec: dict) -> int:
    from bench import probes, workloads
    from bench.tracing import NullTracer, Tracer

    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{stem}-") as tmp:
        workdir = Path(tmp)
        setup_s, cycles = time_setup(workload.make, args.seed, workdir)
        tracer = Tracer() if args.trace else NullTracer()
        results, wall = run_traffic(cycles, tracer, args.seconds)
        end_to_end, named = traffic_figures(args.workload, workload.item, results, wall)
        probe_problems = []
        if args.trace:
            metrics, probe_problems = probes.run_probes(tracer, args.seed, workdir)
            metrics.update(trace_figures(tracer, results,
                                         metrics["trace.overhead_us_per_span"]))
            tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
        else:
            metrics = dict(end_to_end, setup_s=setup_s, peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(declared))} "
                 "are printed but not declared, or declared but not printed")

    failures = [{"inputs": op.inputs(), "problems": r.problems}
                for op, r in results if r.problems]
    if probe_problems:
        failures.append({"inputs": {"label": "per-layer probes"}, "problems": probe_problems})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed), "setup_s": setup_s,
        "figures": named, "metrics": {k: {"value": v, "unit": declared[k]}
                                      for k, v in sorted(metrics.items())},
        "failures": failures,
        "ops": [{"label": op.label, "seconds": r.seconds, "items": r.items,
                 "converged": r.converged, "evaluations": r.evaluations,
                 "exact_gap": r.exact_gap}
                for op, r in results],
    }
    out_path = Path(args.out) if args.out else OUT_DIR / f"{stem}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"result file {out_path}")
    for key, value in named.items():
        print(f"  {key} = {value} {FIGURE_UNITS[key]}".rstrip())
    for f in failures:
        print(f"  FAILED {json.dumps(f['inputs'])}: {'; '.join(f['problems'])}")
    for key, m in record["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    attempted = len(results) + (1 if args.trace else 0)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; untraced, then traced if asked."""
    from bench.workloads import WORKLOADS

    combined = {"seed": args.seed, "seconds": args.seconds, "runs": []}
    status = 0
    for trace in (0, 1)[: args.trace + 1]:
        for name in WORKLOADS:
            out = OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            record = json.loads(out.read_text(encoding="utf-8"))
            combined["runs"].append(record)
            status = status or (1 if record["failures"] else 0)
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    _import_gqd()
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: bench/out/<run>.json)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
