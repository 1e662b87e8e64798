"""hypcert benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hypcert checkout; the package is imported from
``src/``.  Workloads (see BENCHMARK.json for why each one exists):

  suite-pool    hypcert verify --suite --workers N on a drawn sample,
                N = the machine's CPU count
  suite-serial  the same sample with --workers 1
  sweep         hypcert sweep over drawn admissible tuples, dense grid
  eval          scalar hyp2f1 / hyp2f1_at_one calls, fresh parameters

The benchmark runs a closed loop in one process: each operation starts
when the previous one has finished; only suite-pool starts workers (the
program's own process pool).  Inputs are drawn from the seed before any
timing; outputs are checked after the timed passes.  Passes repeat until
S seconds are used; at least one always runs, and suite-pool, whose
passes are short and noisy, runs at least two and reports their median.

--trace 0 reports the end-to-end metrics: wall_s (median pass), ops_per_s
(check records, CSV rows or point evaluations per second), setup_s
(median over fresh interpreters importing hypcert and building the
workload's config and tasks) and peak_rss_mb.  --trace 1 times untraced
passes for S/2 seconds, then traces passes for S/2 seconds from outside
(see tracer.py) and reports the per-layer metrics and the tracing
overhead.  Spans are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give the run's metadata,
the workload's own named metrics (tasks_per_s, rows_per_s, sweep_ms_*,
evals_per_s, eval_us_*, failed_frac) and any gate that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("suite-serial", "suite-pool", "sweep", "eval")
SETUP_REPEATS = 11

# comparison-family abscissas of the probe table (label, x)
PROBE_X = (("0.1", 0.1), ("0.2", 0.2), ("0.3", 0.3), ("0.4", 0.4), ("0.5", 0.5),
           ("0.8", 0.8), ("0.81", 0.81), ("0.95", 0.95), ("1-1e-8", 1.0 - 1e-8))


def _parse_args(argv):
    p = argparse.ArgumentParser(description="hypcert benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _make_workload(name, seed, nproc):
    from workloads import EvalWorkload, SuiteWorkload, SweepWorkload

    if name == "suite-serial":
        return SuiteWorkload(seed, OUT, 1, nproc)
    if name == "suite-pool":
        return SuiteWorkload(seed, OUT, nproc, nproc)
    if name == "sweep":
        return SweepWorkload(seed, OUT)
    return EvalWorkload(seed)


def _run_passes(wl, seconds, min_passes=1, before=None, after=None):
    passes = []
    t_end = time.perf_counter() + seconds
    while True:
        if before is not None:
            before()
        passes.append(wl.run_pass())
        if after is not None:
            after()
        if len(passes) >= min_passes and time.perf_counter() >= t_end:
            return passes


def _measure_setup(wl) -> float:
    """Median wall time of fresh interpreters doing the workload's set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", wl.setup_code()], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return statistics.median(times)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _measure_probes(reps=8, blocks=5):
    """Per-call µs of hypcert.hyp2f1 at fixed abscissas, averaged over the
    comparison-family pairs of the default sample; median of ``blocks``."""
    import hypcert

    f = hypcert.hyp2f1
    pairs = []
    for a in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for b in (1.0 - a, 1.0, 1.5, 3.0):
            pairs.append((a - 1.0, b, a + b))
    out = {}
    for label, x in PROBE_X:
        per_block = []
        for _ in range(blocks):
            t0 = time.perf_counter()
            for _ in range(reps):
                for a, b, c in pairs:
                    f(a, b, c, x)
            per_block.append((time.perf_counter() - t0) / (reps * len(pairs)) * 1e6)
        out[label] = statistics.median(per_block)
    return out


def _layer_metrics(tracer, traced, base, probes, workers):
    """Per-layer metrics per traced pass; a metric whose traced name is
    gone is left out and its symbol listed as missing."""
    from tracer import CHECK_FUNCTIONS, REGIMES

    n = len(traced)
    wall = sum(p.wall_s for p in traced)
    metrics = {}

    def put(name, value, unit, symbol):
        if any(symbol == m or symbol.startswith(m + ".") for m in tracer.missing):
            return
        metrics[name] = {"value": value, "unit": unit}

    st, err = tracer.stats, tracer.errors
    h = "hypcert.hyp2f1.hyp2f1"
    calls = sum(st[f"hyp2f1.{r}"][0] for r in (*REGIMES, "other"))
    put("hyp2f1.calls", calls / n, "count", h)
    for r in REGIMES:
        c, busy, _ = st[f"hyp2f1.{r}"]
        put(f"hyp2f1.{r}.calls", c / n, "count", h)
        put(f"hyp2f1.{r}.busy_s", busy / n, "s", h)
        put(f"hyp2f1.{r}.us_per_call", busy / c * 1e6 if c else 0.0, "us", h)
    put("hyp2f1.errors", sum(err[f"hyp2f1.{r}"] for r in (*REGIMES, "other")) / n, "count", h)
    fracs = tracer.unique_fracs
    put("hyp2f1.unique_frac", sum(fracs) / len(fracs) if fracs else 0.0, "ratio", h)
    put("hyp2f1.at_one.calls", st["hyp2f1.at_one"][0] / n, "count",
        "hypcert.hyp2f1.hyp2f1_at_one")
    for label, us in probes.items():
        put(f"hyp2f1.probe.x{label}.us", us, "us", "hypcert.hyp2f1")

    c, busy, _ = st["special.gamma"]
    put("special.gamma.calls", c / n, "count", "hypcert.special.gamma")
    put("special.gamma.us_per_call", busy / c * 1e6 if c else 0.0, "us", "hypcert.special.gamma")
    put("special.ln_gamma.calls", st["special.ln_gamma"][0] / n, "count",
        "hypcert.special.ln_gamma")
    put("constants.calls", tracer.layer_calls["constants"] / n, "count", "hypcert.constants")
    put("constants.busy_s", tracer.layer_busy["constants"] / n, "s", "hypcert.constants")

    for cid, fname in CHECK_FUNCTIONS.items():
        c, busy, own = st[f"verifier.check.{cid}"]
        sym = f"hypcert.verifier.{fname}"
        put(f"verifier.check.{cid}.calls", c / n, "count", sym)
        put(f"verifier.check.{cid}.busy_s", busy / n, "s", sym)
        put(f"verifier.check.{cid}.self_s", own / n, "s", sym)
    put("verifier.check_cover_frac", tracer.layer_busy["verifier.check"] / wall, "ratio",
        "hypcert.verifier")
    put("verifier.build_tasks_s", st["verifier.build_tasks"][1] / n, "s",
        "hypcert.verifier.build_tasks")
    put("verifier.make_grid.calls", st["verifier.make_grid"][0] / n, "count",
        "hypcert.verifier.make_grid")
    put("verifier.report_s", st["verifier.report"][1] / n, "s",
        "hypcert.verifier.Report.to_json_text")
    put("verifier.report_bytes", tracer.report_bytes / n, "bytes",
        "hypcert.verifier.Report.to_json_text")
    cpu = sum(p.pool_cpu_s for p in traced)
    put("verifier.pool.cpu_s", cpu / n, "s", "hypcert.verifier")
    put("verifier.pool.util", cpu / (workers * wall) if workers > 1 else 0.0, "ratio",
        "hypcert.verifier")

    put("cli.self_s", st["cli.main"][2] / n, "s", "hypcert.cli.main")
    put("cli.bytes_out", sum(p.bytes_out for p in traced) / n, "bytes", "hypcert.cli.main")
    overhead = (statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in base) - 1.0)
    put("trace.overhead_frac", overhead, "ratio", "hypcert")
    return metrics


def _run_meta(args, nproc):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        why = {w["name"]: w["why"] for w in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    except (OSError, ValueError, KeyError):
        why = {}

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc, "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "why": why.get(args.workload)}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hypcert" / "__init__.py").is_file():
        print(f"error: no hypcert package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hypcert  # noqa: F401  (the package under test)
    import hypcert.cli  # noqa: F401

    OUT.mkdir(exist_ok=True)
    nproc = os.cpu_count() or 1
    wl = _make_workload(args.workload, args.seed, nproc)
    workers = nproc if args.workload == "suite-pool" else 1

    if args.trace:
        from tracer import Tracer

        probes = _measure_probes()
        base = _run_passes(wl, args.seconds / 2)
        tracer = Tracer(parent_only=args.workload == "suite-pool")
        tracer.install()
        try:
            traced = _run_passes(wl, args.seconds / 2, 1, tracer.begin_pass, tracer.end_pass)
        finally:
            tracer.uninstall()
        passes = base + traced
    else:
        setup_s = _measure_setup(wl)
        passes = _run_passes(wl, args.seconds, wl.min_passes)
        peak_rss_mb = _peak_rss_mb()

    attempted = sum(p.ops for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + wl.finish())

    # operations completed per second: failed operations do not count
    rate = (attempted - failed) / sum(p.wall_s for p in passes)
    named = {"failed_frac": (failed / attempted, "ratio")}

    print("# meta " + json.dumps(_run_meta(args, nproc), sort_keys=True))
    if args.trace:
        metrics = _layer_metrics(tracer, traced, base, probes, workers)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        for sym in tracer.missing:
            print(f"# absent: {sym} is gone; its metrics are left out")
        if tracer.parent_only:
            print("# unobserved: hyp2f1/special/constants/check work runs in pool "
                  "workers, which are not traced (their metrics read 0)")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
            "ops_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        named = {wl.rate_name: (rate, "1/s"), **wl.latency_metrics(), **named}
    print(f"# passes: {len(passes)} of {wl.op_name}, {attempted} operations, {failed} failed")
    for name, spec in metrics.items():
        print(f"metric {name} = {spec['value']!r} {spec['unit']}")
    for name, (value, unit, *tail) in named.items():
        extra = f"  ({tail[0]}, n={tail[1]})" if tail else ""
        print(f"named {name} = {value!r} {unit}{extra}")
    for note in getattr(wl, "notes", ()):
        print(f"# {note}")
    for problem in dict.fromkeys(wl.problems):
        print(f"# gate failed: {problem}")
    if getattr(wl, "failing_ids", None):
        print(f"# failing checks: {json.dumps(wl.failing_ids, sort_keys=True)}")
    correct = failed == 0 and not wl.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
