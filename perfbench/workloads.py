"""Seeded inputs, timed passes and output gates of the four workloads.

Every workload draws its inputs from ``--seed`` before any timing starts,
drives hypcert through its public entry points (``hypcert.cli.main`` for
``verify`` and ``sweep``; the package-level ``hypcert.hyp2f1`` and
``hypcert.hyp2f1_at_one`` for point evaluation) and checks every output
after the timed passes.  A pass is one unit of the workload; ``run.py``
repeats passes until the run's time is used up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SWEEP_HEADER = "a,b,c,d,delta,x,G,F_c,F_d,lower_env,upper_env"


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _call_cli(argv):
    """Run ``hypcert.cli.main`` in-process with stdout and stderr captured.

    Returns (exit code or None if it raised, stdout text, error text)."""
    from hypcert.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as exc:  # an escaping error is a result to report
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue().strip()


def tail_percentile(samples):
    """(percentile, value) for the highest of 99.9/99/95/90/75/50 with at
    least ten samples beyond it, or None when there are too few samples."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p, float(np.percentile(samples, p))
    return None


def latin_hypercube(rng, n, dims):
    """n points in [0,1)^dims, one per stratum of width 1/n in every
    dimension."""
    columns = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        columns.append([(k + rng.random()) / n for k in strata])
    return list(zip(*columns))


@dataclass
class PassResult:
    """One timed pass: its wall time, operations attempted and failed,
    bytes the CLI wrote, and CPU time of child processes (pool workers)."""

    wall_s: float
    ops: int
    failed: int
    bytes_out: int = 0
    pool_cpu_s: float = 0.0


def draw_admissible_b(rng, a, b=None):
    """b for the pair (a, b): the given b, or one drawn from [1, 3], redrawn
    from [1, 3] while the pair is inadmissible (build_tasks skips such
    pairs, and the theorem claims nothing for them)."""
    from hypcert import Case, ParamPair, condition_case, derive_params

    if b is None:
        b = rng.uniform(1.0, 3.0)
    while condition_case(derive_params(ParamPair(a, b))) is Case.INADMISSIBLE:
        b = rng.uniform(1.0, 3.0)
    return b


# ---------------------------------------------------------------------------
# verify --suite


def draw_suite_sample(seed: int) -> dict:
    """A sample of the default shape, one value per stratum:
    9 a-values, one per decile-wide window centred on 0.1 .. 0.9;
    b-specs 1-a plus one value in each third of [1, 3];
    ratios one value in each third of (0.25, 0.7) plus the exact bound."""
    rng = random.Random(f"suite:{seed}")
    return {
        "a_values": [(i + 0.5 + rng.random()) / 10.0 for i in range(9)],
        "b_values": [1.0 + (k + rng.random()) * 2.0 / 3.0 for k in range(3)],
        "ratios": [0.25 + (k + rng.random()) * 0.15 for k in range(3)],
    }


def suite_config_text(sample: dict) -> str:
    def join(values):
        return ", ".join(repr(v) for v in values)

    return (
        "# drawn by perfbench\n"
        f"a_values = {join(sample['a_values'])}\n"
        f"b_values = 1-a, {join(sample['b_values'])}\n"
        f"ratios = {join(sample['ratios'])}, bound\n"
    )


def strip_timestamp(report_text: str) -> str:
    """The report without its ``meta.timestamp`` line (the one field that
    may differ between two runs of the same configuration)."""
    return "".join(
        line for line in report_text.splitlines(keepends=True)
        if not line.startswith('    "timestamp": ')
    )


class SuiteWorkload:
    """``hypcert verify --suite`` on a drawn sample, serial or pooled.

    Gates: every record passes; the report holds one record per task; each
    pass gives the same report; and the serial and pooled reports of the
    same sample are byte-identical once ``meta.timestamp`` is removed.  The
    serial workload makes that last comparison itself: after its timed
    passes it runs one pooled pass, untimed, and compares in memory.  The
    pooled workload leaves it to the serial workload of the same seed.
    """

    op_name = "check records"
    rate_name = "tasks_per_s"

    def __init__(self, seed, out_dir: Path, workers: int, nproc: int):
        from hypcert.verifier import VerifyConfig, build_tasks

        self.workers = workers
        self.nproc = nproc
        self.min_passes = 2 if workers > 1 else 1
        self.sample = draw_suite_sample(seed)
        text = suite_config_text(self.sample)
        self.cfg_path = out_dir / f"suite-seed{seed}.cfg"
        self.cfg_path.write_text(text, encoding="utf-8")
        config = VerifyConfig(a_values=tuple(self.sample["a_values"]),
                              b_specs=("1-a", *self.sample["b_values"]),
                              ratio_specs=(*self.sample["ratios"], "bound"))
        self.n_tasks = len(build_tasks(config))
        self.first_report = None
        self.problems = []
        self.notes = []
        self.failing_ids = {}

    def argv(self, workers):
        return ["verify", "--suite", "--workers", str(workers), "--config", str(self.cfg_path)]

    def run_pass(self) -> PassResult:
        cpu0 = _children_cpu_s()
        t0 = time.perf_counter()
        rc, text, err = _call_cli(self.argv(self.workers))
        wall = time.perf_counter() - t0
        pool_cpu = _children_cpu_s() - cpu0
        failed = self._grade(rc, text, err)
        return PassResult(wall, self.n_tasks, failed, len(text.encode("utf-8")), pool_cpu)

    def _grade(self, rc, text, err) -> int:
        """Failed records of one pass; an aborted run fails every task."""
        if rc not in (0, 1) or not text:
            self.problems.append(f"verify aborted (exit {rc}): {err}")
            return self.n_tasks
        records = json.loads(text)["checks"]
        failed = 0
        for rec in records:
            if not rec["passed"]:
                failed += 1
                self.failing_ids[rec["check_id"]] = self.failing_ids.get(rec["check_id"], 0) + 1
        if len(records) != self.n_tasks:
            self.problems.append(f"report holds {len(records)} records for {self.n_tasks} tasks")
            failed += abs(self.n_tasks - len(records))
        if (rc == 0) != (failed == 0):
            self.problems.append(f"exit code {rc} disagrees with {failed} failed records")
        body = strip_timestamp(text)
        if self.first_report is None:
            self.first_report = body
        elif body != self.first_report:
            self.problems.append("two passes of the same sample gave different reports")
        return min(failed, self.n_tasks)

    def finish(self) -> int:
        """Cross-mode gate; returns the number of extra failed operations."""
        if self.first_report is None or self.workers > 1:
            return 0
        if self.nproc == 1:
            self.notes.append("cross-mode gate skipped: one CPU, so no pooled run")
            return 0
        rc, text, err = _call_cli(self.argv(self.nproc))
        if rc not in (0, 1) or not text:
            self.problems.append(f"cross-mode verify aborted (exit {rc}): {err}")
            return self.n_tasks
        if strip_timestamp(text) != self.first_report:
            self.problems.append("serial and pooled reports of the same sample differ")
            return self.n_tasks
        self.notes.append("cross-mode gate: serial and pooled reports are byte-identical")
        return 0

    def latency_metrics(self):
        return {}

    def setup_code(self) -> str:
        return (
            "import hypcert, hypcert.cli\n"
            "from hypcert.verifier import VerifyConfig, build_tasks\n"
            f"s = {self.sample!r}\n"
            "build_tasks(VerifyConfig(a_values=tuple(s['a_values']), "
            "b_specs=('1-a', *s['b_values']), ratio_specs=(*s['ratios'], 'bound')))\n"
        )


# ---------------------------------------------------------------------------
# sweep


class SweepWorkload:
    """``hypcert sweep`` over drawn admissible tuples on a dense grid.

    Gates: the row count matches the grid; every row echoes its tuple, has
    its abscissa inside (0,1) and increasing, and its G strictly between
    c1 and c2 (compared on the quotient, as check_sandwich does); each pass
    gives the same CSV."""

    op_name = "CSV rows"
    rate_name = "rows_per_s"
    min_passes = 1
    n_tuples = 32
    n_points = 1024

    def __init__(self, seed, out_dir: Path):
        from hypcert import ExponentPair, ParamPair, delta1, derive_params

        rng = random.Random(f"sweep:{seed}")
        self.tuples = []
        # a, d, the ratio and the shift are each stratified over the tuples
        # (a Latin hypercube), so every seed covers the same ranges evenly;
        # every fourth pair is the complementary b = 1-a
        for i, (ua, ud, ur, us) in enumerate(latin_hypercube(rng, self.n_tuples, 4)):
            a = 0.05 + 0.9 * ua
            b = draw_admissible_b(rng, a, 1.0 - a if i % 4 == 0 else None)
            bound = derive_params(ParamPair(a, b)).ratio_bound
            d = 1.0 + 3.0 * ud
            c = (0.25 + ur * (min(0.7, bound) - 0.25)) * d
            d1 = delta1(ParamPair(a, b), ExponentPair(c, d))
            delta = d1 - us * 0.999 * (d1 - (a - 1.0))
            self.tuples.append((a, b, c, d, delta))
        self.cfg_path = out_dir / f"sweep-seed{seed}.cfg"
        self.cfg_path.write_text(f"n_points = {self.n_points}\n", encoding="utf-8")
        self.latencies_ms = []
        self.first_texts = None
        self.problems = []

    def run_pass(self) -> PassResult:
        texts, codes = [], []
        t_pass = time.perf_counter()
        for a, b, c, d, delta in self.tuples:
            argv = ["sweep", "--a", repr(a), "--b", repr(b), "--c", repr(c),
                    "--d", repr(d), "--delta", repr(delta), "--config", str(self.cfg_path)]
            t0 = time.perf_counter()
            rc, text, err = _call_cli(argv)
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            texts.append(text)
            codes.append((rc, err))
        wall = time.perf_counter() - t_pass
        for rc, err in codes:
            if rc != 0:
                self.problems.append(f"sweep exited {rc}: {err}")
        if self.first_texts is None:
            self.first_texts = texts
        elif texts != self.first_texts:
            self.problems.append("two passes over the same tuples gave different CSV")
        # rows are graded once, in finish(): every pass repeats the first
        return PassResult(wall, self.n_points * len(self.tuples), 0, sum(len(t) for t in texts))

    def finish(self) -> int:
        from hypcert import ExponentPair, ParamPair, c1, c2

        bad = 0
        for (a, b, c, d, delta), text in zip(self.tuples, self.first_texts or []):
            lines = text.splitlines()
            if not lines or lines[0] != SWEEP_HEADER or len(lines) != self.n_points + 1:
                self.problems.append(f"sweep {a!r},{b!r}: {len(lines) - 1} rows "
                                     f"for {self.n_points} grid points")
                bad += self.n_points
                continue
            pp, ep = ParamPair(a, b), ExponentPair(c, d)
            lo, hi = c1(pp, ep, delta), c2(pp, delta)
            x_prev = 0.0
            for line in lines[1:]:
                try:
                    f = [float(v) for v in line.split(",")]
                except ValueError:
                    f = []
                ok = (len(f) == 11 and f[:5] == [a, b, c, d, delta]
                      and x_prev < f[5] < 1.0 and lo < f[6] < hi)
                if not ok:
                    bad += 1
                    if bad <= 3:
                        self.problems.append(f"sweep row violates the gate: {line}")
                x_prev = f[5] if len(f) > 5 else x_prev
        # the rows of the first pass repeat unchanged in every later pass
        n_passes = len(self.latencies_ms) // len(self.tuples)
        return bad * max(n_passes, 1)

    def latency_metrics(self):
        out = {"sweep_ms_p50": (float(np.median(self.latencies_ms)), "ms")}
        tail = tail_percentile(self.latencies_ms)
        if tail is not None:
            out["sweep_ms_tail"] = (tail[1], "ms", f"p{tail[0]:g}", len(self.latencies_ms))
        return out

    def setup_code(self) -> str:
        return "import hypcert, hypcert.cli\n"


# ---------------------------------------------------------------------------
# point evaluation


# kinds of point evaluation, a quarter of the calls each.  The mix is a
# coverage set, not a model of any caller's traffic; the workload also
# reports latency per kind, which does not depend on the shares.
EVAL_KINDS = ("family", "general-series", "general-connection", "at-one")
# 1 - x below which hyp2f1 documents no error bound
TAIL_LIMIT = 1e-8


def _switch_point() -> float:
    series = getattr(sys.modules.get("hypcert.hyp2f1"), "DEFAULT_SERIES", None)
    return getattr(series, "switch_point", 0.8)


def draw_family_call(rng, grid):
    """(a, b, c, x) of one hyp2f1 call that G makes in the verifier.

    The pair, exponents and shift follow the shape of the suite's sample:
    b = 1-a for a quarter of the pairs; (c, d) = (ratio bound, 1) for a
    quarter, else c = 3r, d = 3 with r in (0.25, 0.7); delta in
    (a-1, delta1].  x is a point of the verifier's default grid mapped to
    1-x^c (F_c) or 1-x^d (F_d) as G maps it, so the split between the
    series and log regimes is the grid's own.  Points past 1 - TAIL_LIMIT
    are redrawn: hyp2f1's contract stops there."""
    from hypcert import ExponentPair, ParamPair, delta1, derive_params

    a = rng.uniform(0.05, 0.95)
    b = draw_admissible_b(rng, a, 1.0 - a if rng.random() < 0.25 else None)
    pp = ParamPair(a, b)
    bound = derive_params(pp).ratio_bound
    if rng.random() < 0.25:
        ep = ExponentPair(bound, 1.0)
    else:
        ep = ExponentPair(3.0 * rng.uniform(0.25, min(0.7, bound)), 3.0)
    d1 = delta1(pp, ep)
    delta = d1 - rng.random() * (d1 - (a - 1.0))
    shift = delta if rng.random() < 0.5 else 0.0
    exponent = ep.d_exp if shift else ep.c_exp
    while True:
        w = -math.expm1(exponent * math.log1p(float(grid[rng.randrange(len(grid))]) - 1.0))
        if w <= 1.0 - TAIL_LIMIT:
            return a - 1.0 - shift, b + shift, a + b, w


def draw_eval_calls(seed: int, n: int):
    """(kind, a, b, c, x) tuples with fresh parameters on every call.

    family: G's calls on the comparison family (unit excess), see
    draw_family_call; labelled family-series or family-log by the regime
    that switch_point gives.  general-series: general parameters with
    non-integer excess at x <= 0.8.  general-connection: the same with 1-x
    log-uniform in [2e-3, 0.2], reaching the non-integer connection
    formula.  at-one: limits at 1, with x None.  The shares are exact and
    the calls shuffled, so seeds differ only in the parameters."""
    from hypcert.verifier import DEFAULT_GRID, make_grid

    grid = make_grid(DEFAULT_GRID)
    switch = _switch_point()
    rng = random.Random(f"eval:{seed}")
    kinds = list(EVAL_KINDS) * (n // len(EVAL_KINDS) + 1)
    kinds = kinds[:n]
    rng.shuffle(kinds)
    calls = []
    for kind in kinds:
        if kind == "family":
            a, b, c, x = draw_family_call(rng, grid)
            calls.append(("family-series" if x <= switch else "family-log", a, b, c, x))
        elif kind.startswith("general"):
            a, b = rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5)
            e = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.9) + rng.choice((0.0, 1.0))
            x = (1.0 - 0.2 * 10.0 ** -rng.uniform(0.0, 2.0)
                 if kind == "general-connection" else rng.uniform(0.01, 0.8))
            calls.append((kind, a, b, a + b + e, x))
        else:
            a, b = rng.uniform(-0.9, 1.5), rng.uniform(0.05, 2.0)
            calls.append((kind, a, b, a + b + rng.uniform(0.1, 2.0), None))
    return calls


class EvalWorkload:
    """Scalar ``hyp2f1`` / ``hyp2f1_at_one`` calls with fresh parameters.

    Gates: no call raises; every pass returns the same values; on a seeded
    subsample the relative error against mpmath at 30 digits is within the
    evaluator's documented contract (1e-12 up to switch_point, 1e-10
    beyond).  The references are computed after the timed passes.  The
    per-call latencies of the last ``lat_passes`` passes are kept in a
    buffer allocated before timing, so memory does not grow with the
    number of passes."""

    op_name = "point evaluations"
    rate_name = "evals_per_s"
    min_passes = 1
    n_calls = 10_000
    n_reference = 400
    lat_passes = 16

    def __init__(self, seed):
        self.seed = seed
        self.calls = draw_eval_calls(seed, self.n_calls)
        self.args = [(a, b, c, x) for _, a, b, c, x in self.calls]
        self.latencies_ns = array("q", bytes(8 * self.n_calls * self.lat_passes))
        self.n_passes = 0
        self.first_values = None
        self.problems = []

    def run_pass(self) -> PassResult:
        import hypcert

        f, f1 = hypcert.hyp2f1, hypcert.hyp2f1_at_one
        perf = time.perf_counter_ns
        lat = self.latencies_ns
        i = (self.n_passes % self.lat_passes) * len(self.args)
        values = []
        failed = 0
        t_pass = time.perf_counter()
        for a, b, c, x in self.args:
            t0 = perf()
            try:
                v = f1(a, b, c) if x is None else f(a, b, c, x)
            except Exception as exc:  # a raising call is a failed operation
                v = None
                failed += 1
                if len(self.problems) < 3:
                    self.problems.append(f"hyp2f1{(a, b, c, x)!r} raised {exc!r}")
            lat[i] = perf() - t0
            i += 1
            values.append(v)
        wall = time.perf_counter() - t_pass
        self.n_passes += 1
        if self.first_values is None:
            self.first_values = values
        elif values != self.first_values:
            self.problems.append("two passes over the same calls gave different values")
        return PassResult(wall, len(self.args), failed)

    def finish(self) -> int:
        import mpmath

        switch = _switch_point()
        rng = random.Random(f"eval-reference:{self.seed}")
        picks = rng.sample(range(len(self.calls)), self.n_reference)
        bad = 0
        with mpmath.workdps(30):
            for i in picks:
                kind, a, b, c, x = self.calls[i]
                got = self.first_values[i] if self.first_values else None
                if got is None:
                    continue  # already counted as a raising call
                ref = mpmath.hyp2f1(a, b, c, 1 if x is None else x)
                rel = float(abs((mpmath.mpf(got) - ref) / ref))
                tol = 1e-10 if x is not None and x > switch else 1e-12
                if not rel <= tol:
                    bad += 1
                    if bad <= 3:
                        self.problems.append(f"{kind} hyp2f1{(a, b, c, x)!r}: "
                                             f"relative error {rel:.3g} > {tol:g}")
        return bad * max(self.n_passes, 1)

    def latency_metrics(self):
        kept = min(self.n_passes, self.lat_passes)
        lat_us = np.frombuffer(self.latencies_ns, dtype=np.int64)[:kept * len(self.args)]
        lat_us = lat_us.reshape(kept, len(self.args)) / 1e3
        out = {"eval_us_p50": (float(np.median(lat_us)), "us")}
        tail = tail_percentile(lat_us.ravel())
        if tail is not None:
            out["eval_us_tail"] = (tail[1], "us", f"p{tail[0]:g}", lat_us.size)
        kinds = np.array([kind for kind, *_ in self.calls])
        for kind in sorted(set(kinds)):
            per_kind = lat_us[:, kinds == kind]
            out[f"eval_us_p50.{kind}"] = (float(np.median(per_kind)), "us",
                                          "p50", per_kind.size)
        return out

    def setup_code(self) -> str:
        return "import hypcert\n"
