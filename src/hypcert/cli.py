"""Command-line front end.

Subcommands: eval (point evaluation of the hypergeometric function),
constants (derived parameters and envelope constants for one tuple),
roots (zeros of the case-boundary polynomial), verify (check suite ->
JSON report), sweep (per-abscissa CSV for plotting/re-checking).

Exit codes: 0 success / suite passed, 1 verification or convergence
failure, 2 usage or domain error.  All numeric output uses 17 significant
digits so values round-trip through text exactly.

A config file (line-oriented ``key = value``, ``#`` comments) can preload
grid, tolerance, sample, worker, and output settings for verify/sweep;
explicit flags override file values.  Invalid keys or combinations are
rejected before any computation starts.

``eval`` and ``constants`` run without NumPy: the handlers that need the
verifier (verify, sweep, roots) import it when they run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import cache

from .constants import (
    CHECK_IDS,
    ExponentPair,
    ParamPair,
    c1,
    c2,
    condition_case,
    delta1,
    derive_params,
    f4,
)
from .errors import ConvergenceError, DomainError
from .hyp2f1 import DEFAULT_SERIES, SeriesConfig, hyp2f1, hyp2f1_at_one

_INT_KEYS = ("n_points", "max_terms", "workers")
_FLOAT_KEYS = ("x_lo", "x_hi", "rel_tol", "switch_point", "d_exp")
_STR_KEYS = ("spacing", "threshold_form", "out")
_LIST_KEYS = ("a_values", "b_values", "ratios")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _STR_KEYS + _LIST_KEYS


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_config_file(path: str) -> dict:
    """key = value lines -> typed dict; unknown keys are usage errors."""
    settings: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            if key in _INT_KEYS:
                settings[key] = int(value)
            elif key in _FLOAT_KEYS:
                settings[key] = float(value)
            elif key in _STR_KEYS:
                settings[key] = value
            else:
                items = []
                for tok in value.split(","):
                    tok = tok.strip()
                    if not tok:
                        continue
                    if tok in ("1-a", "bound"):
                        items.append(tok)
                    else:
                        items.append(float(tok))
                settings[key] = tuple(items)
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return settings


def _grid_from(settings: dict):
    """The grid: defaults <- config file."""
    from .verifier import DEFAULT_CONFIG, GridSpec

    return GridSpec(
        n_points=settings.get("n_points", DEFAULT_CONFIG.grid.n_points),
        x_lo=settings.get("x_lo", DEFAULT_CONFIG.grid.x_lo),
        x_hi=settings.get("x_hi", DEFAULT_CONFIG.grid.x_hi),
        spacing=settings.get("spacing", DEFAULT_CONFIG.grid.spacing),
    )


def _series_from(ns, settings: dict) -> SeriesConfig:
    """The series contract: defaults <- config file <- --tol."""
    series = SeriesConfig(
        rel_tol=settings.get("rel_tol", DEFAULT_SERIES.rel_tol),
        max_terms=settings.get("max_terms", DEFAULT_SERIES.max_terms),
        switch_point=settings.get("switch_point", DEFAULT_SERIES.switch_point),
    )
    if ns.tol is not None:
        series = replace(series, rel_tol=ns.tol)
    return series


def _build_verify_config(ns, settings: dict):
    """Merge defaults <- config file <- flags; returns (config, out path)."""
    from .verifier import DEFAULT_CONFIG, VerifyConfig

    config = VerifyConfig(
        grid=_grid_from(settings),
        series=_series_from(ns, settings),
        a_values=settings.get("a_values", DEFAULT_CONFIG.a_values),
        b_specs=settings.get("b_values", DEFAULT_CONFIG.b_specs),
        ratio_specs=settings.get("ratios", DEFAULT_CONFIG.ratio_specs),
        d_exp=settings.get("d_exp", DEFAULT_CONFIG.d_exp),
        threshold_form=settings.get("threshold_form", DEFAULT_CONFIG.threshold_form),
        workers=ns.workers if ns.workers is not None else settings.get("workers"),
    )
    out = ns.out if ns.out is not None else settings.get("out")
    return config, out


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out!r}: {exc}") from exc


def cmd_eval(ns) -> int:
    if ns.at_one:
        if ns.x is not None:
            raise DomainError("--at-one takes no --x (the limit is at 1)")
        value = hyp2f1_at_one(ns.a, ns.b, ns.c)
    else:
        if ns.x is None:
            raise DomainError("eval needs --x (or --at-one)")
        value = hyp2f1(ns.a, ns.b, ns.c, ns.x, _series_from(ns, {}))
    print(_fmt(value))
    return 0


def cmd_constants(ns) -> int:
    pp = ParamPair(ns.a, ns.b)
    ep = ExponentPair(ns.c, ns.d)
    dp = derive_params(pp)
    d1 = delta1(pp, ep)
    print(f"alpha = {_fmt(dp.alpha)}")
    print(f"beta = {_fmt(dp.beta)}")
    print(f"p = {_fmt(dp.p)}")
    print(f"h = {_fmt(dp.h)}")
    print(f"k = {_fmt(dp.k)}")
    print(f"ratio_bound = {_fmt(dp.ratio_bound)}")
    print(f"case = {condition_case(dp).value}")
    print(f"delta1 = {_fmt(d1)}")
    print(f"c1_at_delta1 = {_fmt(c1(pp, ep, d1))}")
    print(f"c2_at_delta1 = {_fmt(c2(pp, d1))}")
    return 0


def cmd_roots(ns) -> int:
    from .verifier import isolate_roots_f4

    a0, a1 = isolate_roots_f4()
    print(f"a0 = {_fmt(a0)}  f4(a0) = {_fmt(f4(a0))}")
    print(f"a1 = {_fmt(a1)}  f4(a1) = {_fmt(f4(a1))}")
    return 0


def cmd_verify(ns) -> int:
    from .verifier import run_check, run_suite

    settings = _parse_config_file(ns.config) if ns.config else {}
    config, out = _build_verify_config(ns, settings)
    # refused before the run; the file is opened only to write the report
    if out is not None and os.path.isdir(out):
        raise DomainError(f"cannot write {out!r}: is a directory")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise DomainError(f"cannot write {out!r}: its directory does not exist")
    if ns.check is not None:
        report = run_check(ns.check, config)
    else:
        report = run_suite(config)
    _write_text(out, report.to_json_text())
    return 0 if report.passed else 1


def cmd_sweep(ns) -> int:
    from .verifier import SWEEP_HEADER, sweep_rows

    settings = _parse_config_file(ns.config) if ns.config else {}
    grid = _grid_from(settings)
    series = _series_from(ns, settings)
    pp = ParamPair(ns.a, ns.b)
    ep = ExponentPair(ns.c, ns.d)
    values = sweep_rows(pp, ep, ns.delta, grid, series)
    # Every line echoes the same tuple: format it once, then the whole body
    # with one %-operation over the values in row order ("%.17g" % v is
    # _fmt(v))
    echo = ",".join(map(_fmt, (pp.a, pp.b, ep.c_exp, ep.d_exp, ns.delta)))
    line = echo + ",%.17g" * values.shape[1] + "\n"
    body = line * len(values) % tuple(values.ravel().tolist())
    out = ns.out if ns.out is not None else settings.get("out")
    _write_text(out, SWEEP_HEADER + "\n" + body)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the process's first call: parse_args keeps no
    state between calls, so later main() calls only parse."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key = value settings file")
    common.add_argument("--workers", type=int, default=None,
                        help="suite parallelism (1 forces sequential)")
    common.add_argument("--tol", type=float, default=None,
                        help="series relative tolerance")
    common.add_argument("--out", default=None, help="output file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="hypcert",
        description="evaluate, inspect, and certify the hypergeometric comparison bounds",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate F(a,b;c;x)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--at-one", action="store_true",
                   help="print the x->1 limit instead of a point value")

    p = sub.add_parser("constants", parents=[common],
                       help="derived parameters and envelope constants")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=float, required=True)

    sub.add_parser("roots", parents=[common],
                   help="zeros of the case-boundary polynomial")

    p = sub.add_parser("verify", parents=[common], help="run the check suite")
    p.add_argument("--suite", action="store_true", help="run all checks (default)")
    p.add_argument("--check", choices=CHECK_IDS, default=None,
                   help="run a single check id across the sample")

    p = sub.add_parser("sweep", parents=[common], help="emit per-abscissa CSV")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    return parser


_FLAG_SCOPE = {
    "config": ("verify", "sweep"),
    "workers": ("verify",),
    "tol": ("eval", "verify", "sweep"),
    "out": ("verify", "sweep"),
}


def _validate_combo(ns) -> None:
    for flag, cmds in _FLAG_SCOPE.items():
        if getattr(ns, flag, None) is not None and ns.cmd not in cmds:
            raise DomainError(f"--{flag} does not apply to {ns.cmd!r}")
    if ns.cmd == "verify" and ns.check is not None and ns.suite:
        raise DomainError("--suite and --check are mutually exclusive")


_HANDLERS = {
    "eval": cmd_eval,
    "constants": cmd_constants,
    "roots": cmd_roots,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _validate_combo(ns)
        return _HANDLERS[ns.cmd](ns)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
