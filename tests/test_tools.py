"""tools/compare_reports.py on small synthetic reports, and the names
perfbench/tracer.py wraps."""

import importlib
import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_reports.py"
TRACER = ROOT / "perfbench" / "tracer.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(check_id, delta, margin, witnesses=(), passed=True, status="ok"):
    return {"check_id": check_id, "params": {"a": 0.5, "delta": delta}, "passed": passed,
            "worst_margin": margin, "witnesses": list(witnesses), "tolerance_used": 1e-12,
            "status": status}


def _write(path, records, stamp):
    path.write_text(json.dumps({"meta": {"timestamp": stamp}, "checks": records,
                                "passed": all(r["passed"] for r in records)}), encoding="utf-8")
    return str(path)


def test_compare_reports_counts_moves_and_fails_on_verdicts(tmp_path, capsys):
    tool = _load(TOOL)
    base = [_record("crossing", -0.1, 1e-3, [[0.2, 1e-3], ["crossing_near", 0.31]]),
            _record("crossing", -0.2, 2e-3),
            _record("sandwich", -0.3, 5e-4),
            _record("lemma_Q", -0.3, math.nan)]
    old = _write(tmp_path / "old.json", base, "2026-01-01T00:00:00+00:00")

    # only meta differs, and a NaN margin equals a NaN margin
    same = _write(tmp_path / "same.json", base, "2026-02-02T00:00:00+00:00")
    assert tool.main([old, same]) == 0
    out = capsys.readouterr().out
    assert "passed/status differences: 0" in out and "worst_margin moves: 0 records" in out

    # margins and witnesses move: reported, exit 0
    moved = [dict(r) for r in base]
    moved[0] = _record("crossing", -0.1, 1e-3 + 4e-14, [[0.2, 1e-3], ["crossing_near", 0.32]])
    moved[1] = _record("crossing", -0.2, 2e-3 - 1e-14)
    assert tool.main([old, _write(tmp_path / "moved.json", moved, "x")]) == 0
    out = capsys.readouterr().out
    assert "worst_margin moves: 2 records" in out
    assert "crossing: 2 records, largest |delta| 4e-14" in out
    assert "witness changes: 1 records" in out and "crossing_near" in out

    # a verdict changes: exit 1
    failed = [dict(r) for r in base]
    failed[2] = _record("sandwich", -0.3, -5e-4, [[0.4, -5e-4]], passed=False)
    assert tool.main([old, _write(tmp_path / "failed.json", failed, "x")]) == 1
    assert "passed/status differences: 1" in capsys.readouterr().out

    # a status changes: exit 1
    errored = [dict(r) for r in base]
    errored[1] = _record("crossing", -0.2, 2e-3, status="error: ConvergenceError: x")
    assert tool.main([old, _write(tmp_path / "errored.json", errored, "x")]) == 1
    capsys.readouterr()

    # the record sets differ: exit 1
    fewer = _write(tmp_path / "fewer.json", base[:3] + [_record("lemma_Q", -0.4, 1.0)], "x")
    assert tool.main([old, fewer]) == 1
    out = capsys.readouterr().out
    assert "1 only in old, 1 only in new" in out


def test_every_name_the_tracer_wraps_resolves():
    # a traced name that is renamed or deleted drops its layer from the
    # benchmark's trace ("# absent:"); resolve each the way the tracer does
    tracer = _load(TRACER)
    targets = tracer._targets(False)
    assert len(targets) > 20
    for _, modname, attr, _, _ in targets:
        mod = importlib.import_module(modname)
        if attr == "*":
            names = tracer._constants_functions(mod)
            assert names and all(callable(getattr(mod, n)) for n in names)
            continue
        owner, _, name = attr.rpartition(".")
        holder = getattr(mod, owner) if owner else mod
        assert callable(getattr(holder, name, None)), f"{modname}.{attr}"
