"""What loads when: the scalar evaluator and the eval/constants commands run
without NumPy, the verifier or the array evaluator, and the verifier's
names load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypcert
from hypcert.cli import main

# modules the scalar path must not load
HEAVY = ("numpy", "hypcert.verifier", "hypcert.kernels", "concurrent.futures")

# each step runs in one fresh interpreter, in order; after each, the child
# reports which HEAVY modules are loaded
_STEPS = [
    ("import hypcert", "import hypcert"),
    # dir() lists the verifier's names without loading it
    ("dir", "assert set(hypcert.__all__) <= set(dir(hypcert))"),
    ("hyp2f1", "hypcert.hyp2f1(0.5, 0.5, 1.0, 0.95)"),
    ("hyp2f1_at_one", "hypcert.hyp2f1_at_one(-0.5, 0.5, 1.0)"),
    ("cli eval", "import hypcert.cli; hypcert.cli.main("
                 "['eval', '--a', '0.3', '--b', '0.5', '--c', '1.8', '--x', '0.7'])"),
    ("cli eval --at-one", "hypcert.cli.main("
                          "['eval', '--at-one', '--a', '-0.5', '--b', '0.5', '--c', '1'])"),
    ("cli constants", "hypcert.cli.main("
                      "['constants', '--a', '0.5', '--b', '0.5', '--c', '2', '--d', '3'])"),
]


def _child_env():
    """The child imports the same package as this process."""
    src = str(Path(hypcert.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def _loaded_after(steps):
    """Run the steps' code in order in one fresh interpreter: the HEAVY
    modules loaded after each step, by step name."""
    lines = ["import json, sys", "loaded = {}"]
    for name, code in steps:
        lines.append(code)
        lines.append(f"loaded[{name!r}] = [m for m in {HEAVY!r} if m in sys.modules]")
    lines.append("sys.stderr.write(json.dumps(loaded))")
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr)


def test_scalar_path_loads_no_numpy_verifier_or_kernels():
    assert _loaded_after(_STEPS) == {name: [] for name, _ in _STEPS}
    # the control: a verifier name loads the verifier with NumPy and the
    # kernels; the pool module loads with the first pooled run, not before
    small = ("small = hypcert.VerifyConfig(grid=hypcert.GridSpec(n_points=16), "
             "a_values=(0.3, 0.5), b_specs=(1.0,), ratio_specs=(0.6,), workers={})")
    array_path = ["numpy", "hypcert.verifier", "hypcert.kernels"]
    assert _loaded_after([
        ("import", "import hypcert"),
        ("run_suite", "hypcert.run_suite"),
        ("serial run", small.format(1) + "; hypcert.run_check('beta_convex', small)"),
        ("pooled run", small.format(2) + "; hypcert.run_check('beta_convex', small)"),
    ]) == {"import": [], "run_suite": array_path, "serial run": array_path,
           "pooled run": list(HEAVY)}


def test_verifier_names_are_the_verifier_objects():
    from hypcert import run_suite
    from hypcert import verifier

    assert run_suite is verifier.run_suite
    for name in ("CheckResult", "DEFAULT_CONFIG", "G_value", "GridSpec", "Report",
                 "VerifyConfig", "isolate_roots_f4", "run_check", "run_suite"):
        assert getattr(hypcert, name) is getattr(verifier, name)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        hypcert.not_a_name


def test_dir_covers_all_and_every_name_resolves():
    # dir() before any verifier name is used is checked in a fresh
    # interpreter above; here the verifier may already be loaded
    assert set(hypcert.__all__) <= set(dir(hypcert))
    for name in hypcert.__all__:
        getattr(hypcert, name)
    # the names that were test-only API are gone from the package
    for gone in ("HypParams", "elliptic_Ka", "elliptic_Ea", "gamma_ratio", "agm_elliptic_K"):
        assert gone not in hypcert.__all__ and not hasattr(hypcert, gone)


def test_hyp2f1_name_is_the_function_and_the_module_keeps_its_name():
    module = sys.modules["hypcert.hyp2f1"]
    assert callable(hypcert.hyp2f1) and hypcert.hyp2f1 is module.hyp2f1
    assert module.__name__ == "hypcert.hyp2f1"
    assert hypcert.hyp2f1_at_one is module.hyp2f1_at_one


def test_check_ids_have_one_definition():
    from hypcert import constants, verifier

    assert verifier.CHECK_IDS is constants.CHECK_IDS


def test_verify_bogus_check_lists_every_id(capsys):
    code = main(["verify", "--check", "bogus"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.endswith(
        "hypcert verify: error: argument --check: invalid choice: 'bogus' (choose from "
        "'G_monotone', 'sandwich', 'crossing', 'crossing_control', 'sharpness', "
        "'f4_roots', 'lemma_g', 'lemma_g1', 'lemma_Q', 'beta_convex', 'fpp_positive')\n")
