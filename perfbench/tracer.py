"""Outside-in tracer for the hypcert layers.

The tracer wraps the public names of each layer from outside the package:
it rebinds every reference to a traced function held by a loaded
``hypcert.*`` module (``from .special import gamma`` in ``hyp2f1`` and the
``beta as beta_fn`` alias in ``verifier`` included), so no program file is
edited and every call path goes through the wrapper.  Modules are resolved
through ``sys.modules``: the package attribute ``hypcert.hyp2f1`` is the
function, not the module of that name.

Coarse calls (the CLI entry point, suite assembly, each check, report
serialisation) are kept as spans in memory and written out at the end.
High-frequency leaf calls (``hyp2f1``, gamma functions, the closed forms)
are aggregated instead: call count, busy time and self time per name,
with the child time charged to the enclosing frame, so self times stay
exact without storing millions of spans.  ``hyp2f1`` calls are split by
regime, classified from the arguments and the ``switch_point`` in effect
when the call is made.

A name that is no longer there is recorded as missing and its metrics are
left out; tracing the rest goes on.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# check id -> the verifier function that implements it
CHECK_FUNCTIONS = {
    "G_monotone": "check_G_monotone",
    "sandwich": "check_sandwich",
    "crossing": "find_crossing",
    "crossing_control": "check_crossing_control",
    "sharpness": "check_sharpness",
    "f4_roots": "check_f4_roots",
    "lemma_g": "check_lemma_g",
    "lemma_g1": "check_lemma_g1",
    "lemma_Q": "check_lemma_Q",
    "beta_convex": "check_beta_convex",
    "fpp_positive": "check_fpp_positive",
}

REGIMES = ("series", "log", "connection")

# hyp2f1's dispatch tolerance for "integer excess"; read from the module
# when it still defines it
_EXCESS_SNAP = 1e-9


def _targets(parent_only: bool):
    """(layer, module, attribute path, stat name, keep span) per traced name.

    With ``parent_only`` only the names a pooled suite calls in the parent
    process are wrapped; pool workers inherit the parent's module state
    when forked, and wrappers there would cost time and report nothing.
    """
    out = [
        ("cli", "hypcert.cli", "main", "cli.main", True),
        ("verifier", "hypcert.verifier", "run_suite", "verifier.run_suite", True),
        ("verifier", "hypcert.verifier", "build_tasks", "verifier.build_tasks", True),
        ("verifier", "hypcert.verifier", "Report.to_json_text", "verifier.report", True),
    ]
    if parent_only:
        return out
    out += [
        ("verifier", "hypcert.verifier", "sweep_rows", "verifier.sweep_rows", False),
        ("verifier", "hypcert.verifier", "make_grid", "verifier.make_grid", False),
    ]
    for cid, fname in CHECK_FUNCTIONS.items():
        out.append(("verifier.check", "hypcert.verifier", fname,
                    f"verifier.check.{cid}", True))
    out += [
        ("hyp2f1", "hypcert.hyp2f1", "hyp2f1", "hyp2f1", False),
        ("hyp2f1", "hypcert.hyp2f1", "hyp2f1_at_one", "hyp2f1.at_one", False),
        ("special", "hypcert.special", "gamma", "special.gamma", False),
        ("special", "hypcert.special", "ln_gamma", "special.ln_gamma", False),
        ("special", "hypcert.special", "beta", "special.beta", False),
        ("constants", "hypcert.constants", "*", "constants", False),
    ]
    return out


def _constants_functions(mod):
    """Public functions defined in the constants module."""
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(mod, n, None))
        and getattr(mod, n).__module__ == mod.__name__
    ]


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self, parent_only: bool = False):
        self.parent_only = parent_only
        # frame = [child time, layer, id of the nearest kept span]
        self._stack = [[0.0, None, -1]]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.errors = defaultdict(int)
        self.layer_calls = defaultdict(int)
        self.layer_busy = defaultdict(float)
        self.spans = []
        self.missing = []
        self.report_bytes = 0
        self._next_id = 0
        self._pass_id = -1
        self._pass_t0 = 0.0
        self._hashes = array("q")
        self.unique_fracs = []
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for layer, modname, attr, stat, keep in _targets(self.parent_only):
            mod = sys.modules.get(modname)
            if mod is None:
                self.missing.append(modname)
                continue
            if attr == "*":
                for name in _constants_functions(mod):
                    self._patch(mod, name, layer, f"{stat}.{name}", keep)
                continue
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            if holder is None or not callable(getattr(holder, name, None)):
                self.missing.append(f"{modname}.{attr}")
                continue
            self._patch(holder, name, layer, stat, keep)

    def _patch(self, holder, name, layer, stat, keep) -> None:
        orig = getattr(holder, name)
        if inspect.isgeneratorfunction(orig):
            wrapper = self._wrap_generator(orig, layer, stat)
        else:
            post = self._count_report if stat == "verifier.report" else None
            wrapper = self._wrap(orig, layer, stat, keep, post, regime=stat == "hyp2f1")
        if inspect.isclass(holder):
            self._undo.append((holder, name, orig))
            setattr(holder, name, wrapper)
            return
        # rebind every module-level reference to the same function object
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hypcert" or modname.startswith("hypcert.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._undo):
            setattr(holder, name, orig)
        self._undo.clear()

    # -- passes -----------------------------------------------------------

    def begin_pass(self) -> None:
        """Open the root span of one pass; the spans below it share its
        trace id."""
        self._pass_id += 1
        self._hashes = array("q")
        self._stack.append([0.0, "pass", self._next_id])
        self._next_id += 1
        self._pass_t0 = time.perf_counter()

    def end_pass(self) -> None:
        frame = self._stack.pop()
        self.spans.append((frame[2], -1, self._pass_id, "pass", self._pass_t0,
                           time.perf_counter()))
        if len(self._hashes):
            distinct = len(np.unique(np.frombuffer(self._hashes, dtype=np.int64)))
            self.unique_fracs.append(distinct / len(self._hashes))

    # -- wrappers ---------------------------------------------------------

    def _count_report(self, text) -> None:
        if isinstance(text, str):
            self.report_bytes += len(text.encode("utf-8"))

    def _wrap(self, fn, layer, stat, keep, post=None, regime=False):
        """Wrapper charging each call to ``stat``; with ``regime`` the stat
        is ``<stat>.<regime>`` and the argument tuple is hashed for
        unique_frac."""
        stack, stats, spans = self._stack, self.stats, self.spans
        layer_calls, layer_busy, errors = self.layer_calls, self.layer_busy, self.errors
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            key = stat
            if regime:
                key = f"{stat}.{_classify(args, kwargs)}"
                try:
                    tracer._hashes.append(hash(args[:4]))
                except TypeError:
                    pass
            parent = stack[-1]
            if keep:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent[2]
            frame = [0.0, layer, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[key] += 1
                raise
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                parent[0] += dur
                st = stats[key]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if parent[1] != layer:
                    layer_calls[layer] += 1
                    layer_busy[layer] += dur
                if keep:
                    spans.append((sid, parent[2], tracer._pass_id, key, t0, t1))
            if post is not None:
                post(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, layer, stat):
        """Each step of the generator is timed as one call, so the work done
        while the caller iterates is charged to this layer, not the caller."""
        step = self._wrap(next, layer, stat, False)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    value = step(it)
                except StopIteration:
                    return
                yield value

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, pass_id, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "trace": pass_id,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def _classify(args, kwargs) -> str:
    """Regime hyp2f1 will take for these arguments, mirroring its dispatch."""
    try:
        a, b, c, x = (float(v) for v in args[:4])
    except (TypeError, ValueError):
        return "other"
    mod = sys.modules.get("hypcert.hyp2f1")
    cfg = args[4] if len(args) > 4 else kwargs.get("cfg")
    if cfg is None:
        cfg = getattr(mod, "DEFAULT_SERIES", None)
    switch = getattr(cfg, "switch_point", 0.8)
    if b < a:
        a, b = b, a
    if x <= switch or (a <= 0.0 and a == round(a)) or (b <= 0.0 and b == round(b)):
        return "series"
    e = c - a - b
    m = round(e)
    if abs(e - m) <= getattr(mod, "_EXCESS_SNAP", _EXCESS_SNAP):
        return "log" if m == 1 else "series"
    return "connection"
