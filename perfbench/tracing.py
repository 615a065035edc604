"""Spans around the public functions of each thresholdgame layer, recorded from outside.

A traced run replaces each function listed in ``TRACED`` under every name a
caller looks it up by (``solver.build_success_curve``, ``cli.run_experiment``,
``Dataset.numeric`` ...), so no line of the package changes.  Each call made
while an operation is open becomes one span: name, start, end, parent span and
operation id.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import inspect
import json
import os
import sys
import time

#: The root span of every operation; its self time is the benchmark's glue.
OP_SPAN = "op"


def _grid_profiles(a) -> int:
    game = a["game"]
    return len(game.contribution_grid()) ** game.n_players


#: (module, attribute) of every traced function, with the counters its call
#: yields as a function of (bound arguments, result).
TRACED = {
    ("game", "build_success_curve"): None,
    ("preferences", "condition_from_curve"): None,
    ("solver", "equilibrium_table"): None,
    ("solver", "enumerate_symmetric"): None,
    ("solver", "robust_table"): lambda a, r: {"solver.robust_table.utilities": a["samples"]},
    ("solver", "hypothesis_report"): None,
    ("solver", "enumerate_all_profiles"): lambda a, r: {
        "solver.enumerate_all_profiles.profiles": _grid_profiles(a),
        "solver.enumerate_all_profiles.equilibria": len(r)},
    ("simulator", "run_experiment"): lambda a, r: {"simulator.subjects": len(r)},
    ("simulator", "randomize"): None,
    ("simulator", "draw_covariates"): None,
    ("simulator", "gen_belief"): None,
    ("simulator", "gen_contribution"): None,
    ("simulator", "realize_payoffs"): None,
    ("simulator", "records_to_dataset"): None,
    ("data", "Dataset.numeric"): None,
    ("data", "Dataset.strings"): None,
    ("data", "Dataset.read_csv"): lambda a, r: {
        "data.Dataset.read_csv.bytes": os.path.getsize(a["path"])},
    ("data", "Dataset.write_csv"): lambda a, r: {
        "data.Dataset.write_csv.bytes": os.path.getsize(a["path"])},
    ("econometrics", "arm_dummies"): None,
    ("econometrics", "build_design"): lambda a, r: {
        "econometrics.build_design.rows_dropped": r.n_dropped},
    ("econometrics", "ols_hc1"): None,
    ("econometrics", "balance_table"): lambda a, r: {
        "econometrics.balance_table.tests": len(r.p_values)},
    ("econometrics", "ate_report"): None,
    ("econometrics", "polarization"): lambda a, r: {
        "econometrics.polarization.permutations": r.permutations},
    ("cli", "main"): None,
    ("cli", "cmd_simulate"): None,
    ("cli", "cmd_analyze"): None,
}


class Tracer:
    """Span and counter store for one run; patches the package while installed."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        #: [name index, start ns, end ns, parent span index or -1, operation id]
        self.spans: list[list[int]] = []
        self.counts: collections.Counter = collections.Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def _open(self, name_id: int) -> list[int]:
        rec = [name_id, 0, 0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list[int]) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Open the root span of one operation; layer calls outside it are not recorded."""
        self.op = op_id
        rec = self._open(0)
        try:
            yield
        finally:
            self._close(rec)
            self.op = None

    def wrap(self, name: str, fn, counter=None):
        name_id = len(self.names)
        self.names.append(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(counter(bound.arguments, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function under each name callers use; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "thresholdgame" or n.startswith("thresholdgame.")) and m is not None]
        restore = []
        try:
            for (module, attr), counter in TRACED.items():
                mod = sys.modules[f"thresholdgame.{module}"]
                name = f"{module}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self.wrap(name, raw.__func__, counter))
                    else:
                        patched = self.wrap(name, raw, counter)
                    setattr(cls, meth, patched)
                    restore.append((cls, meth, raw))
                    continue
                original = getattr(mod, attr)
                patched = self.wrap(name, original, counter)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, patched)
                            restore.append((m, key, original))
            yield self
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy and self time in ms, summed over all spans.

        Spans nest strictly in one thread, so a span's children cover disjoint
        parts of it and self time is its duration minus theirs.
        """
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict[str, float]] = {}
        for rec, child in zip(self.spans, child_ns):
            s = out.setdefault(self.names[rec[0]], {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
            s["calls"] += 1
            s["busy_ms"] += (rec[2] - rec[1]) / 1e6
            s["self_ms"] += (rec[2] - rec[1] - child) / 1e6
        return out

    def write(self, path) -> None:
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
               "names": self.names, "spans": self.spans, "counters": dict(self.counts)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
