"""Run one ``qhedge`` command in-process with a span around every public
function of the package, and write the aggregated spans and counts as JSON.

Usage::

    python3 perfbench/traced.py OUT.json COMMAND [--key value ...]

A span records its name, start, end and parent.  A span's self time is
its duration minus the durations of its children (calls nest and never
overlap in this single-threaded program).  Counts are recorded at the
same boundaries, after the wrapped call returns, so the counting itself
falls in the parent's self time.  The wrappers live here, not in
``src/``; the program runs unchanged.
"""

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("market", "basis", "regression", "dp", "portfolio", "utility",
          "fqi", "tabular", "cli")
# Methods traced besides the module-level functions: span name -> (module,
# class, method).
METHODS = {
    "basis.evaluate": ("basis", "BasisSet", "evaluate"),
    "regression.solve": ("regression", "NormalEquations", "solve"),
    "portfolio.strategy_actions": ("portfolio", "HedgeStrategy", "actions"),
}
# Module functions left untraced: the CLI's own entry points, and
# ``basis.evaluate``, an alias whose work the BasisSet.evaluate span records.
SKIP = {"cli.main", "cli.build_parser", "basis.evaluate"}


class Recorder:
    """In-memory spans ``[name, start, end, parent index]`` and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.inputs = set()
        self._stack = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if hook is not None:
                hook(self, args, kwargs)
            return result

        return traced

    def aggregate(self):
        """name -> calls, total (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_evaluate(rec, args, kwargs):
    x = np.ascontiguousarray(np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "states"),
                                                      dtype=float)))
    rec.counts["basis.evaluate_rows"] += x.size
    rec.inputs.add(hashlib.blake2b(x.tobytes(), digest_size=16).digest())
    rec.counts["basis.evaluate_distinct"] = len(rec.inputs)


def _count_q_learn(rec, args, kwargs):
    mdp = _arg(args, kwargs, 0, "mdp")
    rec.counts["tabular.q_learn_updates"] += (
        int(_arg(args, kwargs, 1, "n_updates_per_slice")) * mdp.n_steps)


def _count_write_csv(rec, args, kwargs):
    columns = _arg(args, kwargs, 2, "columns")
    rec.counts["cli.write_csv_rows"] += len(columns[0]) if len(columns) else 0
    rec.counts["cli.write_csv_mb"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6


def _count_dataset(rec, args, kwargs):
    rec.counts["fqi.dataset_mb"] += os.path.getsize(_arg(args, kwargs, 1, "path")) / 1e6


HOOKS = {"basis.evaluate": _count_evaluate, "tabular.q_learn": _count_q_learn,
         "cli.write_csv": _count_write_csv,
         "fqi.write_dataset_csv": _count_dataset}


def install(rec):
    """Wrap every public function of each layer and rebind every reference
    the package holds to it (``from .x import f`` copies, ``cli.COMMANDS``)."""
    modules = {layer: importlib.import_module(f"qhedge.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrapped[fn] = rec.wrap(name, fn, HOOKS.get(name))
    for mod in (importlib.import_module("qhedge"), *modules.values()):
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
    commands = modules["cli"].COMMANDS
    for key, fn in commands.items():
        commands[key] = wrapped.get(fn, fn)
    for name, (layer, cls_name, meth) in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        setattr(cls, meth, rec.wrap(name, getattr(cls, meth), HOOKS.get(name)))


def main(argv):
    out, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from qhedge.cli import main as cli_main
    code = cli_main(cli_args)
    with open(out, "w") as fh:
        json.dump({"spans": rec.aggregate(), "counts": dict(rec.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
