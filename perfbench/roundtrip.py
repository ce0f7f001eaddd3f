"""Check that ``simulate`` and ``rollout`` artifacts parse back exactly to
the arrays the library computes in-process for the same configuration.

Usage::

    python3 perfbench/roundtrip.py OUT.json rollout --key value ... --output.dir DIR

``DIR`` is the rollout's output directory; ``ensemble.csv`` is read from
its sibling ``simulate``.  Writes ``{"exact", "max_abs_diff", "rows"}``.
17 significant digits round-trip every float64, so ``exact`` must hold.
"""

import json
import sys
from pathlib import Path

import numpy as np

from qhedge.cli import ExperimentConfig
from qhedge.market import simulate_gbm
from qhedge.portfolio import HedgeStrategy, rollout_portfolio, solve_local_risk


def read_rows(path):
    """Numeric rows of a CLI CSV (``#`` header lines and the column row skipped)."""
    with open(path) as fh:
        rows = [line for line in fh if not (line[0] == "#" or line[0].isalpha())]
    return np.loadtxt(rows, delimiter=",", ndmin=2)


def main(argv):
    out, args = argv[0], argv[2:]
    cfg = ExperimentConfig.load(None, dict(zip((a[2:] for a in args[::2]), args[1::2])))
    outdir = Path(cfg["output.dir"])

    paths = simulate_gbm(cfg.market(), cfg["mc.n_paths"], cfg["mc.seed"])
    basis = cfg.basis_for(paths)
    coeffs, _ = solve_local_risk(paths, cfg.contract(), basis)
    strategy = HedgeStrategy.from_coefficients(basis, coeffs)
    roll = rollout_portfolio(paths, strategy, cfg.contract(), cfg.risk())

    n, t1 = paths.s_paths.shape
    ids = [np.repeat(np.arange(n), t1), np.tile(np.arange(t1), n)]
    state = [paths.s_paths.ravel(), paths.x_paths.ravel()]
    expected = {
        outdir.parent / "simulate" / "ensemble.csv": np.column_stack(ids + state),
        outdir / "rollout.csv": np.column_stack(
            ids + state + [roll.actions.ravel(), roll.pi.ravel(),
                           roll.b_account.ravel(), roll.rewards.ravel()]),
    }
    exact, worst, rows = True, 0.0, []
    for path, want in expected.items():
        got = read_rows(path)
        rows.append(got.shape[0])
        if got.shape != want.shape:
            exact = False
            continue
        exact = exact and np.array_equal(got, want)
        worst = max(worst, float(np.max(np.abs(got - want))))
    with open(out, "w") as fh:
        json.dump({"exact": exact, "max_abs_diff": worst, "rows": rows}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
