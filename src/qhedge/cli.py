"""Experiment driver: config parsing, dataset generation, solver dispatch.

Configuration is flat ``section.key=value`` text; every key doubles as a
command-line flag (``--market.s0 100``) that overrides the file.  All
outputs are CSV artifacts in the one format of :mod:`qhedge.csvio`, plus a
``summary.txt`` of key=value pairs, so a fixed (config, seed) reproduces
every artifact byte for byte.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import KINDS, build_basis, quantiles
from .black_scholes import bs_price_delta
from .csvio import format_value, read_panels, write_table
from .dp import price_and_hedge_surface, solve_dp
from .errors import ConfigError, DataFormatError, DegenerateInputError, QHedgeError, require_finite
from .fqi import (TransitionDataset, build_dataset, dataset_rewards, fqi_backward,
                  read_dataset_csv, write_dataset_csv)
from .market import MarketParams, OptionContract, PathEnsemble, simulate_gbm
from .portfolio import HedgeStrategy, RiskParams, rollout_portfolio, solve_local_risk
from .tabular import discretize, exact_backward_induction, q_learn
from .utility import indifference_price_recursion

# key -> (type, default); None default means "required when used"
SCHEMA = {
    "market.s0": (float, 100.0),
    "market.mu": (float, 0.05),
    "market.sigma": (float, 0.2),
    "market.r": (float, 0.03),
    "market.maturity": (float, 1.0),
    "market.n_steps": (int, 24),
    "contract.kind": (str, "put"),
    "contract.strike": (float, 100.0),
    "risk.lambda": (float, 0.001),
    "mc.n_paths": (int, 10000),
    "mc.seed": (int, 42),
    "basis.kind": (str, "bspline"),
    "basis.m": (int, 12),
    "basis.degree": (int, 3),
    "basis.bandwidth": (float, 0.0),       # 0 -> automatic
    # both policies: zero | constant | local_risk | dp_optimal | random
    "rollout.policy": (str, "local_risk"),
    "rollout.constant": (float, 0.0),
    "dataset.policy": (str, "dp_optimal"),
    "dataset.random_lo": (float, -1.5),
    "dataset.random_hi": (float, 1.5),
    "dataset.path": (str, ""),
    "tabular.n_x": (int, 21),
    "tabular.n_a": (int, 5),
    "tabular.action_lo": (float, -1.5),
    "tabular.action_hi": (float, 1.5),
    "tabular.n_updates": (int, 100000),
    "tabular.alpha0": (float, 0.5),
    "tabular.k0": (float, 100.0),
    "utility.gamma": (float, 0.01),
    "utility.order": (int, 1),
    "utility.method": (str, "expansion"),
    "ingest.path": (str, ""),
    "output.dir": (str, "."),
}

POLICIES = ("zero", "constant", "local_risk", "dp_optimal", "random")
# keys whose value must be one of a fixed set
CHOICES = {
    "contract.kind": ("put", "call"),
    "basis.kind": KINDS,
    "rollout.policy": POLICIES,
    "dataset.policy": POLICIES,
    "utility.method": ("expansion", "numeric"),
    "utility.order": (0, 1, 2),
}
# numeric keys -> smallest valid value; every float key must also be
# finite, except that an infinite k0 turns the step-size decay off
MINIMUMS = {"mc.n_paths": 1, "mc.seed": 0, "basis.m": 1, "basis.degree": 0,
            "tabular.n_x": 1, "tabular.n_a": 2, "tabular.n_updates": 1,
            "basis.bandwidth": 0.0, "utility.gamma": 0.0}


class ExperimentConfig:
    """Typed flat configuration with a content hash for provenance."""

    def __init__(self, values: dict):
        self.values = dict(values)

    @classmethod
    def load(cls, config_path=None, overrides=None) -> "ExperimentConfig":
        values = {k: default for k, (_, default) in SCHEMA.items()}
        if config_path:
            path = Path(config_path)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            for ln, line in enumerate(path.read_text().splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
                key = _check_key(key.strip())
                values[key] = _parse_value(key, val.strip())
        for key, val in (overrides or {}).items():
            key = _check_key(key)
            values[key] = _parse_value(key, val)
        cfg = cls(values)
        cfg._validate()
        return cfg

    def _validate(self):
        """Reject bad values before any work: choice keys, finite floats,
        numeric bounds, then the market, contract and risk parameters they
        build."""
        v = self.values
        for key, allowed in CHOICES.items():
            if v[key] not in allowed:
                names = ", ".join(map(str, allowed))
                raise ConfigError(f"{key} must be one of {names}; got {v[key]!r}")
        for key, (typ, _) in SCHEMA.items():
            finite = typ is not float or np.isfinite(v[key])
            if not finite and (key, v[key]) != ("tabular.k0", np.inf):
                raise ConfigError(f"{key} must be finite; got {v[key]}")
        for key, low in MINIMUMS.items():
            if v[key] < low:
                raise ConfigError(f"{key} must be >= {low}; got {v[key]}")
        for key in ("tabular.alpha0", "tabular.k0"):
            if v[key] <= 0:
                raise ConfigError(f"{key} must be > 0; got {v[key]}")
        if v["basis.kind"] == "bspline" and v["basis.m"] < v["basis.degree"] + 3:
            raise ConfigError(f"basis.m must be >= basis.degree + 3 with basis.kind "
                              f"bspline; got {v['basis.m']} with degree {v['basis.degree']}")
        if v["utility.method"] == "numeric" and v["utility.gamma"] == 0:
            raise ConfigError("utility.gamma must be > 0 with utility.method numeric; got 0")
        if v["dataset.random_lo"] > v["dataset.random_hi"]:
            raise ConfigError(f"dataset.random_lo must be <= dataset.random_hi; got "
                              f"{v['dataset.random_lo']} > {v['dataset.random_hi']}")
        if v["tabular.action_lo"] >= v["tabular.action_hi"]:
            raise ConfigError(f"tabular.action_lo must be < tabular.action_hi; got "
                              f"{v['tabular.action_lo']} >= {v['tabular.action_hi']}")
        # each ValueError message starts with the offending key's name
        for section, build in (("market", self.market), ("contract", self.contract),
                               ("risk", self.risk)):
            try:
                build()
            except ValueError as exc:
                key = f"{section}.{str(exc).split()[0]}"
                raise ConfigError(f"bad value for {key}: {exc}") from exc

    def __getitem__(self, key):
        return self.values[key]

    def hash(self) -> str:
        """Hash of the experiment-defining keys (the output location is
        excluded so relocated reruns stay byte-identical)."""
        text = "\n".join(f"{k}={self.values[k]}" for k in sorted(self.values)
                         if k != "output.dir")
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def market(self) -> MarketParams:
        v = self.values
        return MarketParams(s0=v["market.s0"], mu=v["market.mu"],
                            sigma=v["market.sigma"], r=v["market.r"],
                            maturity=v["market.maturity"],
                            n_steps=v["market.n_steps"])

    def contract(self) -> OptionContract:
        return OptionContract(kind=self.values["contract.kind"],
                              strike=self.values["contract.strike"])

    def risk(self) -> RiskParams:
        return RiskParams(self.values["risk.lambda"])

    def basis_for(self, paths):
        """The configured basis over the states of an ensemble or dataset."""
        v = self.values
        bw = v["basis.bandwidth"] or None
        if isinstance(paths, TransitionDataset):
            paths = paths.paths
        return build_basis(v["basis.kind"], v["basis.m"], paths,
                           degree=v["basis.degree"], bandwidth=bw)


def _check_key(key: str) -> str:
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    return key


def _parse_value(key: str, raw: str):
    typ = SCHEMA[key][0]
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def write_summary(path, entries: dict):
    text = "".join(f"{k}={format_value(entries[k])}\n" for k in sorted(entries))
    Path(path).write_text(text)
    sys.stdout.write(text)


def _summarize(cfg: ExperimentConfig, out: Path, entries: dict):
    """Write ``out/summary.txt``: ``entries`` plus the config hash and version."""
    write_summary(out / "summary.txt",
                  {"config_hash": cfg.hash(), "version": __version__, **entries})


def _outdir(cfg) -> Path:
    out = Path(cfg["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ensemble(cfg) -> PathEnsemble:
    if cfg["ingest.path"]:
        return ingest_prices(cfg["ingest.path"], cfg.market())
    return simulate_gbm(cfg.market(), cfg["mc.n_paths"], cfg["mc.seed"])


def ingest_prices(csv_path, params: MarketParams = None) -> PathEnsemble:
    """The seedless ensemble of a price panel: a file whose columns start
    ``path``, ``t`` and ``s`` (``simulate``, ``make-dataset``) or ``S``
    (``rollout``), so that states are never read as prices, read by
    ``csvio.read_panels`` and ``PathEnsemble.from_header``.  With
    ``params`` the panel must have ``params.n_steps`` steps, the configured
    market stands in for header items the file lacks, and a header mu,
    sigma, r or maturity must equal the configured one."""
    path = Path(csv_path)
    if not path.exists():
        raise ConfigError(f"price panel not found: {path}")

    def check(meta, names):
        if names[:2] != ["path", "t"] or names[2:3] not in (["s"], ["S"]):
            raise DataFormatError(f"{path}: columns {','.join(names)}; a price panel starts "
                                  "path,t,s (simulate, make-dataset) or path,t,S (rollout)")
        return {names[2]: "price"}

    meta, (ids, panels) = read_panels(path, check)
    meta.pop("seed", None)  # an ingested ensemble has none
    prices = panels["price"]
    if params is None:
        return PathEnsemble.from_header(path, meta, ids, prices)
    if params.n_steps != len(prices) - 1:
        raise ConfigError(f"{path}: the panel has {len(prices) - 1} steps, but "
                          f"market.n_steps is {params.n_steps}")
    keys = ("mu", "sigma", "r", "maturity")
    paths = PathEnsemble.from_header(
        path, {**{k: getattr(params, k) for k in ("s0", *keys)}, **meta}, ids, prices)
    for key in keys:  # a panel recorded under another market would be priced under the wrong one
        if (value := getattr(paths.params, key)) != getattr(params, key):
            raise ConfigError(f"{path}: the panel's header has {key}={value}, but "
                              f"market.{key} is {getattr(params, key)}")
    return paths


def _strategy(cfg, paths, basis, policy) -> HedgeStrategy:
    """The hedge named by ``policy``, one of POLICIES (checked at load)."""
    if policy == "zero":
        return HedgeStrategy.zero()
    if policy == "constant":
        return HedgeStrategy.constant(cfg["rollout.constant"])
    if policy == "local_risk":
        coeffs, _ = solve_local_risk(paths, cfg.contract(), basis)
        return HedgeStrategy.from_coefficients(basis, coeffs)
    if policy == "dp_optimal":
        _require_positive_lambda(cfg, "the dp_optimal policy")
        sol = solve_dp(paths, cfg.contract(), cfg.risk(), basis)
        return HedgeStrategy.from_coefficients(basis, sol.hedge_coeffs)
    # random: uniform actions from a stream distinct from the ensemble's
    rng = np.random.default_rng(cfg["mc.seed"] + 1)
    return HedgeStrategy.from_matrix(
        rng.uniform(cfg["dataset.random_lo"], cfg["dataset.random_hi"],
                    size=(paths.n_paths, paths.n_steps)))


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg):
    paths = _ensemble(cfg)
    out = _outdir(cfg)
    write_table(out / "ensemble.csv", {"path": None, "t": None},
                {"s": paths.s_paths, "x": paths.x_rows}, header=paths.header())
    _summarize(cfg, out, {"n_paths": paths.n_paths, "n_steps": paths.n_steps,
                          "mean_s_final": paths.s(paths.n_steps).mean()})
    return 0


def cmd_rollout(cfg):
    paths = _ensemble(cfg)
    basis = cfg.basis_for(paths)
    strategy = _strategy(cfg, paths, basis, cfg["rollout.policy"])
    roll = rollout_portfolio(paths, strategy, cfg.contract(), cfg.risk())
    out = _outdir(cfg)
    write_table(out / "rollout.csv", {"path": None, "t": None},
                {"S": paths.s_paths, "X": paths.x_rows, "a": roll.actions,
                 "Pi": roll.pi, "B": roll.b_rows, "R": roll.r_rows},
                header={**paths.header(), "policy": cfg["rollout.policy"],
                        "lambda": cfg.risk().lam})
    _summarize(cfg, out, {"mean_pi0": roll.pi[:, 0].mean(),
                          "policy": cfg["rollout.policy"]})
    return 0


def _require_positive_lambda(cfg, what):
    if cfg["risk.lambda"] <= 0:
        raise ConfigError(
            f"{what} requires risk.lambda > 0 (the risk-adjusted optimal "
            f"action is undefined at lambda = 0); got {cfg['risk.lambda']}"
        )


def cmd_dp_solve(cfg):
    _require_positive_lambda(cfg, "dp-solve")
    paths = _ensemble(cfg)
    basis = cfg.basis_for(paths)
    sol = solve_dp(paths, cfg.contract(), cfg.risk(), basis)
    out = _outdir(cfg)

    phis = np.vstack([*sol.hedge_coeffs, np.zeros(basis.m)])  # no position at expiry
    write_table(out / "coefficients.csv", {"t": None, "n": None},
                {"phi": phis, "omega": np.array(sol.value_coeffs)}, header={"m": basis.m})

    # per-state price/hedge surfaces over the central state range
    qs = quantiles(paths.sorted_states(), np.linspace(0.05, 0.95, 41))
    prices, hedges = price_and_hedge_surface(sol, basis, qs)
    write_table(out / "surfaces.csv", {"t": None, "x": qs},
                {"price": prices, "hedge": hedges}, header={"m": basis.m})

    _summarize(cfg, out, {"price0": sol.price0, "hedge0": sol.hedge0})
    return 0


def cmd_make_dataset(cfg):
    paths = _ensemble(cfg)
    basis = cfg.basis_for(paths)
    contract, risk = cfg.contract(), cfg.risk()
    policy = cfg["dataset.policy"]
    # one local-risk pass: the rewards' reference, and that policy's hedge
    record = policy == "local_risk"
    actions = (np.zeros((paths.n_paths, paths.n_steps + 1), order="F") if record
               else _strategy(cfg, paths, basis, policy).actions(paths))
    rewards = dataset_rewards(paths, actions, contract, risk, basis, record_hedge=record)
    dataset = build_dataset(paths, actions, rewards, risk.lam, contract)
    dataset.extras["policy"] = policy
    out = _outdir(cfg)
    write_dataset_csv(dataset, out / "dataset.csv")
    _summarize(cfg, out, {"n_records": len(dataset), "policy": policy})
    return 0


def cmd_fqi_solve(cfg):
    if not Path(cfg["dataset.path"]).is_file():
        raise ConfigError(f"fqi-solve requires dataset.path to name a file; "
                          f"got {cfg['dataset.path']!r}")
    dataset = read_dataset_csv(cfg["dataset.path"])
    if dataset.risk.lam <= 0:  # the header's, as fqi-solve ignores risk.lambda
        raise DataFormatError(f"{cfg['dataset.path']}: bad header value for lambda: "
                              f"fqi-solve requires lambda > 0; got {dataset.risk.lam}")
    basis = cfg.basis_for(dataset)
    sol = fqi_backward(dataset, basis)
    out = _outdir(cfg)
    write_table(out / "weights.csv", {"t": None, "i": None, "j": None},
                {"w": np.array(sol.weights)}, header={"m": basis.m})
    _summarize(cfg, out, {"price0": sol.price0, "hedge0": sol.hedge0,
                          "n_warnings": len(sol.warnings)})
    return 0


def cmd_tabular_q(cfg):
    paths = _ensemble(cfg)
    mdp = discretize(paths, cfg.contract(), cfg.risk(),
                     cfg["tabular.n_x"], cfg["tabular.n_a"],
                     (cfg["tabular.action_lo"], cfg["tabular.action_hi"]))
    exact = exact_backward_induction(mdp)
    learned = q_learn(mdp, cfg["tabular.n_updates"],
                      schedule=(cfg["tabular.alpha0"], cfg["tabular.k0"]),
                      seed=cfg["mc.seed"])
    for name, table in (("exact", exact), ("learned", learned)):
        require_finite(lambda: table.q, f"{name} Q-table")  # no metric on a broken table
    out = _outdir(cfg)
    visits = np.vstack([learned.visits, np.zeros_like(learned.visits[:1])])  # none at T
    write_table(out / "qtable.csv", {"t": None, "state_index": None, "action_index": None},
                {"q": learned.q, "visits": visits},
                header={"n_x": mdp.n_states, "n_a": mdp.n_actions})
    scale = np.abs(exact.q).max()
    sup = np.abs(learned.q - exact.q)[visits > 0].max() / scale if scale > 0 else 0.0
    _summarize(cfg, out, {
        "q0_exact": exact.q[0, mdp.x0_index].max(),
        "q0_learned": learned.q[0, mdp.x0_index].max(),
        "sup_rel_error": sup,
        "n_merged_bins": len(mdp.merged_bins),
    })
    return 0


def cmd_utility_price(cfg):
    paths = _ensemble(cfg)
    basis = cfg.basis_for(paths)
    res = indifference_price_recursion(
        paths, cfg.contract(), cfg["utility.gamma"], basis,
        order=cfg["utility.order"], method=cfg["utility.method"])
    out = _outdir(cfg)
    write_table(out / "utility_hedges.csv", {"t": None, "n": None},
                {"u": np.array(res.hedge_coeffs)},
                header={"gamma": cfg["utility.gamma"], "method": res.method})
    _summarize(cfg, out, {"price0": res.price0, "method": res.method,
                          "order": cfg["utility.order"],
                          "utility_gamma": cfg["utility.gamma"]})
    return 0


def cmd_bs_quote(cfg):
    m, c = cfg.market(), cfg.contract()
    quote = bs_price_delta(m.s0, c.strike, m.sigma, m.r, m.maturity, c.kind)
    _summarize(cfg, _outdir(cfg), {"price": quote.price, "delta": quote.delta})
    return 0


def cmd_compare(cfg):
    _require_positive_lambda(cfg, "compare")
    paths = _ensemble(cfg)
    basis = cfg.basis_for(paths)
    m, c = cfg.market(), cfg.contract()
    quote = bs_price_delta(m.s0, c.strike, m.sigma, m.r, m.maturity, c.kind)
    if quote.price == 0:
        raise DegenerateInputError(f"the Black-Scholes price is 0 at market.sigma="
                                   f"{m.sigma:g}, so price_rel_error is undefined")
    sol = solve_dp(paths, c, cfg.risk(), basis)
    out = _outdir(cfg)
    write_table(out / "comparison.csv", {"quantity": ["price", "hedge"]},
                {"dp": [sol.price0, sol.hedge0], "analytic": [quote.price, quote.delta],
                 "abs_diff": [abs(sol.price0 - quote.price),
                              abs(sol.hedge0 - quote.delta)]})
    _summarize(cfg, out, {
        "dp_price0": sol.price0, "bs_price": quote.price,
        "dp_hedge0": sol.hedge0, "bs_delta": quote.delta,
        "price_rel_error": abs(sol.price0 - quote.price) / abs(quote.price),
        "hedge_abs_error": abs(sol.hedge0 - quote.delta),
    })
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "rollout": cmd_rollout,
    "dp-solve": cmd_dp_solve,
    "fqi-solve": cmd_fqi_solve,
    "make-dataset": cmd_make_dataset,
    "tabular-q": cmd_tabular_q,
    "utility-price": cmd_utility_price,
    "bs-quote": cmd_bs_quote,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhedge",
        description="Discrete-time option pricing and hedging experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        for key in SCHEMA:
            p.add_argument(f"--{key}", dest=key, default=None, metavar="V")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k in SCHEMA and v is not None}
    try:
        cfg = ExperimentConfig.load(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QHedgeError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
