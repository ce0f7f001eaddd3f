"""Randomized invariants of the B-spline design, the inverse normal CDF,
the shared replication recursion, the shared hedge fit, the DP solver, the
least-squares routine, the dataset rewards, the artifact codec, the
grouped Q-learning kernel, the pooled quantiles and the per-step columns
and blocks of rows an ensemble derives.  Examples are drawn by hypothesis, derandomized
so every run draws the same ones."""

import math
import os
import tempfile
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import BSpline
from scipy.special import ndtri

from qhedge import (DiscreteMDP, HedgeStrategy, MarketParams, OptionContract,
                    PathEnsemble, RiskParams, TransitionDataset, build_basis, build_dataset,
                    dataset_rewards, discretize, from_state, q_learn,
                    read_dataset_csv, reward_parabola, rollout_portfolio, simulate_gbm,
                    solve_dp, solve_local_risk, terminal_payoff, to_state,
                    write_dataset_csv)
from qhedge import basis as basis_module
from qhedge import csvio, regression
from qhedge.basis import KINDS, quantiles
from qhedge.cli import POLICIES, ExperimentConfig, _strategy
from qhedge.csvio import format_value, write_table
from qhedge.market import _libm_log, _ndtri
from qhedge.portfolio import _replicate, _reward, hedge_step
from qhedge.tabular import _SnappedPrices, _bucket_means
from tests.test_csvio import read_csv
from tests.test_market import stored_panels

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(["put", "call"])


def market(mu, sigma, r, n_steps, s0=100.0):
    return MarketParams(s0=s0, mu=mu, sigma=sigma, r=r, maturity=1.0, n_steps=n_steps)


markets = st.builds(market, mu=st.floats(-0.05, 0.15), sigma=st.floats(0.05, 0.5),
                    r=st.floats(0.0, 0.1), n_steps=st.integers(1, 8))


def self_financing_gaps(paths, roll):
    """Largest relative breaks of Pi = u S + B and of the rebalancing
    identity u_t S_{t+1} + e^{r dt} B_t = u_{t+1} S_{t+1} + B_{t+1}."""
    u, s, b = roll.actions, paths.s_paths, roll.b_account
    pointwise = np.abs(roll.pi - (u * s + b)) / np.maximum(np.abs(roll.pi), 1.0)
    growth = np.exp(paths.params.r * paths.params.dt)
    lhs = u[:, :-1] * s[:, 1:] + growth * b[:, :-1]
    rhs = u[:, 1:] * s[:, 1:] + b[:, 1:]
    step = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)
    return float(pointwise.max()), float(step.max())


@PROPERTY
@given(params=markets, n_paths=st.integers(1, 40), seed=seeds, kind=kinds,
       strike=st.floats(50.0, 150.0), spread=st.floats(0.0, 3.0))
def test_self_financing_for_random_actions(params, n_paths, seed, kind, strike, spread):
    paths = simulate_gbm(params, n_paths, seed)
    actions = np.random.default_rng(seed).uniform(-spread, spread,
                                                  (n_paths, params.n_steps))
    roll = rollout_portfolio(paths, HedgeStrategy.from_matrix(actions),
                             OptionContract(kind, strike),
                             RiskParams(0.0))
    assert max(self_financing_gaps(paths, roll)) < 1e-10


@PROPERTY
@given(params=markets.filter(lambda p: p.n_steps >= 2), n_paths=st.integers(60, 300),
       seed=seeds, kind=kinds)
def test_local_risk_rollout_is_its_own_replication(params, n_paths, seed, kind):
    """The risk-minimizing solve and a rollout of the hedge it returns run
    the same recursion on the same actions, so their portfolios agree
    bit for bit."""
    paths = simulate_gbm(params, n_paths, seed)
    basis = build_basis("bspline", 7, paths.x_paths.ravel())
    contract = OptionContract(kind, 100.0)
    coeffs, pi = solve_local_risk(paths, contract, basis)
    roll = rollout_portfolio(paths, HedgeStrategy.from_coefficients(basis, coeffs),
                             contract, RiskParams(1e-3))
    assert np.array_equal(roll.pi, pi)


def whole_panel_b_and_r(paths, roll, contract, risk):
    """The bank account and rewards as whole panels, built a step at a time
    with each step's centers taken on its columns: the reference the
    rollout's row functions must equal bit for bit."""
    u, pi, gamma = roll.actions, roll.pi, paths.params.gamma
    b, r = np.empty_like(pi), np.empty_like(pi)
    for t in range(paths.n_steps + 1):
        b[:, t] = pi[:, t] - u[:, t] * paths.s(t)
    for t in range(paths.n_steps):
        ds = paths.delta_s(t)
        r[:, t] = _reward(u[:, t], ds, pi[:, t + 1], risk, gamma,
                          pi_center=pi[:, t + 1].mean(), ds_center=ds.mean())
    payoff = terminal_payoff(paths.s(paths.n_steps), contract)
    r[:, -1] = -risk.lam * (payoff - payoff.mean()) ** 2
    return b, r


@PROPERTY
@given(params=markets, n_paths=st.integers(100, 300), seed=seeds, kind=kinds,
       lam=st.floats(1e-4, 1.0), policy=st.sampled_from(POLICIES), data=st.data())
def test_row_functions_are_the_whole_panels(params, n_paths, seed, kind, lam, policy, data):
    """For every rollout policy, the bank account and the rewards derived
    over any slice of rows, and the whole panels built from them, are
    those rows of the panels built a step at a time, bit for bit."""
    paths = simulate_gbm(params, n_paths, seed)
    cfg = ExperimentConfig.load(None, {"contract.kind": kind, "risk.lambda": repr(lam),
                                       "rollout.constant": "0.7", "basis.m": "8",
                                       "mc.seed": str(seed)})
    strategy = _strategy(cfg, paths, cfg.basis_for(paths), policy)
    roll = rollout_portfolio(paths, strategy, cfg.contract(), cfg.risk())
    b, r = whole_panel_b_and_r(paths, roll, cfg.contract(), cfg.risk())
    rows = data.draw(st.slices(n_paths))
    assert roll.b_rows(rows).tobytes() == b[rows].tobytes()
    assert roll.r_rows(rows).tobytes() == r[rows].tobytes()
    assert roll.b_account.tobytes() == b.tobytes()
    assert roll.rewards.tobytes() == r.tobytes()


def scaled_dp(c, mu, sigma, r, n_steps, lam, kind, moneyness, seed):
    """solve_dp at (s0, K, lam) = (100 c, 100 c moneyness, lam / c)."""
    params = market(mu, sigma, r, n_steps, s0=100.0 * c)
    paths = simulate_gbm(params, 400, seed)
    basis = build_basis("bspline", 8, paths.x_paths.ravel())
    return solve_dp(paths, OptionContract(kind, 100.0 * c * moneyness),
                    RiskParams(lam / c), basis)


@PROPERTY
@given(c=st.floats(0.1, 10.0), mu=st.floats(-0.05, 0.15), sigma=st.floats(0.1, 0.4),
       r=st.floats(0.0, 0.1), n_steps=st.integers(3, 6), lam=st.floats(1e-4, 1e-1),
       kind=kinds, moneyness=st.floats(0.8, 1.2), seed=seeds)
def test_dp_homogeneous_of_degree_one(c, mu, sigma, r, n_steps, lam, kind, moneyness,
                                      seed):
    """Scaling prices and strike by c and risk aversion by 1/c scales the
    price by c and leaves the hedge unchanged (rounding of the scaled
    ensemble aside)."""
    base = scaled_dp(1.0, mu, sigma, r, n_steps, lam, kind, moneyness, seed)
    scaled = scaled_dp(c, mu, sigma, r, n_steps, lam, kind, moneyness, seed)
    assert abs(scaled.price0 - c * base.price0) <= 1e-10 * abs(c * base.price0)
    assert abs(scaled.hedge0 - base.hedge0) <= 1e-10


@PROPERTY
@given(r=st.floats(0.0, 0.1), sigma=st.floats(0.05, 0.5), n_steps=st.integers(1, 8),
       n_paths=st.integers(60, 300), seed=seeds, kind=kinds,
       strike=st.floats(50.0, 150.0), lam=st.floats(1e-6, 1e3),
       basis_kind=st.sampled_from(KINDS))
def test_dp_hedge_is_local_risk_hedge_when_mu_equals_r(r, sigma, n_steps, n_paths, seed,
                                                       kind, strike, lam, basis_kind):
    """At mu = r the model drift S_t (e^{mu dt} - e^{r dt}) is exactly zero,
    so the optimal action is the shared hedge fit with a zero tilt: solve_dp's
    hedge coefficients equal solve_local_risk's bit for bit, for any lam."""
    params = market(r, sigma, r, n_steps)
    paths = simulate_gbm(params, n_paths, seed)
    basis = build_basis(basis_kind, 7, paths.x_paths.ravel())
    contract = OptionContract(kind, strike)
    sol = solve_dp(paths, contract, RiskParams(lam), basis)
    coeffs, _ = solve_local_risk(paths, contract, basis)
    for dp_c, lr_c in zip(sol.hedge_coeffs, coeffs, strict=True):
        assert np.array_equal(dp_c, lr_c)


@PROPERTY
@given(r=st.floats(0.0, 0.1), sigma=st.floats(0.05, 0.5), n_steps=st.integers(1, 8),
       n_paths=st.integers(60, 300), seed=seeds, kind=kinds,
       strike=st.floats(50.0, 150.0), lam=st.floats(1e-6, 1e3),
       step=st.floats(1e-6, 1e6), basis_kind=st.sampled_from(["bspline", "one_hot_grid"]))
def test_dp_price_does_not_decrease_in_lambda_when_mu_equals_r(
        r, sigma, n_steps, n_paths, seed, kind, strike, lam, step, basis_kind):
    """At mu = r the hedge does not depend on lam, so price0 is affine in
    lam with slope the sum of discounted fitted variances, which average to
    non-negative values on bases that span the constants.  Rounding of the
    intercept outweighs the slope term below a relative lam step of about
    1e-9, so the step starts at 1e-6."""
    params = market(r, sigma, r, n_steps)
    paths = simulate_gbm(params, n_paths, seed)
    basis = build_basis(basis_kind, 7, paths.x_paths.ravel())
    contract = OptionContract(kind, strike)
    lo, hi = (solve_dp(paths, contract, RiskParams(x), basis).price0
              for x in (lam, lam * (1.0 + step)))
    assert hi >= lo


def solved_system(design, target, scale):
    """``least_squares``'s coefficients and the NormalEquations it solved."""
    systems, solve = [], regression.NormalEquations.solve

    def record(system):
        systems.append(system)
        return solve(system)

    with mock.patch.object(regression.NormalEquations, "solve", record):
        coeffs = regression.least_squares(design, target, scale)
    return coeffs, systems[0]


@PROPERTY
@given(n=st.integers(1, 300), m=st.integers(1, 12), seed=seeds,
       zero_share=st.floats(0.0, 1.0), repeat_column=st.booleans())
def test_least_squares_solves_the_ridge_normal_equations(n, m, seed, zero_share,
                                                         repeat_column):
    """The Gram of the scaled rows is Phi^T diag(scale^2) Phi, the solution
    satisfies the ridge normal equations, and the sign of the scale does not
    change a bit.  Zero scales and a repeated column make the Gram singular
    but for the ridge."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, m))
    if repeat_column:
        design[:, -1] = design[:, 0]
    target = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    scale = np.where(rng.random(n) < zero_share, 0.0, rng.standard_normal(n))
    coeffs, system = solved_system(design, target, scale)
    gram = (design * scale[:, None] ** 2).T @ design
    assert np.abs(system.gram - gram).max() <= 1e-12 * np.abs(gram).max()
    lhs = (gram + system.ridge_epsilon * np.eye(m)) @ coeffs
    rhs = design.T @ target
    size = np.abs(gram).max() * np.abs(coeffs).max() + np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-11 * size
    assert regression.least_squares(design, target, -scale).tobytes() == coeffs.tobytes()


def unblocked_least_squares(design, target, scale=None):
    """The ridge solve with each sum taken over all rows at once: the
    reference whose fit the row-blocked sums must reproduce."""
    rows = design if scale is None else design * scale[:, None]
    gram = rows.T @ rows
    eps = regression.RIDGE_SCALE * float(np.trace(gram)) / gram.shape[0]
    return np.linalg.solve(gram + (eps if eps > 0 else 1e-12) * np.eye(len(gram)),
                           np.einsum("ij,i->j", design, target))


ROWS = regression._ROWS
block_sizes = st.sampled_from([ROWS - 1, ROWS, ROWS + 1, 2 * ROWS, 2 * ROWS + 17])


@PROPERTY
@given(n=st.integers(1, 300) | block_sizes, m=st.integers(1, 12), seed=seeds,
       zero_share=st.sampled_from([0.0, 0.5, 0.999]) | st.floats(0.0, 1.0),
       scaled=st.booleans(), repeat_column=st.booleans())
@example(n=ROWS + 1, m=12, seed=1, zero_share=0.0, scaled=True, repeat_column=False)
@example(n=2 * ROWS + 17, m=12, seed=2, zero_share=0.5, scaled=True, repeat_column=True)
@example(n=2 * ROWS, m=3, seed=3, zero_share=1.0, scaled=False, repeat_column=False)
def test_blocked_least_squares_fits_the_unblocked_sums(n, m, seed, zero_share, scaled,
                                                       repeat_column):
    """Summing the Gram and Phi^T y over row blocks only reorders the sums:
    the fitted values Phi c equal the one-pass solve's within 1e-9 of their
    largest (the coefficients themselves are not identified on singular
    designs), below, at and above the block size, with all-zero rows and
    scaled rows; and rows handed over a block at a time by a function give
    the same bits as the array."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, m))
    design[rng.random(n) < zero_share] = 0.0
    if repeat_column:
        design[:, -1] = design[:, 0]
    target = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    scale = rng.standard_normal(n) if scaled else None
    coeffs = regression.least_squares(design, target, scale)
    fit, want = design @ coeffs, design @ unblocked_least_squares(design, target, scale)
    assert np.abs(fit - want).max() <= 1e-9 * np.abs(want).max()
    by_block = regression.least_squares(lambda s: design[s], target, scale)
    assert by_block.tobytes() == coeffs.tobytes()


def two_pass_rewards(paths, actions, contract, risk, basis):
    """The rewards as two passes built them: the local-risk solve keeps its
    portfolio panel, then each step's design is evaluated and centered
    again around that panel's column, and the expiry column is 0.  The
    reference the one-pass build must equal bit for bit."""
    pi_reference = solve_local_risk(paths, contract, basis)[1]
    rewards = np.zeros((paths.n_steps + 1, paths.n_paths))
    for t in range(paths.n_steps):
        design = basis.evaluate(paths.x_paths[:, t])
        pi_next = pi_reference[:, t + 1]
        ds = paths.delta_s(t)
        (ds_c, pi_c, gain), _ = hedge_step(design, paths, t, pi_next, ds, paths.s(t))
        rewards[t] = _reward(actions[:, t], ds, pi_next, risk, paths.params.gamma,
                             pi_center=pi_c, ds_center=ds_c, gain=gain)
    return rewards.T


@PROPERTY
@given(params=markets, n_paths=st.integers(60, 300), seed=seeds, kind=kinds,
       strike=st.floats(50.0, 150.0), lam=st.floats(1e-6, 1e2),
       spread=st.floats(0.0, 3.0), basis_kind=st.sampled_from(KINDS))
def test_one_pass_rewards_are_the_two_pass_build(params, n_paths, seed, kind, strike, lam,
                                                 spread, basis_kind):
    """dataset_rewards builds the rewards inside the local-risk pass, bit
    for bit as the two-pass build does, for recorded actions and for the
    local_risk policy, whose actions the pass records as it goes into the
    (n, n_steps+1) panel make-dataset hands it: those equal the solve's
    hedge rolled out, expiry column included."""
    paths = simulate_gbm(params, n_paths, seed)
    basis = build_basis(basis_kind, 7, paths.x_paths.ravel())
    contract, risk = OptionContract(kind, strike), RiskParams(lam)
    actions = np.random.default_rng(seed).uniform(-spread, spread,
                                                  (n_paths, params.n_steps))
    assert dataset_rewards(paths, actions, contract, risk, basis).tobytes() == \
        two_pass_rewards(paths, actions, contract, risk, basis).tobytes()
    coeffs, _ = solve_local_risk(paths, contract, basis)
    hedge = HedgeStrategy.from_coefficients(basis, coeffs).actions(paths)
    recorded = np.zeros_like(hedge)
    rewards = dataset_rewards(paths, recorded, contract, risk, basis, record_hedge=True)
    assert recorded.tobytes() == hedge.tobytes()
    want = two_pass_rewards(paths, hedge, contract, risk, basis)
    assert rewards.tobytes() == want.tobytes()


def one_pass_design(basis, x):
    """Every state's design row in one pass: scipy's B-spline design
    matrix, and the indicator and Gaussian rows of the whole array."""
    if basis.kind == "bspline":
        t, k = basis.knots, basis.degree
        lo, hi = t[k], t[-k - 1]
        return BSpline.design_matrix(np.clip(x, lo, np.nextafter(hi, lo)), t, k).toarray()
    if basis.kind == "one_hot_grid":
        out = np.zeros((x.size, basis.m))
        out[np.arange(x.size), basis.bucket_of(x)] = 1.0
        return out
    return np.exp(-0.5 * ((x[:, None] - basis.centers[None, :]) / basis.bandwidth) ** 2)


@PROPERTY
@given(params=markets, seed=seeds, kind=st.sampled_from(KINDS), m=st.integers(6, 16),
       n=st.integers(0, 50) | st.sampled_from([basis_module._ROWS - 1, basis_module._ROWS,
                                               basis_module._ROWS + 1,
                                               2 * basis_module._ROWS + 17]))
def test_design_blocks_are_one_pass(params, seed, kind, m, n):
    """BasisSet.evaluate fills its design a block of rows at a time, and
    every row depends on its state alone: the design equals the one of
    all states at once bit for bit, below, at and above the block size,
    inside the range and beyond it."""
    samples = simulate_gbm(params, 100, seed).x_paths.ravel()
    basis = build_basis(kind, m, samples)
    x = np.random.default_rng(seed).uniform(samples.min() - 1.0, samples.max() + 1.0, n)
    assert basis.evaluate(x).tobytes() == one_pass_design(basis, x).tobytes()


@PROPERTY
@given(params=markets, seed=seeds, degree=st.integers(0, 5), data=st.data())
def test_bspline_design_is_scipys_design_matrix(params, seed, degree, data):
    """BasisSet.evaluate's numpy Cox-de Boor recurrence equals scipy's
    B-spline design matrix bit for bit, at every knot, inside the range
    and far outside it.  m starts at degree + 3: at degree + 2 a single
    quantile breakpoint is left, which build_basis rejects."""
    m = data.draw(st.integers(degree + 3, 40))
    basis = build_basis("bspline", m, simulate_gbm(params, 100, seed).x_paths.ravel(),
                        degree=degree)
    t = basis.knots
    inside = data.draw(hnp.arrays(float, st.integers(0, 50),
                                  elements=st.floats(t[0] - 1.0, t[-1] + 1.0)))
    x = np.concatenate([inside, t, [-1e9, 1e9]])
    lo, hi = t[degree], t[-degree - 1]
    expected = BSpline.design_matrix(np.clip(x, lo, np.nextafter(hi, lo)), t, degree)
    assert np.array_equal(basis.evaluate(x), expected.toarray())


# Cephes ndtri's branch cuts: e^-2 and 1 - e^-2 bound the centre, e^-32
# and 1 - e^-32 are where x = sqrt(-2 log y) reaches 8
NDTRI_CUTS = np.array([0.13533528323661269189, 1.0 - 0.13533528323661269189,
                       np.exp(-32.0), 1.0 - np.exp(-32.0)])


@PROPERTY
@given(seed=seeds, n=st.integers(0, 5000),
       lower=st.lists(st.floats(-300.0, -3.0), max_size=50),
       upper=st.lists(st.floats(-16.0, -3.0), max_size=50),
       ulps=st.lists(st.integers(-50, 50), max_size=25))
def test_ndtri_is_scipys_ndtri(seed, n, lower, upper, ulps):
    """market._ndtri equals scipy.special.ndtri bit for bit: on PCG64
    uniforms, on both tails out to the clip's endpoints 1e-300 and
    nextafter(1, 0), and on ulp neighbours of every branch cut.  Values are
    clipped as simulate_gbm clips them."""
    cuts = NDTRI_CUTS.view(np.int64)[:, None] + np.array(ulps, dtype=np.int64)
    y = np.concatenate([np.random.default_rng(seed).random(n),
                        10.0 ** np.array(lower), 1.0 - 10.0 ** np.array(upper),
                        cuts.view(float).ravel(), NDTRI_CUTS, [0.0, 1.0]])
    y = np.clip(y, 1e-300, np.nextafter(1.0, 0.0))
    assert np.array_equal(_ndtri(y), ndtri(y))


@PROPERTY
@given(seed=seeds,
       n=st.sampled_from([0, 1]) | st.integers(0, 1500).map(lambda k: 2 * k + 1),
       stride=st.sampled_from([1, 2, 3, -1, -2]),
       extremes=st.lists(st.floats(5e-324, 1.7976931348623157e308), max_size=50))
def test_libm_log_is_math_log(seed, n, stride, extremes):
    """market._libm_log equals math.log, the C library's log that Cephes
    calls, bit for bit, where numpy's SIMD log can be an ulp off it: on
    ndtri's tail inputs y < e^-2 and their x = sqrt(-2 log y) <= 38.6, and
    on positive doubles from the smallest subnormal to the largest finite;
    at sizes 0, 1 and odd, read contiguously or with a stride."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([extremes, rng.random(n) * np.exp(-2.0),
                           rng.uniform(2.0, 38.6, n)])
    buf = np.ones(n * abs(stride))
    v = buf[::stride]
    v[...] = rng.permutation(pool)[:n]
    expected = np.array([math.log(x) for x in v])
    assert np.ascontiguousarray(_libm_log(v)).tobytes() == expected.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
# signed zeros, the smallest subnormal and normal, and the largest finite
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
names = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
words = st.from_regex(r"[A-Za-z][A-Za-z0-9_.]{0,8}", fullmatch=True)


def round_trip(write, read, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.csv"
        write(*args, path)
        return read(path)


@PROPERTY
@given(data=st.data(), n_float=st.integers(1, 4),
       header=st.dictionaries(names, st.one_of(finite, st.integers(), words),
                              max_size=6))
def test_csv_round_trip_is_lossless(data, n_float, header):
    """Every finite float64 (and every integer up to 2^53) reads back
    exactly, sign of zero included; header values read back as written."""
    n_rows = data.draw(st.integers(0, 30))
    floats = np.vstack([np.tile(np.array(EDGE_FLOATS)[:, None], n_float),
                        data.draw(hnp.arrays(np.float64, (n_rows, n_float),
                                             elements=finite))])
    ints = data.draw(hnp.arrays(np.int64, len(floats),
                                elements=st.integers(-2**53, 2**53)))
    colnames = ["k"] + [f"v{j}" for j in range(n_float)]
    meta, cols, back = round_trip(
        lambda path: write_table(path, {"k": ints},
                                 dict(zip(colnames[1:], floats.T)), header=header),
        read_csv)
    assert cols == colnames
    assert meta == {k: format_value(v) for k, v in header.items()}
    assert np.array_equal(back[:, 0], ints)
    assert np.array_equal(back[:, 1:], floats)
    assert np.array_equal(np.signbit(back[:, 1:]), np.signbit(floats))


def template_records(axes, values):
    """The records as one ``%.17g`` / ``%d`` / ``%s`` row template formats
    them from an object array, one record per element in C order: the
    reference the writer's numpy formatting must match byte for byte."""
    arrays = [np.asarray(v) for v in values.values()]
    labels = [None if lab is None else np.asarray(lab) for lab in axes.values()]
    kinds = ["i" if lab is None else lab.dtype.kind for lab in labels]
    template = ",".join({"f": "%.17g", "i": "%d", "u": "%d"}.get(k, "%s")
                        for k in kinds + [a.dtype.kind for a in arrays]) + "\n"
    index = np.unravel_index(np.arange(arrays[0].size), arrays[0].shape)
    cols = [i if lab is None else lab[i] for lab, i in zip(labels, index)]
    rows = np.empty((index[0].size, len(cols) + len(arrays)), dtype=object)
    for j, c in enumerate(cols + [a[index] for a in arrays]):
        rows[:, j] = c
    return (template * len(rows) % tuple(rows.ravel())).encode()


def assert_template_bytes(axes, values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_table(path, axes, values)
        names, records = path.read_bytes().split(b"\n", 1)
    assert names == ",".join([*axes, *values]).encode()
    assert records == template_records(axes, values)


# 40 doubles either side of each decade 1e-5..1e17, among them 1e-4 and
# 1e16, where numpy's formatting hands over to Python's; and integers about
# the 1e17 hand-over and at the int64 extremes
NEIGHBOURS = np.concatenate([(np.array(float(f"1e{k}")).view(np.int64)
                             + np.arange(-40, 41)).view(np.float64) for k in range(-5, 18)])
INT_EDGES = [0, 1, 9, 10, 9999, 10000, 10**16, 10**17 - 1, 10**17, 2**53, 2**63 - 1,
             -1, -10**17, -2**63]


@PROPERTY
@given(data=st.data(), n_labels=st.integers(1, 6), n_steps=st.integers(1, 6))
def test_table_bytes_are_the_template_bytes(data, n_labels, n_steps):
    """write_table writes the bytes of the ``%``-template reference for any
    float (nan, infinities, subnormals, signed zeros), int64, uint64 beyond
    2^63 and string label."""
    shape = (n_labels, n_steps)
    edge = st.sampled_from(EDGE_FLOATS + [math.nan, math.inf, -math.inf, 1e-4, 1e16])
    assert_template_bytes(
        {"label": data.draw(hnp.arrays(np.str_, n_labels, elements=words)), "t": None},
        {"v": data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(st.floats(), edge))),
         "w": data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e17, 1e17))),
         "i": data.draw(hnp.arrays(np.int64, shape)),
         "u": data.draw(hnp.arrays(np.uint64, shape, elements=st.integers(2**63 - 9, 2**64 - 1)))})


def test_table_bytes_at_decades_ties_and_integer_edges():
    """Hard cases write the template's bytes: each decade's neighbours,
    exact ties at the 17th digit (15 or 14 integer digits and 3 or 4
    binary-exact decimals ending in 5, the 17th digit odd and even), and
    the integer edges, as int64 and as uint64 beyond 2^63."""
    rng = np.random.default_rng(0)
    ties = np.concatenate([rng.integers(10**14, 10**15, 500) + rng.integers(0, 4, 500) / 4
                           + 0.125,
                           rng.integers(10**13, 10**14, 500) + rng.integers(0, 8, 500) / 8
                           + 0.0625])
    floats = np.concatenate([NEIGHBOURS, ties, [123456789012345.625]])
    assert_template_bytes({"n": None}, {"x": np.concatenate([floats, -floats])})
    assert_template_bytes({"n": None}, {"k": np.array(INT_EDGES, np.int64)})
    assert_template_bytes({"n": np.array(["price", "hedge"])},
                          {"k": np.array([2**64 - 1, 2**63], np.uint64)})


BENCH_ROWS = 25  # records in a row of a 24-step panel


@PROPERTY
@given(seed=seeds, n_paths=st.integers(1, 60), n_cols=st.integers(1, 9),
       block=st.integers(1, 80), n_cpus=st.sampled_from([1, 2]),
       split_records=st.sampled_from([1, 7]))
@example(seed=1, n_paths=1, n_cols=BENCH_ROWS, block=1 << 15, n_cpus=1, split_records=1)
@example(seed=2, n_paths=1, n_cols=3, block=2, n_cpus=2, split_records=1)
# above _SPLIT_RECORDS records, in a path count that is no multiple of a block's
# 262 paths: one process, then two (the table holds twice _SPLIT_RECORDS)
@example(seed=3, n_paths=1400, n_cols=BENCH_ROWS, block=1 << 15, n_cpus=1,
         split_records=1 << 15)
@example(seed=4, n_paths=2700, n_cols=BENCH_ROWS, block=1 << 15, n_cpus=2,
         split_records=1 << 15)
def test_row_functions_write_the_arrays_bytes(seed, n_paths, n_cols, block, n_cpus,
                                              split_records):
    """write_table writes the same bytes from an array as from a function of
    a slice of its rows, with an array beside it or with every axis
    labelled, on one process or two; the function is asked for whole rows,
    at most a block's values' worth (at least one row) at a time, each row
    once, in order."""
    rng = np.random.default_rng(seed)
    shape = (n_paths, n_cols)
    values = {"x": np.asfortranarray(rng.standard_normal(shape)),
              "k": rng.integers(-10**6, 10**6, shape),
              "tiny": rng.standard_normal(shape) * 1e-310}  # subnormals: Python's format
    asked = []

    def rows_of(v):
        def rows(r):
            asked.append(r)
            return v[r]
        return rows
    index = {"path": None, "t": None}
    labels = {"path": 3 * np.arange(n_paths) + 1, "t": np.arange(n_cols)}
    tables = {"arrays": (index, values),
              "mixed": (index, {"x": values["x"], "k": rows_of(values["k"]),
                                "tiny": rows_of(values["tiny"])}),
              "labelled_arrays": (labels, values),
              "functions": (labels, {name: rows_of(v) for name, v in values.items()})}
    written = {}
    with (tempfile.TemporaryDirectory() as tmp,
          mock.patch.object(csvio, "_WRITE_VALUES", block),
          mock.patch.object(csvio, "_SPLIT_RECORDS", split_records),
          mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))):
        for name, (axes, table) in tables.items():
            asked.clear()
            write_table(Path(tmp) / f"{name}.csv", axes, table)
            written[name] = (Path(tmp) / f"{name}.csv").read_bytes()
            if name == "functions" and n_cpus == 1:  # a worker's requests are its own
                per_block = max(1, block // 5 // n_cols)  # 5 columns: path, t, x, k, tiny
                starts = [r.start for r in asked[::3]]
                assert starts == list(range(0, n_paths, per_block))
                assert all(r.stop == min(r.start + per_block, n_paths) for r in asked)
    assert written["mixed"] == written["arrays"]
    assert written["functions"] == written["labelled_arrays"]


@PROPERTY
@given(seed=seeds, n_paths=st.integers(1, 40), n_cols=st.integers(1, 9),
       n_cpus=st.sampled_from([1, 2]))
def test_write_block_size_changes_no_byte(seed, n_paths, n_cols, n_cpus):
    """write_table writes the same bytes in blocks of one value (so one row
    at a time), of 7 values and of its own size, from arrays and from row
    functions alike, on one process or two."""
    rng = np.random.default_rng(seed)
    shape = (n_paths, n_cols)
    values = {"x": rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape),
              "k": rng.integers(-10**6, 10**6, shape)}
    tables = [values, {name: v.__getitem__ for name, v in values.items()}]
    labels = {"path": np.arange(n_paths), "t": np.arange(n_cols)}
    written = set()
    with (tempfile.TemporaryDirectory() as tmp,
          mock.patch.object(csvio, "_SPLIT_RECORDS", 1),
          mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))):
        for block in (1, 7, csvio._WRITE_VALUES):
            with mock.patch.object(csvio, "_WRITE_VALUES", block):
                for table in tables:
                    write_table(Path(tmp) / "table.csv", labels, table)
                    written.add((Path(tmp) / "table.csv").read_bytes())
    assert len(written) == 1


class _Uniforms:
    """An explicit example's ``data``: each draw is a (n_paths, n_steps)
    panel of uniforms on [-1, 1] from one seeded stream."""

    def __init__(self, shape):
        self.shape, self.rng = shape, np.random.default_rng(0)

    def draw(self, strategy):
        return self.rng.uniform(-1.0, 1.0, self.shape)


@PROPERTY
@given(params=markets, n_paths=st.integers(1, 20), seed=seeds, kind=kinds,
       strike=st.floats(50.0, 150.0), lam=st.floats(1e-4, 1.0), data=st.data(),
       shuffle=st.booleans(), every_cpu=st.booleans())
# 49 steps over maturity 1: dt * n_steps is 0.9999999999999999, not the maturity
@example(params=market(0.05, 0.2, 0.03, 49), n_paths=3, seed=1, kind="put", strike=100.0,
         lam=1e-3, data=_Uniforms((3, 49)), shuffle=False, every_cpu=False)
def test_dataset_round_trip_is_lossless(params, n_paths, seed, kind, strike, lam, data,
                                        shuffle, every_cpu):
    """A dataset file, a record per path and t in [0, n_steps], reads back
    bit for bit in the order it is written and with its records shuffled,
    parsed here or split over every usable CPU."""
    paths = simulate_gbm(params, n_paths, seed)
    shape = (n_paths, params.n_steps)
    actions, rewards = (data.draw(hnp.arrays(np.float64, shape, elements=finite))
                        for _ in range(2))
    ds = build_dataset(paths, actions, rewards, lam, OptionContract(kind, strike))
    n_cpus = len(os.sched_getaffinity(0)) if every_cpu else 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        write_dataset_csv(ds, path)
        lines = path.read_text().splitlines(keepends=True)
        head = sum(ln.startswith("#") for ln in lines) + 1
        assert len(lines) - head == n_paths * (params.n_steps + 1)
        if shuffle:
            rows = lines[head:]
            np.random.default_rng(seed).shuffle(rows)
            path.write_text("".join(lines[:head] + rows))
        with (mock.patch.object(csvio, "_SPLIT_BYTES", 1),
              mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))):
            back = read_dataset_csv(path)
    for name in ("path_ids", "paths.x_paths", "a", "r"):
        assert attrgetter(name)(back).tobytes() == attrgetter(name)(ds).tobytes()
    assert np.array_equal(back.paths.s_paths, ds.paths.s_paths)
    assert back.paths.params == ds.paths.params
    assert (back.risk.lam, back.paths.seed) == (lam, seed)
    assert (back.contract, back.extras) == (OptionContract(kind, strike), {})


@PROPERTY
@given(params=markets, n_paths=st.integers(1, 20), seed=seeds, data=st.data(),
       gaps=st.lists(st.integers(1, 2**40), min_size=20, max_size=20),
       parse_bytes=st.sampled_from([1, 97, 1 << 20]), piece=st.integers(1, 40),
       n_cpus=st.sampled_from([1, 1, 3]))
def test_in_order_read_is_the_scattered_read(params, n_paths, seed, data, gaps, parse_bytes,
                                             piece, n_cpus):
    """A file in the order write_dataset_csv writes it goes straight into
    the panels, never through scatter_records, and reads bit for bit as
    scattering its columns does: any ascending path ids, pieces that cut
    paths anywhere (a line per piece up to whole files), parsed here or by
    three workers whose columns are taken a few records at a time."""
    paths = simulate_gbm(params, n_paths, seed)
    shape = (n_paths, params.n_steps)
    actions, rewards = (data.draw(hnp.arrays(np.float64, shape, elements=finite))
                        for _ in range(2))
    ds = build_dataset(paths, actions, rewards, 1e-3, OptionContract("put", 100.0))
    ds.path_ids = np.cumsum(gaps[:n_paths]) - 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        write_dataset_csv(ds, path)
        meta, _, columns = csvio.read_columns(path)
        want = TransitionDataset.from_records(*columns, meta, source=path)
        with (mock.patch.object(csvio, "scatter_records", side_effect=AssertionError),
              mock.patch.object(csvio, "_PARSE_BYTES", parse_bytes),
              mock.patch.object(csvio, "_BLOCK", piece),
              mock.patch.object(csvio, "_SPLIT_BYTES", 1),
              mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))):
            back = read_dataset_csv(path)
    for name in ("path_ids", "paths.x_paths", "a", "r"):
        assert attrgetter(name)(back).tobytes() == attrgetter(name)(want).tobytes()
    assert back.paths.s_paths.tobytes() == want.paths.s_paths.tobytes()
    assert (back.paths.params, back.paths.seed, back.risk, back.contract, back.extras) == \
        (want.paths.params, want.paths.seed, want.risk, want.contract, want.extras)


def q_learn_one_by_one(mdp, n_updates_per_slice, schedule, seed):
    """Reference: the same draws as ``q_learn``, applied one update at a
    time in draw order."""
    alpha0, k0 = float(schedule[0]), float(schedule[1])
    n_steps, n_x, n_a = mdp.n_steps, mdp.n_states, mdp.n_actions
    rng = np.random.default_rng(seed)
    ag, gamma = mdp.action_grid, mdp.gamma
    q = np.zeros((n_steps + 1, n_x, n_a))
    q[n_steps] = np.where(mdp.reachable[n_steps, :, None], mdp.terminal_q[:, None], 0.0)
    visits = np.zeros((n_steps, n_x, n_a), dtype=np.int64)
    for t in range(n_steps - 1, -1, -1):
        states = np.flatnonzero(mdp.reachable[t])
        v_next = np.where(mdp.reachable[t + 1], q[t + 1].max(axis=1), 0.0)
        cum = mdp.probs[t].cumsum(axis=1)
        xs_seq = rng.choice(states, size=n_updates_per_slice)
        aj_seq = rng.integers(0, n_a, size=n_updates_per_slice)
        u_seq = rng.random(n_updates_per_slice)
        for xs, aj, u in zip(xs_seq, aj_seq, u_seq):
            xn = min(int(np.searchsorted(cum[xs], u, side="right")), n_x - 1)
            a = ag[aj]
            c = mdp.reward_coeffs[t, xs, xn]
            target = c[0] + c[1] * a + c[2] * a * a + gamma * v_next[xn]
            k = visits[t, xs, aj]
            q[t, xs, aj] += (alpha0 / (1.0 + k / k0)) * (target - q[t, xs, aj])
            visits[t, xs, aj] = k + 1
    return q, visits


@st.composite
def chains(draw):
    """Small chains with unreachable states and transition rows whose
    cumulative probability can fall short of 1 (so the successor clamp to
    the last state is exercised)."""
    n_steps, n_x, n_a = (draw(st.integers(1, 3)), draw(st.integers(1, 6)),
                         draw(st.integers(2, 6)))
    rng = np.random.default_rng(draw(seeds))
    reachable = rng.random((n_steps + 1, n_x)) < draw(st.floats(0.3, 1.0))
    reachable[np.arange(n_steps + 1), rng.integers(0, n_x, n_steps + 1)] = True
    probs = rng.random((n_steps, n_x, n_x)) * reachable[1:, None, :]
    probs /= np.maximum(probs.sum(axis=2, keepdims=True), 1e-300)
    short = rng.random((n_steps, n_x, 1)) < 0.3
    probs *= np.where(short, draw(st.floats(0.5, 1.0)), 1.0)
    return DiscreteMDP(
        x_centers=np.arange(n_x, dtype=float),
        action_grid=np.sort(rng.uniform(-1.5, 0.5, n_a)),
        probs=probs, reward_coeffs=rng.normal(size=(n_steps, n_x, n_x, 3)),
        terminal_q=rng.normal(size=n_x), reachable=reachable, x0_index=0,
        gamma=draw(st.floats(0.9, 1.0)))


def one_state_start(n_x=6, n_a=4, n_steps=2, seed=0):
    """A chain whose first slice has one reachable state and whose later
    slices have n_x: its first slice's cells are visited about n_x times as
    often as a later slice's, and a few hundred updates leave some later
    cells unvisited and others visited a handful of times."""
    rng = np.random.default_rng(seed)
    reachable = np.ones((n_steps + 1, n_x), dtype=bool)
    reachable[0] = np.arange(n_x) == 2
    probs = rng.random((n_steps, n_x, n_x))
    probs /= probs.sum(axis=2, keepdims=True)
    return DiscreteMDP(
        x_centers=np.arange(n_x, dtype=float), action_grid=np.linspace(-1.3, 0.1, n_a),
        probs=probs, reward_coeffs=rng.normal(size=(n_steps, n_x, n_x, 3)),
        terminal_q=rng.normal(size=n_x), reachable=reachable, x0_index=2, gamma=0.99)


@PROPERTY
@given(mdp=chains(), n_updates=st.integers(1, 3000), seed=seeds,
       schedule=st.sampled_from([(1.0, np.inf), (1.0, 1.0), (0.5, 100.0)]))
@example(mdp=one_state_start(), n_updates=3000, seed=1, schedule=(1.0, 1.0))
@example(mdp=one_state_start(n_x=9, n_a=5), n_updates=40, seed=2, schedule=(0.5, 100.0))
def test_grouped_q_learning_is_the_one_by_one_loop(mdp, n_updates, seed, schedule):
    """Within a frozen slice each cell is its own Robbins-Monro chain, so
    the rank-major kernel gives the one-at-a-time result bit for bit, also
    when one state starts the chain and the visit counts are skewed."""
    table = q_learn(mdp, n_updates, schedule=schedule, seed=seed)
    q, visits = q_learn_one_by_one(mdp, n_updates, schedule, seed)
    assert np.array_equal(table.q, q)
    assert np.array_equal(table.visits, visits)


def state_index_with_temporaries(edges, x):
    """Reference: ``DiscreteMDP.state_index`` through three index panels."""
    return np.clip(np.searchsorted(edges, np.asarray(x), side="right") - 1,
                   0, edges.size - 2)


def snapped_with_temporaries(edges, paths):
    """Reference: ``DiscreteMDP.snapped_ensemble`` from its own state index."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    x = centers[state_index_with_temporaries(edges, paths.x_paths.T)].T
    s = from_state(x, paths.params.times()[None, :], paths.params)
    return PathEnsemble(s, paths.params, seed=paths.seed)


def discretize_three_loops(paths, contract, risk, n_x, n_a, action_range):
    """Reference: ``discretize`` as three passes over the ensemble, with the
    state index computed twice and a ds_dev and a Pi panel held."""
    n_steps = paths.n_steps
    pooled = paths.x_paths
    if np.all(pooled[:, 0] == pooled[0, 0]) and n_steps >= 1:
        pooled = pooled[:, 1:]
    edges = np.quantile(pooled.ravel(order="K"), np.linspace(0.0, 1.0, n_x + 1))
    uniq, first = np.unique(edges, return_index=True)
    merged = []
    if uniq.size < edges.size:
        kept = np.sort(first)
        merged = [(int(i), int(np.searchsorted(kept, i, side="right") - 1))
                  for i in range(edges.size) if i not in kept]
        edges = uniq
    if edges.size < 2:
        edges = np.array([edges[0], edges[0] + 1e-8])
    n_xe, gamma = edges.size - 1, paths.params.gamma
    snapped = snapped_with_temporaries(edges, paths)
    idx = state_index_with_temporaries(edges, paths.x_paths)
    payoff = terminal_payoff(snapped.s_paths[:, -1], contract)

    ds_dev = np.empty((paths.n_paths, n_steps))
    for t in range(n_steps):
        ds = snapped.delta_s(t)
        ds_dev[:, t] = ds - _bucket_means(idx[:, t], ds, n_xe)[idx[:, t]]

    def bucket_hedge(t, pi_next, *_):
        ix = idx[:, t]
        pi_dev = pi_next - _bucket_means(ix, pi_next, n_xe)[ix]
        num = _bucket_means(ix, pi_dev * ds_dev[:, t], n_xe)
        den = _bucket_means(ix, ds_dev[:, t] ** 2, n_xe)
        return np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)[ix]

    pi = _replicate(snapped, payoff, bucket_hedge, out=np.empty_like(snapped.s_paths))

    counts = np.empty((n_steps, n_xe * n_xe))
    sums = np.empty((n_steps, n_xe * n_xe, 3))
    for t in range(n_steps):
        ix = idx[:, t]
        cell = ix * n_xe + idx[:, t + 1]
        counts[t] = np.bincount(cell, minlength=n_xe * n_xe)
        for k, c in enumerate(reward_parabola(
                ds_dev[:, t], pi[:, t + 1], risk, gamma,
                pi_center=_bucket_means(ix, pi[:, t + 1], n_xe)[ix], ds_center=0.0)):
            sums[t, :, k] = np.bincount(cell, weights=c, minlength=n_xe * n_xe)
    n = counts.reshape(n_steps, n_xe, n_xe, 1)
    coeffs = np.where(n > 0, sums.reshape(*n.shape[:3], 3) / np.maximum(n, 1.0), 0.0)
    counts = counts.reshape(n_steps, n_xe, n_xe)
    rows = counts.sum(axis=2, keepdims=True)
    probs = np.where(rows > 0, counts / np.maximum(rows, 1.0), 0.0)

    mean_pay = _bucket_means(idx[:, -1], payoff, n_xe)
    mean_pay2 = _bucket_means(idx[:, -1], payoff**2, n_xe)
    terminal_q = -mean_pay - risk.lam * np.maximum(mean_pay2 - mean_pay**2, 0.0)
    reachable = np.zeros((n_steps + 1, n_xe), dtype=bool)
    reachable[np.arange(n_steps + 1), idx] = True
    lo, hi = action_range
    return DiscreteMDP(
        x_centers=0.5 * (edges[:-1] + edges[1:]),
        action_grid=np.linspace(float(lo), float(hi), n_a), probs=probs,
        reward_coeffs=coeffs, terminal_q=terminal_q, reachable=reachable,
        x0_index=int(idx[0, 0]), gamma=gamma, edges=edges, merged_bins=merged)


PRICE_LEVELS = [80.0, 95.0, 100.0, 120.0]


@st.composite
def chain_ensembles(draw):
    """Small ensembles to discretize: simulated ones, whose t = 0 column is a
    point mass (and every state one value at sigma = 0, which merges every
    bin), or panels of a few price levels, whose t = 0 column varies and
    whose repeated quantiles merge bins."""
    n_steps, n_paths = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    params = market(draw(st.floats(-0.05, 0.15)), draw(st.sampled_from([0.0, 0.1, 0.4])),
                    draw(st.floats(0.0, 0.1)), n_steps)
    if draw(st.booleans()):
        return simulate_gbm(params, n_paths, draw(seeds))
    prices = draw(hnp.arrays(np.float64, (n_paths, n_steps + 1),
                             elements=st.sampled_from(PRICE_LEVELS)))
    return PathEnsemble(prices, params)


@PROPERTY
@given(paths=chain_ensembles(), n_x=st.integers(1, 8), n_a=st.integers(2, 5), kind=kinds,
       strike=st.floats(80.0, 120.0), lam=st.floats(0.0, 1e-2))
@example(paths=simulate_gbm(market(0.05, 0.2, 0.03, 3), 30, 1), n_x=1, n_a=2, kind="put",
         strike=100.0, lam=1e-3)
@example(paths=simulate_gbm(market(0.05, 0.0, 0.03, 2), 9, 2), n_x=5, n_a=3, kind="call",
         strike=95.0, lam=1e-3)
@example(paths=PathEnsemble(np.resize(PRICE_LEVELS, (12, 3)), market(0.0, 0.2, 0.0, 2)),
         n_x=6, n_a=4, kind="put", strike=100.0, lam=1e-2)
@example(paths=simulate_gbm(market(0.05, 0.2, 0.03, 3), 200, 5), n_x=300, n_a=3, kind="put",
         strike=100.0, lam=1e-3)
def test_one_pass_discretize_is_the_three_loop_construction(paths, n_x, n_a, kind, strike,
                                                            lam):
    """The one backward pass builds every field of the chain bit for bit as
    three loops over a ds_dev and a Pi panel do, from one index panel of
    the narrowest unsigned type (uint16 above 256 states, as in the 300
    bin example) and snapped prices derived from it a step at a time; the
    chain's state index and snapped ensemble are those of the three index
    panels.  The first example has one state; the zero-volatility one
    merges every bin into one."""
    contract, risk = OptionContract(kind, strike), RiskParams(lam)
    mdp = discretize(paths, contract, risk, n_x, n_a, (-1.3, 0.1))
    ref = discretize_three_loops(paths, contract, risk, n_x, n_a, (-1.3, 0.1))
    for f in fields(DiscreteMDP):
        got, want = getattr(mdp, f.name), getattr(ref, f.name)
        assert type(got) is type(want), f.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
        else:
            assert got == want, f.name
    for x in (paths.x_paths, paths.x_paths[:, 0], float(paths.x_paths[-1, -1])):
        got, want = mdp.state_index(x), state_index_with_temporaries(mdp.edges, x)
        assert type(got) is type(want) and np.array_equal(got, want)
    idx = mdp.state_indices(paths)
    assert idx.dtype == np.min_scalar_type(mdp.n_states - 1)
    assert np.array_equal(idx, state_index_with_temporaries(mdp.edges, paths.x_paths).T)
    snapped, want = mdp.snapped_ensemble(paths), snapped_with_temporaries(mdp.edges, paths)
    assert np.array_equal(snapped.s_paths, want.s_paths)
    assert np.array_equal(snapped.x_paths, want.x_paths)
    prices = _SnappedPrices(mdp.x_centers, idx, paths.params)
    for t in range(paths.n_steps + 1):
        assert prices.s(t).tobytes() == want.s_paths[:, t].tobytes()


def same_bits(got, want):
    """Equal bit for bit in shape and value; a zero may carry either sign,
    which the sort and numpy's partition may place differently among
    equal zeros (``basis.quantiles``)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(
        (got.view(np.int64) == want.view(np.int64)) | ((got == 0) & (want == 0))))


probabilities = hnp.arrays(np.float64, st.integers(1, 45), elements=st.floats(0.0, 1.0))


@PROPERTY
@given(samples=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=60),
                          elements=st.floats(allow_nan=False)) |
       hnp.arrays(np.float64, st.integers(1, 500),
                  elements=st.sampled_from([-1.5, 0.0, 2.0, 2.0000000000000004, 7.0])),
       q=probabilities | st.sampled_from([np.array([0.0, 1.0]), np.linspace(0.0, 1.0, 9),
                                          np.linspace(0.05, 0.95, 41)]))
@example(samples=np.array([3.25]), q=np.array([0.0, 0.3, 0.5, 1.0]))
@example(samples=np.full(17, -2.5), q=np.linspace(0.0, 1.0, 22))
@example(samples=np.repeat([1.0, 4.0, 4.0, 9.0], 250), q=np.linspace(0.0, 1.0, 9))
@example(samples=np.array([0.1, 0.7, 0.4, 0.9]), q=np.array([0.0, 1.0]))
@example(samples=np.array([1e300, -1e300, 1.7e308, -1.7e308, 3e-300, -3e-300, 5e-324]),
         q=np.linspace(0.0, 1.0, 13))
@example(samples=np.asfortranarray(np.random.default_rng(3).normal(size=(50, 7))),
         q=np.linspace(0.0, 1.0, 10))
def test_quantiles_of_the_sorted_pool_are_numpys(samples, q):
    """``basis.quantiles`` on one sorted copy of the samples gives numpy's
    linear quantiles bit for bit, for samples in any shape and layout:
    one sample, constant samples, heavy ties, q of 0 and 1, and
    magnitudes near the ends of the doubles."""
    assert same_bits(quantiles(np.sort(samples, axis=None), q), np.quantile(samples, q))


def whole_panel_states(paths):
    """Reference: the state panel as one whole-panel ``to_state`` of the
    stored prices."""
    return to_state(paths.s_paths, paths.params.times()[None, :], paths.params)


def ensemble_from_source(source, params, n_paths, seed, tmp):
    """An ensemble of each source: a simulation, an ingested price panel,
    a read dataset and a chain's snapped ensemble."""
    paths = simulate_gbm(params, n_paths, seed)
    if source == "simulated":
        return paths
    if source == "ingested":
        return PathEnsemble(np.array(paths.s_paths, order="C"), params)
    if source == "dataset":
        zeros = np.zeros((n_paths, params.n_steps))
        write_dataset_csv(build_dataset(paths, zeros, zeros, 0.1), Path(tmp) / "d.csv")
        return read_dataset_csv(Path(tmp) / "d.csv").paths
    return discretize(paths, OptionContract("put", 100.0), RiskParams(1e-3), 5, 3,
                      (-1.0, 1.0)).snapped_ensemble(paths)


SOURCES = ("simulated", "ingested", "dataset", "snapped")


@PROPERTY
@given(params=markets, n_paths=st.integers(1, 40), seed=seeds,
       source=st.sampled_from(SOURCES))
@example(params=market(0.05, 0.2, 0.03, 1), n_paths=1, seed=1, source="simulated")
@example(params=market(0.05, 0.2, 0.03, 1), n_paths=1, seed=2, source="ingested")
@example(params=market(0.05, 0.2, 0.03, 1), n_paths=1, seed=3, source="dataset")
@example(params=market(0.05, 0.2, 0.03, 1), n_paths=1, seed=4, source="snapped")
@example(params=market(0.05, 0.2, 0.03, 1), n_paths=40, seed=5, source="dataset")
@example(params=market(-0.05, 0.5, 0.1, 8), n_paths=1, seed=6, source="snapped")
def test_derived_columns_are_the_whole_panel_transform(params, n_paths, seed, source):
    """Each ensemble, whatever its source (prices simulated, ingested, read
    from a dataset or snapped to a chain's centers), stores its price panel
    alone and derives every column of the states bit for bit as the
    whole-panel to_state does; the whole state panel is those columns,
    stored by step."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = ensemble_from_source(source, params, n_paths, seed, tmp)
    assert stored_panels(paths) == ["_s"]
    want = whole_panel_states(paths)
    for t in range(paths.n_steps + 1):
        assert paths.x(t).tobytes() == want[:, t].tobytes()
        assert paths.s(t).tobytes() == paths.s_paths[:, t].tobytes()
    whole = paths.x_paths
    assert whole.tobytes() == want.tobytes()
    assert whole.flags.f_contiguous and not whole.flags.writeable


@PROPERTY
@given(params=markets, n_paths=st.integers(1, 300), seed=seeds,
       source=st.sampled_from(SOURCES), data=st.data())
@example(params=market(0.05, 0.2, 0.03, 1), n_paths=1, seed=1, source="simulated",
         data=None)
@example(params=market(0.05, 0.2, 0.03, 8), n_paths=1, seed=2, source="dataset", data=None)
@example(params=market(0.03, 0.15, 0.03, 8), n_paths=300, seed=3, source="simulated",
         data=None)
def test_derived_rows_are_the_whole_panel_transform(params, n_paths, seed, source, data):
    """``x_rows`` hands out any slice of paths of the state panel bit for
    bit as the whole-panel to_state, so that a writer's blocks of rows
    (drawn here; one path or all of them in the examples) give the whole
    panel's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = ensemble_from_source(source, params, n_paths, seed, tmp)
    want = whole_panel_states(paths)
    per_block = n_paths if data is None else data.draw(st.integers(1, n_paths))
    starts = range(0, n_paths, per_block)
    if data is None and n_paths > 1:
        starts = [0, 1]  # one path, then all the others
    for lo, hi in zip(starts, [*starts[1:], n_paths]):
        rows = slice(lo, hi)
        assert paths.x_rows(rows).tobytes() == want[rows].tobytes()
