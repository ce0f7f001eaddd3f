"""Market simulation and state-transform tests."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qhedge import (MarketParams, OptionContract, PathEnsemble, RiskParams,
                    TransitionDataset, build_dataset, discretize, from_state,
                    simulate_gbm, terminal_payoff, to_state, write_dataset_csv)
from qhedge.csvio import read_columns
from qhedge.cli import ingest_prices, main
from qhedge.errors import DegenerateInputError
from qhedge.market import _PATH_BLOCK, _ndtri


def make_params(**kw):
    base = dict(s0=100.0, mu=0.05, sigma=0.2, r=0.03, maturity=1.0, n_steps=12)
    base.update(kw)
    return MarketParams(**base)


# the benchmark's model-based shape: Criterion 1's market at 50k paths
BENCH_PARAMS = dict(mu=0.03, sigma=0.15, r=0.03, n_steps=24)
BENCH_PATHS = 50_000


def stored_panels(paths):
    """The names of the arrays an ensemble holds."""
    return [k for k, v in vars(paths).items() if isinstance(v, np.ndarray)]


def traced(compute):
    """(compute(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        value = compute()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_panel_prices(params, n_paths, seed):
    """The prices of ``simulate_gbm`` with every uniform drawn in one
    (n_paths, n_steps) call and transformed as one panel."""
    u = np.random.default_rng(seed).random((n_paths, params.n_steps))
    np.clip(u, 1e-300, np.nextafter(1.0, 0.0), out=u)
    log_s = _ndtri(u).T * (params.sigma * np.sqrt(params.dt))
    log_s += (params.mu - 0.5 * params.sigma**2) * params.dt
    log_s = np.cumsum(log_s, axis=0) + np.log(params.s0)
    return np.vstack([np.full(n_paths, params.s0), np.exp(log_s)]).T


class TestSimulateGBM:
    def test_zero_vol_is_pure_drift(self):
        """sigma = 0 collapses every path to s0 * exp(mu t) at each step."""
        params = make_params(mu=0.05, sigma=0.0, n_steps=1)
        paths = simulate_gbm(params, 50, seed=1)
        np.testing.assert_allclose(paths.s_paths[:, 1], 100.0 * np.exp(0.05),
                                   rtol=1e-14)

    def test_zero_vol_every_step(self):
        params = make_params(mu=0.07, sigma=0.0, n_steps=8)
        paths = simulate_gbm(params, 10, seed=3)
        expected = 100.0 * np.exp(0.07 * params.times())
        np.testing.assert_allclose(paths.s_paths,
                                   np.tile(expected, (10, 1)), rtol=1e-13)

    def test_seeded_determinism(self):
        params = make_params()
        a = simulate_gbm(params, 500, seed=42)
        b = simulate_gbm(params, 500, seed=42)
        assert np.array_equal(a.s_paths, b.s_paths)
        assert np.array_equal(a.x_paths, b.x_paths)
        c = simulate_gbm(params, 500, seed=43)
        assert not np.array_equal(a.s_paths, c.s_paths)

    def test_lognormal_mean(self):
        """Sample mean of S_T within 3 standard errors of s0 exp(mu T).

        The standard error uses the closed-form lognormal variance
        s0^2 e^{2 mu T} (e^{sigma^2 T} - 1).
        """
        params = make_params(mu=0.05, sigma=0.2, maturity=1.0)
        n = 100_000
        paths = simulate_gbm(params, n, seed=7)
        target = 100.0 * np.exp(0.05)
        se = 100.0 * np.exp(0.05) * np.sqrt(np.exp(0.04) - 1.0) / np.sqrt(n)
        assert abs(paths.s_paths[:, -1].mean() - target) < 3 * se

    def test_state_increments_driftless(self):
        """Pooled mean of X increments is 0 up to 4 sigma sqrt(dt) / sqrt(N T)."""
        params = make_params(mu=0.08, sigma=0.25, n_steps=16)
        n = 20_000
        paths = simulate_gbm(params, n, seed=11)
        inc = np.diff(paths.x_paths, axis=1)
        bound = 4 * params.sigma * np.sqrt(params.dt) / np.sqrt(n * params.n_steps)
        assert abs(inc.mean()) <= bound

    @pytest.mark.parametrize("n_steps", [3, 24])
    @pytest.mark.parametrize("n_paths", [1, _PATH_BLOCK - 1, _PATH_BLOCK, _PATH_BLOCK + 1,
                                         2 * _PATH_BLOCK + 17])
    def test_blocks_draw_the_whole_panel(self, n_paths, n_steps):
        """Drawing and transforming the uniforms a block of paths at a time
        gives the prices of the whole-panel draw bit for bit, at block
        edges and across them, and the states are their to_state."""
        params = make_params(n_steps=n_steps)
        paths = simulate_gbm(params, n_paths, seed=17)
        assert np.array_equal(paths.s_paths, whole_panel_prices(params, n_paths, 17))
        assert np.array_equal(paths.x_paths,
                              to_state(paths.s_paths, params.times()[None, :], params))

    def test_peak_below_three_and_a_half_record_columns(self):
        """At the benchmark's model-based shape simulate_gbm traces less
        than 3.5 float columns of records (n_paths x n_steps doubles), of
        which the ensemble it returns holds 1.04: no uniform or normal
        panel, nor a panel-sized ndtri temporary, is ever allocated."""
        params = make_params(**BENCH_PARAMS)
        simulate_gbm(params, 10, seed=1)  # lazy set-up out of the trace
        _, peak = traced(lambda: simulate_gbm(params, BENCH_PATHS, seed=42))
        assert peak / (BENCH_PATHS * params.n_steps * 8) < 3.5

    def test_peak_below_two_and_a_half_record_columns(self):
        """simulate_gbm's peak stays below 2.5 record columns: no
        panel-sized log temporary is made."""
        params = make_params(**BENCH_PARAMS)
        simulate_gbm(params, 10, seed=1)
        _, peak = traced(lambda: simulate_gbm(params, BENCH_PATHS, seed=42))
        assert peak / (BENCH_PATHS * params.n_steps * 8) < 2.5

    def test_peak_below_one_and_a_half_record_columns(self):
        """The ensemble keeps the price panel alone and derives the states a
        step at a time, so simulate_gbm's peak stays below 1.5 record
        columns: the panel's 1.04 plus a block of uniforms and its normals
        (2.23 when the ensemble held the state panel too)."""
        params = make_params(**BENCH_PARAMS)
        simulate_gbm(params, 10, seed=1)
        paths, peak = traced(lambda: simulate_gbm(params, BENCH_PATHS, seed=42))
        assert stored_panels(paths) == ["_s"]
        assert peak / (BENCH_PATHS * params.n_steps * 8) < 1.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_params(s0=-1.0)
        with pytest.raises(ValueError):
            make_params(sigma=-0.1)
        with pytest.raises(ValueError):
            make_params(n_steps=0)
        with pytest.raises(ValueError):
            simulate_gbm(make_params(), 0, seed=1)

    def test_sigma_whose_square_overflows_is_rejected(self):
        """The largest sigma whose square is a finite double passes; the
        next double up, and 1e200, are refused with a message that starts
        with the field's name."""
        top = float(np.sqrt(np.finfo(float).max))
        assert np.isfinite(make_params(sigma=top).sigma ** 2)
        for sigma in (np.nextafter(top, np.inf), 1e200):
            with pytest.raises(ValueError, match=r"^sigma must be at most 1\.34"):
                make_params(sigma=float(sigma))

    def test_rejects_discount_outside_unit_interval(self):
        """No one-period discount e^{-r dt} outside (0, 1] reaches a solver:
        a negative rate is refused naming r, and an r dt whose growth
        e^{r dt} overflows (so e^{-r dt} is 0 or subnormal) naming maturity."""
        assert make_params(r=0.0).gamma == 1.0
        with pytest.raises(ValueError, match=r"^r must be non-negative"):
            make_params(r=-0.01)
        top = float(np.log(np.finfo(float).max))
        assert 0.0 < make_params(r=top, maturity=1.0, n_steps=1).gamma < 1.0
        for kw in ({"maturity": 1e308}, {"r": 1e3, "n_steps": 1},
                   {"r": np.nextafter(top, np.inf), "maturity": 1.0, "n_steps": 1}):
            with pytest.raises(ValueError, match=r"^maturity must keep r dt <= 709\.783 "):
                make_params(**kw)

    @pytest.mark.parametrize("field", ["s0", "mu", "sigma", "r", "maturity"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_params(**{field: value})


class TestStateTransform:
    def test_log_one_is_zero(self):
        assert to_state(1.0, 0.0, make_params()) == 0.0

    def test_drift_term_vanishes_when_mu_is_half_var(self):
        params = make_params(mu=0.02, sigma=0.2)  # mu == sigma^2 / 2
        for t in (0.0, 0.5, 3.0):
            np.testing.assert_allclose(to_state(7.5, t, params), np.log(7.5),
                                       rtol=1e-15)

    def test_roundtrip(self):
        """from_state(to_state(s, t), t) == s to 1e-12 relative over a wide range."""
        params = make_params()
        rng = np.random.default_rng(5)
        s = np.exp(rng.uniform(np.log(1e-4), np.log(1e6), size=2000))
        for t in (0.0, 0.37, 1.0):
            np.testing.assert_allclose(from_state(to_state(s, t, params), t, params),
                                       s, rtol=1e-12)

    def test_from_state_trivials(self):
        params = make_params()
        assert from_state(0.0, 0.0, params) == 1.0
        p2 = make_params(mu=0.02, sigma=0.2)
        np.testing.assert_allclose(from_state(0.0, 2.0, p2), 1.0, rtol=1e-15)
        np.testing.assert_allclose(from_state(np.log(100.0), 0.0, params), 100.0,
                                   rtol=1e-14)

    def test_rejects_nonpositive_price(self):
        with pytest.raises(ValueError):
            to_state(0.0, 0.0, make_params())
        with pytest.raises(ValueError):
            to_state(-3.0, 0.0, make_params())


class TestTerminalPayoff:
    def test_put_and_call(self):
        put = OptionContract("put", 100.0)
        call = OptionContract("call", 100.0)
        assert terminal_payoff(90.0, put) == 10.0
        assert terminal_payoff(120.0, put) == 0.0
        assert terminal_payoff(120.0, call) == 20.0
        np.testing.assert_array_equal(
            terminal_payoff(np.array([90.0, 100.0, 130.0]), call),
            [0.0, 0.0, 30.0])

    def test_bad_contract(self):
        with pytest.raises(ValueError):
            OptionContract("straddle", 100.0)
        with pytest.raises(ValueError):
            OptionContract("put", -5.0)
        for strike in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                OptionContract("put", strike)


class TestPathEnsemble:
    def test_transform_consistency(self):
        params = make_params()
        paths = simulate_gbm(params, 100, seed=2)
        times = params.times()
        np.testing.assert_allclose(
            paths.x_paths, to_state(paths.s_paths, times[None, :], params),
            rtol=1e-14)
        assert paths.s_paths[:, 0].min() == paths.s_paths[:, 0].max() == 100.0

    def test_immutable(self):
        paths = simulate_gbm(make_params(), 10, seed=2)
        with pytest.raises(ValueError):
            paths.s_paths[0, 0] = 1.0

    def test_from_prices_validates(self):
        params = make_params(n_steps=2)
        good = np.full((3, 3), 100.0)
        ens = PathEnsemble(good, params)
        assert ens.n_paths == 3
        with pytest.raises(ValueError):
            PathEnsemble(np.array([[100.0, -1.0, 100.0]]), params)
        with pytest.raises(ValueError, match="2-D panel"):
            PathEnsemble(good[0], params)
        with pytest.raises(DegenerateInputError, match="empty price panel"):
            PathEnsemble(good[:0], params)

    @pytest.mark.parametrize("x", [800.0, -800.0, np.inf, -np.inf, np.nan])
    def test_states_whose_prices_leave_the_doubles_are_refused(self, x):
        """An ensemble stores prices, never states: the price a state past
        the doubles stands for (inf from 800 or inf, 0 from -800 or -inf,
        NaN) is refused by the price panel's own check, with no warning."""
        params = make_params(n_steps=2)
        prices = np.full((3, 3), 100.0)
        with np.errstate(over="ignore"):
            prices[1, 2] = from_state(x, params.times()[2], params)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="positive and finite"):
                PathEnsemble(prices, params)

    def test_needs_a_panel(self):
        with pytest.raises(ValueError, match="2-D panel"):
            PathEnsemble(None, make_params(n_steps=2))

    @pytest.mark.parametrize("price", [np.inf, np.nan])
    def test_rejects_non_finite_prices(self, price):
        s = np.array([[100.0, price, 100.0]])
        with pytest.raises(ValueError, match="positive and finite"):
            PathEnsemble(s, make_params(n_steps=2))


def _ensemble_from(constructor, tmp_path):
    """A small ensemble built by ``constructor``."""
    params = make_params(n_steps=4)
    paths = simulate_gbm(params, 30, seed=1)
    if constructor == "simulate_gbm":
        return paths
    if constructor == "PathEnsemble":  # from a panel stored by path
        return PathEnsemble(np.array(paths.s_paths, order="C"), params)
    if constructor == "ingest_prices":
        assert main(["simulate", "--market.n_steps", "4", "--mc.n_paths", "30",
                     "--output.dir", str(tmp_path)]) == 0
        return ingest_prices(tmp_path / "ensemble.csv")
    if constructor == "from_records":  # a written dataset's records
        zeros = np.zeros((paths.n_paths, paths.n_steps))
        write_dataset_csv(build_dataset(paths, zeros, zeros, 0.1), tmp_path / "d.csv")
        meta, _, columns = read_columns(tmp_path / "d.csv")
        return TransitionDataset.from_records(*columns, meta).paths
    mdp = discretize(paths, OptionContract("put", 100.0),
                     RiskParams(0.1), 5, 3, (-1.0, 1.0))
    return mdp.snapped_ensemble(paths)


@pytest.mark.parametrize("constructor", ["simulate_gbm", "PathEnsemble",
                                         "ingest_prices", "from_records",
                                         "snapped_ensemble"])
def test_panels_are_stored_by_step(tmp_path, constructor):
    """Every constructor stores s_paths by step, and x_paths is derived
    by step too: each step's column is contiguous."""
    paths = _ensemble_from(constructor, tmp_path)
    for panel in (paths.s_paths, paths.x_paths):
        assert all(panel[:, t].flags.c_contiguous for t in range(paths.n_steps + 1))


def test_panel_stored_by_step_is_not_copied():
    params = make_params(n_steps=2)
    panel = np.full((3, 3), 100.0, order="F")
    assert PathEnsemble(panel, params).s_paths is panel


@pytest.mark.parametrize("kw", [dict(mu=900.0, n_steps=1), dict(mu=-900.0, n_steps=1),
                                dict(sigma=60.0, n_steps=24)])
def test_prices_beyond_the_doubles_are_refused(kw):
    """exp overflowing or underflowing a simulated price raises, naming the
    parameters that set the log-price range, with no RuntimeWarning."""
    with pytest.raises(DegenerateInputError,
                       match="market.mu, market.sigma, market.maturity"):
        simulate_gbm(make_params(**kw), 200, seed=1)
