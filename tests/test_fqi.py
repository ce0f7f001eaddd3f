"""Fitted Q-iteration: features, weights, file round-trip, DP agreement."""

import os
import tracemalloc
import warnings
from operator import attrgetter
from unittest import mock

import numpy as np
import pytest

from qhedge import (BasisSet, FQISolution, MarketParams,
                    OptionContract, PathEnsemble, RiskParams, TransitionDataset,
                    build_basis, build_dataset, build_features,
                    dataset_rewards, extract_price_hedge,
                    fqi_backward, read_dataset_csv, simulate_gbm, solve_dp,
                    solve_local_risk, terminal_payoff, write_dataset_csv)
from qhedge.cli import ExperimentConfig, main
from qhedge import cli, csvio, fqi
from qhedge.csvio import write_table
from qhedge.errors import DataFormatError, SingularSystemError
from qhedge.portfolio import _replicate
from tests.test_csvio import split_over
from tests.test_market import BENCH_PARAMS, BENCH_PATHS, stored_panels, traced

PUT = OptionContract("put", 100.0)


def unit_basis():
    """Single flat cell: Phi(x) = 1 everywhere."""
    return BasisSet("one_hot_grid", 1, edges=np.array([-1e9, 1e9]))


def gbm(n_paths=8000, seed=0, **kw):
    base = dict(s0=100.0, mu=0.03, sigma=0.15, r=0.03, maturity=1.0, n_steps=8)
    base.update(kw)
    return simulate_gbm(MarketParams(**base), n_paths, seed=seed)


def make_pipeline(paths, lam=1e-3, m=10):
    basis = build_basis("bspline", m, paths.x_paths.ravel())
    risk = RiskParams(lam)
    return basis, risk


class TestFeatures:
    def test_zero_action_interleaves_zeros(self):
        basis = build_basis("one_hot_grid", 3, np.linspace(0, 1, 50))
        psi = build_features(basis.evaluate([0.1]), [0.0])
        assert psi.shape == (1, 9)
        np.testing.assert_array_equal(psi[0, 0::3], basis.evaluate([0.1])[0])
        np.testing.assert_array_equal(psi[0, 1::3], 0.0)
        np.testing.assert_array_equal(psi[0, 2::3], 0.0)

    def test_flat_single_cell(self):
        psi = build_features(unit_basis().evaluate([0.0]), [2.0])
        np.testing.assert_array_equal(psi, [[1.0, 2.0, 2.0]])

    def test_vectorization_identity(self):
        """wvec . Psi(x, a) == (1, a, a^2/2) W Phi(x) for random W, x, a."""
        rng = np.random.default_rng(5)
        basis = build_basis("bspline", 7, rng.normal(size=500))
        w = rng.normal(size=(3, 7))
        wvec = w.T.ravel()  # column-major over the 3 x M layout
        x = rng.normal(size=40)
        a = rng.normal(size=40)
        psi = build_features(basis.evaluate(x), a)
        lhs = psi @ wvec
        amat = np.stack([np.ones(40), a, 0.5 * a**2], axis=1)
        rhs = np.einsum("ki,ij,kj->k", amat, w, basis.evaluate(x))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestSingleStepRegression:
    def test_hand_least_squares(self):
        """One step, flat basis: W equals the 3-column least squares of the
        targets on (1, a, a^2/2), checked against numpy's lstsq."""
        s = np.full(4, 100.0)
        s_next = np.array([95.0, 99.0, 104.0, 108.0])
        a = np.array([-1.0, 0.0, 0.5, 1.0])
        r = np.array([0.3, -0.1, 0.2, 0.4])
        header = {"n_steps": 1, "mu": 0.0, "sigma": 0.0, "r": 0.0, "maturity": 1.0,
                  "lambda": 0.5, "seed": 0, "s0": 100.0, "contract_kind": "put",
                  "contract_strike": 100.0}
        ends = np.zeros(4)  # the t = 1 records: the next prices, a and r 0
        ds = TransitionDataset.from_records(np.tile(np.arange(4), 2), np.repeat([0, 1], 4),
                                            np.concatenate([s, s_next]),
                                            np.concatenate([a, ends]),
                                            np.concatenate([r, ends]), header)
        basis = unit_basis()
        sol = fqi_backward(ds, basis)
        # oracle: terminal Q is the flat-cell fit of -payoff - lam Var(payoff)
        payoff = np.maximum(100.0 - s_next, 0.0)
        q_term = (-payoff - 0.5 * payoff.var()).mean()
        targets = r + 1.0 * q_term
        design = np.stack([np.ones(4), a, 0.5 * a**2], axis=1)
        expected, *_ = np.linalg.lstsq(design, targets, rcond=None)
        np.testing.assert_allclose(sol.weights[0][:, 0], expected, rtol=1e-6)


class TestAgainstDP:
    def test_on_policy_reproduces_dp(self):
        paths = gbm(seed=3)
        basis, risk = make_pipeline(paths)
        dp = solve_dp(paths, PUT, risk, basis)
        actions = np.column_stack(
            [basis.evaluate(paths.x_paths[:, t]) @ dp.hedge_coeffs[t]
             for t in range(paths.n_steps)])
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        sol = fqi_backward(ds, basis)
        assert abs(sol.price0 - dp.price0) / dp.price0 < 0.02
        assert abs(sol.hedge0 - dp.hedge0) < 0.05

    def test_pi_reference_shape_checked(self):
        """pi_reference is the full (n, n_steps+1) portfolio panel that
        solve_local_risk returns; the column-shifted (n, n_steps) form is
        rejected, not read one step off."""
        paths = gbm(n_paths=4000, seed=3)
        basis, risk = make_pipeline(paths)
        dp = solve_dp(paths, PUT, risk, basis)
        actions = np.column_stack(
            [basis.evaluate(paths.x_paths[:, t]) @ dp.hedge_coeffs[t]
             for t in range(paths.n_steps)])
        pi_ref = solve_local_risk(paths, PUT, basis)[1]
        ds = build_dataset(paths, actions,
                           dataset_rewards(paths, actions, PUT, risk, basis),
                           risk.lam, PUT)
        with pytest.raises(ValueError, match=r"pi_reference.*\(4000, 9\).*got \(4000, 8\)"):
            fqi_backward(ds, basis, pi_reference=pi_ref[:, 1:])
        sol = fqi_backward(ds, basis, pi_reference=pi_ref)
        assert abs(sol.price0 - dp.price0) / dp.price0 < 0.02

    def test_max_term_action_is_dps_hedge(self):
        """On a dataset of DP's own actions, FQI's max-term action at every
        step is DP's hedge bit for bit: both solvers take the same hedge
        step on the same portfolio."""
        paths = gbm(n_paths=5000, seed=3, n_steps=12)
        basis, risk = make_pipeline(paths)
        dp = solve_dp(paths, PUT, risk, basis)
        actions = np.column_stack([basis.evaluate(paths.x(t)) @ dp.hedge_coeffs[t]
                                   for t in range(paths.n_steps)])
        ds = build_dataset(paths, actions,
                           dataset_rewards(paths, actions, PUT, risk, basis), risk.lam, PUT)
        sol = fqi_backward(ds, basis)
        for t in range(paths.n_steps):
            assert np.array_equal(sol.action_coeffs[t], dp.hedge_coeffs[t]), t
        assert sol.hedge0 == dp.hedge0

    def test_unknown_ds_mean_rejected(self):
        """Both solvers reject a ds_mean outside the two conventions of
        portfolio.hedge_step."""
        paths = gbm(n_paths=200, seed=3)
        basis, risk = make_pipeline(paths)
        actions = np.zeros((paths.n_paths, paths.n_steps))
        ds = build_dataset(paths, actions,
                           dataset_rewards(paths, actions, PUT, risk, basis),
                           risk.lam, PUT)
        with pytest.raises(ValueError, match="unknown ds_mean 'pooled'"):
            solve_dp(paths, PUT, risk, basis, ds_mean="pooled")
        with pytest.raises(ValueError, match="unknown ds_mean 'pooled'"):
            fqi_backward(ds, basis, ds_mean="pooled")

    @pytest.mark.parametrize("name,cols", [("actions", 3), ("actions", 8)])
    def test_dataset_rewards_shape_checked(self, name, cols):
        """An action panel of another shape fails naming the argument and
        both shapes, instead of an IndexError or columns of unset memory."""
        paths = gbm(n_paths=400, seed=3, n_steps=6)
        basis, risk = make_pipeline(paths)
        with pytest.raises(ValueError,
                           match=rf"{name} must be an \(400, 6\).*got \(400, {cols}\)"):
            dataset_rewards(paths, np.zeros((400, cols)), PUT, risk, basis)

    def test_off_policy_random_actions(self):
        """Uniformly random actions still recover the price and hedge."""
        paths = gbm(seed=3)
        basis, risk = make_pipeline(paths)
        dp = solve_dp(paths, PUT, risk, basis)
        rng = np.random.default_rng(9)
        actions = rng.uniform(-1.5, 1.5, size=(paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        sol = fqi_backward(ds, basis)
        assert abs(sol.price0 - dp.price0) / dp.price0 < 0.05
        assert abs(sol.hedge0 - dp.hedge0) < 0.10

    def test_tiny_lambda_names_risk_lambda(self):
        """At lambda = 1e-300 the analytic action's tilt drift / (2 gamma
        lambda) is about 1e299, so the max term leaves the doubles: the
        target that would hold it raises naming risk.lambda and the step,
        with no overflow warning."""
        paths = gbm(n_paths=500, seed=3, mu=0.05)
        basis, risk = make_pipeline(paths, lam=1e-300)
        actions = np.random.default_rng(9).uniform(-1.5, 1.5, size=(500, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        with pytest.raises(SingularSystemError, match=r"FQI target .* not finite at "
                                                      r"step \d \(risk\.lambda = 1e-300\)"):
            fqi_backward(ds, basis)

    def test_residuals_have_zero_mean(self):
        """The Bellman regression treats its noise as zero-mean: fitted
        residuals at each step satisfy |mean| <= 4 std / sqrt(N)."""
        paths = gbm(seed=3)
        basis, risk = make_pipeline(paths)
        rng = np.random.default_rng(9)
        actions = rng.uniform(-1.5, 1.5, size=(paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        sol = fqi_backward(ds, basis)
        # recompute targets/fits at the last step, where v is the terminal fit
        t = paths.n_steps - 1
        v = basis.evaluate(ds.paths.x(t + 1)) @ sol.terminal_value_coeffs
        targets = ds.r[:, t] + paths.params.gamma * v
        fitted = build_features(basis.evaluate(ds.paths.x(t)), ds.a[:, t]) \
            @ sol.weights[t].T.ravel()
        resid = targets - fitted
        assert abs(resid.mean()) <= 4 * resid.std() / np.sqrt(resid.size)

    def test_reads_out_at_the_recorded_start_state(self):
        """price0 and hedge0 are the fitted Q and action at the start state
        every path records, not at their mean, which at 2000 paths is an
        ulp off it."""
        paths = gbm(n_paths=2000, seed=3)
        x0 = paths.x_paths[0, 0]
        assert paths.x_paths[:, 0].mean() != x0
        basis, risk = make_pipeline(paths)
        actions = np.random.default_rng(9).uniform(-1.5, 1.5,
                                                   (paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        sol = fqi_backward(build_dataset(paths, actions, rewards, risk.lam, PUT), basis)
        phi0 = basis.evaluate([x0])
        hedge0 = float((phi0 @ sol.action_coeffs[0])[0])
        u0 = phi0 @ sol.weights[0].T
        assert sol.hedge0 == hedge0
        assert sol.price0 == -float(u0[0, 0] + hedge0 * u0[0, 1]
                                    + 0.5 * hedge0**2 * u0[0, 2])


class TestRolledReference:
    """Without ``pi_reference`` the recorded actions are rolled backward by
    ``_replicate``, whose hedge rule the fits are: they read Pi_(t+1) at
    step t."""

    def test_equals_the_rolled_panel_and_holds_no_panel(self):
        """At the benchmark's model-free shape (random actions) the default
        solution equals, bit for bit, the one given the rolled panel as
        pi_reference, and traces less than 1.5 float columns of records
        beyond the dataset: rolling the whole panel before the fits took
        3.51, and a step's whole (n, 3M) feature block beside its design
        2.55, where the regression now builds the features a block of rows
        at a time (1.26)."""
        paths = gbm(n_paths=BENCH_PATHS, seed=42, **BENCH_PARAMS)
        basis, risk = make_pipeline(paths, m=12)
        actions = np.random.default_rng(9).uniform(-1.5, 1.5,
                                                   (paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        del rewards
        sol, peak = traced(lambda: fqi_backward(ds, basis))
        assert peak / (len(ds) * 8) < 1.5

        pi = np.empty_like(paths.s_paths)
        _replicate(paths, terminal_payoff(paths.s_paths[:, -1], PUT),
                   lambda t, *_: ds.a[:, t], out=pi)
        ref = fqi_backward(ds, basis, pi_reference=pi)
        assert (sol.price0, sol.hedge0, sol.warnings) == (ref.price0, ref.hedge0,
                                                           ref.warnings)
        assert np.array_equal(sol.terminal_value_coeffs, ref.terminal_value_coeffs)
        for name in ("weights", "action_coeffs"):
            assert all(np.array_equal(a, b)
                       for a, b in zip(getattr(sol, name), getattr(ref, name), strict=True))

    def test_pi_past_the_doubles_raises_at_its_step(self):
        """Recorded actions of 1e308 at step 2 would take Pi_2 past the
        doubles, but step 2's fits run before its roll: after the fits of
        steps 5 to 3, step 2's feature a^2/2 of those actions is refused,
        naming the cause at its step."""
        paths = gbm(n_paths=300, seed=5, mu=0.05, sigma=0.2, n_steps=6)
        rng = np.random.default_rng(1)
        actions = rng.uniform(-1.5, 1.5, (300, 6))
        actions[:, 2] = 1e308
        ds = TransitionDataset(np.arange(300), paths, actions, rng.standard_normal((300, 6)),
                               1e-3, PUT)
        basis = build_basis("bspline", 8, paths.x_paths.ravel())
        with pytest.raises(SingularSystemError,
                           match=r"^FQI feature a\^2/2 of the recorded actions not finite "
                                 r"at step 2$"):
            fqi_backward(ds, basis)

    def test_gram_past_the_doubles_names_the_fit(self):
        """Recorded actions of 1e150 at step 2 have a finite a^2/2 = 5e299,
        whose square leaves the doubles in step 2's Gram: the regression
        raises naming the fit, with no overflow warning (the suite errors
        on one)."""
        paths = gbm(n_paths=300, seed=5, mu=0.05, sigma=0.2, n_steps=6)
        rng = np.random.default_rng(1)
        actions = rng.uniform(-1.5, 1.5, (300, 6))
        actions[:, 2] = 1e150
        ds = TransitionDataset(np.arange(300), paths, actions, rng.standard_normal((300, 6)),
                               1e-3, PUT)
        basis = build_basis("bspline", 8, paths.x_paths.ravel())
        with pytest.raises(SingularSystemError,
                           match=r"^FQI weights at step 2: normal equations not finite$"):
            fqi_backward(ds, basis)


class TestExtract:
    def test_analytic_read_out_arithmetic(self):
        """The hedge is the analytic action phi @ beta and the price is -Q at
        it, not at the fitted parabola's vertex (2 for the first Q), and a
        parabola with no vertex reads out the same way."""
        for (u0, u1, u2), price in (((5.0, 2.0, -1.0), -5.46875), ((3.0, 1.0, 0.0), -3.25)):
            sol = FQISolution(weights=[np.array([[u0], [u1], [u2]])],
                              terminal_value_coeffs=np.array([0.0]),
                              action_coeffs=[np.array([0.25])], price0=0.0, hedge0=0.0)
            assert extract_price_hedge(sol, unit_basis(), 0.0, 0) == (price, 0.25)

    def test_read_out_is_the_solvers(self):
        """At the start state the read-out returns price0 and hedge0 bit for
        bit: one rule, the analytic action."""
        paths = gbm(seed=3)
        basis, risk = make_pipeline(paths)
        actions = np.random.default_rng(1).uniform(-1.5, 1.5,
                                                   (paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        sol = fqi_backward(build_dataset(paths, actions, rewards, risk.lam, PUT), basis)
        got = extract_price_hedge(sol, basis, paths.x_paths[0, 0], 0)
        assert got == (sol.price0, sol.hedge0)


class TestRewardPass:
    def test_working_set_below_two_point_three_record_columns(self):
        """At the benchmark's model-free shape the rewards are built inside
        the local-risk pass, which keeps no portfolio panel, evaluates one
        design a step and centers once: less than 2.3 float columns of
        records, where keeping the solve's panel and evaluating each step
        again took 3.84."""
        paths = gbm(n_paths=BENCH_PATHS, seed=42, **BENCH_PARAMS)
        basis, risk = make_pipeline(paths, m=12)
        actions = np.random.default_rng(9).uniform(-1.5, 1.5,
                                                   (paths.n_paths, paths.n_steps))
        _, peak = traced(lambda: dataset_rewards(paths, actions, PUT, risk, basis))
        assert peak / (actions.size * 8) < 2.3

    def test_reward_past_the_doubles_names_its_first_step(self):
        """The whole pass runs before the rewards are checked, so a reward
        past the doubles names the first such step, as the two-pass build
        did, with no overflow warning."""
        paths = gbm(n_paths=400, seed=3, n_steps=4)
        basis, _ = make_pipeline(paths)
        actions = np.zeros((400, 4))
        actions[:, 1:] = 1e300
        with pytest.raises(SingularSystemError, match=r"^reward R not finite at step 1 "
                                                      r"\(risk\.lambda = 0\.001\)$"):
            dataset_rewards(paths, actions, PUT, RiskParams(1e-3), basis)


def outcome(read, path):
    """(dataset, None) or (None, the error's type and message)."""
    try:
        return read(path), None
    except (DataFormatError, ValueError) as exc:
        return None, (type(exc), str(exc))


def read_scattered(path):
    """The reference for ``read_dataset_csv``: a dataset file read whole
    as columns, its columns checked, and its records placed by
    ``TransitionDataset.from_records``."""
    meta, names, columns = csvio.read_columns(path)
    fqi._check_columns(path, names)
    return TransitionDataset.from_records(*columns, meta, source=path)


def read_and_solve_peaks(tmp_path, n_cpus):
    """(dataset, basis, started workers, traced peaks in float columns of
    records) of reading a default random-policy dataset over ``n_cpus``
    and solving it with the default basis."""
    assert main(["make-dataset", "--dataset.policy", "random",
                 "--output.dir", str(tmp_path)]) == 0
    with split_over(n_cpus) as started:
        tracemalloc.start()
        try:
            ds = read_dataset_csv(tmp_path / "dataset.csv")
            read_peak = tracemalloc.get_traced_memory()[1]
            basis = ExperimentConfig.load().basis_for(ds)
            tracemalloc.reset_peak()
            fqi_backward(ds, basis)
            solve_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return ds, basis, started, {"read": read_peak / (len(ds) * 8),
                                "solve": solve_peak / (len(ds) * 8)}


class TestDatasetIO:
    def test_roundtrip_field_for_field(self, tmp_path):
        paths = gbm(n_paths=60, seed=1, n_steps=4)
        basis, risk = make_pipeline(paths, m=6)
        rng = np.random.default_rng(0)
        actions = rng.uniform(-1, 1, size=(60, 4))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        ds.extras["policy"] = "random"
        f = tmp_path / "data.csv"
        write_dataset_csv(ds, f)
        back = read_dataset_csv(f)
        assert np.array_equal(back.path_ids, ds.path_ids)
        assert np.array_equal(back.paths.x_paths, ds.paths.x_paths)
        assert np.array_equal(back.a, ds.a)
        assert np.array_equal(back.r, ds.r)
        assert back.paths.params == ds.paths.params
        assert (back.risk.lam, back.paths.seed) == (ds.risk.lam, ds.paths.seed)
        assert (back.contract, back.extras) == (PUT, {"policy": "random"})

    def test_seedless_ensemble_roundtrips(self, tmp_path):
        """A dataset on an ensemble of given prices has no seed: its file
        carries no seed line, and reads back seedless."""
        sim = gbm(n_paths=60, seed=1, n_steps=4)
        paths = PathEnsemble(sim.s_paths, sim.params)
        rng = np.random.default_rng(0)
        ds = TransitionDataset(np.arange(60), paths, rng.uniform(-1, 1, (60, 4)),
                               rng.standard_normal((60, 4)), 1e-3, PUT)
        f = tmp_path / "data.csv"
        write_dataset_csv(ds, f)
        assert not any(line.startswith("# seed=") for line in f.read_text().splitlines())
        back = read_dataset_csv(f)
        assert back.paths.seed is None
        assert np.array_equal(back.paths.x_paths, ds.paths.x_paths)
        assert np.array_equal(back.a, ds.a)
        assert np.array_equal(back.r, ds.r)

    def test_dp_on_the_read_dataset_is_dp_on_the_simulation(self, tmp_path):
        """A dataset records the simulated prices themselves, not states
        decoded through the header's mu and sigma, so DP on a read
        dataset's ensemble is DP on the simulated one bit for bit: price0,
        hedge0 and every coefficient."""
        paths = gbm(n_paths=2000, seed=42, mu=0.05, sigma=0.2, n_steps=12)
        basis, risk = make_pipeline(paths, m=12)
        zeros = np.zeros((paths.n_paths, paths.n_steps))
        f = tmp_path / "data.csv"
        write_dataset_csv(build_dataset(paths, zeros, zeros, risk.lam, PUT), f)
        want, got = (solve_dp(p, PUT, risk, basis) for p in (paths, read_dataset_csv(f).paths))
        assert (got.price0, got.hedge0) == (want.price0, want.hedge0)
        for name in ("hedge_coeffs", "value_coeffs"):
            assert all(np.array_equal(u, v) for u, v in
                       zip(getattr(got, name), getattr(want, name), strict=True)), name

    def test_table_writer_gathers_records_by_block(self, tmp_path, monkeypatch):
        """write_table gathers and formats each block of records from the
        arrays as it writes it, so writing 200k records of step-major
        integer and float arrays (as a dataset stores a and r) allocates
        well under the arrays' size: the formatting's temporaries are a
        block's; copying every column whole first would allocate more than
        it.  tracemalloc sees only this process, so one CPU keeps every
        record formatted here."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        rng = np.random.default_rng(0)
        values = {name: np.asfortranarray(rng.integers(0, 100, size=(1000, 200)))
                  for name in ("a", "b", "c", "d")}
        values.update({name: np.asfortranarray(rng.standard_normal((1000, 200)))
                       for name in ("x", "y")})
        size = sum(v.nbytes for v in values.values())
        tracemalloc.start()
        try:
            write_table(tmp_path / "table.csv", {"path": np.arange(1000), "t": None},
                        values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 2

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_read_and_solve_peak_below_nine_record_columns(self, tmp_path, n_cpus):
        """At the benchmark's shape (24 steps and the default 12-function
        basis, so one step's features are 1.5 float columns of records)
        reading a dataset and solving it each trace less than 9 float
        columns of records: the records arrive and are scattered one
        column at a time, and each step's features are freed before the
        next step's.  The read holds the same columns whether it parses
        here (one CPU) or in forked workers, whose memory is not traced."""
        ds, basis, started, columns = read_and_solve_peaks(tmp_path, n_cpus)
        assert len(started) == (0 if n_cpus == 1 else n_cpus)
        assert (ds.paths.n_steps, basis.m) == (24, 12)
        assert all(peak < 9 for peak in columns.values()), columns

    def test_read_and_solve_peak_below_six_record_columns(self, tmp_path):
        """The dataset's ensemble stores the prices it read and derives each
        step's states when a step needs them, so reading a dataset (parsed
        here, where every column it makes is traced) and solving it each
        trace less than 6 float columns of records (3.87 and 5.39; 4.26 and
        6.43 when the ensemble held a state panel beside the prices).  The
        solve frees each step's centered values, read-out actions and their
        Q values once the next target is built, so it traces less than 2.2
        columns beyond the dataset's s, a and r panels (2.05; 2.35 when
        they were held through the next step's fits)."""
        ds, _, _, columns = read_and_solve_peaks(tmp_path, 1)
        assert stored_panels(ds.paths) == ["_s"]
        assert all(peak < 6 for peak in columns.values()), columns
        resident = sum(v.nbytes for v in (ds.paths.s_paths, ds.a, ds.r)) / (len(ds) * 8)
        assert columns["solve"] - resident < 2.2, (columns, resident)

    def test_make_dataset_peak_below_five_point_two_record_columns(self, tmp_path,
                                                                    monkeypatch):
        """make-dataset at the defaults (10k paths x 24 steps, random
        actions), formatting every record here (one CPU), traces less than
        5.2 float columns of records once its modules are set up: the
        writer formats the states from the stored price panel a block of
        paths at a time (4.74; 5.75 when it built the whole state panel to
        write it)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["make-dataset", "--mc.n_paths", "400", "--market.n_steps", "6",
                     "--output.dir", str(tmp_path / "warm")]) == 0  # lazy set-up
        code, peak = traced(lambda: main(["make-dataset", "--dataset.policy", "random",
                                          "--output.dir", str(tmp_path / "out")]))
        assert code == 0
        assert peak / (10_000 * 24 * 8) < 5.2

    @pytest.mark.parametrize("x", ["800", "-800"])
    @pytest.mark.parametrize("t", [0, 2, 4])
    def test_state_whose_price_leaves_the_doubles_exits_3(self, tmp_path, capsys, t, x):
        """A dataset records prices, so the price a state of 800 or -800
        stands for, inf or 0, is what a file can hold: a record with it
        makes fqi-solve exit 3, naming the non-finite price's cell or with
        the price panel's message, with no overflow warning and no
        summary."""
        price, message = {"800": ("inf", f"non-finite s inf at cell (path=3, t={t})"),
                          "-800": ("0", "all stock prices must be positive and finite")}[x]
        assert main(["make-dataset", "--mc.n_paths", "20", "--market.n_steps", "4",
                     "--dataset.policy", "random", "--output.dir", str(tmp_path)]) == 0
        f = tmp_path / "dataset.csv"
        lines = f.read_text().splitlines(keepends=True)
        row = lines.index("path,t,s,a,r\n") + 1 + 3 * 5 + t  # (path 3, t)
        cells = lines[row].split(",")
        assert cells[:2] == ["3", str(t)]
        lines[row] = ",".join([*cells[:2], price, *cells[3:]])
        f.write_text("".join(lines))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["fqi-solve", "--dataset.path", str(f),
                         "--output.dir", str(tmp_path / "fqi")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fqi" / "summary.txt").exists()

    @pytest.mark.parametrize("n_cpus, n_paths", [(1, 10_000), (2, BENCH_PATHS)])
    def test_in_order_read_peak_below_four_and_a_half_record_columns(self, tmp_path,
                                                                      n_cpus, n_paths):
        """At the benchmark's shape a file in writer order is read straight
        into its x, a and r panels, a piece of one column at a time, so
        the read traces less than 4.5 float columns of records (the three
        panels and pieces; 4.26 when the price panel was built from the
        states too), where reading whole columns and scattering them took
        7.38.  The same
        holds when it parses here (one CPU, at fewer paths: traced, the
        parse is slow) as in forked workers."""
        paths = gbm(n_paths=n_paths, seed=42, **BENCH_PARAMS)
        rng = np.random.default_rng(9)
        ds = build_dataset(paths, rng.uniform(-1.5, 1.5, (n_paths, 24)),
                           rng.standard_normal((n_paths, 24)), 1e-3, PUT)
        write_dataset_csv(ds, tmp_path / "dataset.csv")
        del ds
        with split_over(n_cpus, block=1 << 13) as started:
            back, peak = traced(lambda: read_dataset_csv(tmp_path / "dataset.csv"))
        assert len(started) == (0 if n_cpus == 1 else n_cpus)
        assert peak / (len(back) * 8) < 4.5

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("edit", ["shuffled", "descending", "duplicate", "missing",
                                      "truncated", "extra", "relabelled", "nan", "inf",
                                      "fraction", "horizon", "n_paths", "columns"]
                             + [f"{edit}-{path}" for edit in ("terminal_a", "terminal_r",
                                                              "no_terminal")
                                for path in (0, 3, 6)]
                             + [f"x_next-{i}" for i in range(21) if i % 3 < 2] + ["x"])
    def test_other_files_read_as_scattered(self, tmp_path, monkeypatch, n_cpus, edit):
        """A file out of writer order, or with any error, is read again as
        columns and scattered: it gives the scattered read's dataset bit
        for bit, or its exact error.  Pieces of a few records, and of one
        line when parsed here, put some terminal records first in a piece.
        ``x_next-i`` writes the file in the layout before terminal records
        (an x_next column, which repeats the next record's x) with row i's
        x_next no longer the next x, and ``x`` the layout before prices,
        the file with its columns named path,t,x,a,r: both are refused as
        files of states, edited or not (by read_dataset_csv before any
        record is parsed)."""
        paths = gbm(n_paths=7, seed=2, n_steps=3)
        rng = np.random.default_rng(4)
        f = tmp_path / "data.csv"
        write_dataset_csv(build_dataset(paths, rng.uniform(-1, 1, (7, 3)),
                                        rng.standard_normal((7, 3)), 1e-3, PUT), f)
        lines = f.read_text().splitlines(keepends=True)
        head = sum(ln.startswith("#") for ln in lines) + 1
        header, rows = lines[:head], lines[head:]
        cells = [row.rstrip("\n").split(",") for row in rows]  # (path, t) is row 4 path + t

        def cell(i, j, value):
            cells[i][j] = value

        def old_layout(i):
            header[-1] = "path,t,x,a,r,x_next\n"
            cells[:] = [cells[k] + [cells[k + 1][2]] for k in range(28) if k % 4 < 3]
            cell(i, 5, "4.5")
        edit, _, row = edit.partition("-")
        {"shuffled": lambda: rng.shuffle(cells),
         "descending": lambda: cells.reverse(),
         "duplicate": lambda: cells.__setitem__(5, list(cells[4])),
         "missing": lambda: cells.pop(10),
         "truncated": lambda: cells.pop(),
         "extra": lambda: cells.append(["7", "0", "4.6", "0", "0"]),
         "relabelled": lambda: cell(5, 0, "2"),
         "nan": lambda: cell(8, 4, "nan"),
         "inf": lambda: cell(13, 2, "inf"),
         "fraction": lambda: cell(3, 0, "1.5"),
         "horizon": lambda: cell(20, 1, "4"),
         "n_paths": lambda: header.__setitem__(header.index("# n_paths=7\n"), "# n_paths=8\n"),
         "columns": lambda: [row.append("0") for row in cells],
         "terminal_a": lambda: cell(4 * int(row or 0) + 3, 3, "0.5"),
         "terminal_r": lambda: cell(4 * int(row or 0) + 3, 4, "-1e-300"),
         "no_terminal": lambda: cells.pop(4 * int(row or 0) + 3),
         "x_next": lambda: old_layout(int(row or 0)),
         "x": lambda: header.__setitem__(-1, "path,t,x,a,r\n"),
         }[edit]()
        f.write_text("".join(header + [",".join(row) + "\n" for row in cells]))
        monkeypatch.setattr(csvio, "_PARSE_BYTES", 1)
        with split_over(n_cpus, block=3):
            got = outcome(read_dataset_csv, f)
        want = outcome(read_scattered, f)
        assert got[1] == want[1]
        if edit in ("shuffled", "descending"):
            for name in ("path_ids", "paths.x_paths", "a", "r"):
                assert attrgetter(name)(got[0]).tobytes() == attrgetter(name)(want[0]).tobytes()
        else:
            assert want[1] is not None
        p = int(row or 0)
        named = {"terminal_a": f"a at expiry (path={p}, t=3) is 0.5; it must be 0",
                 "terminal_r": f"r at expiry (path={p}, t=3) is -1e-300; it must be 0",
                 "no_terminal": f"missing cell (path={p}, t=3)",
                 "x_next": "states (x) are no longer read: re-run make-dataset",
                 "x": "columns path,t,x,a,r, expected path,t,s,a,r; states (x) are no "
                      "longer read: re-run make-dataset"}
        assert named.get(edit, "") in str(want[1])

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("order, parses", [("writer", 1), ("shuffled", 1),
                                               ("second_path_swapped", 2)])
    def test_parses_a_file_once_unless_it_breaks_order_late(self, tmp_path, monkeypatch,
                                                            n_cpus, order, parses):
        """A file whose first path is not t = 0 .. n_steps in order goes
        straight to the scattered read: parsed once, as a file in writer
        order is.  Only records out of order after the first path are
        parsed twice, once for the panels and once to be scattered."""
        paths = gbm(n_paths=40, seed=2, n_steps=3)
        rng = np.random.default_rng(4)
        ds = build_dataset(paths, rng.uniform(-1, 1, (40, 3)),
                           rng.standard_normal((40, 3)), 1e-3, PUT)
        f = tmp_path / "data.csv"
        write_dataset_csv(ds, f)
        lines = f.read_text().splitlines(keepends=True)
        head = sum(ln.startswith("#") for ln in lines) + 1
        rows = lines[head:]
        if order == "shuffled":
            rng.shuffle(rows)
        elif order == "second_path_swapped":
            rows[4], rows[5] = rows[5], rows[4]
        f.write_text("".join(lines[:head] + rows))
        read = mock.Mock(wraps=csvio._read_split)
        monkeypatch.setattr(csvio, "_read_split", read)
        with split_over(n_cpus):
            back = read_dataset_csv(f)
        assert read.call_count == parses
        for name in ("path_ids", "paths.x_paths", "a", "r"):
            assert attrgetter(name)(back).tobytes() == attrgetter(name)(ds).tobytes()

    def test_file_is_the_panels_with_terminal_records(self, tmp_path):
        """A dataset file holds a record per path and t in [0, n_steps]:
        s is the price, and the t = n_steps record holds the terminal price
        with a and r 0; no column repeats the next record's s."""
        paths = gbm(n_paths=3, seed=2, n_steps=2)
        ds = build_dataset(paths, [[0.5, -1.0]] * 3, [[2.0, 0.25]] * 3, 1e-3, PUT)
        write_dataset_csv(ds, tmp_path / "data.csv")
        lines = (tmp_path / "data.csv").read_text().splitlines()
        assert lines[lines.index("# n_steps=2") + 1:].count("path,t,s,a,r") == 1
        rows = lines[lines.index("path,t,s,a,r") + 1:]
        s = [csvio.format_value(v) for v in paths.s_paths.ravel()]
        assert rows == [f"{i // 3},{i % 3},{s[i]},{a},{r}"
                        for i, (a, r) in enumerate([("0.5", "2"), ("-1", "0.25"),
                                                    ("0", "0")] * 3)]

    @pytest.mark.parametrize("policy", ["random", "local_risk"])
    def test_make_dataset_stores_its_panels_without_a_copy(self, tmp_path, monkeypatch,
                                                           policy):
        """make-dataset hands build_dataset the transition columns (a view)
        of the policy's per-date action panel, or the (n, n_steps) panel
        the local-risk pass records into, and dataset_rewards' panel: the
        dataset stores each without a copy, as (n, n_steps).  A per-date
        panel itself is refused by its shape: the terminal record is the
        codec's, not the dataset's."""
        calls = []

        def spy(*args):
            calls.append((args, fqi.build_dataset(*args)))
            return calls[-1][1]
        monkeypatch.setattr(cli, "build_dataset", spy)
        assert main(["make-dataset", "--mc.n_paths", "50", "--market.n_steps", "3",
                     "--basis.m", "6", "--dataset.policy", policy,
                     "--output.dir", str(tmp_path)]) == 0
        [((paths, a, r, lam, contract), ds)] = calls
        given = a if policy == "local_risk" else a.base
        assert given.shape == (50, 3 if policy == "local_risk" else 4)
        assert ds.a.shape == ds.r.shape == (50, 3) and len(ds) == 150
        assert np.shares_memory(ds.a, given) and np.shares_memory(ds.r, r)
        with pytest.raises(DataFormatError, match=r"^a is \(50, 4\); expected \(50, 3\)$"):
            build_dataset(paths, np.zeros((50, 4)), r, lam, contract)

    def test_missing_slice_rejected(self):
        header = {"n_steps": 2, "mu": 0.0, "sigma": 0.2, "r": 0.0, "maturity": 1.0,
                  "lambda": 0.1, "seed": 0}
        with pytest.raises(DataFormatError):
            TransitionDataset.from_records(
                path_ids=[0, 1, 0, 0, 1], t=[0, 0, 1, 2, 2], s=[100.0, 100.0, 110.0, 120.0, 120.0],
                a=[0.0] * 5, r=[0.0] * 5, header=header)

    def test_duplicate_record_rejected(self):
        header = {"n_steps": 2, "mu": 0.0, "sigma": 0.2, "r": 0.0, "maturity": 1.0,
                  "lambda": 0.1, "seed": 0}
        with pytest.raises(DataFormatError, match=r"duplicate rows for cell \(path=0, t=0\)"):
            TransitionDataset.from_records(
                path_ids=[0, 0, 1, 1], t=[0, 0, 1, 1], s=[100.0] * 4,
                a=[0.0] * 4, r=[0.0] * 4, header=header)

    def test_nonfinite_reward_rejected(self):
        header = {"n_steps": 1, "mu": 0.0, "sigma": 0.2, "r": 0.0, "maturity": 1.0,
                  "lambda": 0.1, "seed": 0}
        with pytest.raises(DataFormatError):
            TransitionDataset.from_records([0, 0], [0, 1], [100.0, 110.0], [0.0, 0.0],
                                           [np.nan, 0.0], header)

    @pytest.mark.parametrize("field", ["x", "a", "x_next"])
    def test_nonfinite_state_or_action_rejected(self, field):
        header = {"n_steps": 1, "mu": 0.0, "sigma": 0.2, "r": 0.0, "maturity": 1.0,
                  "lambda": 0.1, "seed": 0}
        rec = dict(s=[100.0, 110.0], a=[0.0, 0.0], r=[0.0, 0.0])
        # the state of a record is its price: x_next is the t = 1 record's
        column, t = {"x": ("s", 0), "a": ("a", 0), "x_next": ("s", 1)}[field]
        rec[column][t] = np.inf
        with pytest.raises(DataFormatError, match=rf"non-finite {column} inf at cell "
                                                  rf"\(path=0, t={t}\)"):
            TransitionDataset.from_records([0, 0], [0, 1], header=header, **rec)

    def test_time_outside_horizon_rejected(self):
        header = {"n_steps": 1, "mu": 0.0, "sigma": 0.2, "r": 0.0, "maturity": 1.0,
                  "lambda": 0.1, "seed": 0}
        with pytest.raises(DataFormatError, match=r"cell \(path=0, t=2\) is outside"):
            TransitionDataset.from_records([0, 0, 0], [0, 1, 2], [100.0, 110.0, 120.0], [0.0] * 3,
                                           [0.0] * 3, header)

    def test_header_missing_keys(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("# n_paths=1\npath,t,s,a,r\n0,0,100,0,0\n0,1,110,0,0\n")
        with pytest.raises(DataFormatError):
            read_dataset_csv(f)

    def test_bad_header_value_names_key_and_file(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("# n_paths=abc\n# n_steps=1\n# mu=0\n# sigma=0.2\n# r=0\n"
                     "# maturity=1\n# lambda=0.1\n# seed=0\npath,t,s,a,r\n"
                     "0,0,100,0,0\n0,1,110,0,0\n")
        with pytest.raises(DataFormatError, match=r"bad\.csv.*n_paths='abc'"):
            read_dataset_csv(f)

    def test_row_order_is_free(self, tmp_path):
        """Shuffling a written dataset's data rows gives the same panels and
        the same price, bit for bit."""
        paths = gbm(n_paths=400, seed=2, n_steps=4)
        basis, risk = make_pipeline(paths, m=6)
        actions = np.random.default_rng(4).uniform(-1, 1, size=(400, 4))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        f = tmp_path / "data.csv"
        write_dataset_csv(build_dataset(paths, actions, rewards, risk.lam, PUT), f)
        lines = f.read_text().splitlines(keepends=True)
        head = sum(ln.startswith("#") for ln in lines) + 1
        rows = lines[head:]
        np.random.default_rng(5).shuffle(rows)
        g = tmp_path / "shuffled.csv"
        g.write_text("".join(lines[:head] + rows))
        ds, back = read_dataset_csv(f), read_dataset_csv(g)
        for name in ("path_ids", "paths.x_paths", "a", "r"):
            assert np.array_equal(attrgetter(name)(back), attrgetter(name)(ds))
        assert fqi_backward(back, basis).price0 == fqi_backward(ds, basis).price0

    def test_fractional_path_id_rejected(self, tmp_path):
        """A fractional path id is rejected, not truncated to an integer."""
        f = tmp_path / "bad.csv"
        f.write_text("# n_paths=2\n# n_steps=1\n# mu=0\n# sigma=0.2\n# r=0\n"
                     "# maturity=1\n# lambda=0.1\n# seed=0\npath,t,s,a,r\n"
                     "0,0,100,0,0\n0,1,110,0,0\n2.7,0,100,0,0\n2.7,1,120,0,0\n")
        with pytest.raises(DataFormatError, match=r"data row 3 is \[2\.7, 0\.0"):
            read_dataset_csv(f)

    @pytest.mark.parametrize("rows, message", [
        ("0,0,100,0,0\n0,1,110,0,0\n0,1,110,0,0\n0,2,120,0,0\n",
         r"duplicate rows for cell \(path=0, t=1\)"),
        ("0,0,100,0,0\n0,1,110,0,0\n0,2,120,0,0\n1,1,110,0,0\n1,2,120,0,0\n",
         r"missing cell \(path=1, t=0\)"),
    ], ids=["duplicate", "missing"])
    def test_record_errors_name_file_and_cell(self, tmp_path, rows, message):
        f = tmp_path / "data.csv"
        f.write_text("# n_paths=2\n# n_steps=2\n# mu=0\n# sigma=0.2\n# r=0\n"
                     "# maturity=1\n# lambda=0.1\n# seed=0\npath,t,s,a,r\n" + rows)
        with pytest.raises(DataFormatError, match=rf"data\.csv: {message}"):
            read_dataset_csv(f)

    def test_header_n_paths_must_match_records(self, tmp_path):
        """A header that claims more paths than the records hold is a
        format error, not a dataset that writes the wrong count back."""
        f = tmp_path / "data.csv"
        f.write_text("# n_paths=5\n# n_steps=1\n# mu=0\n# sigma=0.2\n# r=0\n"
                     "# maturity=1\n# lambda=0.1\n# seed=0\npath,t,s,a,r\n"
                     "0,0,100,0,0\n0,1,110,0,0\n1,0,100,0,0\n1,1,120,0,0\n")
        with pytest.raises(DataFormatError, match=r"data\.csv: header n_paths=5, "
                                                  r"but the records hold 2 paths"):
            read_dataset_csv(f)

    def test_bad_first_price_names_its_cell(self):
        """Without an s0 item, s0 is the first path's t = 0 price: a price
        of 0 there is refused by its cell, not blamed on the header."""
        header = {"n_steps": 1, "mu": 0.0, "sigma": 0.2, "r": 0.0, "maturity": 1.0,
                  "lambda": 0.1}
        with pytest.raises(DataFormatError, match=r"^records: non-positive price 0\.0 at cell "
                                                  r"\(path=0, t=0\); .*positive and finite$"):
            TransitionDataset.from_records([0, 0, 1, 1], [0, 1, 0, 1], [0.0, 100.0, 100.0, 100.0],
                                           [0.0] * 4, [0.0] * 4, header)

    def test_contract_required(self):
        header = {"n_steps": 1, "mu": 0.0, "sigma": 0.2, "r": 0.0, "maturity": 1.0,
                  "lambda": 0.1, "seed": 0, "s0": 100.0}
        ds = TransitionDataset.from_records([0, 1, 0, 1], [0, 0, 1, 1],
                                            [100.0, 100.0, 101.0, 99.0],
                                            [0.0] * 4, [0.0] * 4, header)
        with pytest.raises(DataFormatError, match="contract"):
            fqi_backward(ds, unit_basis())
