"""Discrete-time option pricing and hedging via risk-adjusted Q-functions.

A numerical engine that prices and hedges European options in discrete
time by optimizing the risk-adjusted returns of a self-financing
replicating portfolio: semi-analytic dynamic programming when the model
is known, fitted Q-iteration when only transition data is available, and
tabular Q-learning on a discretized chain, with a closed-form
Black-Scholes oracle for the small-step limit.
"""

__version__ = "0.1.0"

from .basis import BasisSet, build_basis
from .black_scholes import BSQuote, bs_price_delta, limit_hedge_correction, norm_cdf
from .dp import DPSolution, price_and_hedge_surface, solve_dp
from .errors import (ConfigError, DataFormatError, DegenerateInputError,
                     QHedgeError, SingularSystemError)
from .fqi import (FQISolution, TransitionDataset, build_dataset, build_features,
                  dataset_rewards, extract_price_hedge, fqi_backward,
                  read_dataset_csv, write_dataset_csv)
from .market import (MarketParams, OptionContract, PathEnsemble, from_state,
                     simulate_gbm, terminal_payoff, to_state)
from .portfolio import (HedgeStrategy, PortfolioRollout, RiskParams, ask_price,
                        reward_parabola, rollout_portfolio,
                        signed_measure_weights, solve_local_risk)
from .tabular import (DiscreteMDP, QTable, discretize, exact_backward_induction,
                      q_learn)
from .utility import IndifferenceResult, indifference_price_recursion

__all__ = [
    "BSQuote", "BasisSet", "ConfigError", "DPSolution", "DataFormatError",
    "DegenerateInputError", "DiscreteMDP", "FQISolution",
    "HedgeStrategy", "IndifferenceResult", "MarketParams", "OptionContract",
    "PathEnsemble", "PortfolioRollout", "QHedgeError", "QTable", "RiskParams",
    "SingularSystemError", "TransitionDataset", "ask_price",
    "bs_price_delta", "build_basis", "build_dataset",
    "build_features", "dataset_rewards", "discretize",
    "exact_backward_induction", "extract_price_hedge", "fqi_backward",
    "from_state", "indifference_price_recursion", "limit_hedge_correction",
    "norm_cdf", "price_and_hedge_surface", "q_learn", "read_dataset_csv",
    "reward_parabola", "rollout_portfolio", "signed_measure_weights",
    "simulate_gbm", "solve_dp", "solve_local_risk", "terminal_payoff",
    "to_state", "write_dataset_csv",
]
