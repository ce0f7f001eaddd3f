"""Closed-form Black-Scholes prices and deltas, used as a convergence oracle.

The normal CDF is evaluated with the Hart (1968) double-precision rational
approximation (the constants below are Hart's), giving |error| < 1e-14
without relying on a platform error function.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BSQuote:
    price: float
    delta: float


def norm_cdf(x):
    """Standard normal CDF via Hart's rational approximation; the density is
    evaluated only where |x| <= 37, so no huge |x| overflows it."""
    x = np.asarray(x, dtype=float)
    z = np.abs(x)
    c = np.zeros_like(z)
    small = z < 7.07106781186547

    zs = z[small]
    num = 0.0352624965998911 * zs + 0.700383064443688
    num = num * zs + 6.37396220353165
    num = num * zs + 33.912866078383
    num = num * zs + 112.079291497871
    num = num * zs + 221.213596169931
    num = num * zs + 220.206867912376
    den = 0.0883883476483184 * zs + 1.75566716318264
    den = den * zs + 16.064177579207
    den = den * zs + 86.7807322029461
    den = den * zs + 296.564248779674
    den = den * zs + 637.333633378831
    den = den * zs + 793.826512519948
    den = den * zs + 440.413735824752
    c[small] = np.exp(-0.5 * zs * zs) * num / den

    big = (~small) & (z <= 37.0)
    zb = z[big]
    b = zb + 1.0 / (zb + 2.0 / (zb + 3.0 / (zb + 4.0 / (zb + 0.65))))
    c[big] = np.exp(-0.5 * zb * zb) / (b * 2.506628274631000502)

    out = np.where(x > 0, 1.0 - c, c)
    return out if out.ndim else float(out)


def bs_price_delta(s, strike, sigma, r, tau, kind="put") -> BSQuote:
    """Black-Scholes price and delta of a European option.

    At tau == 0 (or sigma == 0) the lognormal degenerates: the price is the
    discounted intrinsic value on the forward and the delta a step function.
    """
    if s <= 0 or strike <= 0:
        raise ValueError("spot and strike must be positive")
    if sigma < 0 or tau < 0:
        raise ValueError("sigma and tau must be non-negative")
    if kind not in ("put", "call"):
        raise ValueError(f"kind must be 'put' or 'call', got {kind!r}")

    if tau == 0 or sigma == 0:
        fwd = s * np.exp(r * tau)
        disc = np.exp(-r * tau)
        if kind == "call":
            price = disc * max(fwd - strike, 0.0)
            delta = 1.0 if fwd > strike else (0.5 if fwd == strike else 0.0)
        else:
            price = disc * max(strike - fwd, 0.0)
            delta = -1.0 if fwd < strike else (-0.5 if fwd == strike else 0.0)
        return BSQuote(float(price), float(delta))

    srt = sigma * np.sqrt(tau)
    d1 = (np.log(s / strike) + (r + 0.5 * sigma**2) * tau) / srt
    d2 = d1 - srt
    if kind == "call":
        price = s * norm_cdf(d1) - strike * np.exp(-r * tau) * norm_cdf(d2)
        delta = norm_cdf(d1)
    else:
        price = strike * np.exp(-r * tau) * norm_cdf(-d2) - s * norm_cdf(-d1)
        delta = norm_cdf(d1) - 1.0
    return BSQuote(float(price), float(delta))


def limit_hedge_correction(s, bs_delta, mu, r, sigma, lam) -> float:
    """Small-step optimal hedge: BS delta plus the risk-return tilt.

    The tilt (mu - r) / (2 lam sigma^2 s) vanishes when mu == r or in the
    infinite-risk-aversion limit, recovering the pure delta hedge.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if sigma <= 0 or s <= 0:
        raise ValueError("sigma and s must be positive")
    return float(bs_delta + (mu - r) / (2.0 * lam * sigma**2 * s))
