"""Simon's process against its own limit law.

With innovation rate alpha, the share of names borne by exactly k people
tends to the Yule-Simon law f(k) = rho * B(k, rho + 1) with
rho = 1 / (1 - alpha) (H. A. Simon, Biometrika 42, 1955).  Its survival
function P(K >= k) = Gamma(rho + 1) Gamma(k) / Gamma(k + rho) falls as
k**-rho, so count against rank falls as rank**-(1 - alpha): the
rank-frequency slope is -(1 - alpha).

Two estimators are checked on a fixed grid of alpha and seeds:

- the package's log2-log2 OLS line (``fit_rank_frequency``).  A least-squares
  fit on a log-log rank plot is biased at finite size (Clauset, Shalizi and
  Newman, SIAM Review 51, 2009, section 3 and appendix A), and its
  regression standard error is not a valid error bar.  The bias is taken
  from the law itself: the same OLS fit through the expected rank curve of
  the Yule-Simon law at the grid's name count and ``min_count``.  The mean
  slope over the seeds may then differ from -(1 - alpha) by that bias plus
  a two-sided 99.9% Student t allowance on the seeds' own spread.
- the discrete maximum-likelihood estimate of rho under the Yule-Simon law
  (scipy only), whose error bar is its Fisher information: every seed's
  slope -1 / rho must lie within four standard errors of -(1 - alpha).
"""

import math
import statistics

import numpy as np
import pytest

from namestats import SimulationConfig, fit_rank_frequency, fit_ranked_frequencies
from namestats import frequency_table, simulate_naming

ALPHAS = (0.1, 0.3, 0.5)
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
BIRTHS = 100_000
MIN_COUNT = 5  # fit_rank_frequency's default
# two-sided 99.9% quantile of Student's t with len(SEEDS) - 1 = 7 degrees of freedom
T_999_7DF = 5.408


@pytest.fixture(scope="module")
def tables():
    """Every seed's frequency table, by alpha."""
    return {
        alpha: [frequency_table(simulate_naming(SimulationConfig(alpha, BIRTHS, seed=s)))
                for s in SEEDS]
        for alpha in ALPHAS
    }


def survival(k: int, rho: float) -> float:
    """P(K >= k) under the Yule-Simon law."""
    return math.exp(math.lgamma(rho + 1) + math.lgamma(k) - math.lgamma(k + rho))


def expected_rank_counts(distinct: float, rho: float, min_count: int) -> list[float]:
    """The law's rank curve over counts >= ``min_count``: with ``distinct``
    names, floor(distinct * P(K >= k)) of them bear k or more."""
    at_least = {}
    k = min_count
    while (ranks := math.floor(distinct * survival(k, rho))) >= 1:
        at_least[k] = ranks
        k += 1
    curve = [float(k) for k, n in at_least.items() for _ in range(n - at_least.get(k + 1, 0))]
    return curve[::-1]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_ols_slope_within_finite_size_bias(tables, alpha):
    target = -(1 - alpha)
    distinct = alpha * BIRTHS + 1
    law = fit_ranked_frequencies(expected_rank_counts(distinct, 1 / (1 - alpha), MIN_COUNT))
    bias = abs(law.slope - target)
    slopes = [fit_rank_frequency(table, MIN_COUNT).slope for table in tables[alpha]]
    allowance = T_999_7DF * statistics.stdev(slopes) / math.sqrt(len(slopes))
    assert abs(statistics.mean(slopes) - target) <= bias + allowance, (slopes, bias)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_discrete_mle_slope(tables, alpha):
    optimize = pytest.importorskip("scipy.optimize")
    special = pytest.importorskip("scipy.special")
    stats = pytest.importorskip("scipy.stats")
    for table in tables[alpha]:
        k, n = np.unique(list(table.counts.values()), return_counts=True)
        rho = optimize.minimize_scalar(
            lambda r: -np.sum(n * stats.yulesimon.logpmf(k, r)),
            bounds=(1.0, 20.0), method="bounded", options={"xatol": 1e-10},
        ).x
        # Fisher information of rho: -d2/drho2 log f(k) summed over the names
        info = np.sum(n * (rho**-2 + special.polygamma(1, k + rho + 1)
                           - special.polygamma(1, rho + 1)))
        slope_se = 1 / (rho**2 * math.sqrt(info))
        assert abs(-1 / rho + (1 - alpha)) <= 4 * slope_se, (rho, slope_se)

