"""Rank-frequency power-law fitting and constrained log-linear models.

Name frequencies are approximately log-linear in frequency rank, so a
least-squares line through (log2 rank, log2 frequency) summarizes a
sample, and conversely a model p_j = a * j**b over ranks j = 1..k can be
pinned down from summary constraints.  Two solvers recover b: one from
the top-name and top-k totals, one from a target social-information
value (which depends on b alone).  Both bisect on b in [-20, 0], where
the objectives are strictly monotone, down to a 1e-12 bracket.

The constrained models drive the Conquest estimate: a year-2 list built
from top-name constraints, a year-1 list built from an information
constraint, rank-matched into an aligned pair whose top-k sets are
treated as disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .commstats import AlignedPair, CommResult, comm_from_pair
from .popstats import FrequencyTable, normalized_information, ranked

B_MIN, B_MAX = -20.0, 0.0
BRACKET_WIDTH = 1e-12


class InsufficientPointsError(ValueError):
    """Fewer qualifying names than a line fit needs."""


class InfeasibleConstraintsError(ValueError):
    """No log-linear model with b in [-20, 0] meets the constraints."""


@dataclass(frozen=True)
class PowerLawFit:
    """OLS line through (log2 rank, log2 frequency)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int
    min_count: float

    def __post_init__(self) -> None:
        if self.points_used < 3:
            raise ValueError("a fit needs at least 3 points")
        if not 0 <= self.r_squared <= 1:
            raise ValueError("r_squared outside [0, 1]")


@dataclass(frozen=True)
class LogLinearModel:
    """Popularity model p_j = scale * j**exponent over ranks 1..k."""

    k: int
    exponent: float
    scale: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.exponent > 1e-15:
            raise ValueError("exponent must be <= 0 (non-increasing popularity)")
        if self.total > 1 + 1e-9:
            raise ValueError("total popularity exceeds 1")

    @property
    def popularities(self) -> tuple[float, ...]:
        return tuple(self.scale * j**self.exponent for j in range(1, self.k + 1))

    @property
    def total(self) -> float:
        return math.fsum(self.popularities)


def fit_ranked_frequencies(
    frequencies: Sequence[float], min_count: float = 0.0
) -> PowerLawFit:
    """Least-squares log2-log2 line through rank-ordered frequencies.

    ``frequencies`` must be positive and non-increasing (rank order);
    rank j is the 1-based position.  R-squared of a constant series is
    defined as 1 when the line reproduces it exactly.
    """
    n = len(frequencies)
    if n < 3:
        raise InsufficientPointsError(f"need >= 3 qualifying points, got {n}")
    if any(f <= 0 for f in frequencies):
        raise ValueError("frequencies must be positive")
    x = [math.log2(j) for j in range(1, n + 1)]
    # log2 of each frequency over the first, which keeps the digits of
    # near-tied frequencies at any scale, where log2(f) near 2**-998 would
    # round them away; it is exactly 0 for a frequency equal to the first
    first = frequencies[0]
    r = [math.log2(f / first) for f in frequencies]
    x_mean = math.fsum(x) / n
    r_mean = math.fsum(r) / n
    dx = [v - x_mean for v in x]
    dy = [v - r_mean for v in r]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    intercept = math.log2(first) + r_mean - slope * x_mean
    ss_res = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    ss_tot = math.fsum(b * b for b in dy)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-18 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    r2 = min(1.0, max(0.0, r2))
    return PowerLawFit(slope, intercept, r2, n, min_count)


def fit_rank_frequency(table: FrequencyTable, min_count: int = 5) -> PowerLawFit:
    """Fit the log2 count vs log2 rank line over names with enough counts.

    Only names with count >= min_count enter the fit; at least three must
    qualify.  The intercept is in log2-count units (the fitted log2
    frequency at rank 1).
    """
    qualifying = [float(c) for _, c in ranked(table.counts) if c >= min_count]
    if len(qualifying) < 3:
        raise InsufficientPointsError(
            f"need >= 3 names with count >= {min_count}, got {len(qualifying)}"
        )
    return fit_ranked_frequencies(qualifying, min_count=min_count)


def loglog_series(table: FrequencyTable) -> list[tuple[float, float]]:
    """Chart-ready (log2 rank, log2 count) pairs in rank order."""
    return [
        (math.log2(rank), math.log2(count))
        for rank, (_, count) in enumerate(ranked(table.counts), start=1)
    ]


def _bisect_decreasing(objective, lo: float, hi: float) -> float:
    """Root of a decreasing objective on [lo, hi] to BRACKET_WIDTH."""
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if objective(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _rank_sum(b: float, k: int) -> float:
    return math.fsum(j**b for j in range(1, k + 1))


def model_information(b: float, k: int) -> float:
    """I_s of the normalized model j**b over ranks 1..k; depends on b only."""
    return normalized_information([j**b for j in range(1, k + 1)])


def solve_from_top_constraints(p1: float, total: float, k: int) -> LogLinearModel:
    """Model with rank-1 popularity ``p1`` and top-k total ``total``.

    scale = p1 and b solves sum_j p1 * j**b = total.  Feasible totals lie
    in (p1, k*p1]; total = p1 needs b -> -inf and is rejected as
    degenerate, as is any total below what b = -20 can reach.
    """
    if not 0 < p1 <= 1:
        raise InfeasibleConstraintsError(f"p1 must be in (0, 1], got {p1}")
    if not p1 <= total <= k * p1:
        raise InfeasibleConstraintsError(
            f"total {total} outside [p1, k*p1] = [{p1}, {k * p1}]"
        )
    if total > 1 + 1e-12:
        raise InfeasibleConstraintsError(f"total {total} exceeds 1")
    if k == 1 or total == k * p1:
        return LogLinearModel(k=k, exponent=0.0, scale=p1)

    def gap(b: float) -> float:
        # decreasing in b: the rank sum grows as b rises toward 0
        return total - p1 * _rank_sum(b, k)

    if gap(B_MIN) <= 0:
        raise InfeasibleConstraintsError(
            f"degenerate: total {total} too close to p1 {p1} for b >= {B_MIN}"
        )
    b = _bisect_decreasing(gap, B_MIN, B_MAX)
    model = LogLinearModel(k=k, exponent=b, scale=p1)
    residual = abs(model.total - total)
    if residual > 1e-10:
        raise InfeasibleConstraintsError(f"solver residual {residual} > 1e-10")
    return model


def solve_from_info_constraints(info_is: float, total: float, k: int) -> LogLinearModel:
    """Model whose normalized I_s equals ``info_is``, scaled to ``total``.

    I_s of the model depends only on the exponent, so b is solved first
    and the scale then set to make the popularities sum to ``total``.
    """
    if not 0 < total <= 1:
        raise InfeasibleConstraintsError(f"total must be in (0, 1], got {total}")
    if k == 1:
        if info_is != 0:
            raise InfeasibleConstraintsError("k = 1 admits only info_is = 0")
        return LogLinearModel(k=1, exponent=0.0, scale=total)
    if not 0 <= info_is < math.log2(k):
        raise InfeasibleConstraintsError(
            f"info_is must lie in [0, log2({k})), got {info_is}"
        )
    if info_is == 0:
        b = 0.0
    else:
        if model_information(B_MIN, k) <= info_is:
            raise InfeasibleConstraintsError(
                f"info_is {info_is} unreachable with b >= {B_MIN}"
            )

        def gap(b: float) -> float:
            # I_s grows as b falls, so this is decreasing in b
            return model_information(b, k) - info_is

        b = _bisect_decreasing(gap, B_MIN, B_MAX)
    scale = total / _rank_sum(b, k)
    model = LogLinearModel(k=k, exponent=b, scale=scale)
    residual = abs(model_information(b, k) - info_is)
    if residual > 1e-10:
        raise InfeasibleConstraintsError(f"solver residual {residual} > 1e-10")
    return model


def conquest_model(
    year2_top: float,
    year2_total: float,
    year1_info: float,
    year1_total: float,
    t11: float,
    k: int = 10,
) -> CommResult:
    """Communication statistics for a constructed century-scale pair.

    The year-2 distribution comes from its top-name and top-k totals; the
    year-1 popularities of those same names come from an information
    constraint scaled to ``year1_total``, matched to year-2 names in rank
    order.  Year 1's own top-k total is not derivable from either model
    and must be supplied as ``t11``.  The two top-k name sets are assumed
    disjoint, so the new-name count is k.
    """
    m2 = solve_from_top_constraints(year2_top, year2_total, k)
    m1 = solve_from_info_constraints(year1_info, year1_total, k)
    pair = AlignedPair(
        k=k,
        names=tuple(f"R{j}" for j in range(1, k + 1)),
        p2=m2.popularities,
        p1=m1.popularities,
        fallback_used=(False,) * k,
        t22=m2.total,
        t21=m1.total,
        t11=t11,
        fallback_baseline="model",
    )
    return comm_from_pair(pair, new_topk=k)
