"""Properties of I_s, the communication statistics and the rank-frequency fit
at extreme inputs: popularities near 1e-300, one-name lists (k = 1), and
list totals within 1e-12 of 1, the slack the aligned pair accepts.

On such inputs each function returns a value inside its own invariants
(C1, C2, C4 >= 0, C3 >= C2, 0 <= R^2 <= 1) or raises the error its
contract names, never an invariant ``ValueError`` of a result.  Aligned
pairs are built as :func:`namestats.align` builds them, with year 1's own
top-k total T11 at least T21, or a little below it (relative to T21), where
the pair either refuses T11 or its statistics keep C3 >= C2.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from namestats import (
    DivergentOtherMassError,
    PopularityList,
    fit_ranked_frequencies,
    social_information,
)
from namestats.commstats import AlignedPair, comm_from_pair
from namestats.popstats import PopularityEntry

# the total a list is scaled to: near the smallest normal floats, near 1
# with the aligned pair's slack either side, or an ordinary fraction
TOTALS = st.sampled_from([1e-300, 3e-298, 1 - 1e-12, 1.0, 1 + 1e-12, 0.37])
KS = st.one_of(st.just(1), st.integers(1, 40))


@st.composite
def popularities(draw, k: int, total: float) -> list[float]:
    """``k`` positive popularities, non-increasing, summing to about ``total``."""
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    scale = total / math.fsum(weights)
    return sorted((w * scale for w in weights), reverse=True)


def plist(popularities: list[float]) -> PopularityList:
    return PopularityList(len(popularities), tuple(
        PopularityEntry(j, f"N{j:03d}", p) for j, p in enumerate(popularities, start=1)
    ))


@settings(max_examples=300, deadline=None)
@given(st.data(), KS, TOTALS)
def test_social_information_bounds_and_scale(data, k, total):
    p = data.draw(popularities(k, total))
    info = social_information(plist(p))
    assert -1e-9 <= info <= math.log2(k) + 1e-9
    if k == 1:
        assert info == 0.0
    # I_s depends only on the normalized list
    unit = math.fsum(p)
    assert info == pytest.approx(social_information(plist([q / unit for q in p])),
                                 abs=1e-9)


def _capped(p: list[float]) -> list[float]:
    """``p``, scaled down by an ulp at a time until its sum is a valid total."""
    while math.fsum(p) > 1 + 1e-12:
        p = [q * (1 - 2**-52) for q in p]
    return p


@settings(max_examples=400, deadline=None)
@given(st.data(), KS, TOTALS, TOTALS)
def test_comm_from_pair_at_extremes(data, k, total2, total1):
    p2 = _capped(data.draw(popularities(k, total2)))
    p1 = _capped(data.draw(st.permutations(data.draw(popularities(k, total1)))))
    t21 = math.fsum(p1)
    below = [t21 * (1 - r) for r in (2**-52, 1e-12, 1e-10, 2e-10, 1e-9)]
    t11 = data.draw(st.sampled_from([t21, min(1.0, 2 * t21), 1.0, *below]))
    try:
        pair = AlignedPair(k, tuple(f"N{j:03d}" for j in range(k)), tuple(p2),
                           tuple(p1), (False,) * k, math.fsum(p2), t21, t11=t11)
    except ValueError as exc:
        # the pair's own refusal of a T11 below T21
        assert str(exc).startswith("t11 ") and t11 < t21
        return
    try:
        result = comm_from_pair(pair, new_topk=0)
    except DivergentOtherMassError:
        # only when year 2 has mass outside its top k that year 1 lacks
        assert 1 - pair.t22 >= 1e-12 > 1 - pair.t21
        return
    assert all(math.isfinite(c) for c in (result.c1, result.c2, result.c3, result.c4))
    if p1 == p2:
        assert result.c1 == result.c2 == result.c4 == 0.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=3, max_size=60), TOTALS,
       st.one_of(st.just(0.0), st.floats(-3.0, -0.1)))
# near-tied counts near 1e-300, where log2 of each frequency lost the digits
# of their differences; the same at the largest total, and a 60-point
# near-tied series at both ends
@example([82495, 82492, 82492], 1e-300, 0.0)
@example([82495, 82492, 82492], 1 + 1e-12, 0.0)
@example([10**6] * 30 + [10**6 - 1] * 30, 1e-300, -3.0)
@example([10**6] * 30 + [10**6 - 1] * 30, 1 + 1e-12, -0.1)
def test_fit_at_extreme_scales(counts, total, exponent):
    """A line fit through popularities scaled to ``total`` has the slope and
    R^2 of the unscaled counts, and an intercept moved by log2 of the scale."""
    counts = sorted(counts, reverse=True)
    n = len(counts)
    scale = total / sum(counts)
    fit = fit_ranked_frequencies([c * scale for c in counts])
    base = fit_ranked_frequencies(counts)
    assert 0.0 <= fit.r_squared <= 1.0
    assert fit.slope == pytest.approx(base.slope, abs=1e-9)
    assert fit.r_squared == pytest.approx(base.r_squared, abs=1e-9)
    assert fit.intercept == pytest.approx(base.intercept + math.log2(scale), abs=1e-9)
    # an exact power law at that scale is fitted exactly
    exact = fit_ranked_frequencies([total * j**exponent for j in range(1, n + 1)])
    assert exact.slope == pytest.approx(exponent, abs=1e-9)
    assert exact.r_squared == pytest.approx(1.0, abs=1e-9)
