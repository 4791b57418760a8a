"""Independent oracles from scipy for I_s, the C1/C2 relative entropies, the
two constraint solvers and the rank-frequency line fit.

scipy is a test-only dependency; the module is skipped when it is absent.
Tolerances are the acceptance ones: 1e-9 on I_s and on the exponent.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")

from namestats import (  # noqa: E402
    AlignedPair,
    PopularityList,
    comm_c1,
    comm_c2,
    fit_ranked_frequencies,
    social_information,
    solve_from_info_constraints,
    solve_from_top_constraints,
)
from namestats.popstats import PopularityEntry  # noqa: E402
from namestats.powerlaw import B_MAX, B_MIN, model_information  # noqa: E402

fractions = st.floats(0.01, 0.99)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=30))
def test_social_information_matches_entropy(weights):
    # scale into a descending list whose total is at most 1
    popularities = sorted((w / (len(weights) + 1) for w in weights), reverse=True)
    k = len(popularities)
    plist = PopularityList(k, tuple(
        PopularityEntry(j, f"N{j:02d}", p) for j, p in enumerate(popularities, start=1)
    ))
    want = math.log2(k) - scipy_stats.entropy(popularities, base=2)
    assert social_information(plist) == pytest.approx(want, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(b=st.floats(B_MIN, B_MAX), k=st.integers(1, 60))
def test_model_information_matches_entropy(b, k):
    want = math.log2(k) - scipy_stats.entropy([j**b for j in range(1, k + 1)], base=2)
    assert model_information(b, k) == pytest.approx(want, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(p1=st.floats(0.01, 0.5), k=st.integers(2, 30), frac=fractions)
def test_top_constraints_match_brentq(p1, k, frac):
    total = p1 + frac * (min(1.0, k * p1) - p1)

    def gap(b):
        return total - p1 * math.fsum(j**b for j in range(1, k + 1))

    want = scipy_optimize.brentq(gap, B_MIN, B_MAX, xtol=1e-14)
    model = solve_from_top_constraints(p1, total, k)
    assert model.exponent == pytest.approx(want, abs=1e-9)
    assert model.total == pytest.approx(total, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 30), frac=fractions, total=st.floats(0.01, 1.0))
def test_info_constraints_match_brentq(k, frac, total):
    info_is = frac * model_information(B_MIN, k)

    def gap(b):
        weights = [j**b for j in range(1, k + 1)]
        return math.log2(k) - scipy_stats.entropy(weights, base=2) - info_is

    want = scipy_optimize.brentq(gap, B_MIN, B_MAX, xtol=1e-14)
    model = solve_from_info_constraints(info_is, total, k)
    assert model.exponent == pytest.approx(want, abs=1e-9)
    assert model.total == pytest.approx(total, abs=1e-10)


@st.composite
def aligned_pairs(draw) -> AlignedPair:
    """Year-2 top-k popularities and year-1 ones (some imputed), each list's
    total in (0, 1) so that C1's other-names term is finite."""
    k = draw(st.integers(1, 30))
    w2 = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    w1 = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    t22, t21 = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99))
    p2 = sorted((t22 * w / math.fsum(w2) for w in w2), reverse=True)
    p1 = [t21 * w / math.fsum(w1) for w in w1]
    return AlignedPair(k, tuple(f"N{j:02d}" for j in range(k)), tuple(p2), tuple(p1),
                       (False,) * k, math.fsum(p2), math.fsum(p1))


@settings(max_examples=200, deadline=None)
@given(aligned_pairs())
def test_c1_c2_match_rel_entr(pair):
    """C1 is KL(year 2 || year 1) over the top k plus one other-names cell;
    C2 is KL between the top-k popularities renormalized by their totals."""
    rel_entr = scipy_special.rel_entr
    c1 = math.fsum(rel_entr([*pair.p2, 1 - pair.t22], [*pair.p1, 1 - pair.t21]))
    c2 = math.fsum(rel_entr([q / pair.t22 for q in pair.p2],
                            [q / pair.t21 for q in pair.p1]))
    assert comm_c1(pair) == pytest.approx(c1 / math.log(2), abs=1e-9)
    assert comm_c2(pair) == pytest.approx(c2 / math.log(2), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10**4), min_size=3, max_size=300))
def test_fit_matches_linregress(counts):
    """Slope, intercept and R^2 of the log2-log2 rank-frequency line."""
    freqs = sorted(counts, reverse=True)
    assume(freqs[0] != freqs[-1])  # linregress leaves r undefined for a constant y
    want = scipy_stats.linregress([math.log2(j) for j in range(1, len(freqs) + 1)],
                                  [math.log2(f) for f in freqs])
    fit = fit_ranked_frequencies(freqs)
    assert fit.slope == pytest.approx(want.slope, abs=1e-9)
    assert fit.intercept == pytest.approx(want.intercept, abs=1e-9)
    assert fit.r_squared == pytest.approx(want.rvalue**2, abs=1e-9)
