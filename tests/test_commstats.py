import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namestats import (
    DivergentOtherMassError,
    align,
    average_summaries,
    comm_all,
    comm_c1,
    comm_c2,
    comm_c3,
    comm_c4,
    frequency_table,
    new_names,
    top_k,
    turnover_per_annum,
)
from namestats.commstats import AlignedPair, CommResult

from conftest import make_cohort


def pair_from_counts(counts1: dict, counts2: dict, k: int):
    t1 = frequency_table(make_cohort(counts1))
    t2 = frequency_table(make_cohort(counts2))
    l1, l2 = top_k(t1, k), top_k(t2, k)
    return align(l1, t1, l2), l1, l2


class TestAlign:
    def test_present_both_years(self):
        pair, _, _ = pair_from_counts({"AA": 6, "BB": 4}, {"AA": 5, "BB": 5}, 2)
        # AA ranks first in year 2 by tie-break; p1 entries are year-1 shares
        assert pair.names == ("AA", "BB")
        assert pair.p1 == (0.6, 0.4)
        assert not any(pair.fallback_used)

    def test_fallback_half_of_least_observed(self):
        counts1 = {"AA": 500, "BB": 300, "CC": 198, "DD": 2}
        counts2 = {"AA": 400, "BB": 300, "XX": 300}
        pair, _, _ = pair_from_counts(counts1, counts2, 3)
        # XX missing in year 1; least popular observed year-1 name has 0.002
        idx = pair.names.index("XX")
        assert pair.p1[idx] == pytest.approx(0.001, abs=1e-15)
        assert pair.fallback_used[idx]
        assert pair.fallback_baseline == "sample"

    def test_fallback_from_published_list(self):
        counts1 = {"AA": 500, "BB": 300, "CC": 200}
        counts2 = {"AA": 400, "BB": 300, "XX": 300}
        t1 = frequency_table(make_cohort(counts1))
        t2 = frequency_table(make_cohort(counts2))
        l1, l2 = top_k(t1, 3), top_k(t2, 3)
        pair = align(l1, None, l2)
        idx = pair.names.index("XX")
        assert pair.p1[idx] == pytest.approx(0.1, abs=1e-15)  # half of CC's 0.2
        assert pair.fallback_baseline == "list"

    def test_identical_cohorts(self):
        counts = {"AA": 5, "BB": 3, "CC": 2}
        pair, _, _ = pair_from_counts(counts, counts, 3)
        assert pair.p1 == pair.p2
        assert pair.t11 == pair.t21 == pair.t22

    def test_t11_is_year1_own_top(self):
        counts1 = {"AA": 50, "BB": 30, "CC": 15, "DD": 5}
        counts2 = {"AA": 40, "XX": 35, "YY": 25}
        pair, l1, _ = pair_from_counts(counts1, counts2, 2)
        assert pair.t11 == pytest.approx(l1.total, abs=1e-15)
        assert pair.t11 >= pair.t21

    def test_empty_year1_table_rejected(self):
        t2 = frequency_table(make_cohort({"AA": 2, "BB": 1}))
        l2 = top_k(t2, 2)
        t1 = frequency_table(make_cohort({}))
        with pytest.raises(ValueError, match="empty"):
            align(l2, t1, l2)

    def test_mismatched_k_rejected(self):
        t1 = frequency_table(make_cohort({"AA": 2, "BB": 1}))
        t2 = frequency_table(make_cohort({"AA": 2, "BB": 1, "CC": 1}))
        with pytest.raises(ValueError, match="share k"):
            align(top_k(t1, 2), t1, top_k(t2, 3))


def toy_pair(p1, p2, t11=None, **kwargs):
    k = len(p2)
    return AlignedPair(
        k=k,
        names=tuple(f"N{j}" for j in range(k)),
        p2=tuple(p2),
        p1=tuple(p1),
        fallback_used=(False,) * k,
        t22=math.fsum(p2),
        t21=math.fsum(p1),
        t11=t11 if t11 is not None else math.fsum(p1),
        **kwargs,
    )


class TestCommStatistics:
    def test_identical_distributions_zero(self):
        counts = {"AA": 5, "BB": 3, "CC": 2}
        pair, _, _ = pair_from_counts(counts, counts, 3)
        assert comm_c1(pair) == 0
        assert comm_c2(pair) == 0
        assert comm_c3(pair) == 0
        assert comm_c4(pair) == 0

    def test_three_name_toy_pair_matches_literal_oracle(self):
        p1 = [0.30, 0.20, 0.10]
        p2 = [0.25, 0.22, 0.13]
        t11 = 0.65
        pair = toy_pair(p1, p2, t11=t11)
        T22, T21 = sum(p2), sum(p1)
        oracle_c1 = sum(
            b * math.log2(b / a) for a, b in zip(p1, p2)
        ) + (1 - T22) * math.log2((1 - T22) / (1 - T21))
        oracle_c2 = sum(
            (b / T22) * math.log2(b / a) for a, b in zip(p1, p2)
        ) + math.log2(T21 / T22)
        oracle_c3 = sum(
            (b / T22) * math.log2(b / a) for a, b in zip(p1, p2)
        ) + math.log2(t11 / T22)
        oracle_c4 = 100 * sum((b / T22) * abs(b / a - 1) for a, b in zip(p1, p2))
        assert comm_c1(pair) == pytest.approx(oracle_c1, abs=1e-12)
        assert comm_c2(pair) == pytest.approx(oracle_c2, abs=1e-12)
        assert comm_c3(pair) == pytest.approx(oracle_c3, abs=1e-12)
        assert comm_c4(pair) == pytest.approx(oracle_c4, abs=1e-12)

    def test_c3_equals_c2_when_topk_sets_match(self):
        counts1 = {"AA": 50, "BB": 30, "CC": 20}
        counts2 = {"AA": 20, "BB": 30, "CC": 50}
        pair, _, _ = pair_from_counts(counts1, counts2, 3)
        assert comm_c3(pair) == pytest.approx(comm_c2(pair), abs=1e-15)

    def test_c3_c2_gap_identity(self):
        counts1 = {"AA": 50, "BB": 30, "CC": 15, "DD": 5}
        counts2 = {"AA": 40, "XX": 35, "YY": 25}
        pair, _, _ = pair_from_counts(counts1, counts2, 2)
        gap = comm_c3(pair) - comm_c2(pair)
        assert gap == pytest.approx(math.log2(pair.t11 / pair.t21), abs=1e-12)
        assert gap >= 0

    def test_c3_requires_t11(self):
        pair = replace(toy_pair([0.3, 0.2], [0.25, 0.22]), t11=None)
        with pytest.raises(ValueError, match="t11_required"):
            comm_c3(pair)

    def test_divergent_other_mass(self):
        pair = toy_pair([0.6, 0.4], [0.5, 0.3], t11=1.0)
        with pytest.raises(DivergentOtherMassError):
            comm_c1(pair)

    def test_full_coverage_both_years(self):
        # both distributions exhaust the sample: the other-names term vanishes
        pair = toy_pair([0.6, 0.4], [0.5, 0.5])
        expected = sum(b * math.log2(b / a) for a, b in zip([0.6, 0.4], [0.5, 0.5]))
        assert comm_c1(pair) == pytest.approx(expected, abs=1e-12)

    def test_c2_c4_scale_invariant(self):
        p1 = [0.30, 0.20, 0.10]
        p2 = [0.25, 0.22, 0.13]
        base = toy_pair(p1, p2)
        scaled = toy_pair([x / 2 for x in p1], [x / 2 for x in p2])
        assert comm_c2(scaled) == pytest.approx(comm_c2(base), abs=1e-12)
        assert comm_c4(scaled) == pytest.approx(comm_c4(base), abs=1e-12)

    def test_asymmetric_in_general(self):
        p1 = [0.30, 0.20, 0.10]
        p2 = [0.25, 0.22, 0.13]
        forward = comm_c1(toy_pair(p1, p2))
        backward = comm_c1(toy_pair(p2, p1))
        assert forward != pytest.approx(backward, abs=1e-9)

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(1, 400), min_size=2, max_size=8),
        st.lists(st.integers(1, 400), min_size=2, max_size=8),
    )
    def test_nonnegativity_property(self, c1s, c2s):
        k = min(len(c1s), len(c2s))
        p1 = sorted((c / (2 * sum(c1s)) for c in c1s), reverse=True)[:k]
        p2 = sorted((c / (2 * sum(c2s)) for c in c2s), reverse=True)[:k]
        pair = toy_pair(p1, p2, t11=max(math.fsum(p1), math.fsum(p2)))
        assert comm_c1(pair) >= -1e-12
        assert comm_c2(pair) >= -1e-12
        assert comm_c4(pair) >= 0
        assert comm_c3(pair) >= comm_c2(pair) - 1e-12


class TestNewNamesAndTurnover:
    def test_identical_lists(self):
        t = frequency_table(make_cohort({"AA": 3, "BB": 2, "CC": 1}))
        l = top_k(t, 3)
        assert new_names(l, l) == 0

    def test_disjoint_lists(self):
        t1 = frequency_table(make_cohort({f"A{i}": i + 1 for i in range(10)}))
        t2 = frequency_table(make_cohort({f"B{i}": i + 1 for i in range(10)}))
        assert new_names(top_k(t1, 10), top_k(t2, 10)) == 10

    def test_half_shared(self):
        t1 = frequency_table(make_cohort({f"A{i}": i + 1 for i in range(10)}))
        shared = {f"A{i}": i + 1 for i in range(5)}
        shared.update({f"B{i}": i + 6 for i in range(5)})
        t2 = frequency_table(make_cohort(shared))
        assert new_names(top_k(t1, 10), top_k(t2, 10)) == 5

    @pytest.mark.parametrize("new, years, rate", [(5, 50, 0.1), (0, 10, 0), (10, 100, 0.1)])
    def test_turnover(self, new, years, rate):
        assert turnover_per_annum(new, years) == pytest.approx(rate, abs=1e-15)

    def test_turnover_rejects_nonpositive_years(self):
        with pytest.raises(ValueError):
            turnover_per_annum(1, 0)


class TestCommAll:
    def test_self_comparison_all_zero(self):
        cohort = make_cohort({f"N{i:02d}": 20 - i for i in range(12)})
        result = comm_all(cohort, cohort, 10, years_elapsed=10)
        assert result.c1 == result.c2 == result.c3 == result.c4 == 0
        assert result.new_topk == 0
        assert result.turnover_pa == 0
        assert result.fallback_count == 0

    def test_fields_match_per_op_results(self):
        cohort1 = make_cohort({"AA": 50, "BB": 30, "CC": 15, "DD": 5})
        cohort2 = make_cohort({"AA": 40, "BB": 20, "XX": 30, "YY": 10})
        k = 3
        t1, t2 = frequency_table(cohort1), frequency_table(cohort2)
        l1, l2 = top_k(t1, k), top_k(t2, k)
        pair = align(l1, t1, l2)
        result = comm_all(cohort1, cohort2, k, years_elapsed=50)
        assert result.c1 == pytest.approx(comm_c1(pair), abs=1e-15)
        assert result.c2 == pytest.approx(comm_c2(pair), abs=1e-15)
        assert result.c3 == pytest.approx(comm_c3(pair), abs=1e-15)
        assert result.c4 == pytest.approx(comm_c4(pair), abs=1e-15)
        assert result.new_topk == new_names(l1, l2)
        assert result.turnover_pa == pytest.approx(result.new_topk / 50, abs=1e-15)

    def test_t11_override(self):
        cohort1 = make_cohort({"AA": 50, "BB": 30, "CC": 20})
        cohort2 = make_cohort({"AA": 20, "BB": 30, "CC": 50})
        base = comm_all(cohort1, cohort2, 2)
        overridden = comm_all(cohort1, cohort2, 2, t11_override=0.95)
        assert overridden.c3 > base.c3
        assert overridden.c1 == base.c1

    def test_order_matters(self):
        cohort1 = make_cohort({"AA": 60, "BB": 25, "CC": 15})
        cohort2 = make_cohort({"AA": 30, "BB": 40, "CC": 30})
        forward = comm_all(cohort1, cohort2, 2)
        backward = comm_all(cohort2, cohort1, 2)
        assert forward.c1 != backward.c1

    def test_fallback_counted(self):
        cohort1 = make_cohort({"AA": 500, "BB": 300, "CC": 198, "DD": 2})
        cohort2 = make_cohort({"AA": 400, "BB": 300, "XX": 300})
        result = comm_all(cohort1, cohort2, 3)
        assert result.fallback_count == 1


class TestAverageCommResults:
    def result(self, c1, new=1.0, fallback=0):
        return CommResult(
            c1=c1, c2=c1 / 2, c3=c1, c4=10 * c1, new_topk=new,
            years_elapsed=10.0, turnover_pa=new / 10.0, k=10,
            fallback_count=fallback,
        )

    def test_mean_and_fractional_new(self):
        avg = average_summaries([self.result(0.2, new=1), self.result(0.4, new=2)])
        assert avg.c1 == pytest.approx(0.3, abs=1e-15)
        assert avg.new_topk == pytest.approx(1.5, abs=1e-15)

    def test_mismatched_k(self):
        with pytest.raises(ValueError, match="k"):
            average_summaries([self.result(0.2), replace(self.result(0.2), k=5)])
