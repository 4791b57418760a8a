import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from namestats import (
    CohortSpec,
    InsufficientDistinctNamesError,
    PopularityList,
    PopularitySummary,
    Sex,
    average_summaries,
    frequency_table,
    name_popularity,
    sampling_variability,
    social_information,
    summarize,
    top_k,
)
from namestats.popstats import PopularityEntry

from conftest import make_cohort

# frozen offline oracle: I_s of (0.91, 0.01 x 9) by direct entropy summation
IS_CONCENTRATED = 2.600165027693451


def plist_from(popularities: list[float]) -> PopularityList:
    entries = tuple(
        PopularityEntry(j, f"N{j:02d}", p)
        for j, p in enumerate(popularities, start=1)
    )
    return PopularityList(len(popularities), entries)


class TestFrequencyTable:
    def test_counts(self):
        table = frequency_table(make_cohort({"MARY": 2, "ANN": 1}))
        assert table.counts == {"MARY": 2, "ANN": 1}
        assert table.sample_size == 3

    def test_empty(self):
        table = frequency_table(make_cohort({}))
        assert table.counts == {} and table.sample_size == 0

    def test_order_invariant(self):
        a = frequency_table(make_cohort({"A": 1, "B": 2}))
        b = frequency_table(make_cohort({"B": 2, "A": 1}))
        assert a.counts == b.counts


class TestTopK:
    def test_uniform_ties_lexicographic(self):
        names = [f"{c}X" for c in "JIHGFEDCBA"]
        table = frequency_table(make_cohort({n: 1 for n in names}))
        plist = top_k(table, 10)
        assert plist.names == tuple(sorted(names))
        assert all(e.popularity == 0.1 for e in plist.entries)

    def test_ranked_by_count(self):
        table = frequency_table(make_cohort({"AA": 5, "BB": 3, "CC": 2}))
        plist = top_k(table, 2)
        assert plist.entries[0] == (1, "AA", 0.5)
        assert plist.entries[1] == (2, "BB", 0.3)

    def test_insufficient_distinct(self):
        table = frequency_table(make_cohort({f"N{i}": 1 for i in range(9)}))
        with pytest.raises(InsufficientDistinctNamesError):
            top_k(table, 10)


class TestSocialInformation:
    def test_uniform_is_zero(self):
        assert social_information(plist_from([0.1] * 10)) == pytest.approx(0, abs=1e-12)

    def test_concentrated_matches_oracle(self):
        plist = plist_from([0.91] + [0.01] * 9)
        assert social_information(plist) == pytest.approx(IS_CONCENTRATED, abs=1e-12)

    def test_matches_literal_formula(self):
        # log2(k) minus the entropy of the normalized list
        p = [0.31, 0.17, 0.11, 0.07, 0.03]
        T = sum(p)
        literal = math.log2(len(p)) - sum((x / T) * math.log2(T / x) for x in p)
        assert social_information(plist_from(p)) == pytest.approx(literal, abs=1e-12)

    def test_scale_invariant(self):
        p = [0.2, 0.1, 0.05, 0.02]
        a = social_information(plist_from(p))
        b = social_information(plist_from([x * 0.5 for x in p]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_bounds(self):
        for p in ([0.5, 0.25, 0.2, 0.05], [0.9, 0.01, 0.01, 0.01], [0.1] * 4):
            val = social_information(plist_from(p))
            assert -1e-12 <= val <= math.log2(len(p)) + 1e-12

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=10)
    )
    def test_bounds_property(self, counts):
        counts = sorted(counts, reverse=True)
        total = 2 * sum(counts)
        val = social_information(plist_from([c / total for c in counts]))
        assert -1e-9 <= val <= math.log2(len(counts)) + 1e-9

    @given(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=3,
            max_size=10,
            unique=True,
        )
    )
    def test_concentration_monotonicity(self, counts):
        # move mass from a lower-ranked to a higher-ranked entry, keeping order
        counts = sorted(counts, reverse=True)
        total = 2 * sum(counts)
        p = [c / total for c in counts]
        gaps = [p[i] - p[i + 1] for i in range(len(p) - 1)] + [p[-1]]
        eps = min(gaps) / 4
        i, j = 0, len(p) - 1
        shifted = p[:]
        shifted[i] += eps
        shifted[j] -= eps
        assert social_information(plist_from(shifted)) > social_information(
            plist_from(p)
        )


class TestSummarize:
    def test_exact_top_pop(self):
        counts = {"MARY": 239}
        for i, c in enumerate([150, 120, 90, 70, 60, 50, 40, 30, 21, 130]):
            counts[f"N{i:02d}"] = c
        cohort = make_cohort(counts)
        assert cohort.sample_size == 1000
        summary = summarize(cohort, 10)
        assert summary.top_name == "MARY"
        assert summary.top_pop == pytest.approx(0.239, abs=1e-15)
        assert summary.sample_size == 1000

    def test_single_name_k1(self):
        summary = summarize(make_cohort({"MARY": 7}), k=1)
        assert summary.top_pop == 1.0
        assert summary.topk_pop == 1.0
        assert summary.info_is == pytest.approx(0, abs=1e-12)

    def test_deterministic(self):
        cohort = make_cohort({f"N{i:02d}": i + 1 for i in range(12)})
        assert summarize(cohort, 10) == summarize(cohort, 10)

    def test_error_names_cohort(self):
        cohort = make_cohort({"MARY": 5}, start=1800, end=1809)
        with pytest.raises(InsufficientDistinctNamesError, match="1800-1809"):
            summarize(cohort, 10)


class TestSamplingVariability:
    # binomial grid spot checks, raw values
    @pytest.mark.parametrize(
        "p, n, expected, sd",
        [
            (0.20, 100, 20.0, 4.0),
            (0.03, 1000, 30.0, 5.394441583704471),
            (0.015, 100, 1.5, 1.2155245781143218),
            (0.015, 100_000, 1500.0, 38.43826218756514),
        ],
    )
    def test_values(self, p, n, expected, sd):
        result = sampling_variability(p, n)
        assert result.expected == pytest.approx(expected, abs=1e-9)
        assert result.sd == pytest.approx(sd, abs=1e-6)
        assert result.sd_pct == pytest.approx(result.sd / n, abs=1e-15)

    def test_sd_pct_decreasing_in_n(self):
        pcts = [sampling_variability(0.03, n).sd_pct for n in (10, 100, 1000, 10_000)]
        assert pcts == sorted(pcts, reverse=True)
        assert sampling_variability(0.2, 400).sd_pct == pytest.approx(
            math.sqrt(0.2 * 0.8 / 400), abs=1e-15
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            sampling_variability(0.0, 10)
        with pytest.raises(ValueError):
            sampling_variability(1.0, 10)
        with pytest.raises(ValueError):
            sampling_variability(0.1, 0)


def summary(info, sample=100, top=0.2, topk=0.5, spec=None):
    return PopularitySummary(
        top_name="MARY", top_pop=top, topk_pop=topk, info_is=info,
        sample_size=sample, k=10, spec=spec,
    )


class TestAverageSummaries:
    def test_mean_info(self):
        avg = average_summaries([summary(0.2), summary(0.3)])
        assert avg.info_is == pytest.approx(0.25, abs=1e-15)

    def test_identity(self):
        s = summary(0.2)
        avg = average_summaries([s, s])
        assert avg == s

    def test_top_name_from_largest_sample(self):
        small = summary(0.2, sample=10)
        big = replace(summary(0.3, sample=1000), top_name="ANN")
        assert average_summaries([small, big]).top_name == "ANN"

    def test_mismatched_k(self):
        with pytest.raises(ValueError, match="k"):
            average_summaries([summary(0.2), replace(summary(0.3), k=5)])

    def test_mismatched_spec(self):
        a = summary(0.2, spec=CohortSpec(Sex.FEMALE, 1800, 1809))
        b = summary(0.3, spec=CohortSpec(Sex.FEMALE, 1810, 1819))
        with pytest.raises(ValueError, match="spec"):
            average_summaries([a, b])

    def test_needs_two(self):
        with pytest.raises(ValueError):
            average_summaries([summary(0.2)])

    def test_permutation_invariant(self):
        group = [summary(0.2, sample=30), summary(0.4, sample=20), summary(0.3, sample=10)]
        assert average_summaries(group) == average_summaries(group[::-1])


class TestNamePopularity:
    def test_absent_is_zero(self):
        table = frequency_table(make_cohort({"ANN": 2}))
        assert name_popularity(table, "MARY") == 0

    def test_half(self):
        table = frequency_table(make_cohort({"MARY": 2, "ANN": 2}))
        assert name_popularity(table, "MARY") == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            name_popularity(frequency_table(make_cohort({})), "MARY")

    def test_roundtrip_within_granularity(self):
        # rebuild a cohort from a published proportion; recovery within 1/n
        target, n = 0.073, 661
        count = round(target * n)
        table = frequency_table(make_cohort({"MARY": count, "OTHER": n - count}))
        assert abs(name_popularity(table, "MARY") - target) <= 1 / n
