"""Popularity statistics for one cohort.

Covers frequency tables, top-k popularity lists, the social-information
statistic I_s (bits), binomial sampling variability, single-name
popularity queries, and the cross-source averaging used when two record
sources cover the same birth cohort.

I_s for a top-k list with popularities p_1..p_k and T = sum p_j is

    I_s = log2(k) - sum_j (p_j / T) * log2(p_j / T)

i.e. log2(k) minus the entropy of the normalized list: zero when the top
names are equally popular, approaching log2(k) under total concentration.
All computation is full precision; display rounding belongs to the
report layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .corpus import Cohort, CohortSpec

_EPS = 1e-9


class InsufficientDistinctNamesError(ValueError):
    """The table has fewer distinct names than the requested list length."""

    def __init__(self, k: int, distinct: int, label: str = ""):
        self.k = k
        self.distinct = distinct
        self.label = label
        where = f" in cohort {label}" if label else ""
        super().__init__(
            f"insufficient_distinct_names: need {k}, have {distinct}{where}"
        )


@dataclass(frozen=True)
class FrequencyTable:
    """Exact standardized-name counts for one sample."""

    counts: dict[str, int]
    sample_size: int

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.counts.values()):
            raise ValueError("all counts must be >= 1")
        if sum(self.counts.values()) != self.sample_size:
            raise ValueError("sample_size must equal the sum of counts")


class PopularityEntry(NamedTuple):
    rank: int
    name: str
    popularity: float


@dataclass(frozen=True)
class PopularityList:
    """The k most popular names, rank-ordered, ties broken by name.

    Popularities are sample fractions; their sum T is at most 1.
    """

    k: int
    entries: tuple[PopularityEntry, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.k or self.k < 1:
            raise ValueError(f"expected {self.k} entries, got {len(self.entries)}")
        prev = None
        for j, entry in enumerate(self.entries, start=1):
            if entry.rank != j:
                raise ValueError("ranks must run 1..k")
            if entry.popularity <= 0:
                raise ValueError("popularities must be positive")
            if prev is not None:
                if entry.popularity > prev.popularity + _EPS:
                    raise ValueError("popularities must be non-increasing in rank")
                if entry.popularity == prev.popularity and entry.name < prev.name:
                    raise ValueError("ties must be in ascending name order")
            prev = entry
        if self.total > 1 + _EPS:
            raise ValueError("total popularity exceeds 1")

    @property
    def total(self) -> float:
        """T, the summed popularity of the listed names."""
        return math.fsum(e.popularity for e in self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    @property
    def popularities(self) -> tuple[float, ...]:
        return tuple(e.popularity for e in self.entries)


@dataclass(frozen=True)
class PopularitySummary:
    """One cohort's popularity report row."""

    top_name: str
    top_pop: float
    topk_pop: float
    info_is: float
    sample_size: float
    k: int = 10
    spec: CohortSpec | None = None

    def __post_init__(self) -> None:
        if not 0 < self.top_pop <= self.topk_pop <= 1 + _EPS:
            raise ValueError("need 0 < top_pop <= topk_pop <= 1")
        if not -_EPS <= self.info_is <= math.log2(self.k) + _EPS:
            raise ValueError(f"info_is outside [0, log2({self.k})]")

    @classmethod
    def mean(cls, summaries: Sequence[PopularitySummary]) -> PopularitySummary:
        """Field means of summaries sharing k and spec; top name of the largest sample."""
        first = summaries[0]
        if any(s.spec != first.spec for s in summaries):
            raise ValueError("mismatched cohort specs")
        largest = max(summaries, key=lambda s: s.sample_size)
        return cls(
            top_name=largest.top_name,
            k=first.k,
            spec=first.spec,
            **field_means(summaries, ("top_pop", "topk_pop", "info_is", "sample_size")),
        )


class SamplingVariability(NamedTuple):
    expected: float
    sd: float
    sd_pct: float


def frequency_table(cohort: Cohort) -> FrequencyTable:
    """Exact multiset counts for a cohort (empty cohort gives an empty table)."""
    return FrequencyTable(dict(cohort.names), cohort.sample_size)


def ranked(counts: dict[str, int]) -> list[tuple[str, int]]:
    """``(name, count)`` pairs in rank order: count descending, ties by ascending name."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def top_k(table: FrequencyTable, k: int = 10) -> PopularityList:
    """The k most popular names by count, ties broken by ascending name."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(table.counts) < k:
        raise InsufficientDistinctNamesError(k, len(table.counts))
    entries = tuple(
        PopularityEntry(j, name, count / table.sample_size)
        for j, (name, count) in enumerate(ranked(table.counts)[:k], start=1)
    )
    return PopularityList(k, entries)


def normalized_information(weights: Sequence[float]) -> float:
    """log2(k) minus the entropy of k positive weights normalized to sum 1."""
    total = math.fsum(weights)
    return math.log2(len(weights)) + math.fsum(
        (w / total) * math.log2(w / total) for w in weights
    )


def social_information(plist: PopularityList) -> float:
    """I_s in bits: log2(k) minus the entropy of the normalized list."""
    return normalized_information(plist.popularities)


def summarize(cohort: Cohort, k: int = 10) -> PopularitySummary:
    """Top name, top-k popularity, and I_s for one cohort."""
    table = frequency_table(cohort)
    try:
        plist = top_k(table, k)
    except InsufficientDistinctNamesError as exc:
        raise InsufficientDistinctNamesError(k, exc.distinct, cohort.spec.label) from None
    return PopularitySummary(
        top_name=plist.entries[0].name,
        top_pop=plist.entries[0].popularity,
        topk_pop=plist.total,
        info_is=social_information(plist),
        sample_size=table.sample_size,
        k=k,
        spec=cohort.spec,
    )


def sampling_variability(p: float, n: int) -> SamplingVariability:
    """Binomial mean and spread of a name's count at popularity p, size n.

    expected = n*p, sd = sqrt(n*p*(1-p)), sd_pct = sd/n.  Values are
    unrounded; display rounding belongs to the report layer.
    """
    if not 0 < p < 1:
        raise ValueError("p must be strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    sd = math.sqrt(n * p * (1 - p))
    return SamplingVariability(n * p, sd, sd / n)


def name_popularity(table: FrequencyTable, name: str) -> float:
    """Sample fraction of ``name``; zero when absent."""
    if table.sample_size == 0:
        raise ValueError("empty table")
    return table.counts.get(name, 0) / table.sample_size


def field_means(items: Sequence, names: Sequence[str]) -> dict[str, float | None]:
    """Full-precision mean of each named field; None where any item has None."""
    means: dict[str, float | None] = {}
    for name in names:
        values = [getattr(item, name) for item in items]
        means[name] = None if None in values else math.fsum(values) / len(values)
    return means


def average_summaries(summaries: Sequence):
    """Unweighted field-by-field mean of summaries or comm results.

    Inputs must be of one type with a ``mean`` classmethod, such as
    :class:`PopularitySummary` or ``commstats.CommResult``, and agree on
    k; each type's ``mean`` applies its own rules.  A comm result's
    new_topk count may become fractional.
    """
    if len(summaries) < 2:
        raise ValueError("need at least two summaries to average")
    first = summaries[0]
    if not hasattr(type(first), "mean"):
        raise TypeError(f"cannot average {type(first).__name__}")
    if any(type(s) is not type(first) for s in summaries):
        raise ValueError("cannot mix summary types")
    if any(s.k != first.k for s in summaries):
        raise ValueError("mismatched k")
    return type(first).mean(summaries)
