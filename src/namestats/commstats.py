"""Name-communication statistics between two cohorts.

All four statistics look at the k most popular names of the later year
(year 2) and compare their popularities across the two samples:

    C1 = sum_j p2_j * log2(p2_j / p1_j)
         + (1 - T22) * log2((1 - T22) / (1 - T21))        [bits]
    C2 = sum_j (p2_j / T22) * log2(p2_j / p1_j) + log2(T21 / T22)
    C3 = sum_j (p2_j / T22) * log2(p2_j / p1_j) + log2(T11 / T22)
    C4 = 100 * sum_j (p2_j / T22) * |p2_j / p1_j - 1|      [percent]

where T22 and T21 are the total year-2 and year-1 popularity of year 2's
top k names and T11 is the total year-1 popularity of year 1's own top k
(so T11 >= T21, with equality when the two top-k sets coincide).  C1 and
C2 are relative entropies (Kullback-Leibler divergences), hence
non-negative and zero only for identical distributions.

A year-2 top name missing from the year-1 sample gets an imputed year-1
popularity of one-half the smallest positive popularity observed there;
the aligned pair records where this fallback fired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .corpus import Cohort
from .popstats import FrequencyTable, PopularityList, field_means, frequency_table, top_k

_EPS = 1e-12


class DivergentOtherMassError(ValueError):
    """C1 is infinite: names outside year 2's top k exist only in year 2."""

    def __init__(self) -> None:
        super().__init__(
            "divergent_other_mass: names outside the later top k have zero "
            "earlier-year mass but positive later-year mass, so the "
            "other-names term of C1 diverges"
        )


@dataclass(frozen=True)
class AlignedPair:
    """Year-2 top-k names with popularities from both years, rank order.

    ``fallback_baseline`` names the source of imputed year-1 values:
    "sample" (half the least popular name observed in the year-1 sample),
    "list" (half the smallest entry of a published year-1 top-k list), or
    "model" (constructed pairs that never impute).
    """

    k: int
    names: tuple[str, ...]
    p2: tuple[float, ...]
    p1: tuple[float, ...]
    fallback_used: tuple[bool, ...]
    t22: float
    t21: float
    t11: float | None = None
    fallback_baseline: str = "sample"

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.p2) == len(self.p1)
                == len(self.fallback_used) == self.k):
            raise ValueError("all per-name tuples must have length k")
        if any(p <= 0 for p in self.p2) or any(p <= 0 for p in self.p1):
            raise ValueError("aligned popularities must be positive")
        for total in (self.t22, self.t21):
            if not 0 < total <= 1 + _EPS:
                raise ValueError("totals must lie in (0, 1]")
        if self.t11 is not None:
            if not 0 < self.t11 <= 1 + _EPS:
                raise ValueError("t11 must lie in (0, 1]")
            # relative slack for rounding: C3 - C2 = log2(T11 / T21) stays
            # above -1.5e-10, inside CommResult's 1e-9, at any scale
            if self.t11 < self.t21 * (1 - 1e-10):
                raise ValueError(f"t11 {self.t11} < t21 {self.t21}")


@dataclass(frozen=True)
class CommResult:
    """Communication statistics for one ordered cohort pair."""

    c1: float
    c2: float
    c3: float
    c4: float
    new_topk: float
    years_elapsed: float | None = None
    turnover_pa: float | None = None
    k: int = 10
    fallback_count: int = 0

    def __post_init__(self) -> None:
        if self.c1 < -_EPS or self.c2 < -_EPS or self.c4 < -_EPS:
            raise ValueError("C1, C2, C4 must be non-negative")
        if self.c3 < self.c2 - 1e-9:
            raise ValueError("C3 must be at least C2")

    @classmethod
    def mean(cls, results: Sequence[CommResult]) -> CommResult:
        """Field means of results sharing k; the fallback count is the largest."""
        return cls(
            k=results[0].k,
            fallback_count=max(r.fallback_count for r in results),
            **field_means(
                results,
                ("c1", "c2", "c3", "c4", "new_topk", "years_elapsed", "turnover_pa"),
            ),
        )


def align(
    list1: PopularityList,
    table1: FrequencyTable | None,
    list2: PopularityList,
) -> AlignedPair:
    """Look up year-1 popularities for year 2's top names.

    ``table1`` is the full year-1 sample; when only a published year-1
    top-k list exists, pass ``table1=None`` and the fallback baseline
    becomes the list's smallest entry.
    """
    if list1.k != list2.k:
        raise ValueError(f"lists must share k, got {list1.k} and {list2.k}")

    if table1 is not None:
        if table1.sample_size == 0:
            raise ValueError("year-1 table is empty")
        lookup = {
            name: count / table1.sample_size for name, count in table1.counts.items()
        }
        fallback = 0.5 * (min(table1.counts.values()) / table1.sample_size)
        baseline = "sample"
    else:
        lookup = {e.name: e.popularity for e in list1.entries}
        fallback = 0.5 * min(e.popularity for e in list1.entries)
        baseline = "list"

    p1 = []
    used = []
    for entry in list2.entries:
        observed = lookup.get(entry.name)
        if observed is None:
            p1.append(fallback)
            used.append(True)
        else:
            p1.append(observed)
            used.append(False)

    return AlignedPair(
        k=list2.k,
        names=list2.names,
        p2=list2.popularities,
        p1=tuple(p1),
        fallback_used=tuple(used),
        t22=list2.total,
        t21=math.fsum(p1),
        t11=list1.total,
        fallback_baseline=baseline,
    )


def _weighted_log_ratio(pair: AlignedPair) -> float:
    """sum_j (p2_j / T22) * log2(p2_j / p1_j), the shared C2/C3 kernel."""
    return math.fsum(
        (q2 / pair.t22) * math.log2(q2 / q1) for q2, q1 in zip(pair.p2, pair.p1)
    )


def comm_c1(pair: AlignedPair) -> float:
    """C1 in bits; includes the other-names mass outside year 2's top k."""
    top = math.fsum(q2 * math.log2(q2 / q1) for q2, q1 in zip(pair.p2, pair.p1))
    other2 = max(0.0, 1.0 - pair.t22)
    other1 = max(0.0, 1.0 - pair.t21)
    if other2 < _EPS:
        # 0 * log2(0/x) -> 0, including the 0/0 convention.  The top-k sum
        # is at least t22 * log2(t22 / t21), which totals within _EPS of 1
        # keep above -3 * _EPS: a negative sum is 0 at that resolution
        return max(top, 0.0)
    if other1 < _EPS:
        raise DivergentOtherMassError()
    return top + other2 * math.log2(other2 / other1)


def comm_c2(pair: AlignedPair) -> float:
    """C2 in bits; normalized over year 2's top k, blind to other names."""
    return _weighted_log_ratio(pair) + math.log2(pair.t21 / pair.t22)


def comm_c3(pair: AlignedPair) -> float:
    """C3 in bits: C2 with year 1's own top-k total as the baseline."""
    if pair.t11 is None:
        raise ValueError("t11_required: C3 needs year 1's own top-k total")
    return _weighted_log_ratio(pair) + math.log2(pair.t11 / pair.t22)


def comm_c4(pair: AlignedPair) -> float:
    """C4: weighted average absolute percentage change, in percent."""
    return 100.0 * math.fsum(
        (q2 / pair.t22) * abs(q2 / q1 - 1.0) for q2, q1 in zip(pair.p2, pair.p1)
    )


def new_names(list1: PopularityList, list2: PopularityList) -> int:
    """How many of year 2's top names are absent from year 1's top names."""
    if list1.k != list2.k:
        raise ValueError(f"lists must share k, got {list1.k} and {list2.k}")
    return len(set(list2.names) - set(list1.names))


def turnover_per_annum(new_count: float, years: float) -> float:
    """New names per year separating the two lists."""
    if years <= 0:
        raise ValueError("years must be positive")
    return new_count / years


def comm_from_pair(
    pair: AlignedPair, new_topk: float, years_elapsed: float | None = None
) -> CommResult:
    """C1-C4 of an aligned pair, with the count of year 2's top names new
    to year 1's top names and, given ``years_elapsed``, their turnover."""
    return CommResult(
        c1=comm_c1(pair),
        c2=comm_c2(pair),
        c3=comm_c3(pair),
        c4=comm_c4(pair),
        new_topk=new_topk,
        years_elapsed=years_elapsed,
        turnover_pa=(
            None if years_elapsed is None else turnover_per_annum(new_topk, years_elapsed)
        ),
        k=pair.k,
        fallback_count=sum(pair.fallback_used),
    )


def comm_all(
    cohort1: Cohort,
    cohort2: Cohort,
    k: int = 10,
    years_elapsed: float | None = None,
    t11_override: float | None = None,
) -> CommResult:
    """Align two cohorts and compute every communication statistic.

    T11 defaults to the total popularity of cohort 1's own top k;
    ``t11_override`` replaces it for pairs where year 1's list is known
    from elsewhere.
    """
    table1 = frequency_table(cohort1)
    list1 = top_k(table1, k)
    list2 = top_k(frequency_table(cohort2), k)
    pair = align(list1, table1, list2)
    if t11_override is not None:
        pair = replace(pair, t11=t11_override)
    return comm_from_pair(pair, new_names(list1, list2), years_elapsed)
