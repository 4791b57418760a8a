import dataclasses
import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namestats import (
    NameRecord,
    RecordKind,
    SimulationConfig,
    fit_ranked_frequencies,
    frequency_table,
    simulate_naming,
    simulate_records,
    top_k,
    truncate_name,
)
from namestats import synth
from namestats.synth import sequential_names, simulate_labels, simulation_metadata

from reference_synth import sequential_name, simulate_sequence

# regression values observed once with the shipped seed and frozen
SHIPPED = SimulationConfig(innovation_rate=0.1, births=50_000, initial_names=1, seed=7)
SHIPPED_DISTINCT = 4932
SHIPPED_SLOPE = -1.170357490568809
SHIPPED_R2 = 0.9634137209766717


def test_zero_innovation_single_name():
    cohort = simulate_naming(SimulationConfig(innovation_rate=0.0, births=200, seed=1))
    assert len(cohort.names) == 1
    assert cohort.sample_size == 201  # births plus the founder


def test_pure_innovation_all_distinct():
    cohort = simulate_naming(
        SimulationConfig(innovation_rate=1.0, births=300, initial_names=5, seed=1)
    )
    assert len(cohort.names) == 305
    assert set(cohort.names.values()) == {1}


def test_deterministic_from_seed():
    config = SimulationConfig(innovation_rate=0.3, births=2000, seed=99)
    assert simulate_naming(config).names == simulate_naming(config).names
    assert simulate_records(config) == simulate_records(config)


def test_different_seed_different_corpus():
    a = simulate_naming(SimulationConfig(innovation_rate=0.3, births=2000, seed=1))
    b = simulate_naming(SimulationConfig(innovation_rate=0.3, births=2000, seed=2))
    assert a.names != b.names


def test_shipped_seed_regression():
    cohort = simulate_naming(SHIPPED)
    assert len(cohort.names) == SHIPPED_DISTINCT
    table = frequency_table(cohort)
    top100 = top_k(table, 100)
    freqs = [e.popularity * table.sample_size for e in top100.entries]
    fit = fit_ranked_frequencies(freqs)
    assert fit.slope == pytest.approx(SHIPPED_SLOPE, abs=1e-9)
    assert fit.r_squared == pytest.approx(SHIPPED_R2, abs=1e-9)
    assert fit.r_squared >= 0.9


def test_distinct_count_near_expectation():
    cohort = simulate_naming(SHIPPED)
    expected = SHIPPED.innovation_rate * SHIPPED.births + SHIPPED.initial_names
    assert abs(len(cohort.names) - expected) / expected < 0.05


def test_top_share_decreases_with_innovation():
    def median_top_share(alpha):
        shares = []
        for seed in range(20):
            cohort = simulate_naming(
                SimulationConfig(innovation_rate=alpha, births=3000, seed=seed)
            )
            shares.append(max(cohort.names.values()) / cohort.sample_size)
        return statistics.median(shares)

    shares = [median_top_share(a) for a in (0.01, 0.1, 0.5)]
    assert shares[0] > shares[1] > shares[2]


def test_records_flow_through_pipeline():
    records = simulate_records(SimulationConfig(innovation_rate=0.5, births=50, seed=3))
    assert len(records) == 51
    for record in records:
        assert record.record_kind is RecordKind.BIRTH_REGISTER
        assert record.record_year == 2000
        assert truncate_name(record.raw_name) == record.raw_name


def test_sequential_names_unique_and_standard():
    names = sequential_names(30_000)
    assert names == [sequential_name(i) for i in range(30_000)]
    assert len(set(names)) == len(names)
    assert all(2 <= len(n) <= 8 and n.isalpha() and n == n.upper() for n in names)


def test_sequential_names_across_width_boundary():
    """The bulk names against the per-index loop on a window around 26**4,
    the first index that takes six letters (the first 30,000 names cross
    26**3)."""
    boundary = 26**4
    names = sequential_names(boundary + 40)
    assert len(names) == boundary + 40
    start = boundary - 40
    assert names[start:] == [sequential_name(i) for i in range(start, boundary + 40)]
    assert len(names[boundary]) == len(names[boundary - 1]) + 1


@pytest.mark.parametrize("letters", ["AB", "ABC", "ABCDE"])
def test_sequential_names_whole_space_small_alphabet(monkeypatch, letters):
    """In a small base the whole name space fits in a test: every width
    boundary (the analogues of 26**3 .. 26**6; the list at 26**5 alone would
    hold 11.9 million names) and the last name agree with the per-index
    loop, and one name more is refused up front."""
    monkeypatch.setattr(synth, "_LETTERS", letters)
    limit = len(letters) ** 7
    names = sequential_names(limit)
    assert names == [sequential_name(i, letters) for i in range(limit)]
    assert len(names[-1]) == 8
    with pytest.raises(ValueError, match=f"name index {limit} exceeds 8 letters"):
        sequential_name(limit, letters)
    with pytest.raises(ValueError, match=f"name index {limit} exceeds 8 letters"):
        sequential_names(limit + 1)
    for count in (0, 1, 27, limit // 2):
        assert sequential_names(count) == names[:count]


def test_sequential_names_refuse_ninth_letter_up_front(monkeypatch):
    """Past 26**7 names the ninth letter is refused before any name is built."""

    def refuse(*args):
        raise AssertionError("names were built")

    monkeypatch.setattr(synth, "product", refuse)
    with pytest.raises(ValueError, match=f"name index {26**7} exceeds 8 letters"):
        sequential_names(26**7 + 1)


def test_metadata_records_stream_identity():
    meta = simulation_metadata(SHIPPED)
    assert meta["rng"] == "numpy-pcg64"
    assert meta["seed"] == 7
    assert meta["births"] == 50_000
    assert {f.name for f in dataclasses.fields(SimulationConfig)} <= meta.keys()


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(innovation_rate=1.5, births=10)
    with pytest.raises(ValueError):
        SimulationConfig(innovation_rate=0.5, births=0)
    with pytest.raises(ValueError):
        SimulationConfig(innovation_rate=0.5, births=10, initial_names=0)
    for year in (999, 5000):
        with pytest.raises(ValueError, match=f"record_year {year} outside"):
            SimulationConfig(innovation_rate=0.5, births=10, year=year)


def reference_records(config: SimulationConfig, names: list[str]) -> list[NameRecord]:
    return [
        NameRecord(name, config.sex, config.year, RecordKind.BIRTH_REGISTER)
        for name in names
    ]


def assert_matches_loop(alpha, births, founders, seed):
    """The vectorized simulator against the per-birth reference loop: the
    same name for every individual, the same counts in the same key order
    and the same records; the labels are signed and hold every index."""
    config = SimulationConfig(alpha, births, founders, seed)
    want = simulate_sequence(config)

    names, labels = simulate_labels(config)
    assert [names[j] for j in labels.tolist()] == want
    assert labels.dtype.kind == "i"
    assert np.iinfo(labels.dtype).max >= labels.size - 1
    assert list(simulate_naming(config).names.items()) == list(Counter(want).items())
    assert simulate_records(config) == reference_records(config, want)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    births=st.integers(1, 5000),
    founders=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_vectorized_matches_reference_loop(alpha, births, founders, seed):
    assert_matches_loop(alpha, births, founders, seed)


@pytest.mark.parametrize(
    "alpha, births, founders, seed",
    [(0.1, 50_000, 1, 7), (0.3, 20_000, 5, 3), (0.0, 5_000, 1, 1)],
)
def test_vectorized_matches_reference_loop_at_scale(alpha, births, founders, seed):
    assert_matches_loop(alpha, births, founders, seed)


@pytest.mark.parametrize(
    "chunk, births", [(7, 6), (7, 7), (7, 8), (7, 14), (7, 700), (7, 703), (1, 300)]
)
def test_draw_chunks_match_reference_loop(monkeypatch, chunk, births):
    """Innovation flags drawn, and labels found, a few individuals at a time
    give the per-birth loop's names: one short of, at and one past a block
    boundary, runs of 100 blocks that end whole or short, and one block per
    individual."""
    monkeypatch.setattr(synth, "_DRAW_CHUNK", chunk)
    assert_matches_loop(0.3, births, 2, births)


@pytest.mark.parametrize("chunk", [7, 1])
@pytest.mark.parametrize(
    "alpha, births, founders",
    [
        (0.0, 60, 1),  # every birth copies
        (1.0, 60, 3),  # every birth is a root
        (0.3, 40, 20),  # the first blocks hold only founders
        (0.3, 126, 1),  # 127 and 128 individuals: int8 labels
        (0.3, 127, 1),
        (0.3, 32766, 1),  # 32767 and 32768 individuals: int16 labels
        (0.3, 32767, 1),
    ],
)
def test_blocks_match_reference_loop(monkeypatch, chunk, alpha, births, founders):
    """Labels found block by block give the per-birth loop's names and
    counts with blocks of 7 and of 1, when every birth copies or none does,
    when whole blocks hold only founders, and at the population sizes where
    the labels' type widens: it is the smallest signed type that holds the
    population size."""
    monkeypatch.setattr(synth, "_DRAW_CHUNK", chunk)
    config = SimulationConfig(alpha, births, founders, births + chunk)
    want = simulate_sequence(config)
    names, labels = simulate_labels(config)
    assert [names[j] for j in labels.tolist()] == want
    assert list(simulate_naming(config).names.items()) == list(Counter(want).items())
    assert labels.dtype == (np.int8 if labels.size <= 128 else np.int16)
