"""Acceptance gate: every primary criterion at its stated tolerance.

Each test prints one PASS line (visible with -s) after its assertions.
"""

import math
import random
import time
from math import fsum, log2

import pytest

from namestats import (
    SimulationConfig,
    fit_ranked_frequencies,
    frequency_table,
    simulate_naming,
    simulate_records,
    social_information,
    solve_from_info_constraints,
    solve_from_top_constraints,
    top_k,
    truncate_name,
    write_records,
)
from namestats.cli import main
from namestats.commstats import (
    AlignedPair,
    align,
    comm_c1,
    comm_c2,
    comm_c3,
    comm_c4,
)
from namestats.corpus import FilterPolicy, filter_records, NameRecord, RecordKind
from namestats.popstats import PopularityEntry, PopularityList
from namestats.powerlaw import LogLinearModel, conquest_model
from namestats.standardize import Sex

VARIABILITY_ROWS = [
    ("20.0%", "100", "20", "4", "4.0%"),
    ("3.0%", "100", "3", "2", "1.7%"),
    ("1.5%", "100", "2", "1", "1.2%"),
    ("20.0%", "1000", "200", "13", "1.3%"),
    ("3.0%", "1000", "30", "5", "0.5%"),
    ("1.5%", "1000", "15", "4", "0.4%"),
    ("20.0%", "10000", "2000", "40", "0.4%"),
    ("3.0%", "10000", "300", "17", "0.2%"),
    ("1.5%", "10000", "150", "12", "0.1%"),
    ("20.0%", "100000", "20000", "126", "0.1%"),
    ("3.0%", "100000", "3000", "54", "0.1%"),
    ("1.5%", "100000", "1500", "38", "0.0%"),
]


def test_table_1_reproduction(tmp_path):
    """samplevar reproduces the full variability grid under documented rounding."""
    out = tmp_path / "samplevar.csv"
    start = time.perf_counter()
    code = main(["samplevar", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "name_probability,sample_size,expected,std_dev,std_dev_pct"
    assert [tuple(line.split(",")) for line in lines[1:]] == VARIABILITY_ROWS
    assert elapsed < 1.0
    print(f"ACCEPTANCE PASS: sampling-variability table reproduction ({elapsed:.3f}s)")


def test_conquest_model_reproduction(tmp_path):
    """Century-model statistics hit the published row and the frozen oracle."""
    start = time.perf_counter()
    result = conquest_model(0.10, 0.45, 0.4, 0.045, t11=0.75, k=10)
    elapsed = time.perf_counter() - start

    assert abs(result.c1 - 1.083) <= 0.005
    assert abs(result.c4 - 982) <= 5
    assert result.new_topk == 10
    # independent derivation oracle (frozen from a brentq + literal-formula run)
    assert abs(result.c2 - 0.056) <= 0.005
    assert result.c2 == pytest.approx(0.058555637059, abs=1e-9)
    assert result.c3 - result.c2 == pytest.approx(log2(0.75 / 0.045), abs=1e-9)
    assert elapsed < 1.0

    out = tmp_path / "conquest.csv"
    code = main(["conquest", "--t11", "0.75", "--out", str(out)])
    assert code == 0
    fields = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert fields[1] == "1.0834" and fields[4] == "982%" and fields[5] == "10"
    print(f"ACCEPTANCE PASS: Conquest model reproduction ({elapsed:.4f}s)")


def _random_pair(rng: random.Random) -> AlignedPair:
    k = rng.randint(2, 10)
    raw2 = sorted((rng.uniform(0.01, 1.0) for _ in range(k)), reverse=True)
    t22_target = rng.uniform(0.15, 0.95)
    p2 = tuple(x * t22_target / sum(raw2) for x in raw2)
    p1 = tuple(rng.uniform(1e-4, 0.9 / k) for _ in range(k))
    t21 = fsum(p1)
    t11 = rng.uniform(t21, 1.0)
    return AlignedPair(
        k=k,
        names=tuple(f"N{j:02d}" for j in range(k)),
        p2=p2,
        p1=p1,
        fallback_used=(False,) * k,
        t22=fsum(p2),
        t21=t21,
        t11=t11,
    )


def test_oracle_equivalence():
    """C1-C4 and I_s match literal-formula oracles to 1e-12 on 1000+ pairs."""
    rng = random.Random(20_260_809)
    for _ in range(1000):
        pair = _random_pair(rng)
        p1, p2, T22, T21, T11 = pair.p1, pair.p2, pair.t22, pair.t21, pair.t11

        oracle_c1 = sum(b * log2(b / a) for a, b in zip(p1, p2)) + (1 - T22) * log2(
            (1 - T22) / (1 - T21)
        )
        oracle_c2 = sum((b / T22) * log2(b / a) for a, b in zip(p1, p2)) + log2(
            T21 / T22
        )
        oracle_c3 = sum((b / T22) * log2(b / a) for a, b in zip(p1, p2)) + log2(
            T11 / T22
        )
        oracle_c4 = 100 * sum((b / T22) * abs(b / a - 1) for a, b in zip(p1, p2))
        assert abs(comm_c1(pair) - oracle_c1) < 1e-12
        assert abs(comm_c2(pair) - oracle_c2) < 1e-12
        assert abs(comm_c3(pair) - oracle_c3) < 1e-12
        assert abs(comm_c4(pair) - oracle_c4) < 1e-12 * max(1.0, abs(oracle_c4))

        plist = PopularityList(
            pair.k,
            tuple(
                PopularityEntry(j, f"N{j:02d}", p)
                for j, p in enumerate(pair.p2, start=1)
            ),
        )
        oracle_is = log2(pair.k) - sum((x / T22) * log2(T22 / x) for x in p2)
        assert abs(social_information(plist) - oracle_is) < 1e-12
    print("ACCEPTANCE PASS: oracle equivalence on 1000 randomized pairs at 1e-12")


def _distinct_count_pair(rng: random.Random, k: int, universe: list[str]):
    """Two frequency tables over a shared name universe, all counts distinct."""
    from conftest import make_cohort

    def table():
        names = rng.sample(universe, k + rng.randint(0, len(universe) - k - 1) + 1)
        counts = rng.sample(range(1, 4000), len(names))
        return frequency_table(make_cohort(dict(zip(names, counts))))

    return table(), table()


def test_information_theory_properties():
    """Sign, equality, and monotonicity laws on randomized valid inputs."""
    rng = random.Random(97)
    universe = [f"U{i:02d}" for i in range(14)]

    unequal_pos = diff_sets = 0
    for _ in range(400):
        k = rng.randint(2, 8)
        t1, t2 = _distinct_count_pair(rng, k, universe)
        l1, l2 = top_k(t1, k), top_k(t2, k)
        pair = align(l1, t1, l2)
        c1, c2, c3 = comm_c1(pair), comm_c2(pair), comm_c3(pair)

        assert c1 >= 0 and c2 >= 0
        assert c3 >= c2 - 1e-12
        if pair.p1 == pair.p2 and pair.t21 == pair.t22:
            assert c1 == 0 and c2 == 0
        elif max(abs(a - b) for a, b in zip(pair.p1, pair.p2)) > 1e-9:
            assert c1 > 0
            unequal_pos += 1
        if set(l1.names) == set(l2.names):
            assert c3 == pytest.approx(c2, abs=1e-12)
        else:
            assert c3 > c2
            diff_sets += 1

        # identical cohorts: exact zeros, and same sets force C3 = C2
        self_pair = align(l1, t1, l1)
        assert comm_c1(self_pair) == 0 and comm_c2(self_pair) == 0
        assert comm_c3(self_pair) == comm_c2(self_pair)

        # I_s bounds
        info = social_information(l2)
        assert -1e-12 <= info <= math.log2(k) + 1e-12

        # concentration monotonicity under a small rank-preserving transfer
        p = list(l2.popularities)
        if len(set(p)) == len(p):
            gaps = [p[i] - p[i + 1] for i in range(len(p) - 1)] + [p[-1]]
            eps = min(gaps) / 4
            if eps > 1e-12:
                shifted = p[:]
                shifted[0] += eps
                shifted[-1] -= eps
                moved = PopularityList(
                    k,
                    tuple(
                        PopularityEntry(j, f"N{j:02d}", x)
                        for j, x in enumerate(shifted, start=1)
                    ),
                )
                assert social_information(moved) > info

    assert unequal_pos > 50 and diff_sets > 50  # the sweep saw real variety
    print(
        "ACCEPTANCE PASS: information-theory property suite "
        f"({unequal_pos} unequal pairs, {diff_sets} set changes)"
    )


def test_power_law_round_trip():
    """Model -> data -> fit recovers b; both solvers meet their constraints."""
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(10, 100)
        b = rng.uniform(-2.5, -0.05)
        scale = rng.uniform(0.2, 0.9) / k
        model = LogLinearModel(k=k, exponent=b, scale=scale)
        fit = fit_ranked_frequencies([p * 1e6 for p in model.popularities])
        assert abs(fit.slope - b) < 1e-6
        assert fit.r_squared > 1 - 1e-9

    m2 = solve_from_top_constraints(0.10, 0.45, 10)
    assert m2.scale == 0.10
    assert abs(m2.total - 0.45) < 1e-10

    m1 = solve_from_info_constraints(0.4, 0.045, 10)
    assert abs(m1.total - 0.045) < 1e-10
    plist = PopularityList(
        10,
        tuple(
            PopularityEntry(j, f"R{j:02d}", p)
            for j, p in enumerate(m1.popularities, start=1)
        ),
    )
    assert social_information(plist) == pytest.approx(0.4, abs=1e-9)
    print("ACCEPTANCE PASS: power-law round trip and constraint solvers")


@pytest.fixture(scope="module")
def big_fixture(tmp_path_factory):
    """100k-row synthetic record file (99,999 births plus the founder)."""
    path = tmp_path_factory.mktemp("pipeline") / "big.csv"
    records = simulate_records(
        SimulationConfig(innovation_rate=0.1, births=99_999, seed=20_260_809)
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_records(records, fh)
    assert sum(1 for _ in open(path, encoding="utf-8")) == 100_001  # header + rows
    return path


def test_pipeline_determinism(big_fixture, tmp_path):
    """stats over 100k rows: byte-identical across runs and thread counts."""
    outputs = []
    worst = 0.0
    for i, threads in enumerate((1, 1, 4, 16)):
        out = tmp_path / f"run{i}.csv"
        start = time.perf_counter()
        code = main([
            "stats", "--records", str(big_fixture),
            "--span", "2000:2000", "--sex", "F",
            "--threads", str(threads), "--out", str(out),
        ])
        worst = max(worst, time.perf_counter() - start)
        assert code == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1
    assert worst < 10.0
    print(f"ACCEPTANCE PASS: pipeline determinism on 100k rows (worst {worst:.2f}s)")


def test_standardization_fixtures():
    """The named truncation and rejection fixtures, exactly."""
    assert truncate_name("Elizabeth") == "ELIZABET"
    assert truncate_name("Mary A") == "MARY"
    assert truncate_name("Christina") == "CHRISTIN"

    records = [
        NameRecord(raw_name=n, sex=Sex.FEMALE, record_year=1880,
                   record_kind=RecordKind.CENSUS, age=4)
        for n in ("J", "Mrs", "Widow", "Mary")
    ]
    result = filter_records(records, FilterPolicy())
    assert [(r.raw_name, reason) for r, reason in result.rejected] == [
        ("J", "single_letter"),
        ("Mrs", "generic"),
        ("Widow", "generic"),
    ]
    assert [r.raw_name for r in result.kept] == ["Mary"]
    print("ACCEPTANCE PASS: standardization fixtures")


def test_synthetic_emergence():
    """Shipped-seed simulation shows the power-law shape and count law."""
    config = SimulationConfig(innovation_rate=0.1, births=50_000, seed=7)
    start = time.perf_counter()
    cohort = simulate_naming(config)
    table = frequency_table(cohort)
    top100 = top_k(table, 100)
    fit = fit_ranked_frequencies(
        [e.popularity * table.sample_size for e in top100.entries]
    )
    elapsed = time.perf_counter() - start

    assert fit.r_squared >= 0.9
    expected = config.innovation_rate * config.births + config.initial_names
    assert abs(len(cohort.names) - expected) / expected < 0.05
    assert elapsed < 5.0
    print(
        "ACCEPTANCE PASS: synthetic emergence "
        f"(R2={fit.r_squared:.3f}, distinct={len(cohort.names)}, {elapsed:.2f}s)"
    )
