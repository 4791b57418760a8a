import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namestats import (
    InfeasibleConstraintsError,
    InsufficientPointsError,
    LogLinearModel,
    fit_rank_frequency,
    fit_ranked_frequencies,
    frequency_table,
    loglog_series,
    social_information,
    solve_from_info_constraints,
    solve_from_top_constraints,
)
from namestats.popstats import PopularityEntry, PopularityList
from namestats.powerlaw import conquest_model, model_information

from conftest import make_cohort

# frozen offline solver oracle (brentq at 1e-15 on the same objectives)
B_TOP_CONSTRAINTS = -0.590765477525241      # p1=0.10, total=0.45, k=10
B_INFO_04 = -0.948947509252677              # info=0.4, k=10
B_INFO_0445 = -0.999479160094292            # info=0.445, k=10
IS_CONQUEST_1166 = 0.147223609632269

# frozen offline literal-formula oracle for the constructed century pair
CONQUEST_C1 = 1.083379666395
CONQUEST_C2 = 0.058555637059
CONQUEST_C3 = 4.117449326112
CONQUEST_C4 = 982.437155390


def model_plist(model: LogLinearModel) -> PopularityList:
    entries = tuple(
        PopularityEntry(j, f"R{j:02d}", p)
        for j, p in enumerate(model.popularities, start=1)
    )
    return PopularityList(model.k, entries)


def polyfit_reference(frequencies) -> tuple[float, float, float]:
    """Slope, intercept and R^2 of np.polyfit's least-squares line through
    (log2 rank, log2 frequency); R^2 of a constant series is 1, as that
    line reproduces it."""
    y = np.log2(np.asarray(frequencies, dtype=float))
    x = np.log2(np.arange(1, len(y) + 1, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    if np.ptp(y) == 0:
        return float(slope), float(intercept), 1.0
    resid = y - (slope * x + intercept)
    centered = y - y.mean()
    r2 = 1.0 - float(resid @ resid) / float(centered @ centered)
    return float(slope), float(intercept), min(1.0, max(0.0, r2))


@st.composite
def ranked_series(draw) -> list[float]:
    """3-500 positive non-increasing points: a noisy power law, counts with
    ties, or a constant, scaled to near 1e-300, 1 or 1e300."""
    n = draw(st.integers(3, 500))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["power", "counts", "constant"]))
    if kind == "constant":
        base = [rng.uniform(1.0, 1e6)] * n
    elif kind == "counts":
        top = 10 ** rng.randint(1, 6)
        base = sorted((rng.randint(1, top) for _ in range(n)), reverse=True)
    else:
        b = rng.uniform(-2.5, -0.05)
        base = sorted((100.0 * j**b * 2 ** rng.gauss(0, 0.3) for j in range(1, n + 1)),
                      reverse=True)
    scale = draw(st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]))
    return [v * scale for v in base]


class TestFitRankFrequency:
    @settings(max_examples=300, deadline=None)
    @given(ranked_series())
    def test_matches_polyfit(self, freqs):
        fit = fit_ranked_frequencies(freqs)
        slope, intercept, r2 = polyfit_reference(freqs)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.r_squared == pytest.approx(r2, abs=1e-9)
        assert fit.points_used == len(freqs)

    def test_numpy_array_input(self):
        freqs = np.array([40.0, 20.0, 9.0, 6.0, 2.0])
        assert fit_ranked_frequencies(freqs) == fit_ranked_frequencies(freqs.tolist())

    @pytest.mark.parametrize("freqs, error, message", [
        ([5.0, 3.0], InsufficientPointsError, "need >= 3 qualifying points, got 2"),
        ([], InsufficientPointsError, "need >= 3 qualifying points, got 0"),
        ([5.0, 3.0, 0.0], ValueError, "frequencies must be positive"),
        ([5.0, -3.0, 1.0], ValueError, "frequencies must be positive"),
    ])
    def test_errors(self, freqs, error, message):
        with pytest.raises(error, match=message):
            fit_ranked_frequencies(freqs)

    def test_exact_inverse_rank(self):
        counts = {f"N{j:02d}": 2520 // j for j in range(1, 11)}  # 2520 = lcm(1..10)
        fit = fit_rank_frequency(frequency_table(make_cohort(counts)), min_count=1)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.points_used == 10

    def test_exact_half_exponent(self):
        freqs = [1000.0 * j**-0.5 for j in range(1, 21)]
        fit = fit_ranked_frequencies(freqs)
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log2(1000), abs=1e-9)

    def test_matches_closed_form_ols_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            b = float(rng.uniform(-2.0, -0.2))
            y = np.log2(100.0 * np.arange(1, n + 1) ** b) + rng.normal(0, 0.1, n)
            freqs = 2.0**y
            fit = fit_ranked_frequencies(freqs)
            x = np.log2(np.arange(1, n + 1, dtype=float))
            xc, yc = x - x.mean(), y - y.mean()
            slope = float(np.sum(xc * yc) / np.sum(xc * xc))
            intercept = float(y.mean() - slope * x.mean())
            r2 = float(np.sum(xc * yc) ** 2 / (np.sum(xc * xc) * np.sum(yc * yc)))
            assert fit.slope == pytest.approx(slope, abs=1e-10)
            assert fit.intercept == pytest.approx(intercept, abs=1e-10)
            assert fit.r_squared == pytest.approx(r2, abs=1e-10)

    def test_min_count_threshold(self):
        counts = {"AA": 100, "BB": 50, "CC": 20, "DD": 4, "EE": 2}
        fit = fit_rank_frequency(frequency_table(make_cohort(counts)), min_count=5)
        assert fit.points_used == 3
        assert fit.min_count == 5

    def test_insufficient_points(self):
        counts = {"AA": 100, "BB": 50, "CC": 2}
        with pytest.raises(InsufficientPointsError):
            fit_rank_frequency(frequency_table(make_cohort(counts)), min_count=5)

    def test_constant_counts_fit_perfectly(self):
        counts = {f"N{j}": 7 for j in range(5)}
        fit = fit_rank_frequency(frequency_table(make_cohort(counts)), min_count=1)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_loglog_series(self):
        counts = {"AA": 8, "BB": 4, "CC": 2}
        series = loglog_series(frequency_table(make_cohort(counts)))
        assert series[0] == (0.0, 3.0)
        assert series[1] == (1.0, 2.0)
        assert series[2] == pytest.approx((math.log2(3), 1.0))


class TestSolveFromTopConstraints:
    def test_reference_parameters(self):
        model = solve_from_top_constraints(0.10, 0.45, 10)
        assert model.scale == 0.10
        assert model.total == pytest.approx(0.45, abs=1e-10)
        assert model.exponent == pytest.approx(B_TOP_CONSTRAINTS, abs=1e-9)

    def test_uniform_boundary(self):
        model = solve_from_top_constraints(0.10, 1.0, 10)
        assert model.exponent == 0.0
        assert model.popularities == (0.10,) * 10

    def test_degenerate_total_equals_p1(self):
        with pytest.raises(InfeasibleConstraintsError, match="degenerate"):
            solve_from_top_constraints(0.10, 0.10, 10)

    def test_infeasible_totals(self):
        with pytest.raises(InfeasibleConstraintsError):
            solve_from_top_constraints(0.10, 1.2, 10)
        with pytest.raises(InfeasibleConstraintsError):
            solve_from_top_constraints(0.10, 0.05, 10)

    def test_k1(self):
        model = solve_from_top_constraints(0.3, 0.3, 1)
        assert model.popularities == (0.3,)

    def test_residual_grid(self):
        for total in (0.12, 0.2, 0.45, 0.7, 0.99):
            model = solve_from_top_constraints(0.10, total, 10)
            assert abs(model.total - total) < 1e-10
            assert model.exponent <= 0


class TestSolveFromInfoConstraints:
    def test_zero_information_is_uniform(self):
        model = solve_from_info_constraints(0.0, 0.5, 10)
        assert model.exponent == 0.0
        assert model.popularities == pytest.approx((0.05,) * 10, abs=1e-15)

    def test_reference_parameters(self):
        model = solve_from_info_constraints(0.4, 0.045, 10)
        assert model.exponent == pytest.approx(B_INFO_04, abs=1e-9)
        assert model.total == pytest.approx(0.045, abs=1e-12)
        assert social_information(model_plist(model)) == pytest.approx(0.4, abs=1e-9)

    def test_near_zipf_slope(self):
        model = solve_from_info_constraints(0.445, 1.0, 10)
        assert model.exponent == pytest.approx(B_INFO_0445, abs=1e-9)

    def test_out_of_range_info(self):
        with pytest.raises(InfeasibleConstraintsError):
            solve_from_info_constraints(math.log2(10), 0.5, 10)
        with pytest.raises(InfeasibleConstraintsError):
            solve_from_info_constraints(-0.1, 0.5, 10)

    def test_solution_reproduces_target_on_grid(self):
        for target in (0.01, 0.1, 0.4, 1.0, 2.0, 3.0):
            model = solve_from_info_constraints(target, 0.8, 10)
            assert social_information(model_plist(model)) == pytest.approx(
                target, abs=1e-9
            )

    def test_monotone_in_exponent(self):
        k = 10
        values = [model_information(b, k) for b in np.arange(-5.0, 0.01, 0.25)]
        # I_s strictly decreases as b rises toward zero
        assert all(a > b for a, b in zip(values, values[1:]))


class TestRoundTrip:
    def test_fit_recovers_model_exponent(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(10, 80))
            b = float(rng.uniform(-2.5, -0.05))
            scale = float(rng.uniform(0.01, 1.0 / k))
            model = LogLinearModel(k=k, exponent=b, scale=scale)
            freqs = [p * 1e6 for p in model.popularities]
            fit = fit_ranked_frequencies(freqs)
            assert abs(fit.slope - b) < 1e-6
            assert fit.r_squared > 1 - 1e-9

    def test_info_solver_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(2, 12))
            target = float(rng.uniform(0, math.log2(k) * 0.95))
            model = solve_from_info_constraints(target, 0.9, k)
            assert social_information(model_plist(model)) == pytest.approx(
                target, abs=1e-9
            )


class TestConquestModel:
    def test_matches_frozen_oracle(self):
        result = conquest_model(0.10, 0.45, 0.4, 0.045, t11=0.75, k=10)
        assert result.c1 == pytest.approx(CONQUEST_C1, abs=1e-9)
        assert result.c2 == pytest.approx(CONQUEST_C2, abs=1e-9)
        assert result.c3 == pytest.approx(CONQUEST_C3, abs=1e-9)
        assert result.c4 == pytest.approx(CONQUEST_C4, abs=1e-6)
        assert result.new_topk == 10

    def test_published_bands(self):
        result = conquest_model(0.10, 0.45, 0.4, 0.045, t11=0.75, k=10)
        assert abs(result.c1 - 1.083) <= 0.005
        assert abs(result.c4 - 982) <= 5
        assert result.new_topk == 10

    def test_c3_identity(self):
        result = conquest_model(0.10, 0.45, 0.4, 0.045, t11=0.75, k=10)
        assert result.c3 - result.c2 == pytest.approx(
            math.log2(0.75 / 0.045), abs=1e-9
        )

    def test_year2_model_information(self):
        model = solve_from_top_constraints(0.10, 0.45, 10)
        assert social_information(model_plist(model)) == pytest.approx(
            IS_CONQUEST_1166, abs=1e-9
        )

    def test_year2_model_information_literal_oracle(self):
        model = solve_from_top_constraints(0.10, 0.45, 10)
        p = model.popularities
        T = sum(p)
        literal = math.log2(10) - sum((x / T) * math.log2(T / x) for x in p)
        assert social_information(model_plist(model)) == pytest.approx(
            literal, abs=1e-12
        )

    def test_infeasible_t11(self):
        with pytest.raises(ValueError):
            conquest_model(0.10, 0.45, 0.4, 0.045, t11=0.01, k=10)


class TestLogLinearModel:
    def test_popularities_shape(self):
        model = LogLinearModel(k=4, exponent=-1.0, scale=0.4)
        assert model.popularities == pytest.approx((0.4, 0.2, 0.4 / 3, 0.1))

    def test_rejects_positive_exponent(self):
        with pytest.raises(ValueError):
            LogLinearModel(k=4, exponent=0.5, scale=0.1)

    def test_rejects_total_above_one(self):
        with pytest.raises(ValueError):
            LogLinearModel(k=10, exponent=0.0, scale=0.2)
