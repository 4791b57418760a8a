"""Report emission with the source tables' display precision.

CSV is the machine contract; markdown mirrors the same columns for
human review.  Display rounding happens here and only here: popularities
as one-decimal percents, I_s to three decimals, C statistics to four,
C4 as an integer percent, and sampling-variability counts as integers
rounded half away from zero.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .corpus import _line

if TYPE_CHECKING:
    from .commstats import CommResult
    from .popstats import PopularitySummary, SamplingVariability
    from .powerlaw import PowerLawFit

SUMMARY_HEADER = ("cohort", "sex", "top_name", "top_pop", "topk_pop", "info_Is", "sample_size")
COMM_HEADER = ("span", "sex", "c1", "c2", "c3", "c4_pct", "new_topk", "turnover_pa", "fallback")
FIT_HEADER = ("cohort", "sex", "slope", "intercept", "r2", "points", "min_count")
SAMPLEVAR_HEADER = ("name_probability", "sample_size", "expected", "std_dev", "std_dev_pct")
CONQUEST_HEADER = ("span", "c1", "c2", "c3", "c4_pct", "new_topk")
CHART_HEADER = ("log2_rank", "log2_freq")


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def fmt_pct1(fraction: float) -> str:
    """Fraction as a one-decimal percent: 0.239 -> '23.9%'."""
    return f"{math.floor(fraction * 1000 + 0.5) / 10:.1f}%"


def fmt_pct_int(percent: float) -> str:
    """Percent value as an integer percent: 982.44 -> '982%'."""
    return f"{round_half_away(percent)}%"


def fmt_count(x: float) -> str:
    """Integer text when integral (averaged values may be fractional)."""
    return str(int(x)) if float(x).is_integer() else f"{x:.1f}"


def fmt_bits3(x: float) -> str:
    return f"{max(x, 0.0):.3f}"


def fmt_bits4(x: float) -> str:
    return f"{max(x, 0.0):.4f}"


def _emit(header: Sequence[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        return "".join(map(_line, [header, *rows]))
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_summaries(
    rows: Sequence[tuple[str, str, PopularitySummary]], fmt: str = "csv"
) -> str:
    """(cohort label, sex code, summary) rows, one per cohort and sex."""
    body = [
        [
            label,
            sex,
            s.top_name,
            fmt_pct1(s.top_pop),
            fmt_pct1(s.topk_pop),
            fmt_bits3(s.info_is),
            fmt_count(s.sample_size),
        ]
        for label, sex, s in rows
    ]
    return _emit(SUMMARY_HEADER, body, fmt)


def render_comm(
    rows: Sequence[tuple[str, str, CommResult]], fmt: str = "csv"
) -> str:
    """(span label, sex code, result) rows, one per cohort pair and sex."""
    body = [
        [
            label,
            sex,
            fmt_bits4(r.c1),
            fmt_bits4(r.c2),
            fmt_bits4(r.c3),
            fmt_pct_int(r.c4),
            fmt_count(r.new_topk),
            "" if r.turnover_pa is None else f"{r.turnover_pa:.4f}",
            str(r.fallback_count),
        ]
        for label, sex, r in rows
    ]
    return _emit(COMM_HEADER, body, fmt)


def render_fits(
    rows: Sequence[tuple[str, str, PowerLawFit]], fmt: str = "csv"
) -> str:
    body = [
        [
            label,
            sex,
            f"{f.slope:.4f}",
            f"{f.intercept:.4f}",
            f"{f.r_squared:.4f}",
            str(f.points_used),
            fmt_count(f.min_count),
        ]
        for label, sex, f in rows
    ]
    return _emit(FIT_HEADER, body, fmt)


def render_samplevar(
    rows: Sequence[tuple[float, int, SamplingVariability]], fmt: str = "csv"
) -> str:
    """(p, n, variability) rows with integer-count display rounding."""
    body = [
        [
            fmt_pct1(p),
            str(n),
            str(round_half_away(v.expected)),
            str(round_half_away(v.sd)),
            fmt_pct1(v.sd_pct),
        ]
        for p, n, v in rows
    ]
    return _emit(SAMPLEVAR_HEADER, body, fmt)


def render_conquest(label: str, result: CommResult, fmt: str = "csv") -> str:
    body = [
        [
            label,
            fmt_bits4(result.c1),
            fmt_bits4(result.c2),
            fmt_bits4(result.c3),
            fmt_pct_int(result.c4),
            fmt_count(result.new_topk),
        ]
    ]
    return _emit(CONQUEST_HEADER, body, fmt)


def render_chart_series(series: Sequence[tuple[float, float]]) -> str:
    body = [[f"{x:.6f}", f"{y:.6f}"] for x, y in series]
    return _emit(CHART_HEADER, body, "csv")
