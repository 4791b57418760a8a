"""Given-name corpus statistics.

Ingests historical given-name records, standardizes them (truncation
plus coding-table grouping), and computes popularity, social-information,
and name-communication statistics, with report emitters and a synthetic
corpus generator for end-to-end checks.

Each name below, and each submodule, is imported on first use (PEP 562),
so ``import namestats`` loads none of them and a program pays only for the
modules it touches.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "commstats": (
        "AlignedPair",
        "CommResult",
        "DivergentOtherMassError",
        "align",
        "comm_all",
        "comm_c1",
        "comm_c2",
        "comm_c3",
        "comm_c4",
        "comm_from_pair",
        "new_names",
        "turnover_per_annum",
    ),
    "corpus": (
        "Cohort",
        "CohortSpec",
        "FilterPolicy",
        "NameRecord",
        "ParseError",
        "RecordKind",
        "build_cohort",
        "filter_records",
        "parse_records",
        "write_records",
    ),
    "popstats": (
        "FrequencyTable",
        "InsufficientDistinctNamesError",
        "PopularityList",
        "PopularitySummary",
        "average_summaries",
        "frequency_table",
        "name_popularity",
        "sampling_variability",
        "social_information",
        "summarize",
        "top_k",
    ),
    "powerlaw": (
        "InfeasibleConstraintsError",
        "InsufficientPointsError",
        "LogLinearModel",
        "PowerLawFit",
        "conquest_model",
        "fit_rank_frequency",
        "fit_ranked_frequencies",
        "loglog_series",
        "solve_from_info_constraints",
        "solve_from_top_constraints",
    ),
    "standardize": (
        "CodingTable",
        "CodingTableError",
        "Sex",
        "StandardizationError",
        "apply_coding",
        "correct_sex",
        "load_coding_table",
        "load_demo_table",
        "truncate_name",
    ),
    "synth": ("SimulationConfig", "simulate_naming", "simulate_records"),
}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "reports"))
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
