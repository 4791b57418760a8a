"""Given-name corpus statistics.

Ingests historical given-name records, standardizes them (truncation
plus coding-table grouping), and computes popularity, social-information,
and name-communication statistics, with report emitters and a synthetic
corpus generator for end-to-end checks.
"""

from .commstats import (
    AlignedPair,
    CommResult,
    DivergentOtherMassError,
    align,
    comm_all,
    comm_c1,
    comm_c2,
    comm_c3,
    comm_c4,
    comm_from_pair,
    new_names,
    turnover_per_annum,
)
from .corpus import (
    AgeUnresolvableError,
    Cohort,
    CohortSpec,
    FilterPolicy,
    NameRecord,
    ParseError,
    RecordKind,
    assign_birth_year,
    build_cohort,
    filter_records,
    parse_records,
    write_records,
)
from .popstats import (
    FrequencyTable,
    InsufficientDistinctNamesError,
    PopularityList,
    PopularitySummary,
    average_summaries,
    frequency_table,
    name_popularity,
    sampling_variability,
    social_information,
    summarize,
    top_k,
)
from .powerlaw import (
    InfeasibleConstraintsError,
    InsufficientPointsError,
    LogLinearModel,
    PowerLawFit,
    conquest_model,
    fit_rank_frequency,
    fit_ranked_frequencies,
    loglog_series,
    solve_from_info_constraints,
    solve_from_top_constraints,
)
from .standardize import (
    CodingTable,
    CodingTableError,
    Sex,
    StandardizationError,
    apply_coding,
    correct_sex,
    load_coding_table,
    load_demo_table,
    truncate_name,
)
from .synth import SimulationConfig, simulate_naming, simulate_records

__version__ = "0.1.0"
