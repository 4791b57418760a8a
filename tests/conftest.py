from collections import Counter

import pytest
from hypothesis import settings

from namestats import Cohort, CohortSpec, Sex, load_demo_table

# CI selects this with `pytest --hypothesis-profile=ci`; properties that set
# their own max_examples keep it
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def demo_table():
    return load_demo_table()


def make_cohort(counts: dict[str, int], sex=Sex.FEMALE, start=1800, end=1800) -> Cohort:
    return Cohort(CohortSpec(sex, start, end), Counter(counts))


def records_csv(rows: list[str]) -> str:
    """A record file from raw CSV body lines."""
    return "name,sex,age,year,kind,location,native_born\n" + "".join(
        line + "\n" for line in rows
    )
