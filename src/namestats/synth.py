"""Synthetic name corpora from a proportional random-growth process.

Each birth takes a fresh unique name with probability alpha and otherwise
copies the name of a uniformly drawn earlier individual, so existing
names attract new bearers in proportion to how many they already have
(H. A. Simon, "On a class of skew distribution functions", Biometrika 42,
1955).  Long runs develop the power-law rank-frequency shape seen in real
name samples, which makes the generator a useful end-to-end fixture.

The process runs in one vectorized pass over the ``initial_names``
founders followed by the births, all numbered in birth order:

1. ``rng.random(births) < alpha`` marks the births that innovate.
2. One ``rng.integers(0, highs)`` call draws every copy target, where
   ``highs`` holds each copying individual's own index (the number of
   earlier individuals).  numpy's array-``high`` path consumes the PCG64
   stream exactly as one scalar call per birth would, in birth order.
3. Each individual's parent is itself (founders and innovations) or its
   copy target; parents always precede children, so pointer jumping
   (``parent = parent[parent]`` until it stops changing) reaches every
   individual's root, the founder or innovation whose name it carries.
4. Roots are numbered in index order, which is order of first
   appearance: founders first, then innovations in birth order.  All
   roots are named in one pass, root j taking entry j of
   :func:`sequential_names`, built by ``itertools`` with no Python loop
   per name, so no two roots share a name.

Streams come from numpy's PCG64 generator, so a config reproduces its
corpus bit for bit; :func:`simulation_metadata` captures the seed and
algorithm identifier for output sidecars.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, product
from typing import TYPE_CHECKING

from .corpus import YEAR_MAX, YEAR_MIN, Cohort, CohortSpec, NameRecord, RecordKind
from .standardize import MAX_NAME_LEN, Sex

if TYPE_CHECKING:
    import numpy as np

RNG_ALGORITHM = "numpy-pcg64"

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def sequential_names(count: int) -> list[str]:
    """The default names of roots 0 .. ``count`` - 1: N + base-26 digits.

    Root j's digits (A = 0) are padded with A to at least three: NAAA, ...,
    NZZZ, NBAAA, ...  Names are valid standardized forms (2-8 upper-case
    letters) and survive truncation unchanged.
    """
    limit = len(_LETTERS) ** (MAX_NAME_LEN - 1)
    if count > limit:
        raise ValueError(f"name index {limit} exceeds {MAX_NAME_LEN} letters")
    widths = [product("N", _LETTERS, _LETTERS, _LETTERS)] + [
        product("N", _LETTERS[1:], *[_LETTERS] * (width - 1))
        for width in range(4, MAX_NAME_LEN)
    ]
    return list(islice(map("".join, chain.from_iterable(widths)), count))


@dataclass(frozen=True)
class SimulationConfig:
    innovation_rate: float
    births: int
    initial_names: int = 1
    seed: int = 0
    sex: Sex = Sex.FEMALE
    year: int = 2000

    def __post_init__(self) -> None:
        if not 0 <= self.innovation_rate <= 1:
            raise ValueError("innovation_rate must lie in [0, 1]")
        if self.births < 1:
            raise ValueError("births must be >= 1")
        if self.initial_names < 1:
            raise ValueError("initial_names must be >= 1")
        if not YEAR_MIN <= self.year <= YEAR_MAX:
            raise ValueError(
                f"record_year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )


def simulate_labels(config: SimulationConfig) -> tuple[list[str], np.ndarray]:
    """``(names, labels)``: individual i (founders first) is ``names[labels[i]]``.

    ``names`` holds one entry per root in order of first appearance.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(config.seed))
    innovate = rng.random(config.births) < config.innovation_rate

    founders = config.initial_names
    is_root = np.concatenate([np.ones(founders, dtype=bool), innovate])
    parent = np.arange(is_root.size)
    # individual i draws uniformly among the i individuals before it
    copies = np.flatnonzero(~is_root)
    parent[copies] = rng.integers(0, copies)
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            break
        parent = jumped

    root_label = np.cumsum(is_root) - 1
    names = sequential_names(int(np.count_nonzero(is_root)))
    return names, root_label[parent]


def simulate_naming(config: SimulationConfig) -> Cohort:
    """Run the growth process; the cohort includes the initial seed names.

    The ``initial_names`` founders are part of the population (so the
    expected distinct-name count is alpha * births + initial_names), and
    every subsequent birth draws its copy target uniformly from all
    earlier individuals including them.  The counter's keys are in order
    of first appearance.
    """
    import numpy as np

    names, labels = simulate_labels(config)
    counts = Counter(dict(zip(names, np.bincount(labels).tolist())))
    spec = CohortSpec(config.sex, config.year, config.year)
    return Cohort(spec, counts)


def simulate_records(config: SimulationConfig) -> list[NameRecord]:
    """The same simulation as birth-register records, in birth order.

    Individuals who share a name share one (frozen) record object.
    """
    names, labels = simulate_labels(config)
    records = [
        NameRecord(
            raw_name=name,
            sex=config.sex,
            record_year=config.year,
            record_kind=RecordKind.BIRTH_REGISTER,
        )
        for name in names
    ]
    return repeat_by_label(records, labels)


def repeat_by_label(items: list, labels: np.ndarray) -> list:
    """``[items[j] for j in labels]``, indexed in one numpy pass."""
    import numpy as np

    return np.fromiter(items, dtype=object, count=len(items))[labels].tolist()


def simulation_metadata(config: SimulationConfig) -> dict:
    """Reproducibility sidecar: the RNG identifier and every parameter."""
    return {
        "rng": RNG_ALGORITHM,
        "seed": config.seed,
        "innovation_rate": config.innovation_rate,
        "births": config.births,
        "initial_names": config.initial_names,
        "sex": config.sex.value,
        "year": config.year,
    }
