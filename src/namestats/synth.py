"""Synthetic name corpora from a proportional random-growth process.

Each birth takes a fresh unique name with probability alpha and otherwise
copies the name of a uniformly drawn earlier individual, so existing
names attract new bearers in proportion to how many they already have
(H. A. Simon, "On a class of skew distribution functions", Biometrika 42,
1955).  Long runs develop the power-law rank-frequency shape seen in real
name samples, which makes the generator a useful end-to-end fixture.

The process runs in one vectorized pass over the ``initial_names``
founders followed by the births, all numbered in birth order:

1. ``rng.random(m) < alpha``, drawn 2^16 births at a time into one bool
   array (split draws give the same doubles), marks the innovations.
   Every innovation double is drawn before any copy target.
2. The individuals are then labelled in one forward pass over blocks of
   2^16.  One ``rng.integers(0, highs)`` call draws the block's copy
   targets, where ``highs`` holds each copying individual's own index
   (the number of earlier individuals).  numpy's array-``high`` path
   consumes the PCG64 stream one element at a time, exactly as one
   scalar call per birth would, so split calls give the same targets.
3. A target in an earlier block already has its label, which the copier
   takes.  Inside the block, each individual's parent is itself (roots
   and copiers of earlier blocks) or its copy target; parents always
   precede children, so pointer jumping on a block-local array
   (``parent = parent[parent]`` until it stops changing) reaches the
   individual in the block whose label it carries.
4. Roots take labels from a running count in index order, which is order
   of first appearance: founders first, then innovations in birth order.
   The labels are of the smallest signed integer type that holds the
   population size.  All roots are named in one pass, root j taking
   entry j of :func:`sequential_names`, built by ``itertools`` with no
   Python loop per name, so no two roots share a name.

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
# births per innovation draw and individuals per labelling block, so no
# double or index per birth is held at once
_DRAW_CHUNK = 1 << 16


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not YEAR_MIN <= self.year <= YEAR_MAX:
            raise ValueError(
                f"record_year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )


def simulate_labels(config: SimulationConfig) -> tuple[list[str], np.ndarray]:
    """``(names, labels)``: individual i (founders first) is ``names[labels[i]]``.

    ``names`` holds one entry per root in order of first appearance;
    ``labels`` is of the smallest signed integer type that holds the
    population size.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(config.seed))
    size = config.initial_names + config.births
    is_root = np.ones(size, dtype=bool)
    births = is_root[config.initial_names:]
    for part in np.split(births, range(_DRAW_CHUNK, births.size, _DRAW_CHUNK)):
        np.less(rng.random(part.size), config.innovation_rate, out=part)

    # signed, so that np.bincount casts it safely
    labels = np.empty(size, dtype=np.min_scalar_type(-size))
    roots = 0
    for lo in range(0, size, _DRAW_CHUNK):
        block = is_root[lo:lo + _DRAW_CHUNK]
        copies = np.flatnonzero(~block)
        # individual i draws uniformly among the i individuals before it
        targets = rng.integers(0, copies + lo)
        # the label each block member's pointer chain ends at: a root's own,
        # or that of a copy target in an earlier block
        own = np.empty(block.size, dtype=labels.dtype)
        count = np.count_nonzero(block)
        own[block] = np.arange(roots, roots + count)
        roots += count
        earlier = targets < lo
        own[copies[earlier]] = labels[targets[earlier]]
        # block-local indices are below the population size, so they fit
        parent = np.arange(block.size, dtype=labels.dtype)
        inside = ~earlier
        parent[copies[inside]] = targets[inside] - lo
        jumped = np.empty_like(parent)
        while True:
            # every index is in range; "clip" writes straight into the spare
            # buffer, where "raise" would fill a temporary copy first
            np.take(parent, parent, out=jumped, mode="clip")
            if np.array_equal(jumped, parent):
                break
            parent, jumped = jumped, parent
        np.take(own, parent, out=labels[lo:lo + block.size], mode="clip")
    del is_root  # freed before the names are built
    return sequential_names(roots), labels


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
    return [records[j] for j in labels.tolist()]


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
