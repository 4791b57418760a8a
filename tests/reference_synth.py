"""Slow references for the vectorized simulator.

``simulate_sequence`` is the per-birth loop that ``synth.simulate_labels``
replaced: one scalar ``rng.integers`` call per copying birth, in birth
order.  The property tests in ``test_synth.py`` require the vectorized
pass to give the same name for every individual.

``sequential_name`` is the per-index ``divmod`` loop that
``synth.sequential_names`` replaced; the tests require the bulk pass to
give the same list.
"""

from __future__ import annotations

import numpy as np

from namestats.standardize import MAX_NAME_LEN
from namestats.synth import SimulationConfig

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def sequential_name(index: int, letters: str = LETTERS) -> str:
    """Name of root ``index``: N + its digits in base ``len(letters)``,
    padded with ``letters[0]`` to at least three."""
    digits = []
    n = index
    while n:
        n, rem = divmod(n, len(letters))
        digits.append(letters[rem])
    while len(digits) < 3:
        digits.append(letters[0])
    name = "N" + "".join(reversed(digits))
    if len(name) > MAX_NAME_LEN:
        raise ValueError(f"name index {index} exceeds {MAX_NAME_LEN} letters")
    return name


def simulate_sequence(config: SimulationConfig) -> list[str]:
    """Every individual's name, founders first, then births in order."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    innovate = rng.random(config.births) < config.innovation_rate

    history = [sequential_name(i) for i in range(config.initial_names)]
    next_index = config.initial_names
    for t in range(config.births):
        if innovate[t]:
            name = sequential_name(next_index)
            next_index += 1
        else:
            name = history[int(rng.integers(0, len(history)))]
        history.append(name)
    return history
