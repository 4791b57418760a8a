"""Slow reference for the vectorized simulator.

``simulate_sequence`` is the per-birth loop that ``synth.simulate_labels``
replaced: one scalar ``rng.integers`` call per copying birth, in birth
order.  The property tests in ``test_synth.py`` require the vectorized
pass to give the same name for every individual, and to call
``name_alphabet`` with the same indices in the same order.
"""

from __future__ import annotations

import numpy as np

from namestats.synth import SimulationConfig, sequential_name


def simulate_sequence(config: SimulationConfig) -> list[str]:
    """Every individual's name, founders first, then births in order."""
    namefn = config.name_alphabet or sequential_name
    rng = np.random.Generator(np.random.PCG64(config.seed))
    innovate = rng.random(config.births) < config.innovation_rate

    history = [namefn(i) for i in range(config.initial_names)]
    next_index = config.initial_names
    for t in range(config.births):
        if innovate[t]:
            name = namefn(next_index)
            next_index += 1
        else:
            name = history[int(rng.integers(0, len(history)))]
        history.append(name)
    return history
