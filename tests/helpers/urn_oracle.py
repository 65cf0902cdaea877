"""The exact law of a two-urn generalized Pólya race.

A reference that owes nothing to any simulator: starting from ``a`` and
``b`` balls, each step adds one ball to urn A with probability
``A^γ / (A^γ + B^γ)``.  After ``s`` steps the state is fixed by how many
of them went to A, so a dynamic program over that number (``O(steps^2)``
work, vectorized over the number) gives the exact distribution of the
final split, and with it the probability that A ends strictly larger —
the quantity E14's ``e14_urn_wins`` metric counts.
"""

from __future__ import annotations

import numpy as np


def urn_a_wins_exactly(a: int, b: int, steps: int, gamma: float) -> float:
    """P(urn A holds strictly more balls than B after ``steps`` steps)."""
    # mass[j]: probability that j of the steps so far reinforced urn A.
    mass = np.ones(1)
    for step in range(steps):
        added = np.arange(step + 1)
        weight_a = (a + added).astype(float) ** gamma
        weight_b = (b + step - added).astype(float) ** gamma
        to_a = weight_a / (weight_a + weight_b)
        grown = np.zeros(step + 2)
        grown[:-1] += mass * (1.0 - to_a)
        grown[1:] += mass * to_a
        mass = grown
    added = np.arange(steps + 1)
    return float(mass[a + added > b + steps - added].sum())
