"""Randomized rumor spreading (Karp, Schindelhauer, Shenker, Vöcking 2000).

Section 3's lower bound "closely resembles lower bounds for rumor spreading
in a complete graph, where the rumor is the location of the chosen nest".
This module provides the classic push / pull / push-pull processes so the
house-hunting measurements can be compared against their textbook
counterparts:

- **push**: every informed node calls a uniform random node and informs it
  (≈ log₂ n + ln n rounds on the complete graph);
- **pull**: every ignorant node calls a uniform random node and learns the
  rumor if the callee knows it;
- **push-pull**: both (≈ log₃ n + O(log log n)).

:func:`spread_on_graph` runs the same processes over an arbitrary
``networkx`` graph (calls go to uniform random *neighbors*), used in tests
and examples to show how topology — the ants' home nest acts as a complete
graph — shapes spreading time.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


class RumorMode(Enum):
    """Communication direction of the gossip exchange."""

    PUSH = "push"
    PULL = "pull"
    PUSH_PULL = "push_pull"


def rumor_rounds(
    n: int,
    rng: np.random.Generator,
    mode: RumorMode = RumorMode.PUSH,
    initial_informed: int = 1,
    max_rounds: int = 100_000,
) -> int:
    """Rounds for the rumor to reach all ``n`` nodes of the complete graph.

    Vectorized: each round every relevant node draws one uniform contact.
    Returns the first round after which nobody is ignorant (0 if
    ``initial_informed >= n``).
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if not 1 <= initial_informed <= n:
        raise ConfigurationError("initial_informed must be in 1..n")
    informed = np.zeros(n, dtype=bool)
    informed[:initial_informed] = True
    rounds = 0
    while not informed.all():
        if rounds >= max_rounds:
            break
        rounds += 1
        if mode in (RumorMode.PUSH, RumorMode.PUSH_PULL):
            callers = np.flatnonzero(informed)
            contacts = rng.integers(0, n, size=len(callers))
            informed[contacts] = True
        if mode in (RumorMode.PULL, RumorMode.PUSH_PULL):
            callers = np.flatnonzero(~informed)
            contacts = rng.integers(0, n, size=len(callers))
            informed[callers[informed[contacts]]] = True
    return rounds


def spread_on_graph(
    graph: nx.Graph,
    source,
    rng: np.random.Generator,
    mode: RumorMode = RumorMode.PUSH,
    max_rounds: int = 100_000,
) -> int:
    """Rounds for the rumor to cover a connected ``networkx`` graph.

    Every round, each informed node (push) contacts one uniform random
    neighbor; each ignorant node (pull) likewise.  Raises if the graph is
    disconnected (the rumor could never cover it).
    """
    import networkx as nx  # only this function needs it

    if graph.number_of_nodes() == 0:
        raise ConfigurationError("graph must be non-empty")
    if not nx.is_connected(graph):
        raise ConfigurationError("graph must be connected")
    if source not in graph:
        raise ConfigurationError(f"source {source!r} not in graph")

    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    neighbors = [np.array([index[v] for v in graph[u]], dtype=np.int64) for u in nodes]
    n = len(nodes)
    informed = np.zeros(n, dtype=bool)
    informed[index[source]] = True
    rounds = 0
    while not informed.all() and rounds < max_rounds:
        rounds += 1
        newly: list[int] = []
        if mode in (RumorMode.PUSH, RumorMode.PUSH_PULL):
            for u in np.flatnonzero(informed):
                nbrs = neighbors[u]
                if len(nbrs):
                    newly.append(int(nbrs[rng.integers(0, len(nbrs))]))
        if mode in (RumorMode.PULL, RumorMode.PUSH_PULL):
            for u in np.flatnonzero(~informed):
                nbrs = neighbors[u]
                if len(nbrs) and informed[nbrs[rng.integers(0, len(nbrs))]]:
                    newly.append(int(u))
        informed[newly] = True
    return rounds


def expected_push_rounds(n: int) -> float:
    """Karp et al.'s asymptotic estimate log₂ n + ln n for push gossip."""
    if n <= 1:
        return 0.0
    return float(np.log2(n) + np.log(n))
