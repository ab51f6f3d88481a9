"""Ordered DAGs: parent sets, adjacency matrices, and the edge prior.

Vertices are numbered 0..p-1 in memory and 1..p in file formats and
documentation.  Every edge points from a larger-indexed vertex (the
parent) to a smaller-indexed one (the child), so a graph is described
completely by one parent set per vertex and is acyclic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


def _canon_column(pa) -> tuple[int, ...]:
    """Sorted tuple of distinct ints.  An already-canonical tuple passes
    through as the same object, so a Dag built from canonical parent sets
    (the chain's state, the enumerator's subsets) copies no column."""
    t = pa if isinstance(pa, tuple) else tuple(pa)
    ok = all(type(j) is int for j in t)
    if ok:
        for k in range(len(t) - 1):
            if t[k] >= t[k + 1]:
                ok = False
                break
    return t if ok else tuple(sorted({int(j) for j in t}))


@dataclass(frozen=True)
class Dag:
    """Immutable DAG under the fixed vertex ordering.

    ``parents[i]`` is the sorted tuple of parents of vertex ``i``; each
    parent index strictly exceeds ``i``.  The last vertex never has
    parents.
    """

    p: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("vertex count p must be at least 1")
        if len(self.parents) != self.p:
            raise ValueError(f"expected {self.p} parent sets, got {len(self.parents)}")
        canon = []
        for i, pa in enumerate(self.parents):
            pa = _canon_column(pa)
            if pa and (pa[0] <= i or pa[-1] >= self.p):
                raise ValueError(
                    f"parents of vertex {i} must lie strictly between {i} and {self.p}"
                )
            canon.append(pa)
        object.__setattr__(self, "parents", tuple(canon))

    @classmethod
    def empty(cls, p: int) -> "Dag":
        return cls(p, tuple(() for _ in range(p)))

    @classmethod
    def complete(cls, p: int) -> "Dag":
        return cls(p, tuple(tuple(range(i + 1, p)) for i in range(p)))

    @classmethod
    def from_edges(cls, p: int, edges: Iterable[tuple[int, int]]) -> "Dag":
        parents: list[set[int]] = [set() for _ in range(p)]
        for child, parent in edges:
            if not 0 <= child < p:
                raise ValueError(f"child index {child} out of range")
            parents[child].add(parent)
        return cls(p, tuple(tuple(sorted(s)) for s in parents))

    def nu(self) -> tuple[int, ...]:
        """Parent count of each vertex."""
        return tuple(len(pa) for pa in self.parents)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All (child, parent) pairs in ascending child order."""
        for i, pa in enumerate(self.parents):
            for j in pa:
                yield (i, j)

    @property
    def n_edges(self) -> int:
        return sum(len(pa) for pa in self.parents)


def adjacency(dag: Dag) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""
    G = np.zeros((dag.p, dag.p), dtype=np.int8)
    for child, parent in dag.edges():
        G[child, parent] = 1
        G[parent, child] = 1
    return G


def log_prior_dag(dag: Dag, q: float, R: float) -> float:
    """Unnormalized log prior of a DAG under independent edge inclusion.

    Each of the p-j candidate parents of column j (1-based) is present
    with probability ``q``; graphs whose largest parent count reaches the
    complexity bound ``R`` get probability zero (returned as -inf).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"edge probability q must lie in (0, 1), got {q}")
    if R < 0:
        raise ValueError(f"complexity bound R must be nonnegative, got {R}")
    nu = dag.nu()
    if dag.p > 1 and max(nu[:-1]) >= R:
        return -math.inf
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    total = 0.0
    for c in range(dag.p - 1):
        k = dag.p - 1 - c  # candidate parents of this column
        total += nu[c] * log_q + (k - nu[c]) * log_1mq
    return total


def dag_to_edge_csv(dag: Dag) -> str:
    """Serialize as "child,parent" lines with 1-based vertex indices."""
    lines = [f"{child + 1},{parent + 1}" for child, parent in dag.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def dag_from_edge_csv(text: str, p: int) -> Dag:
    """Parse the 1-based "child,parent" edge-list format."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            child_s, parent_s = line.split(",")
            edges.append((int(child_s) - 1, int(parent_s) - 1))
        except ValueError as exc:
            raise ValueError(f"bad edge line {lineno}: {line!r}") from exc
    return Dag.from_edges(p, edges)
