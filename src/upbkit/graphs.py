"""Combinatorics behind the four-member theorem.

A five-member three-qubit UPB would induce three orthogonality graphs on K5
whose edges cover all ten vertex pairs.  Valid per-party graphs have max
valence 2 and no odd cycles; exhaustive scanning of the 3^10 single-party
edge assignments leaves the surviving colorings, and
:func:`~upbkit.product_search.is_extendible` decides exactly that every
random realization of a survivor extends, refuting the five-member
hypothesis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import orthonormality_error

K5_EDGES: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(5) for j in range(i + 1, 5)
)

PARTY_LABELS = ("A", "B", "C")


def _normalize_edges(edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    out = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


@dataclass(frozen=True)
class PartyGraph:
    """Orthogonality graph of one party's local states."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", _normalize_edges(self.edges))
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for {self.n} vertices")

    def adjacency(self) -> list[list[int]]:
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def components(self) -> list[list[int]]:
        adj = self.adjacency()
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            queue, comp = [start], []
            seen[start] = True
            while queue:
                v = queue.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def canonical_form(self) -> tuple[tuple[int, int], ...]:
        """Lexicographically smallest edge list over all vertex relabelings."""
        best = None
        for perm in itertools.permutations(range(self.n)):
            relabeled = tuple(
                sorted((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in self.edges)
            )
            if best is None or relabeled < best:
                best = relabeled
        return best if best is not None else ()


@dataclass(frozen=True)
class Violation:
    kind: str  # "valence" or "odd_cycle"
    vertices: tuple[int, ...]


def check_party_constraints(g: PartyGraph) -> list[Violation]:
    """Valence-3 vertices and odd cycles, found by per-component 2-coloring."""
    violations = []
    adj = g.adjacency()
    for v in range(g.n):
        if len(adj[v]) >= 3:
            violations.append(Violation("valence", (v,)))
    color = [-1] * g.n
    parent = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v] and w != parent[v]:
                    cycle = _odd_cycle_through(v, w, parent)
                    if cycle is not None:
                        violations.append(Violation("odd_cycle", cycle))
                        # one odd cycle per component is enough evidence
                        queue = []
                        break
    return violations


def _odd_cycle_through(v: int, w: int, parent: list[int]) -> tuple[int, ...] | None:
    # v and w share a color, so their tree paths to the meeting ancestor have
    # equal parity and the fundamental cycle through edge (v, w) is odd
    path_v, path_w = [v], [w]
    seen = {v: 0}
    x = v
    while parent[x] != -1:
        x = parent[x]
        seen[x] = len(path_v)
        path_v.append(x)
    x = w
    while x not in seen:
        x = parent[x]
        if x == -1:
            return None
        path_w.append(x)
    meet = seen[x]
    return tuple(path_v[:meet + 1] + path_w[::-1][1:])


def is_valid_party_graph(g: PartyGraph) -> bool:
    return not check_party_constraints(g)


def enumerate_valid_party_graphs(n: int = 5, min_edges: int = 4) -> list[PartyGraph]:
    """All n-vertex graphs with >= min_edges edges, valence <= 2, and no odd
    cycles, reduced to one representative per isomorphism class."""
    all_edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    seen: dict[tuple, PartyGraph] = {}
    for mask in range(1 << len(all_edges)):
        if bin(mask).count("1") < min_edges:
            continue
        edges = frozenset(e for k, e in enumerate(all_edges) if mask >> k & 1)
        g = PartyGraph(n, edges)
        if not is_valid_party_graph(g):
            continue
        key = g.canonical_form()
        if key not in seen:
            seen[key] = PartyGraph(n, frozenset(key))
    return [seen[k] for k in sorted(seen)]


@dataclass(frozen=True)
class EdgeColoring:
    """A total assignment of K5's ten edges to the parties A, B, C."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(K5_EDGES):
            raise ValueError(f"need {len(K5_EDGES)} labels, got {len(self.labels)}")
        if any(l not in PARTY_LABELS for l in self.labels):
            raise ValueError("labels must be A, B, or C")

    def party_graph(self, party: str) -> PartyGraph:
        edges = frozenset(e for e, l in zip(K5_EDGES, self.labels) if l == party)
        return PartyGraph(5, edges)

    def edge_count(self, party: str) -> int:
        return sum(1 for l in self.labels if l == party)

    def heavy_parties(self) -> tuple[str, ...]:
        return tuple(p for p in PARTY_LABELS if self.edge_count(p) >= 4)


@dataclass(frozen=True)
class ColoringScan:
    scanned: int
    survivors: tuple[EdgeColoring, ...]


def enumerate_colorings() -> ColoringScan:
    """Scan all 3^10 single-party assignments of K5's edges; keep those whose
    three induced party graphs all satisfy the constraints."""
    n_edges = len(K5_EDGES)
    valid = np.zeros(1 << n_edges, dtype=bool)
    for mask in range(1 << n_edges):
        edges = frozenset(e for k, e in enumerate(K5_EDGES) if mask >> k & 1)
        valid[mask] = is_valid_party_graph(PartyGraph(5, edges))
    survivors = []
    scanned = 0
    for assignment in itertools.product(range(3), repeat=n_edges):
        scanned += 1
        masks = [0, 0, 0]
        for k, party in enumerate(assignment):
            masks[party] |= 1 << k
        if valid[masks[0]] and valid[masks[1]] and valid[masks[2]]:
            survivors.append(EdgeColoring(tuple(PARTY_LABELS[p] for p in assignment)))
    return ColoringScan(scanned, tuple(survivors))


class RealizationError(RuntimeError):
    """The requested coloring could not be realized with the margin."""


def _random_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _bipartition(g: PartyGraph, comp: list[int]) -> dict[int, int]:
    adj = g.adjacency()
    color = {comp[0]: 0}
    queue = [comp[0]]
    while queue:
        v = queue.pop(0)
        for w in adj[v]:
            if w not in color:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                raise RealizationError("party graph has an odd cycle; not realizable")
    return color


def realize_coloring(
    coloring: EdgeColoring,
    seed: int,
    margin: float = 0.05,
    attempts: int = 100,
):
    """Realize a surviving coloring as five mutually orthogonal three-qubit
    product states.

    Within each connected component of a party graph the geometry is rigid
    (qubit states alternate between a random state and its perpendicular), so
    labeled orthogonalities hold exactly.  The non-degeneracy margin applies
    to the free relations: overlaps across different components of the same
    party are resampled into (margin, 1 - margin).
    """
    from .upb import ProductState, perp_qubit

    rng = np.random.default_rng(seed)
    party_states: list[list[np.ndarray]] = []
    for party in PARTY_LABELS:
        g = coloring.party_graph(party)
        comps = g.components()
        sides = [_bipartition(g, comp) for comp in comps]
        comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
        for _ in range(attempts):
            states: list[np.ndarray | None] = [None] * 5
            for comp, side in zip(comps, sides):
                v = _random_qubit(rng)
                vp = perp_qubit(v)
                for vertex in comp:
                    states[vertex] = v if side[vertex] == 0 else vp
            ok = True
            for i in range(5):
                for j in range(i + 1, 5):
                    if comp_of[i] == comp_of[j]:
                        continue
                    ov = abs(np.vdot(states[i], states[j]))
                    if not margin < ov < 1 - margin:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                party_states.append([s for s in states])
                break
        else:
            raise RealizationError(
                f"could not realize party {party} with margin {margin} in {attempts} attempts"
            )
    members = [
        ProductState([party_states[p][v] for p in range(3)]) for v in range(5)
    ]
    err = orthonormality_error(np.array([m.tensor for m in members]))
    if err > 1e-12:
        raise RealizationError(f"realization not orthonormal (error {err})")
    return members
