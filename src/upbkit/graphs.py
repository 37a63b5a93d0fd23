"""Combinatorics behind the four-member theorem.

A five-member three-qubit UPB would induce a coloring of K5: every member
pair is orthogonal on some party, and labeling each pair with one such party
gives three orthogonality graphs covering all ten pairs.  On a qubit,
orthogonal means perpendicular, so a party graph has no odd cycle, and the
members on one side of a component share their factor up to phase.
Exhaustive scanning of the 3^10 single-party edge assignments keeps the
colorings whose graphs also have max valence 2, and :func:`extension_split`
proves on the coloring itself that each survivor extends in every
realization, refuting the five-member hypothesis with no tolerance.  The
valence rule is a consequence, not an assumption: a vertex of valence 3 puts
its three neighbours in one class, and the other two members take a party
each.  :func:`realize_coloring` draws concrete families of a coloring, which
:func:`~upbkit.product_search.is_extendible` cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import orthonormality_error

K5_EDGES: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(5) for j in range(i + 1, 5)
)

PARTY_LABELS = ("A", "B", "C")
REALIZE_MARGIN = 0.05
REALIZE_ATTEMPTS = 100


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

    def sides(self) -> list[tuple[int, int]] | None:
        """Each vertex's (component's smallest vertex, side), or None when an
        odd cycle leaves the graph with no 2-coloring."""
        # parity union-find over the edges in sorted order; a root is always
        # its component's smallest vertex, and a side is the parity of the
        # path to it.  Stops at the first edge that closes an odd cycle.
        root = list(range(self.n))
        parity = [0] * self.n

        def find(v: int) -> tuple[int, int]:
            side = 0
            while root[v] != v:
                side ^= parity[v]
                v = root[v]
            return v, side

        for i, j in sorted(self.edges):
            (ri, si), (rj, sj) = find(i), find(j)
            if ri == rj:
                if si == sj:
                    return None
                continue
            lo, hi = min(ri, rj), max(ri, rj)
            root[hi], parity[hi] = lo, si ^ sj ^ 1
        return [find(v) for v in range(self.n)]


def is_valid_party_graph(g: PartyGraph) -> bool:
    """Max valence 2 and no odd cycle."""
    degree = [0] * g.n
    for edge in g.edges:
        for v in edge:
            degree[v] += 1
    return max(degree, default=0) <= 2 and g.sides() is not None


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


@dataclass(frozen=True)
class ColoringScan:
    scanned: int
    survivors: tuple[EdgeColoring, ...]


def enumerate_colorings() -> ColoringScan:
    """Scan all 3^10 single-party assignments of K5's edges, in
    ``itertools.product(range(3), repeat=10)`` order; keep those whose three
    induced party graphs all satisfy the constraints."""
    n_edges = len(K5_EDGES)
    valid = np.array([
        is_valid_party_graph(PartyGraph(5, (e for k, e in enumerate(K5_EDGES) if mask >> k & 1)))
        for mask in range(1 << n_edges)
    ])
    # assignment a gives edge k the party of a's k-th base-3 digit, most
    # significant first: the itertools.product order
    index = np.arange(3 ** n_edges, dtype=np.int32)
    masks = np.zeros((3, index.size), dtype=np.int32)
    for k in range(n_edges):
        masks[index // 3 ** (n_edges - 1 - k) % 3, index] |= 1 << k
    kept = np.flatnonzero(valid[masks[0]] & valid[masks[1]] & valid[masks[2]])
    digits = kept[:, None] // 3 ** np.arange(n_edges - 1, -1, -1) % 3
    survivors = tuple(
        EdgeColoring(tuple(PARTY_LABELS[p] for p in row)) for row in digits.tolist()
    )
    return ColoringScan(index.size, survivors)


def extension_split(coloring: EdgeColoring) -> tuple[str, ...] | None:
    """The first party per member, in ``itertools.product(range(3),
    repeat=5)`` order, that puts each party's members into one (component,
    side) class of that party's graph; None if no assignment does.

    On a qubit ``a ⊥ b ⊥ c`` forces ``a ∥ c``, so the members on one side of
    a component share their factor up to phase in every realization of the
    coloring, whatever extra coincidences it has.  Per party, the state
    perpendicular to its class's factor then gives a product vector
    orthogonal to all five members (Bennett et al., quant-ph/9808030): the
    split extends every realization, with no tolerance.  A coloring with an
    odd cycle has no realization and raises ValueError.
    """
    classes = []
    for party in PARTY_LABELS:
        sides = coloring.party_graph(party).sides()
        if sides is None:
            raise ValueError(f"party {party}'s graph has an odd cycle; the coloring has no realization")
        classes.append(sides)

    # depth first over the members, parties in order: the product order
    def assign(k: int, shared: tuple) -> tuple[str, ...] | None:
        if k == 5:
            return ()
        for p in range(3):
            if shared[p] in (None, classes[p][k]):
                rest = assign(k + 1, shared[:p] + (classes[p][k],) + shared[p + 1:])
                if rest is not None:
                    return (PARTY_LABELS[p],) + rest
        return None

    return assign(0, (None, None, None))


class RealizationError(RuntimeError):
    """The requested coloring could not be realized with the margin."""


def _random_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def realize_coloring(coloring: EdgeColoring, seed: int):
    """Realize a surviving coloring as five mutually orthogonal three-qubit
    product states.

    Within each connected component of a party graph the geometry is rigid
    (qubit states alternate between a random state and its perpendicular), so
    labeled orthogonalities hold exactly.  The non-degeneracy margin applies
    to the free relations: overlaps across different components of the same
    party are resampled, up to ``REALIZE_ATTEMPTS`` times per party, into
    ``(REALIZE_MARGIN, 1 - REALIZE_MARGIN)``.  Components draw their states
    in order of their smallest vertex.
    """
    from .upb import ProductState, perp_qubit

    rng = np.random.default_rng(seed)
    party_states: list[list[np.ndarray]] = []
    for party in PARTY_LABELS:
        sides = coloring.party_graph(party).sides()
        if sides is None:
            raise RealizationError("party graph has an odd cycle; not realizable")
        roots = sorted({root for root, _ in sides})
        free = [(i, j) for i, j in K5_EDGES if sides[i][0] != sides[j][0]]
        for _ in range(REALIZE_ATTEMPTS):
            pairs = {}
            for root in roots:
                v = _random_qubit(rng)
                pairs[root] = (v, perp_qubit(v))
            states = [pairs[root][side] for root, side in sides]
            if all(REALIZE_MARGIN < abs(np.vdot(states[i], states[j])) < 1 - REALIZE_MARGIN for i, j in free):
                party_states.append(states)
                break
        else:
            raise RealizationError(
                f"could not realize party {party} with margin {REALIZE_MARGIN} in {REALIZE_ATTEMPTS} attempts"
            )
    members = [
        ProductState([party_states[p][v] for p in range(3)]) for v in range(5)
    ]
    err = orthonormality_error(np.array([m.tensor for m in members]))
    if err > 1e-12:
        raise RealizationError(f"realization not orthonormal (error {err})")
    return members
