import functools
import itertools

import numpy as np
import pytest

from upbkit import CanonicalAngles, DensityMatrix, build_canonical
from upbkit.filtering import LocalFilter, SeparableSuperoperator
from upbkit.graphs import K5_EDGES, PARTY_LABELS, PartyGraph, is_valid_party_graph


def random_state(rng, d=2):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, dims, rank=None):
    """Wishart-distributed random state."""
    total = int(np.prod(tuple(dims)))
    r = rank or total
    g = rng.standard_normal((total, r)) + 1j * rng.standard_normal((total, r))
    m = g @ g.conj().T
    m = m / m.trace().real
    return DensityMatrix(dims, (m + m.conj().T) / 2)


def trace_distance(a, b):
    """Half the trace norm of the difference."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    diff = a.matrix - b.matrix
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.abs(w).sum())


def random_local_filter(rng):
    factors = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    return LocalFilter.from_raw(factors)


def random_separable(rng, max_filters=16):
    n = int(rng.integers(1, max_filters + 1))
    filters = [random_local_filter(rng) for _ in range(n)]
    scales = rng.uniform(0.2, 1.0, n)
    return SeparableSuperoperator.from_filters(filters, scales)


@functools.cache
def canonical_form(graph: PartyGraph) -> tuple:
    """Lexicographically smallest edge list over all vertex relabelings."""
    return min(
        tuple(sorted((min(p[i], p[j]), max(p[i], p[j])) for i, j in graph.edges))
        for p in itertools.permutations(range(graph.n))
    )


def heavy_classes() -> list[tuple]:
    """Canonical forms of the valid five-vertex party graphs (valence <= 2,
    no odd cycle) with at least four edges, from all 2^10 edge subsets."""
    forms = set()
    for mask in range(1 << len(K5_EDGES)):
        g = PartyGraph(5, frozenset(e for k, e in enumerate(K5_EDGES) if mask >> k & 1))
        if len(g.edges) >= 4 and is_valid_party_graph(g):
            forms.add(canonical_form(g))
    return sorted(forms)


def heavy_parties(coloring) -> tuple[str, ...]:
    """The parties that label at least four of a K5 coloring's edges."""
    return tuple(p for p in PARTY_LABELS if coloring.labels.count(p) >= 4)


@pytest.fixture(scope="session")
def shifts_class_upb():
    return build_canonical(CanonicalAngles(np.pi / 2, np.pi / 2, np.pi / 2))


@pytest.fixture(scope="session")
def third_class_upb():
    return build_canonical(CanonicalAngles(np.pi / 3, np.pi / 3, np.pi / 3))
