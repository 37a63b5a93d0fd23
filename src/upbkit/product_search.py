"""Product-vector search inside a linear subspace, and exact extendibility
of product families.

The search minimizes the weight ``||B^dag v||^2`` a product state ``v``
puts on the subspace's complement (orthonormal basis ``B``) by an exact
block descent from many random starts at once: with the other groups'
factors held, the weight is a quadratic form in one group's factor, so each
step is one small eigenproblem (:func:`_product_step`), in closed form for
a qubit group.  A start is done once its weight is at most 1e-26 (a hit) or
a sweep no longer lowers it (any other minimum).  The gap certificate's
boundary probe runs the same sweeps under the gap pools' gain stop.  A start
leaves the batch once done, through the driver the gap pools of
:mod:`upbkit.filtering` also use (:func:`upbkit.linalg._sweeps`), and ends
where sweeping the whole batch would leave it.  Completeness is heuristic at
the configured number of starts: the search documents a found-set, not a
certified enumeration.
Whether a family of product states extends needs no search:
:func:`is_extendible` decides it from the members' local factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import _sweeps, complement_basis, kron_all, orthonormality_error
from .serialize import InputError

DEFAULT_SEED = 101
# two unit factors are the same state up to phase when |<a|b>| > 1 - DEDUP_TOL
DEDUP_TOL = 1e-6
# a converged search start is a hit when its residual is at most this
RESIDUAL_TOL = 1e-9
# rank decisions of is_extendible: a factor this close to its group's span is
# dependent, one farther than RANK_INDEPENDENT_TOL independent
RANK_DEPENDENT_TOL = 1e-10
RANK_INDEPENDENT_TOL = 1e-8
# a search start whose weight off the subspace is at most this is done
_CONVERGED_RN2 = 1e-26


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the multistart search.

    ``grid_resolution`` scales the number of random unit-vector starts,
    drawn from ``seed``: resolution^2 per complex dimension ``d_g - 1`` of
    each group's states.  Each start runs at most ``max_iterations`` sweeps
    of the descent, fewer once it has converged, and counts as a hit once
    its residual is at most the fixed ``RESIDUAL_TOL``.  Hits are
    deduplicated up to global phase at the fixed ``DEDUP_TOL``.
    """

    grid_resolution: int = 16
    max_iterations: int = 60
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.grid_resolution < 8:
            raise InputError("grid_resolution must be at least 8")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be positive")
        if self.seed < 0:
            raise InputError("seed must be non-negative")


class Subspace:
    """A subspace of a multipartite space, held as orthonormal basis columns,
    possibly none: :func:`find_product_vectors` refuses a zero-dimensional one."""

    __slots__ = ("dims", "basis", "_perp_basis")

    def __init__(self, dims: Sequence[int], basis) -> None:
        dims = tuple(int(d) for d in dims)
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2:
            raise ValueError("basis must be a matrix of columns")
        total = int(np.prod(dims))
        if basis.shape[0] != total:
            raise ValueError(f"basis lives in dimension {basis.shape[0]}, dims give {total}")
        if not orthonormality_error(basis.T) <= 1e-12:
            raise ValueError("basis columns are not orthonormal within 1e-12")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_perp_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def perp_basis(self) -> np.ndarray:
        cached = self._perp_basis
        if cached is None:
            cached = complement_basis(self.basis)
            cached.setflags(write=False)
            object.__setattr__(self, "_perp_basis", cached)
        return cached

    def complement(self) -> "Subspace":
        """The orthogonal complement, whose ``perp_basis`` is this subspace's
        own basis, bit for bit: a UPB's span is searched on the complement
        the UPB holds."""
        out = Subspace(self.dims, self.perp_basis)
        object.__setattr__(out, "_perp_basis", self.basis)
        return out


def normalize_partition(partition, n_parties: int) -> tuple[tuple[int, ...], ...]:
    """Sorted, disjoint groups covering all parties, at least two of them:
    with one group every vector of the space is a product."""
    groups = [tuple(sorted(int(p) for p in g)) for g in partition]
    groups.sort(key=lambda g: g[0] if g else -1)
    flat = [p for g in groups for p in g]
    if sorted(flat) != list(range(n_parties)) or len(flat) != len(set(flat)):
        raise InputError(f"partition {partition} is not a disjoint cover of {n_parties} parties")
    if len(groups) < 2:
        raise InputError(f"partition {partition} has fewer than two groups")
    return tuple(groups)


def finest_partition(n_parties: int) -> tuple[tuple[int, ...], ...]:
    return tuple((p,) for p in range(n_parties))


def _group_dims(dims: Sequence[int], partition) -> tuple[int, ...]:
    return tuple(int(np.prod([dims[p] for p in g])) for g in partition)


def _interleave(dims, partition, group_vectors: list[np.ndarray]) -> np.ndarray:
    """Assemble batched full tensors from batched per-group vectors."""
    n_parties = len(dims)
    operands = []
    for g, vec in zip(partition, group_vectors):
        shaped = vec.reshape(vec.shape[0], *[dims[p] for p in g])
        operands.extend([shaped, [0] + [p + 1 for p in g]])
    operands.append([0] + [p + 1 for p in range(n_parties)])
    out = np.einsum(*operands)
    return out.reshape(out.shape[0], -1)


@dataclass(frozen=True)
class ProductVectorHit:
    """A product vector found inside the subspace, factored per group."""

    partition: tuple[tuple[int, ...], ...]
    factors: tuple[np.ndarray, ...]
    residual: float

    def matches(self, member_factors: Sequence[np.ndarray], tol: float = DEDUP_TOL) -> bool:
        """Whether every group's |<hit factor | member factor>|, against
        per-party factors, is at least ``1 - tol``."""
        return all(
            abs(np.vdot(kron_all(member_factors[p] for p in g), f)) >= 1 - tol
            for g, f in zip(self.partition, self.factors)
        )


def residual(factors: Sequence[np.ndarray], subspace: Subspace, partition=None) -> float:
    """Out-of-subspace norm of the (normalized) product of ``factors``."""
    if partition is None:
        partition = finest_partition(len(subspace.dims))
    partition = normalize_partition(partition, len(subspace.dims))
    gdims = _group_dims(subspace.dims, partition)
    vecs = []
    for i, (f, d) in enumerate(zip(factors, gdims)):
        f = np.asarray(f, dtype=complex).reshape(-1)
        if f.shape[0] != d:
            raise ValueError(f"factor of length {f.shape[0]} does not match group dim {d}")
        norm = np.linalg.norm(f)
        if not 0 < norm < np.inf:
            raise ValueError(f"factor {i} has norm {norm}: not a finite nonzero vector")
        vecs.append((f / norm).reshape(1, -1))
    if len(vecs) != len(partition):
        raise ValueError("number of factors does not match partition")
    v = _interleave(subspace.dims, partition, vecs)[0]
    perp = subspace.perp_basis
    if perp.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(perp.conj().T @ v))


def _contractions(basis: np.ndarray, dims, partition) -> list[np.ndarray]:
    """Per group, ``B^dag`` as :func:`_product_step` takes it: rows over the
    other groups' indices, columns over (row of ``B^dag``, index of ``v_g``)."""
    k, out = basis.shape[1], []
    for group, d_g in zip(partition, _group_dims(dims, partition)):
        order = list(group) + [p for h in partition if h != group for p in h]
        contract = np.moveaxis(basis.conj().reshape(*dims, k), order, range(len(dims)))
        out.append(contract.reshape(d_g, -1, k).transpose(1, 2, 0).reshape(-1, k * d_g))
    return out


def _product_step(factors, g: int, contract: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group ``g``'s factor of least weight ``||B^dag v||^2`` with the other
    factors of the product ``v`` held, and that weight, per start.

    ``B^dag v = M v_g``, where the (k, d_g) matrix ``M`` contracts ``B^dag``
    (``contract``) with the other factors, so the lowest eigenvector of
    ``M^dag M`` is the minimizer, in closed form for a qubit group.  The
    weight is ``||M v_g||^2``: the eigenvalue's absolute error near 1e-16
    would hide a converged start.  Each product is one small matrix per
    start, so a start's bits do not depend on its batch.
    """
    n, d_g = len(factors[g]), factors[g].shape[1]
    rest = np.ones((n, 1), dtype=complex)
    for f in factors[:g] + factors[g + 1:]:
        rest = (rest[:, :, None] * f[:, None, :]).reshape(n, -1)
    m = (rest[:, None, :] @ contract).reshape(n, -1, d_g)
    if d_g == 2:
        m0, m1 = m[:, :, 0], m[:, :, 1]
        v = _qubit_lowest((m0.real ** 2 + m0.imag ** 2).sum(axis=1), (m0.conj() * m1).sum(axis=1),
                          (m1.real ** 2 + m1.imag ** 2).sum(axis=1))
        mv = m0 * v[:, :1] + m1 * v[:, 1:]
    else:
        v = np.linalg.eigh(np.swapaxes(m.conj(), 1, 2) @ m)[1][:, :, 0]
        mv = (m @ v[:, :, None])[:, :, 0]
    return v, (mv.real ** 2 + mv.imag ** 2).sum(axis=1)


def _qubit_lowest(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unit lowest eigenvector of the Hermitian ``[[a, b], [b*, c]]`` per row,
    in closed form: with ``h = (a - c)/2`` and ``r = sqrt(h^2 + |b|^2)``, the
    perpendicular of the top eigenvector ``(h + r, b*)`` if ``h >= 0``, else
    ``(b, r - h)``.  Its diagonal term ``t = r + |h|`` never cancels, and
    dividing by it bounds every entry by 1, so nothing under- or overflows.
    A multiple of the identity gives ``(0, 1)``."""
    h = (a - c) / 2
    t = np.hypot(h, np.abs(b)) + np.abs(h)
    t[t == 0] = 1
    # b / t as a real division: numpy's complex one overflows at a subnormal t
    w = (b.view(float).reshape(-1, 2) / t[:, None]).view(complex)[:, 0]
    n = 1 / np.sqrt(1 + w.real ** 2 + w.imag ** 2)
    w *= n
    return np.stack([np.where(h >= 0, -w, n), np.where(h >= 0, n, -w.conj())], axis=1)


def _descent_sweep(basis: np.ndarray, dims, partition):
    """One :func:`_product_step` per group, in order, on a state of per-group
    factors and the weight, for :func:`~upbkit.linalg._sweeps`: a start stays
    live while the sweep strictly lowers its weight and that weight is above
    ``_CONVERGED_RN2``.  Each group's contraction of ``B^dag`` is built once."""
    contracts = _contractions(basis, dims, partition)
    def sweep(state):
        new = list(state[:-1])
        for g, contract in enumerate(contracts):
            new[g], weight = _product_step(new, g, contract)
        return (*new, weight), (weight < state[-1]) & (weight > _CONVERGED_RN2)
    return sweep


def _unit_starts(rng: np.random.Generator, n: int, gdims) -> list[np.ndarray]:
    """``n`` complex-Gaussian unit vectors per group dimension in ``gdims``."""
    starts = [rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)) for d in gdims]
    return [z / np.linalg.norm(z, axis=1, keepdims=True) for z in starts]


def find_product_vectors(
    subspace: Subspace,
    partition=None,
    config: SearchConfig | None = None,
) -> list[ProductVectorHit]:
    """All product vectors (for the given partition) found in the subspace.

    The descent runs on ``subspace.perp_basis`` alone, so a UPB's span,
    built as ``Subspace(upb.dims, upb.complement_basis).complement()``, is
    searched on the complement the UPB holds.  Hits are deduplicated up to
    global phase and sorted by residual; the empty list is a valid result.
    Identical configs (including seed) give identical hit lists.  A
    zero-dimensional subspace holds no product vector and the full space
    holds every one, so both raise :class:`InputError`, the former first.
    """
    if subspace.basis.shape[1] == 0:
        raise InputError("subspace is zero-dimensional: there is no product vector to find")
    if subspace.perp_basis.shape[1] == 0:
        raise InputError("subspace is the full space; every product vector lies in it")
    config = config or SearchConfig()
    dims = subspace.dims
    if partition is None:
        partition = finest_partition(len(dims))
    partition = normalize_partition(partition, len(dims))
    gdims = _group_dims(dims, partition)
    n_starts = config.grid_resolution ** 2 * sum(d - 1 for d in gdims)
    starts = _unit_starts(np.random.default_rng(config.seed), n_starts, gdims)
    *found, weight = _sweeps((*starts, np.full(n_starts, np.inf)), config.max_iterations,
                             _descent_sweep(subspace.perp_basis, dims, partition))
    resnorm = np.sqrt(weight)
    converged = resnorm <= RESIDUAL_TOL
    order = np.argsort(resnorm[converged], kind="stable")
    candidates = [f[converged][order] for f in found]
    hits: list[ProductVectorHit] = []
    for i in range(len(order)):
        factors = []
        for c in candidates:
            f = c[i].copy()
            idx = int(np.argmax(np.abs(f)))
            f = f * (np.conj(f[idx]) / abs(f[idx]))
            f = f / np.linalg.norm(f)
            factors.append(f)
        dup = False
        for kept in hits:
            if all(
                abs(np.vdot(a, b)) > 1 - DEDUP_TOL
                for a, b in zip(kept.factors, factors)
            ):
                dup = True
                break
        if dup:
            continue
        res = residual(factors, subspace, partition)
        if res > RESIDUAL_TOL:
            continue
        for f in factors:
            f.setflags(write=False)
        hits.append(ProductVectorHit(partition, tuple(factors), res))
    hits.sort(key=lambda h: h.residual)
    return hits


class RankAmbiguityError(ValueError):
    """A local factor lies between ``RANK_DEPENDENT_TOL`` and
    ``RANK_INDEPENDENT_TOL`` off the span of its party's group, and the
    extendibility verdict hinges on that rank decision."""


def _unit_orthogonal_to(group: list[np.ndarray], d: int) -> np.ndarray:
    """The standard basis vector with the largest component off the span of
    the orthonormal ``group``, projected off it and normalized."""
    rest = np.eye(d, dtype=complex)
    for q in group:
        rest -= np.outer(q, q.conj())
    j = int(np.argmax(np.linalg.norm(rest, axis=0)))
    return rest[:, j] / np.linalg.norm(rest[:, j])


def is_extendible(members, config: SearchConfig | None = None) -> ProductVectorHit | None:
    """A product vector orthogonal to every member, or None when the family
    is unextendible; decided exactly, with no search.

    ``<m|v_0 (x) v_1 ...> = prod_p <m_p|v_p>``, so a product vector ``v`` is
    orthogonal to every member iff the members split into groups, one per
    party, such that each party's factors of its group do not span its
    space; ``v_p`` is then any unit vector orthogonal to them (Bennett et
    al., quant-ph/9808030).  A depth-first assignment of members to parties
    keeps an orthonormal basis per group and prunes a branch once a group
    reaches full rank.  The first complete split gives the extension; its
    ``residual`` is the norm of its overlaps with the members.  A factor at
    most ``RANK_DEPENDENT_TOL`` off its group's span counts as dependent, one
    more than ``RANK_INDEPENDENT_TOL`` off as independent; if no split is
    found and a decision fell in between, :class:`RankAmbiguityError` is
    raised rather than a verdict.

    ``config`` is ignored; it stays because ``bench/workloads.py`` still
    passes its ``EXTEND_SEARCH``.
    """
    members = list(members)
    if not members:
        raise ValueError("need at least one member")
    dims = members[0].dims
    stack = np.array([m.tensor for m in members])
    gram_err = orthonormality_error(stack)
    if gram_err > 1e-10:
        raise ValueError(f"members are not orthonormal (error {gram_err})")
    if len(members) >= stack.shape[1]:
        return None
    ambiguous = []

    def split(k: int, groups: tuple[list[np.ndarray], ...]):
        if k == len(members):
            return groups
        for p, f in enumerate(members[k].factors):
            group = groups[p]
            r = f.copy()
            for _ in range(2):  # twice is enough for an orthogonal remainder
                for q in group:
                    r -= np.vdot(q, r) * q
            norm = float(np.vdot(r, r).real) ** 0.5
            if norm <= RANK_DEPENDENT_TOL:
                grown = group
            elif norm <= RANK_INDEPENDENT_TOL:
                ambiguous.append(norm)
                continue
            elif len(group) + 1 < dims[p]:
                grown = group + [r / norm]
            else:
                continue
            leaf = split(k + 1, groups[:p] + (grown,) + groups[p + 1:])
            if leaf is not None:
                return leaf
        return None

    groups = split(0, tuple([] for _ in dims))
    if groups is None:
        if ambiguous:
            raise RankAmbiguityError(
                f"a local factor lies {min(ambiguous):.3g} off its group's span: "
                "the extendibility verdict is within rounding"
            )
        return None
    factors = tuple(_unit_orthogonal_to(g, d) for g, d in zip(groups, dims))
    for f in factors:
        f.setflags(write=False)
    res = float(np.linalg.norm(stack.conj() @ kron_all(factors)))
    return ProductVectorHit(finest_partition(len(dims)), factors, res)
