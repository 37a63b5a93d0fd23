"""Product-vector search inside a linear subspace, and exact extendibility
of product families.

For the search, local states are parameterized by hyperspherical angles and
phases (first component real-positive), and the squared norm of the
out-of-subspace component is minimized by damped Gauss-Newton with a
numerically evaluated Jacobian, run over many starts at once.  A start
leaves the batch once it has converged, through the driver the gap pools of
:mod:`upbkit.filtering` also use (:func:`upbkit.linalg._sweeps`), and ends
where iterating the whole batch would leave it.  Completeness is heuristic
at the configured resolution: the search documents a found-set, not a
certified enumeration.  Whether a family of product states extends
needs no search: :func:`is_extendible` decides it from the members' local
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import _sweeps, complement_basis, kron_all, orthonormality_error

DEFAULT_SEED = 101
# two unit factors are the same state up to phase when |<a|b>| > 1 - DEDUP_TOL
DEDUP_TOL = 1e-6
# rank decisions of is_extendible: a factor this close to its group's span is
# dependent, one farther than RANK_INDEPENDENT_TOL independent
RANK_DEPENDENT_TOL = 1e-10
RANK_INDEPENDENT_TOL = 1e-8
# a Gauss-Newton start whose squared residual is at most this is done
_CONVERGED_RN2 = 1e-26


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the multistart search.

    ``grid_resolution`` scales the number of starts (resolution^2 per polar
    angle), drawn from ``seed``; each start runs at most ``max_iterations``
    Gauss-Newton iterations, fewer once it has converged, and counts as a
    hit once its residual is at most ``residual_tol``.  Hits are
    deduplicated up to global phase at the fixed ``DEDUP_TOL``.
    """

    grid_resolution: int = 16
    residual_tol: float = 1e-9
    max_iterations: int = 60
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.grid_resolution < 8:
            raise ValueError("grid_resolution must be at least 8")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


class Subspace:
    """A subspace of a multipartite space, held as orthonormal basis columns."""

    __slots__ = ("dims", "basis", "_perp_basis")

    def __init__(self, dims: Sequence[int], basis) -> None:
        dims = tuple(int(d) for d in dims)
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2:
            raise ValueError("basis must be a matrix of columns")
        total = int(np.prod(dims))
        if basis.shape[0] != total:
            raise ValueError(f"basis lives in dimension {basis.shape[0]}, dims give {total}")
        if orthonormality_error(basis.T) > 1e-12:
            raise ValueError("basis columns are not orthonormal within 1e-12")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_perp_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def orthonormalized(cls, dims: Sequence[int], vectors) -> "Subspace":
        """Build from a spanning set, orthonormalizing by QR."""
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2:
            v = np.column_stack([np.asarray(x, dtype=complex).reshape(-1) for x in vectors])
        q, r = np.linalg.qr(v)
        if np.abs(np.diag(r)).min() <= 1e-12 * max(np.abs(np.diag(r)).max(), 1.0):
            raise ValueError("spanning set is rank deficient")
        return cls(dims, q)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def total_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def perp_basis(self) -> np.ndarray:
        cached = self._perp_basis
        if cached is None:
            cached = complement_basis(self.basis)
            cached.setflags(write=False)
            object.__setattr__(self, "_perp_basis", cached)
        return cached

    def complement(self) -> "Subspace":
        return Subspace(self.dims, self.perp_basis)


def normalize_partition(partition, n_parties: int) -> tuple[tuple[int, ...], ...]:
    """Sorted, disjoint groups covering all parties."""
    groups = [tuple(sorted(int(p) for p in g)) for g in partition]
    groups.sort(key=lambda g: g[0] if g else -1)
    flat = [p for g in groups for p in g]
    if sorted(flat) != list(range(n_parties)) or len(flat) != len(set(flat)):
        raise ValueError(f"partition {partition} is not a disjoint cover of {n_parties} parties")
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

    dims: tuple[int, ...]
    partition: tuple[tuple[int, ...], ...]
    factors: tuple[np.ndarray, ...]
    residual: float

    @property
    def tensor(self) -> np.ndarray:
        vecs = [f.reshape(1, -1) for f in self.factors]
        return _interleave(self.dims, self.partition, vecs)[0]

    def overlaps(self, member_factors: Sequence[np.ndarray]) -> tuple[float, ...]:
        """Per-group |<hit factor | member factor>| against per-party factors."""
        return tuple(
            float(abs(np.vdot(kron_all(member_factors[p] for p in g), f)))
            for g, f in zip(self.partition, self.factors)
        )

    def matches(self, member_factors: Sequence[np.ndarray], tol: float = DEDUP_TOL) -> bool:
        return all(ov >= 1 - tol for ov in self.overlaps(member_factors))


def residual(factors: Sequence[np.ndarray], subspace: Subspace, partition=None) -> float:
    """Out-of-subspace norm of the (normalized) product of ``factors``."""
    if partition is None:
        partition = finest_partition(len(subspace.dims))
    partition = normalize_partition(partition, len(subspace.dims))
    gdims = _group_dims(subspace.dims, partition)
    vecs = []
    for f, d in zip(factors, gdims):
        f = np.asarray(f, dtype=complex).reshape(-1)
        if f.shape[0] != d:
            raise ValueError(f"factor of length {f.shape[0]} does not match group dim {d}")
        vecs.append((f / np.linalg.norm(f)).reshape(1, -1))
    if len(vecs) != len(partition):
        raise ValueError("number of factors does not match partition")
    v = _interleave(subspace.dims, partition, vecs)[0]
    perp = subspace.perp_basis
    if perp.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(perp.conj().T @ v))


# ---------------------------------------------------------------------------
# parameterization: per group of dimension d, (d-1) polar angles then (d-1)
# phases; amplitudes follow the hyperspherical chain with component 0 real.

def _param_layout(gdims):
    sizes = [2 * (d - 1) for d in gdims]
    offsets = np.cumsum([0] + sizes)
    return sizes, offsets


def _states_from_params(params: np.ndarray, gdims) -> list[np.ndarray]:
    states = []
    _, offsets = _param_layout(gdims)
    for gi, d in enumerate(gdims):
        block = params[:, offsets[gi]:offsets[gi + 1]]
        t = block[:, : d - 1]
        phi = block[:, d - 1:]
        cos = np.cos(t)
        sin = np.sin(t)
        amps = np.empty((params.shape[0], d))
        running = np.ones(params.shape[0])
        for k in range(d - 1):
            amps[:, k] = running * cos[:, k]
            running = running * sin[:, k]
        amps[:, d - 1] = running
        state = amps.astype(complex)
        state[:, 1:] = state[:, 1:] * np.exp(1j * phi)
        states.append(state)
    return states


def _start_params(rng: np.random.Generator, n_starts: int, gdims) -> np.ndarray:
    blocks = []
    for d in gdims:
        t = rng.uniform(0.0, math.pi / 2, size=(n_starts, d - 1))
        phi = rng.uniform(0.0, 2 * math.pi, size=(n_starts, d - 1))
        blocks.append(np.concatenate([t, phi], axis=1))
    return np.concatenate(blocks, axis=1)


def _rows_times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v @ m`` whose rows do not depend on the batch size: BLAS computes a
    one-row product by a matrix-vector kernel whose bits differ from the
    matrix-matrix one, so a single row is computed as a pair."""
    if len(v) == 1:
        return (np.concatenate([v, v]) @ m)[:1]
    return v @ m


def _residual_fn(subspace: Subspace, partition):
    """The batched residual of :func:`_refine` for a normalized ``partition``:
    real and imaginary parts of each chart point's components off the
    subspace, one row per point."""
    dims = subspace.dims
    gdims = _group_dims(dims, partition)
    perp_conj = subspace.perp_basis.conj()

    def residual_fn(params):
        v = _interleave(dims, partition, _states_from_params(params, gdims))
        rc = _rows_times(v, perp_conj)
        return np.concatenate([rc.real, rc.imag], axis=1)
    return residual_fn


def _refine(params: np.ndarray, residual_fn, max_iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched damped Gauss-Newton, up to ``max_iterations`` iterations per
    start.

    Chart phase parameters lose rank when a state component vanishes, so the
    normal equations can be arbitrarily ill-conditioned; for starts whose
    condition number exceeds 1e8 a Cauchy gradient-descent trial competes with
    the damped step and the larger improvement wins.  A start whose squared
    residual is at most ``_CONVERGED_RN2`` takes no further step and leaves
    the batch (:func:`~upbkit.linalg._sweeps`); ``residual_fn`` maps each row
    on its own, so every start ends where iterating the whole batch would
    leave it.
    """
    h = 1e-7
    eye = np.eye(params.shape[1])

    def iteration(state):
        params, r, rn2, lam = state
        n, p = params.shape
        active = rn2 > _CONVERGED_RN2
        jac = np.empty((n, r.shape[1], p))
        for k in range(p):
            shifted = params.copy()
            shifted[:, k] += h
            jac[:, :, k] = (residual_fn(shifted) - r) / h
        jtj = np.einsum("nrp,nrq->npq", jac, jac)
        jtr = np.einsum("nrp,nr->np", jac, r)
        w = np.linalg.eigvalsh(jtj)
        cond = w[:, -1] / np.clip(w[:, 0], 1e-300, None)
        ill = (cond > 1e8) | (w[:, 0] <= 0)
        lhs = jtj + (lam[:, None, None] + 1e-9) * eye
        step_gn = -np.linalg.solve(lhs, jtr[:, :, None])[:, :, 0]
        step_gn = np.where(active[:, None], step_gn, 0.0)
        trial_gn = params + step_gn
        r_gn = residual_fn(trial_gn)
        rn2_gn = np.einsum("nr,nr->n", r_gn, r_gn)
        jg = np.einsum("nrp,np->nr", jac, jtr)
        denom = np.clip(np.einsum("nr,nr->n", jg, jg), 1e-300, None)
        alpha = np.einsum("np,np->n", jtr, jtr) / denom
        step_gd = -alpha[:, None] * jtr
        step_gd = np.where((active & ill)[:, None], step_gd, 0.0)
        trial_gd = params + step_gd
        r_gd = residual_fn(trial_gd)
        rn2_gd = np.einsum("nr,nr->n", r_gd, r_gd)
        take_gd = ill & (rn2_gd < rn2_gn)
        trial = np.where(take_gd[:, None], trial_gd, trial_gn)
        r_trial = np.where(take_gd[:, None], r_gd, r_gn)
        rn2_trial = np.where(take_gd, rn2_gd, rn2_gn)
        better = (rn2_trial < rn2) & active
        params = np.where(better[:, None], trial, params)
        r = np.where(better[:, None], r_trial, r)
        rn2 = np.where(better, rn2_trial, rn2)
        lam = np.clip(np.where(better, lam * 0.3, lam * 10.0), 1e-12, 1e9)
        return (params, r, rn2, lam), rn2 > _CONVERGED_RN2

    r = residual_fn(params)
    rn2 = np.einsum("nr,nr->n", r, r)
    params, _, rn2, _ = _sweeps((params, r, rn2, np.full(len(params), 1e-8)), max_iterations, iteration)
    return params, np.sqrt(rn2)


def find_product_vectors(
    subspace: Subspace,
    partition=None,
    config: SearchConfig | None = None,
) -> list[ProductVectorHit]:
    """All product vectors (for the given partition) found in the subspace.

    Hits are deduplicated up to global phase and sorted by residual; the
    empty list is a valid result.  Identical configs (including seed) give
    identical hit lists.
    """
    config = config or SearchConfig()
    dims = subspace.dims
    if partition is None:
        partition = finest_partition(len(dims))
    partition = normalize_partition(partition, len(dims))
    gdims = _group_dims(dims, partition)
    n_polar = sum(d - 1 for d in gdims)
    n_starts = config.grid_resolution ** 2 * n_polar
    rng = np.random.default_rng(config.seed)
    starts = _start_params(rng, n_starts, gdims)

    if subspace.perp_basis.shape[1] == 0:
        raise ValueError("subspace is the full space; every product vector lies in it")
    refined, resnorm = _refine(starts, _residual_fn(subspace, partition), config.max_iterations)
    converged = resnorm <= config.residual_tol
    if not converged.any():
        return []
    order = np.argsort(resnorm[converged], kind="stable")
    cand_params = refined[converged][order]
    states = _states_from_params(cand_params, gdims)
    hits: list[ProductVectorHit] = []
    for i in range(cand_params.shape[0]):
        factors = []
        for gi in range(len(gdims)):
            f = states[gi][i].copy()
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
        if res > config.residual_tol:
            continue
        for f in factors:
            f.setflags(write=False)
        hits.append(ProductVectorHit(dims, partition, tuple(factors), res))
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

    ``config`` is accepted for existing callers and ignored.
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
    return ProductVectorHit(dims, finest_partition(len(dims)), factors, res)
