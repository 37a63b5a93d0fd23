"""Local filtering, separable superoperators, and non-convertibility gaps.

The witness functional is the total weight a state puts on the target UPB's
span; it vanishes only for states supported inside the target's bound
entangled state, and stays bounded away from zero over the whole filtering
orbit of an inequivalent source.  ``certify_gap`` estimates that gap and the
matching fidelity ceiling by multistart optimization over filter space.

Both interior objectives work on the source state's support ``C`` (with
``rho_S = C C^dag / k``) and are optimized exactly, one 2x2 factor per
step: the witness ``||S^dag X C||_F^2 / ||X C||_F^2`` by a 4x4 eigenvector,
the fidelity ``||T^dag X C||_* / (2 ||X C||_F)`` in closed form.  A restart
runs up to ``budget // 48`` sweeps of three steps.  The witness infimum may
lie on the orbit boundary, whose limit states are mixtures of product
states; there it is the least weight a product state puts on the target's
span, reached by up to ``boundary_budget // 12`` sweeps of exact
single-qubit steps.  A restart that a sweep leaves bitwise unchanged stops
(:func:`_sweeps`); the others run on, with the same results.  Multistart
certifies no global optimum: the results are empirical estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DensityMatrix, _sandwich_spectrum, kron_all
from .product_search import DEFAULT_SEED
from .upb import UPB, canonicalize, match_canonical, perp_qubit, state_of

PROBABILITY_FLOOR = 1e-14
SPECTRAL_NORM_TOL = 1e-10
ENSEMBLE_CAP = 8192
_INVALID = 2.0  # objective placeholder outside [0, 1]
# witness restarts below it keep their factors, and no step goes below it:
# there the witness is a ratio of rounding-sized norms
_FREEZE_PROBABILITY = 1e-6


class EquivalentPairError(ValueError):
    """Raised when a gap certificate is requested for an equivalent pair."""


def _spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _top_gram_eigenvalue(filters: Sequence[LocalFilter], scales) -> float:
    """Largest eigenvalue of ``sum_k s_k^2 X_k^dag X_k``."""
    total = np.zeros((8, 8), dtype=complex)
    for f, s in zip(filters, scales):
        op = f.operator * s
        total += op.conj().T @ op
    return np.linalg.eigvalsh(total).max()


class LocalFilter:
    """A product operator with each 2x2 factor normalized to spectral norm 1."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[np.ndarray]):
        fs = []
        for f in factors:
            f = np.asarray(f, dtype=complex)
            if f.shape != (2, 2):
                raise ValueError(f"filter factor must be 2x2, got {f.shape}")
            if abs(_spectral_norm(f) - 1.0) > SPECTRAL_NORM_TOL:
                raise ValueError("filter factor spectral norm is not 1 within 1e-10")
            f = f.copy()
            f.setflags(write=False)
            fs.append(f)
        if len(fs) != 3:
            raise ValueError("a local filter has exactly three factors")
        object.__setattr__(self, "factors", tuple(fs))

    def __setattr__(self, name, value):
        raise AttributeError("LocalFilter is immutable")

    @classmethod
    def from_raw(cls, factors: Sequence[np.ndarray]) -> "LocalFilter":
        """Normalize arbitrary nonzero factors to spectral norm 1."""
        out = []
        for f in factors:
            f = np.asarray(f, dtype=complex)
            s = _spectral_norm(f)
            if s <= 0:
                raise ValueError("cannot normalize a zero factor")
            out.append(f / s)
        return cls(out)

    @classmethod
    def identity(cls) -> "LocalFilter":
        eye = np.eye(2, dtype=complex)
        return cls([eye, eye, eye])

    @property
    def operator(self) -> np.ndarray:
        return kron_all(self.factors)

    def __repr__(self) -> str:
        return "LocalFilter(3 factors)"


class SeparableSuperoperator:
    """A finite family of scaled local filters with ``sum X^dag X <= I``."""

    __slots__ = ("filters", "scales")

    def __init__(self, filters: Sequence[LocalFilter], scales: Sequence[float]):
        filters = tuple(filters)
        scales = tuple(float(s) for s in scales)
        if len(filters) != len(scales):
            raise ValueError("one scale per filter required")
        if not filters:
            raise ValueError("need at least one filter")
        if len(filters) > ENSEMBLE_CAP:
            raise ValueError(f"ensemble exceeds the {ENSEMBLE_CAP}-term cap")
        if any(s < 0 for s in scales):
            raise ValueError("scales must be non-negative")
        excess = _top_gram_eigenvalue(filters, scales) - 1.0
        if excess > 1e-9:
            raise ValueError(f"sum of X^dag X exceeds identity by {excess}")
        object.__setattr__(self, "filters", filters)
        object.__setattr__(self, "scales", scales)

    def __setattr__(self, name, value):
        raise AttributeError("SeparableSuperoperator is immutable")

    @classmethod
    def from_filters(cls, filters: Sequence[LocalFilter], scales: Sequence[float] | None = None) -> "SeparableSuperoperator":
        """Rescale the given family so the sum constraint holds with equality."""
        filters = tuple(filters)
        if scales is None:
            scales = [1.0] * len(filters)
        scales = np.asarray([float(s) for s in scales])
        top = _top_gram_eigenvalue(filters, scales)
        if top <= 0:
            raise ValueError("all scales are zero")
        return cls(filters, scales / math.sqrt(top))

    def kraus_operators(self) -> list[np.ndarray]:
        return [f.operator * s for f, s in zip(self.filters, self.scales)]


@dataclass(frozen=True)
class OrbitPoint:
    """A point of the filtering orbit (or its boundary, with probability 0)."""

    filter: LocalFilter
    probability: float
    state: DensityMatrix | None
    kind: str = "interior"


def _normalized(dims, out: np.ndarray) -> tuple[DensityMatrix | None, float]:
    """``(out / p, p)`` with ``p = tr(out)``; ``(None, p)`` below the
    probability floor, where the output state is undefined."""
    p = float(out.trace().real)
    if p <= PROBABILITY_FLOOR:
        return None, max(p, 0.0)
    # X rho X^dag is PSD exactly; dividing by a small p amplifies kernel
    # rounding, so any negativity here is noise and is projected away
    out = (out + out.conj().T) / (2 * p)
    w, v = np.linalg.eigh(out)
    if w.min() < -1e-12:
        w = np.clip(w, 0.0, None)
        out = (v * w) @ v.conj().T
        out = (out + out.conj().T) / (2 * out.trace().real)
    return DensityMatrix(dims, out), p


def apply_filter(x: LocalFilter, rho: DensityMatrix) -> tuple[DensityMatrix | None, float]:
    """``(X rho X^dag / p, p)`` with ``p = tr(X rho X^dag)``.

    Below the probability floor the filter is kernel-aligned and the state is
    undefined: ``(None, p)`` is returned.  Boundary behavior is handled in
    closed form by :func:`boundary_limit`, never by dividing by a tiny p.
    """
    op = x.operator
    return _normalized(rho.dims, op @ rho.matrix @ op.conj().T)


def apply_separable(e: SeparableSuperoperator, rho: DensityMatrix) -> tuple[DensityMatrix | None, float]:
    """Normalized output of the superoperator plus its success probability."""
    total = np.zeros_like(rho.matrix)
    for op in e.kraus_operators():
        total = total + op @ rho.matrix @ op.conj().T
    return _normalized(rho.dims, total)


def span_overlap(target: UPB, rho: DensityMatrix | np.ndarray) -> float:
    """Total weight of ``rho`` on the target UPB's span, ``sum_j <T_j|rho|T_j>``.

    Zero exactly when the state is supported inside the target's bound
    entangled state; strictly positive everywhere on an inequivalent orbit.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    value = float(np.einsum("ij,ji->", target.span_projector, mat).real)
    return min(max(value, 0.0), 1.0)


def _boundary_coefficients(upb: UPB, member: int) -> np.ndarray:
    """Per party, the source state's weight ``<S'|rho|S'>`` on the member with
    that party's factor flipped to its perpendicular."""
    rho = state_of(upb).matrix
    member_factors = upb.members[member].factors
    coeffs = []
    for party in range(3):
        flipped = list(member_factors)
        flipped[party] = perp_qubit(member_factors[party])
        probe = kron_all(flipped)
        coeffs.append(float((probe.conj() @ rho @ probe).real))
    return np.array(coeffs)


def boundary_limit(
    upb: UPB,
    member: int,
    targets: Sequence[np.ndarray],
    perturbations: Sequence[np.ndarray],
    weights: Sequence[float],
) -> DensityMatrix:
    """Closed-form limit state of filters collapsing onto one UPB member.

    Filters approaching ``|a,b,c><S_member|`` along the perturbation
    directions yield a separable mixture of three product states: each takes
    the target triple ``(a, b, c)`` with one party's state replaced by its
    perturbation direction, weighted by the source state's matrix element at
    the corresponding flipped member factor times the given weight.
    """
    if upb.dims != (2, 2, 2):
        raise ValueError("boundary limits are defined for three-qubit UPBs")
    if not 0 <= member < upb.n:
        raise ValueError(f"member index {member} out of range")
    weights = [float(w) for w in weights]
    if len(weights) != 3 or any(w < 0 for w in weights):
        raise ValueError("need three non-negative weights")
    if sum(weights) <= 0:
        raise ValueError("weights must not all be zero")
    targets = [np.asarray(t, dtype=complex).reshape(2) for t in targets]
    perturbations = [np.asarray(q, dtype=complex).reshape(2) for q in perturbations]
    targets = [t / np.linalg.norm(t) for t in targets]
    perturbations = [q / np.linalg.norm(q) for q in perturbations]
    coeffs = _boundary_coefficients(upb, member)
    out = np.zeros((8, 8), dtype=complex)
    norm = 0.0
    for party in range(3):
        coeff = coeffs[party] * weights[party]
        mixture_factors = list(targets)
        mixture_factors[party] = perturbations[party]
        psi = kron_all(mixture_factors)
        out += coeff * np.outer(psi, psi.conj())
        norm += coeff
    if norm <= 0:
        raise ValueError("limit state has zero weight (degenerate directions)")
    out = (out + out.conj().T) / (2 * norm)
    return DensityMatrix(upb.dims, out)


@dataclass(frozen=True)
class GapSearchConfig:
    """Multistart budget for the gap optimizers: ``restarts`` restarts of
    up to ``budget // 48`` sweeps of three exact block steps in both interior
    pools (the compass search's sweep count at 24 parameters, which the
    budgets were set for), and ``boundary_restarts`` product states of up to
    ``boundary_budget // 12`` sweeps of qubit steps in the boundary probe.
    The sweep counts are per-restart upper bounds: a restart that a sweep
    leaves bitwise unchanged stops there."""

    restarts: int = 200
    budget: int = 5000
    seed: int = DEFAULT_SEED
    slack: float = 1e-9
    boundary_restarts: int = 64
    boundary_budget: int = 3000

    def __post_init__(self):
        if self.restarts < 1 or self.boundary_restarts < 1:
            raise ValueError("restart counts must be positive")
        if self.budget < 100 or self.boundary_budget < 100:
            raise ValueError("budgets must allow at least a few sweeps")
        if self.slack < 0:
            raise ValueError("slack must be non-negative")


@dataclass(frozen=True)
class GapCertificate:
    """Empirical non-convertibility record for an inequivalent UPB pair.

    Multistart gives no certified global optimum: ``delta_min`` is an upper
    estimate of the true orbit-wide witness minimum and ``fidelity_max`` a
    lower estimate of the true fidelity supremum, recorded with full
    optimizer provenance so runs are reproducible.  ``epsilon = delta_min/2``
    via the square-root chain, and the consistency flag asserts
    ``fidelity_max <= 1 - epsilon + slack``.
    """

    source_angles: tuple[float, float, float]
    target_angles: tuple[float, float, float]
    delta_min: float
    fidelity_max: float
    epsilon: float
    slack: float
    consistent: bool
    argmin_kind: str
    span_overlap_at_argmax: float
    perp_weight_at_argmax: float
    perp_root_trace_at_argmax: float
    restarts: int
    budget: int
    boundary_restarts: int
    boundary_budget: int
    seed: int
    interior_optima: tuple[float, ...]
    boundary_optima: tuple[float, ...]
    fidelity_optima: tuple[float, ...]
    status: str = "empirical"

    @property
    def perp_weight_bound(self) -> float:
        return 1.0 - self.delta_min

    @property
    def perp_root_trace_bound(self) -> float:
        return 2.0 * math.sqrt(max(1.0 - self.delta_min, 0.0))

    @property
    def fidelity_bound(self) -> float:
        return 1.0 - self.delta_min / 2.0

    def to_document(self) -> dict:
        return {
            "status": self.status,
            "source_angles": list(self.source_angles),
            "target_angles": list(self.target_angles),
            "delta_min": self.delta_min,
            "fidelity_max": self.fidelity_max,
            "epsilon": self.epsilon,
            "slack": self.slack,
            "consistent": self.consistent,
            "argmin_kind": self.argmin_kind,
            "chain": {
                "span_overlap_at_argmax": self.span_overlap_at_argmax,
                "perp_weight_at_argmax": self.perp_weight_at_argmax,
                "perp_weight_bound": self.perp_weight_bound,
                "perp_root_trace_at_argmax": self.perp_root_trace_at_argmax,
                "perp_root_trace_bound": self.perp_root_trace_bound,
                "fidelity_bound": self.fidelity_bound,
            },
            "optimizer": {
                "seed": self.seed,
                "restarts": self.restarts,
                "budget": self.budget,
                "boundary_restarts": self.boundary_restarts,
                "boundary_budget": self.boundary_budget,
                "interior_optima": list(self.interior_optima),
                "boundary_optima": list(self.boundary_optima),
                "fidelity_optima": list(self.fidelity_optima),
            },
        }


# ---------------------------------------------------------------------------
# batched exact block-coordinate optimization


def _unit_spectral(fac: np.ndarray) -> np.ndarray:
    """(..., 2, 2) factors divided by their spectral norms (zero stays zero).

    The top eigenvalue of ``F^dag F`` follows from its trace ``||F||_F^2``
    and determinant ``|det F|^2``."""
    tr = (fac.real ** 2 + fac.imag ** 2).sum(axis=(-2, -1))
    det = np.abs(fac[..., 0, 0] * fac[..., 1, 1] - fac[..., 0, 1] * fac[..., 1, 0]) ** 2
    disc = np.sqrt(np.clip(tr * tr - 4 * det, 0.0, None))
    top = np.sqrt(np.clip((tr + disc) / 2, 1e-300, None))
    return fac / top[..., None, None]


def _interior_starts(rng: np.random.Generator, restarts: int) -> np.ndarray:
    """The identity filter plus ``restarts - 1`` random ones, as (n, 3, 2, 2)
    spectral-norm-1 factors with Gaussian real and imaginary parts."""
    raw = rng.standard_normal((restarts, 3, 8))
    fac = (raw[..., :4] + 1j * raw[..., 4:]).reshape(restarts, 3, 2, 2)
    fac[0] = np.eye(2)
    return _unit_spectral(fac)


def _apply_factors(fac: np.ndarray, basis: np.ndarray, skip: int | None = None) -> np.ndarray:
    """(n, 3, 2, 2) factors applied to the columns of an (8, k) basis, one
    party at a time; returns (n, 8, k).  Party ``skip`` is left out."""
    out = basis[None]
    for q in range(3):
        if q != skip:
            t = out.reshape(out.shape[0], 2 ** q, 2, -1)
            f = fac[:, q, :, :, None, None]
            out = np.stack([f[:, 0, 0] * t[:, :, 0] + f[:, 0, 1] * t[:, :, 1],
                            f[:, 1, 0] * t[:, :, 0] + f[:, 1, 1] * t[:, :, 1]], axis=2)
    return out.reshape(fac.shape[0], 8, basis.shape[1])


def _party_first(m: np.ndarray, q: int) -> np.ndarray:
    """(n, 8, k) -> (n, 2, 4k), with party ``q``'s index first."""
    return np.moveaxis(m.reshape(m.shape[0], 2, 2, 2, -1), q + 1, 1).reshape(m.shape[0], 2, -1)


def _party_gram(fac: np.ndarray, q: int, source: UPB) -> tuple[np.ndarray, ...]:
    """``W``, the other two factors applied to ``C`` as (n, 2, 4k) with party
    ``q`` first, its Gram ``W W^dag``, the Gram's determinant, and whether
    its condition number ``top^2 / det`` is at most 1e12."""
    w = _party_first(_apply_factors(fac, source.complement_basis, skip=q), q)
    gram = w @ np.swapaxes(w.conj(), 1, 2)
    tr = (gram[:, 0, 0] + gram[:, 1, 1]).real
    det = (gram[:, 0, 0] * gram[:, 1, 1]).real - np.abs(gram[:, 0, 1]) ** 2
    top = (tr + np.sqrt(np.clip(tr * tr - 4 * det, 0.0, None))) / 2
    return w, gram, det, det > 1e-12 * top * top


def _support_weight(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``||X C||_F^2`` per restart and whether the filter's success
    probability ``||X C||_F^2 / k`` clears the floor."""
    norm2 = (y.real ** 2 + y.imag ** 2).sum(axis=(1, 2))
    return norm2, norm2 / y.shape[-1] > PROBABILITY_FLOOR


def _witness_value(y: np.ndarray, span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``||S^dag Y||_F^2 / ||Y||_F^2`` and ``||Y||_F^2 / k`` for each (8, k)
    image ``Y`` (``X C``, or a product state), rows ordered as ``S``'s."""
    norm2, valid = _support_weight(y)
    inside = span.conj().T @ y
    value = (inside.real ** 2 + inside.imag ** 2).sum(axis=(1, 2)) / np.where(valid, norm2, 1.0)
    return np.where(valid, value, _INVALID), norm2 / y.shape[-1]


def _overlap_objective(fac: np.ndarray, source: UPB, target: UPB) -> tuple[np.ndarray, np.ndarray]:
    """Witness ``||S^dag X C||_F^2 / ||X C||_F^2`` of each filter's output
    (``S`` the target's span basis) and its success probability."""
    return _witness_value(_apply_factors(fac, source.complement_basis), target.span_basis)


def _witness_step(fac: np.ndarray, q: int, source: UPB, target: UPB) -> np.ndarray:
    """Minimize the support witness exactly over party ``q``'s factor.

    With ``L`` the Cholesky factor of ``W W^dag`` (:func:`_party_gram`),
    ``L^-1 W`` has orthonormal rows, so for ``A = Z L^-1`` the witness is a
    Rayleigh quotient in ``vec(Z)``.  Its lowest eigenvector is scored by
    :func:`_witness_value`, never by the eigenvalue, and taken only if not
    higher and if its success probability is at least
    ``_FREEZE_PROBABILITY``.  Restarts below it (their descent runs to the
    orbit boundary, which the product-state pool covers) or with a Gram
    worse conditioned than 1e12 keep their factor.
    """
    n, k = fac.shape[0], source.complement_basis.shape[1]
    w, gram, det, ok = _party_gram(fac, q, source)
    span = _party_first(target.span_basis[None], q).reshape(8, -1)  # rows (a, rest)
    value, prob = _witness_value((fac[:, q] @ w).reshape(n, 8, k), span)
    live = ok & (prob >= _FREEZE_PROBABILITY)
    g00 = np.where(live, gram[:, 0, 0].real, 1.0)  # L^-1 in closed form; identity where not live
    l11 = np.sqrt(np.where(live, det, 1.0) / g00)
    chol_inv = np.zeros((n, 2, 2), dtype=complex)
    chol_inv[:, 0, 0], chol_inv[:, 1, 0], chol_inv[:, 1, 1] = 1 / np.sqrt(g00), -gram[:, 1, 0] / (g00 * l11), 1 / l11
    white = (chol_inv @ w).reshape(n, 2, 4, k)  # [n, b, rest, column]
    # numerator ||R vec(Z)||^2 with R[n, (j, col), (a, b)] = sum_rest conj(S[(a, rest), j]) white[n, b, rest, col]
    lifted = span.conj().reshape(2, 4, -1).transpose(0, 2, 1).reshape(-1, 4)
    response = (lifted @ white).reshape(n, 2, 2, -1, k).transpose(0, 3, 4, 2, 1).reshape(n, -1, 4)
    _, vecs = np.linalg.eigh(np.swapaxes(response.conj(), 1, 2) @ response)
    trial = _unit_spectral(vecs[:, :, 0].reshape(n, 2, 2) @ chol_inv)
    trial_value, trial_prob = _witness_value((trial @ w).reshape(n, 8, k), span)
    accept = live & (trial_value <= value) & (trial_prob >= _FREEZE_PROBABILITY)
    out = fac.copy()
    out[accept, q] = trial[accept]
    return out


def _support_fidelity(fac: np.ndarray, source: UPB, target: UPB) -> tuple[np.ndarray, np.ndarray]:
    """Negative fidelity of each filter's output to the target's state, and
    the unitary ``U`` with ``Re tr(U Z) = ||Z||_*`` for ``Z = T^dag X C``.

    With ``rho_S = C C^dag / k`` and ``rho_T = T T^dag / r`` the fidelity is
    ``||Z||_* / (sqrt(r) ||X C||_F)``; no 8x8 operator is formed.
    """
    comp, tcomp = source.complement_basis, target.complement_basis
    y = _apply_factors(fac, comp)
    left, s, right_h = np.linalg.svd(tcomp.conj().T @ y)
    norm2, valid = _support_weight(y)
    value = -s.sum(axis=1) / np.sqrt(tcomp.shape[1] * np.where(valid, norm2, 1.0))
    unitary = np.swapaxes(right_h.conj(), 1, 2) @ np.swapaxes(left.conj(), 1, 2)
    return np.where(valid, value, _INVALID), unitary


def _block_step(fac: np.ndarray, q: int, source: UPB, target: UPB) -> np.ndarray:
    """Maximize the support fidelity exactly over party ``q``'s factor.

    With ``U`` the polar factor of ``Z`` at the current point, ``Re tr(U Z)``
    is linear in ``A = A_q``, ``sum_ij A_ij c_ij``, and ``||X C||_F^2`` is
    ``tr(A G A^dag)`` for the Gram ``G`` of the other two factors applied to
    ``C``.  By Cauchy-Schwarz the ratio peaks at ``A ~ conj(c) G^-1``, and
    since ``||Z||_* >= Re tr(U Z)`` the fidelity never decreases.  Restarts
    whose ``G`` has condition number above 1e12 keep their factor.
    """
    n = fac.shape[0]
    _, unitary = _support_fidelity(fac, source, target)
    w, gram, _, ok = _party_gram(fac, q, source)
    tu = _party_first(target.complement_basis.conj() @ np.swapaxes(unitary, 1, 2), q)
    c = tu @ np.swapaxes(w, 1, 2)
    # G^-1 is the adjugate over det > 0
    adjugate = np.stack([gram[:, 1, 1], -gram[:, 0, 1], -gram[:, 1, 0], gram[:, 0, 0]], axis=1).reshape(n, 2, 2)
    step = _unit_spectral(c.conj() @ adjugate)
    ok &= np.abs(step).max(axis=(1, 2)) > 0
    out = fac.copy()
    out[ok, q] = step[ok]
    return out


def _qubit_step(qubits: np.ndarray, q: int, target: UPB) -> np.ndarray:
    """Minimize the product weight exactly over qubit ``q``: with the other
    two fixed, ``S^dag psi = N a`` is linear in its state ``a``, and the
    lowest eigenvector of the 2x2 ``N^dag N`` is the minimizer."""
    b, c = (qubits[:, p] for p in range(3) if p != q)
    span = _party_first(target.span_basis.conj()[None], q).reshape(2, 4, -1)
    nmat = np.einsum("arj,nr->nja", span, (b[:, :, None] * c[:, None]).reshape(-1, 4))
    _, vecs = np.linalg.eigh(np.swapaxes(nmat.conj(), 1, 2) @ nmat)
    out = qubits.copy()
    out[:, q] = vecs[:, :, 0]
    return out


def _sweeps(state: np.ndarray, sweeps: int, step) -> np.ndarray:
    """``sweeps`` sweeps of ``step(state, q)`` for q = 0, 1, 2 over a batch of
    restarts (the leading axis), each run only on the live restarts.

    A step maps each restart on its own, by arithmetic that does not depend
    on the rest of the batch, so a restart that a whole sweep leaves bitwise
    unchanged stays so: it is dropped from the batch and its row keeps its
    value.  Every row equals that of the plain loop.
    """
    def bits(a):
        return a.reshape(len(a), -1).view(np.uint8)

    out = np.empty_like(state)
    live = np.arange(len(state))
    for _ in range(sweeps):
        if not live.size:
            break
        new = state
        for q in range(3):
            new = step(new, q)
        moved = (bits(new) != bits(state)).any(axis=1)
        out[live[~moved]] = new[~moved]
        live, state = live[moved], new[moved]
    out[live] = state
    return out


def _interior_point(source: UPB, fac: np.ndarray) -> OrbitPoint:
    """The orbit point of one (3, 2, 2) filter, scored through :func:`apply_filter`."""
    filt = LocalFilter.from_raw(list(fac))
    state, p = apply_filter(filt, state_of(source))
    return OrbitPoint(filt, p, state, "interior")


def minimize_span_overlap(source: UPB, target: UPB, config: GapSearchConfig | None = None) -> tuple[float, OrbitPoint, list, list]:
    """Empirical minimum of the witness functional over the filtering orbit
    of ``source`` and its boundary.

    The interior pool runs exact block steps (:func:`_witness_step`).  A
    boundary limit's witness value is a weighted mean of the weights its
    three product states put on the target's span, and a limit with all
    weight on one party is a single product state, so the boundary pool
    minimizes the product weight (:func:`_qubit_step`).  Returns
    ``(delta, point, interior_optima, boundary_optima)``.
    """
    config = config or GapSearchConfig()
    rng = np.random.default_rng(config.seed)
    fac = _sweeps(_interior_starts(rng, config.restarts), max(1, config.budget // 48),
                  lambda f, q: _witness_step(f, q, source, target))
    fi, _ = _overlap_objective(fac, source, target)
    point = _interior_point(source, fac[int(np.argmin(fi))])
    theta = rng.uniform(0.0, math.pi, (config.boundary_restarts, 3))
    phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, (config.boundary_restarts, 3)))
    qubits = np.stack([np.cos(theta), np.sin(theta) * phase], axis=-1)
    qubits = _sweeps(qubits, max(1, config.boundary_budget // 12), lambda v, q: _qubit_step(v, q, target))
    products = np.einsum("ni,nj,nk->nijk", qubits[:, 0], qubits[:, 1], qubits[:, 2]).reshape(-1, 8, 1)
    fb, _ = _witness_value(products, target.span_basis)
    best = min(fi.min(), fb.min())
    if fb.min() < fi.min():
        psi = list(qubits[int(np.argmin(fb))])
        # the pure product state as the limit weighted on the (member, party)
        # with the largest coefficient, so the probe state is well defined
        coeffs = np.array([_boundary_coefficients(source, m) for m in range(source.n)])
        member, party = np.unravel_index(int(np.argmax(coeffs)), coeffs.shape)
        state = boundary_limit(source, member, psi, psi, np.eye(3)[party])
        mf = source.members[member].factors
        filt = LocalFilter.from_raw([np.outer(a, f.conj()) for a, f in zip(psi, mf)])
        point = OrbitPoint(filt, 0.0, state, "boundary")
    return max(float(best), 0.0), point, fi.tolist(), fb.tolist()


def maximize_fidelity(source: UPB, target: UPB, config: GapSearchConfig | None = None) -> tuple[float, OrbitPoint, list]:
    """Empirical maximum fidelity between the target's bound entangled state
    and single-filter outputs of the source's.

    Each restart runs up to ``budget // 48`` sweeps of exact block steps
    (:func:`_block_step`) over the three factors; the best filter is
    re-scored through :func:`apply_filter`.  Returns
    ``(fidelity, point, fidelity_optima)``.
    """
    config = config or GapSearchConfig()
    fac = _sweeps(_interior_starts(np.random.default_rng(config.seed + 1), config.restarts),
                  max(1, config.budget // 48), lambda f, q: _block_step(f, q, source, target))
    fi, _ = _support_fidelity(fac, source, target)
    point = _interior_point(source, fac[int(np.argmin(fi))])
    return min(max(-float(fi.min()), 0.0), 1.0), point, (-fi).tolist()


def certify_gap(source: UPB, target: UPB, config: GapSearchConfig | None = None) -> GapCertificate:
    """Run both optimizers and assemble the non-convertibility record.

    The returned ``delta_min`` also folds in the witness value at the
    fidelity argmax (itself an orbit point), so the recorded square-root
    chain holds at that state by construction.
    """
    config = config or GapSearchConfig()
    canon_s, canon_t = canonicalize(source), canonicalize(target)
    if match_canonical(source, target, canon_s, canon_t) is not None:
        raise EquivalentPairError("source and target are equivalent; the gap is undefined")
    delta, argmin_point, interior_optima, boundary_optima = minimize_span_overlap(source, target, config)
    fmax, argmax_point, fidelity_optima = maximize_fidelity(source, target, config)
    overlap_at_argmax = span_overlap(target, argmax_point.state)
    delta = min(delta, overlap_at_argmax)
    perp = np.eye(target.total_dim, dtype=complex) - target.span_projector
    w = _sandwich_spectrum(perp, argmax_point.state.matrix)
    epsilon = delta / 2.0
    return GapCertificate(
        source_angles=canon_s[0].as_tuple(),
        target_angles=canon_t[0].as_tuple(),
        delta_min=delta,
        fidelity_max=fmax,
        epsilon=epsilon,
        slack=config.slack,
        consistent=fmax <= 1.0 - epsilon + config.slack,
        argmin_kind=argmin_point.kind,
        span_overlap_at_argmax=overlap_at_argmax,
        perp_weight_at_argmax=float(w.sum()),
        perp_root_trace_at_argmax=float(np.sqrt(w).sum()),
        restarts=config.restarts,
        budget=config.budget,
        boundary_restarts=config.boundary_restarts,
        boundary_budget=config.boundary_budget,
        seed=config.seed,
        interior_optima=tuple(interior_optima),
        boundary_optima=tuple(boundary_optima),
        fidelity_optima=tuple(fidelity_optima),
    )
