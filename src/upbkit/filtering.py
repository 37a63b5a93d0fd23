"""Local filtering, separable superoperators, and non-convertibility gaps.

The witness functional is the total weight a state puts on the target UPB's
span; it vanishes only for states supported inside the target's bound
entangled state, and stays bounded away from zero over the whole filtering
orbit of an inequivalent source.  ``certify_gap`` estimates that gap and the
matching fidelity ceiling by three multistart pools.  Multistart certifies
no global optimum: the results are empirical estimates.

*Canonical frames.*  ``certify_gap`` runs the pools on the two classes'
canonical representatives.  There restart 0 of both interior pools, the
identity filter, is the equivalence map at the diagonal ``S = T``, where the
witness is 0 and the fidelity 1, and the interior minimum and the fidelity
maximum move away from it continuously as ``S`` moves; in any other frame
it is one more random filter, and a basin that it alone reaches is lost.

*Interior pools.*  The pools run on three (8, k) bases, not on UPBs: the
source's complement ``C`` and the target's span ``S`` and complement ``T``,
with ``rho_S = C C^dag / k`` and ``rho_T = T T^dag / r``.  A filter ``X =
A_0 (x) A_1 (x) A_2`` has witness ``||S^dag X C||_F^2 / ||X C||_F^2`` (for
any orthonormal ``S``) and fidelity ``||Z||_* / (sqrt(r) ||X C||_F)`` with
``Z = T^dag X C``; no 8x8 operator is formed, and the operands that depend
only on ``S`` or ``T`` are built once per pool call.  A restart runs up to
``budget // 48`` sweeps of three exact steps, one 2x2 factor each:

- The witness is a ratio of two Hermitian forms in one factor, minimized by
  a 4x4 eigenvector (:func:`_witness_step`).  Its descent can run to the
  orbit boundary, where the output is rounding noise, so no step goes below
  success probability ``_FREEZE_PROBABILITY`` and a restart below it keeps
  its factors; the boundary probe bounds what it would reach.  Most
  restarts instead collapse within a few sweeps onto a rank-one filter
  ``|v><u|`` above that probability, and the probe finishes those.
- The fidelity ascent holds the polar factor ``U`` of ``Z`` at the sweep's
  start (:func:`_polar`) and maximizes the surrogate ``s = Re tr(U Z) /
  (sqrt(r) ||X C||_F)`` in closed form (:func:`_block_step`).  ``s`` equals
  the fidelity at the start and, as ``||U||_2 <= 1``, never exceeds it.

A sweep from ``old`` to ``new`` ends with the line extrapolation ``new +
beta (new - old)``, each factor rescaled to spectral norm 1
(:func:`_extrapolate`).  It is kept when it is valid and no worse than a bar
that ``new`` reaches: the witness at ``new``, or ``s`` at ``new``, which
needs no polar factor.  ``beta`` starts at 1, triples when the point is kept
and resets when not.  No sweep loses ground, and the ascent pays a polar
factor for the extrapolated point and, only where that is rejected, for
``new``.

*Boundary probe.*  Every boundary limit is a mixture of product states
(:func:`boundary_limit`), so its witness is at least the least weight
``||S^dag v||^2`` a product state puts on the target's span, which a single
product state reaches.  The probe runs ``BOUNDARY_STARTS`` starts of up to
``BOUNDARY_BUDGET // 12`` sweeps of the product-vector search's exact
descent on ``S``, built once (:func:`_probe_sweep`); each start's optimum is
the weight it scored.

The same descent finishes the witness restarts that collapse.  A filter
``|v><u|`` with ``<u|rho_S|u> > 0`` outputs the product state ``|v>``, and
with two factors rank one every output is ``xi (x) |v_r v_s><v_r v_s|``, so
the exact witness step for the third party is the least eigenvector of the
2x2 contraction of ``S S^dag`` with ``v_r v_s``: the probe's closed-form
qubit step.  Rank one is invariant under that step, so on it the two
descents are one algorithm.  A witness restart leaves its pool once all
three factors are rank one at a probability of at least
``_FREEZE_PROBABILITY`` (:func:`_collapsed`); its output factors
(:func:`_output_states`) join the probe's starts in one batch, from its
witness value.  Its interior optimum is the weight that descent ends at,
reached by ``|v><u|`` with ``u`` and so the probability unchanged.

*One stop.*  :func:`upbkit.linalg._sweeps` runs all three pools, and a
restart leaves the batch once a sweep improves its value by at most
``_STALL_GAIN`` (1e-14).  The rows equal those of sweeping every restart to
its cap with the same stop; the probe's starts end as they would without
the handed-off restarts beside them.

*Kernels.*  That equality needs every row's arithmetic to be independent
of its batch.  Each 2x2 product is two elementwise products
(:func:`_product2`): a factor applied to one party, the whitening ``L^-1
W``, ``Z L^-1``, ``A W`` and the step ``conj(c) adj(G)``.  The products
whose left operand the whole batch shares, ``T^dag Y``, ``conj(T) U^T``
and the witness step's lifted span times ``L^-1 W``, are one GEMM over the
batch's columns (:func:`_shared_left`), equal to the per-row product bit
for bit at the pools' four columns per row.  The rest stay one BLAS call
per row, which no batch can change: the Grams ``W W^dag``, a fidelity
step's ``conj(c) = conj(tu) W^dag``, the 4x4 forms, the polar factor, and
``S^dag Y`` in :func:`_witness_value`, which also scores images of other
column counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DensityMatrix, _sandwich_spectrum, _sweeps, kron_all
from .product_search import DEFAULT_SEED, _descent_sweep, _unit_starts, finest_partition
from .serialize import InputError
from .upb import UPB, build_canonical, canonicalize, match_canonical, perp_qubit, state_of

PROBABILITY_FLOOR = 1e-14
SPECTRAL_NORM_TOL = 1e-10
ENSEMBLE_CAP = 8192
_INVALID = 2.0  # objective placeholder outside [0, 1]
# witness restarts below it keep their factors, and no step goes below it:
# there the witness is a ratio of rounding-sized norms
_FREEZE_PROBABILITY = 1e-6
# an interior restart whose sweep gains at most this much stops
_STALL_GAIN = 1e-14
# a filter factor ``A`` with ``|det A| <= _RANK_ONE_TOL ||A||_F^2`` is rank one
_RANK_ONE_TOL = 1e-12
# the extrapolation factor of the interior pools grows by this on success
_BETA_GROWTH = 3.0
BOUNDARY_STARTS = 64  # product-state starts of the boundary probe
BOUNDARY_BUDGET = 3000  # the probe's budget: up to BOUNDARY_BUDGET // 12 sweeps
# the argmin is labelled interior only when the interior minimum lies more
# than this below the boundary's; closer minima are a rounding tie
ARGMIN_TIE_TOL = 1e-12
# a certificate is consistent when fidelity_max <= 1 - delta_min/2 + this
CONSISTENCY_SLACK = 1e-9


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
            if abs(np.linalg.norm(f, 2) - 1.0) > SPECTRAL_NORM_TOL:
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
            s = np.linalg.norm(f, 2)
            if s <= 0:
                raise ValueError("cannot normalize a zero factor")
            out.append(f / s)
        return cls(out)

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
    def from_filters(cls, filters: Sequence[LocalFilter], scales: Sequence[float]) -> "SeparableSuperoperator":
        """Rescale the given family so the sum constraint holds with equality."""
        filters = tuple(filters)
        scales = np.asarray([float(s) for s in scales])
        top = _top_gram_eigenvalue(filters, scales)
        if top <= 0:
            raise ValueError("all scales are zero")
        return cls(filters, scales / math.sqrt(top))

    def kraus_operators(self) -> list[np.ndarray]:
        return [f.operator * s for f, s in zip(self.filters, self.scales)]


def apply_filter(x: LocalFilter, rho: DensityMatrix) -> tuple[DensityMatrix | None, float]:
    """``(X rho X^dag / p, p)`` with ``p = tr(X rho X^dag)``.

    Below the probability floor the filter is kernel-aligned and the state is
    undefined: ``(None, p)`` is returned.  Boundary behavior is handled in
    closed form by :func:`boundary_limit`, never by dividing by a tiny p.
    """
    return apply_separable(SeparableSuperoperator([x], [1.0]), rho)


def apply_separable(e: SeparableSuperoperator, rho: DensityMatrix) -> tuple[DensityMatrix | None, float]:
    """``(out / p, p)`` with ``out`` the superoperator's output and ``p =
    tr(out)`` its success probability; ``(None, p)`` below the probability
    floor, where the output state is undefined."""
    out = np.zeros_like(rho.matrix)
    for op in e.kraus_operators():
        out = out + op @ rho.matrix @ op.conj().T
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
    return DensityMatrix(rho.dims, out), p


def span_overlap(target: UPB, rho: DensityMatrix) -> float:
    """Total weight of ``rho`` on the target UPB's span, ``sum_j <T_j|rho|T_j>``.

    Zero exactly when the state is supported inside the target's bound
    entangled state; strictly positive everywhere on an inequivalent orbit.
    """
    value = float(np.einsum("ij,ji->", target.span_projector, rho.matrix).real)
    return min(max(value, 0.0), 1.0)


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
    factors, rho = upb.members[member].factors, state_of(upb).matrix
    out = np.zeros((8, 8), dtype=complex)
    norm = 0.0
    for party in range(3):
        flipped = list(factors)
        flipped[party] = perp_qubit(factors[party])
        probe = kron_all(flipped)
        coeff = float((probe.conj() @ rho @ probe).real) * weights[party]
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
    """Multistart budget of the interior gap pools: ``restarts`` restarts
    from ``seed`` of up to ``budget // 48`` sweeps each (the compass
    search's sweep count at 24 parameters, which the budgets were set for).
    The module docstring has the pools; the consistency flag's slack is the
    constant ``CONSISTENCY_SLACK``."""

    restarts: int = 200
    budget: int = 5000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.restarts < 1 or self.budget < 100:
            raise InputError("need a positive restart count and a budget of at least 100")
        if self.seed < 0:
            raise InputError("seed must be non-negative")


@dataclass(frozen=True)
class GapCertificate:
    """Empirical non-convertibility record for an inequivalent UPB pair.

    Multistart gives no certified global optimum: ``delta_min`` is an upper
    estimate of the true orbit-wide witness minimum and ``fidelity_max`` a
    lower estimate of the supremum over single-filter outputs (an LOCC
    outcome may also mix filters), recorded with the optimizer's ``config``
    so runs are reproducible.  ``epsilon = delta_min/2`` via the square-root
    chain, and the consistency flag asserts ``fidelity_max <= 1 - epsilon +
    CONSISTENCY_SLACK``.
    """

    status = "empirical"

    source_angles: tuple[float, float, float]
    target_angles: tuple[float, float, float]
    delta_min: float
    fidelity_max: float
    argmin_kind: str
    span_overlap_at_argmax: float
    perp_weight_at_argmax: float
    perp_root_trace_at_argmax: float
    interior_optima: tuple[float, ...]
    boundary_optima: tuple[float, ...]
    fidelity_optima: tuple[float, ...]
    config: GapSearchConfig

    @property
    def epsilon(self) -> float:
        return self.delta_min / 2.0

    @property
    def consistent(self) -> bool:
        return self.fidelity_max <= 1.0 - self.epsilon + CONSISTENCY_SLACK

    def to_document(self) -> dict:
        return {
            "status": self.status,
            "source_angles": list(self.source_angles),
            "target_angles": list(self.target_angles),
            "delta_min": self.delta_min,
            "fidelity_max": self.fidelity_max,
            "epsilon": self.epsilon,
            "slack": CONSISTENCY_SLACK,
            "consistent": self.consistent,
            "argmin_kind": self.argmin_kind,
            "chain": {
                "span_overlap_at_argmax": self.span_overlap_at_argmax,
                "perp_weight_at_argmax": self.perp_weight_at_argmax,
                "perp_weight_bound": 1.0 - self.delta_min,
                "perp_root_trace_at_argmax": self.perp_root_trace_at_argmax,
                "perp_root_trace_bound": 2.0 * math.sqrt(max(1.0 - self.delta_min, 0.0)),
                "fidelity_bound": 1.0 - self.delta_min / 2.0,
            },
            "optimizer": {
                "seed": self.config.seed,
                "restarts": self.config.restarts,
                "budget": self.config.budget,
                "boundary_restarts": BOUNDARY_STARTS,
                "boundary_budget": BOUNDARY_BUDGET,
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
    and determinant ``|det F|^2``.  When the two singular values nearly
    coincide, ``tr^2 - 4 det`` cancels and the norm comes out 1 only to
    about 1e-8 (1.5e-8 on 1000 random unitaries, 6.7e-16 on 1000 Gaussian
    factors).  That is harmless: every pool objective is scale-free, and
    :func:`maximize_fidelity` re-normalizes through
    :meth:`LocalFilter.from_raw` before its dense re-score."""
    tr = (fac.real ** 2 + fac.imag ** 2).sum(axis=(-2, -1))
    cross = fac[..., 0, :] * fac[..., 1, ::-1]  # A_00 A_11 and A_01 A_10
    det = np.abs(cross[..., 0] - cross[..., 1]) ** 2
    top = np.sqrt(np.maximum((tr + np.sqrt(np.maximum(tr * tr - 4 * det, 0.0))) / 2, 1e-300))
    return fac / top[..., None, None]


def _interior_starts(rng: np.random.Generator, restarts: int) -> np.ndarray:
    """The identity filter plus ``restarts - 1`` random ones, as (n, 3, 2, 2)
    spectral-norm-1 factors with Gaussian real and imaginary parts.

    Restart 0, the identity, is the equivalence map at the diagonal in
    canonical frames (the module docstring).  Where the certificate's basin
    is one that few random restarts reach, as at the tests' ``PAIR_33``, it
    is the restart that finds it."""
    raw = rng.standard_normal((restarts, 3, 8))
    fac = (raw[..., :4] + 1j * raw[..., 4:]).reshape(restarts, 3, 2, 2)
    fac[0] = np.eye(2)
    return _unit_spectral(fac)


def _product2(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``f @ t`` over the second-to-last axis of an (n or 1, p, 2, m) ``t``,
    for (n, 2, 2) ``f``: (n, p, 2, m), as two elementwise products."""
    f = f[:, None, :, :, None]
    return f[:, :, :, 0] * t[:, :, None, 0] + f[:, :, :, 1] * t[:, :, None, 1]


def _shared_left(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for each matrix of an (n, m, k) batch ``b``, as one GEMM
    over the batch's ``n k`` columns, C-contiguous like ``a @ b``.

    With ``k`` a multiple of the BLAS kernel's column block, as the pools'
    ``k = 4`` is, every matrix's columns take the same kernel path, so the
    result equals the per-matrix product bit for bit and no row depends on
    its batch (:func:`~upbkit.linalg._sweeps`).  Other ``k`` can differ in
    the last digits: with OpenBLAS 0.3.31 on an AVX-512 x86-64 host, every
    ``k`` from 1 to 8 but 4 and 8 did."""
    n, m, k = b.shape
    return np.ascontiguousarray((a @ b.transpose(1, 0, 2).reshape(m, -1)).reshape(-1, n, k).transpose(1, 0, 2))


def _apply_party(f: np.ndarray, m: np.ndarray, q: int) -> np.ndarray:
    """(n, 2, 2) factors applied to party ``q`` of an (n or 1, 8, k) array."""
    return _product2(f, m.reshape(m.shape[0], 2 ** q, 2, -1)).reshape(len(f), 8, -1)


def _apply_factors(fac: np.ndarray, basis: np.ndarray, skip: int | None = None) -> np.ndarray:
    """(n, 3, 2, 2) factors applied to the columns of an (8, k) basis, one
    party at a time (:func:`_apply_party`); returns (n, 8, k).  Party
    ``skip`` is left out."""
    out = basis[None]
    for q in range(3):
        if q != skip:
            out = _apply_party(fac[:, q], out, q)
    return out


def _party_first(m: np.ndarray, q: int) -> np.ndarray:
    """(n, 8, k) -> (n, 2, 4k), with party ``q``'s index first."""
    axes = ((0, 1, 2, 3, 4), (0, 2, 1, 3, 4), (0, 3, 1, 2, 4))[q]
    return m.reshape(m.shape[0], 2, 2, 2, -1).transpose(axes).reshape(m.shape[0], 2, -1)


def _party_gram(m: np.ndarray, q: int) -> tuple[np.ndarray, ...]:
    """For the (n, 8, k) image ``m`` of ``C`` under the other two factors:
    ``W``, that image as (n, 2, 4k) with party ``q``'s index first; the Gram
    ``W W^dag``; its determinant; and whether its condition number ``top^2
    / det`` is at most 1e12."""
    w = _party_first(m, q)
    gram = w @ w.conj().transpose(0, 2, 1)
    g00, g11 = gram[:, 0, 0].real, gram[:, 1, 1].real
    det = g00 * g11 - np.abs(gram[:, 0, 1]) ** 2
    tr = g00 + g11
    top = (tr + np.sqrt(np.maximum(tr * tr - 4 * det, 0.0))) / 2
    return w, gram, det, det > 1e-12 * top * top


def _support_weight(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``||X C||_F^2`` per restart and whether the filter's success
    probability ``||X C||_F^2 / k`` clears the floor."""
    norm2 = (y.real ** 2 + y.imag ** 2).sum(axis=(1, 2))
    return norm2, norm2 / y.shape[-1] > PROBABILITY_FLOOR


def _witness_value(y: np.ndarray, span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``||S^dag Y||_F^2 / ||Y||_F^2`` and ``||Y||_F^2 / k`` for each (8, k)
    image ``Y = X C``, rows ordered as ``S``'s."""
    norm2, valid = _support_weight(y)
    inside = span.conj().T @ y
    value = (inside.real ** 2 + inside.imag ** 2).sum(axis=(1, 2)) / np.where(valid, norm2, 1.0)
    return np.where(valid, value, _INVALID), norm2 / y.shape[-1]


def _party_span(span: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """``S`` with party ``q``'s index first, rows (a, rest), and the lift of its conjugate."""
    rows = _party_first(span[None], q).reshape(8, -1)
    return rows, rows.conj().reshape(2, 4, -1).transpose(0, 2, 1).reshape(-1, 4)


def _witness_step(fac: np.ndarray, value: np.ndarray, prob: np.ndarray, q: int, partial: np.ndarray,
                  rows: np.ndarray, lifted: np.ndarray) -> tuple[np.ndarray, ...]:
    """Minimize the witness ``||S^dag X C||_F^2 / ||X C||_F^2`` exactly over
    party ``q``'s factor, given ``C``'s image ``partial`` under the other two
    and ``(rows, lifted) = _party_span(S, q)``, ``S`` with orthonormal columns.

    With ``L`` the Cholesky factor of ``W W^dag`` (:func:`_party_gram`),
    ``L^-1 W`` has orthonormal rows, so for ``A = Z L^-1`` the witness is a
    Rayleigh quotient in ``vec(Z)``.  Its lowest eigenvector is scored by
    :func:`_witness_value`, never by the eigenvalue, and taken only if not
    higher than ``value`` and at a success probability of at least
    ``_FREEZE_PROBABILITY``.  Restarts whose ``prob`` is below it or whose
    Gram is worse conditioned than 1e12 keep their factor.  Returns the
    factors with their witness value and probability.
    """
    n, k = fac.shape[0], partial.shape[-1]
    w, gram, det, ok = _party_gram(partial, q)
    live = ok & (prob >= _FREEZE_PROBABILITY)
    g00 = np.where(live, gram[:, 0, 0].real, 1.0)  # L^-1 in closed form
    l11 = np.sqrt(np.where(live, det, 1.0) / g00)
    chol_inv = np.zeros((n, 2, 2), dtype=complex)
    chol_inv[:, 0, 0], chol_inv[:, 1, 0], chol_inv[:, 1, 1] = 1 / np.sqrt(g00), -gram[:, 1, 0] / (g00 * l11), 1 / l11
    w = w[:, None]
    white = _product2(chol_inv, w).reshape(-1, 4, k)  # [(n, b), rest, column]
    # numerator ||R vec(Z)||^2 with R[n, (j, col), (a, b)] = sum_rest conj(rows[(a, rest), j]) white[n, b, rest, col]
    response = _shared_left(lifted, white).reshape(n, 2, 2, -1, k).transpose(0, 3, 4, 2, 1).reshape(n, -1, 4)
    _, vecs = np.linalg.eigh(response.conj().transpose(0, 2, 1) @ response)
    trial = _unit_spectral(_product2(vecs[:, :, 0].reshape(n, 2, 2), chol_inv[:, None])[:, 0])
    trial_value, trial_prob = _witness_value(_product2(trial, w).reshape(n, 8, k), rows)
    accept = live & (trial_value <= value) & (trial_prob >= _FREEZE_PROBABILITY)
    out = fac.copy()
    out[accept, q] = trial[accept]
    return out, np.where(accept, trial_value, value), np.where(accept, trial_prob, prob)


def _polar(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(||Z||_*, U)`` for each (k, k) ``Z``, with ``U`` its polar factor:
    ``Re tr(U Z) = ||Z||_*`` and ``||U||_2 <= 1``.

    From ``Z^dag Z = V diag(lam) V^dag``, ``U = V diag(lam)^-1/2 (Z V)^dag``
    with zero weight for ``lam <= 1e-24 lam_max``, so ``U`` is a partial
    isometry on a rank-deficient ``Z`` and zero on ``Z = 0``.  ``Z V`` is
    formed first: a rounding-sized eigenvalue then scales only its own row,
    which ``Z v`` keeps at rounding size.  The nuclear norm is scored as
    ``Re tr(U Z)``, not as ``sum sqrt(lam)``, which such eigenvalues spoil.
    """
    lam, vecs = np.linalg.eigh(z.conj().transpose(0, 2, 1) @ z)
    keep = lam > 1e-24 * lam[:, -1:]
    inv_root = keep / np.sqrt(np.where(keep, lam, 1.0))
    unitary = vecs @ (inv_root[:, :, None] * (z @ vecs).conj().transpose(0, 2, 1))
    return (unitary * z.transpose(0, 2, 1)).sum(axis=(1, 2)).real, unitary


def _fidelity_at(y: np.ndarray, tdag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negative fidelity of each (n, 8, k) image ``Y = X C`` to the state of
    ``T``, and the polar factor ``U`` of ``T^dag Y``, for ``tdag = T^dag``."""
    nuclear, unitary = _polar(_shared_left(tdag, y))
    return _scaled_fidelity(nuclear, y, tdag.shape[0]), unitary


def _scaled_fidelity(trace: np.ndarray, y: np.ndarray, r: int) -> np.ndarray:
    """``-trace / (sqrt(r) ||Y||_F)``, ``_INVALID`` below the probability
    floor: the negative fidelity for ``trace = ||Z||_*``, the surrogate's
    for ``trace = Re tr(U Z)``."""
    norm2, valid = _support_weight(y)
    return np.where(valid, -trace / np.sqrt(r * np.where(valid, norm2, 1.0)), _INVALID)


def _block_step(fac: np.ndarray, q: int, partial: np.ndarray, tu: np.ndarray) -> np.ndarray:
    """Maximize the surrogate ``Re tr(U Z) / (sqrt(r) ||X C||_F)`` exactly
    over party ``q``'s factor ``A``, given ``partial``, the (n, 8, k) image
    of ``C`` under the other two factors, and ``tu = conj(T) U^T``.

    ``Re tr(U Z) = Re sum(tu * X C)`` is linear in ``A``, ``sum_ij A_ij
    c_ij``, and ``||X C||_F^2`` is ``tr(A G A^dag)`` for the Gram ``G`` of
    ``partial``; by Cauchy-Schwarz the ratio peaks at ``A ~ conj(c) G^-1``.
    Restarts whose ``G`` has condition number above 1e12, or whose ``U`` is
    zero, keep their factor.
    """
    w, gram, _, ok = _party_gram(partial, q)
    conj_c = _party_first(tu.conj(), q) @ w.conj().transpose(0, 2, 1)
    adjugate = -gram  # G^-1 is the adjugate over det > 0
    adjugate[:, 0, 0], adjugate[:, 1, 1] = gram[:, 1, 1], gram[:, 0, 0]
    step = _unit_spectral(_product2(conj_c, adjugate[:, None])[:, 0])
    ok &= np.abs(step).max(axis=(1, 2)) > 0
    out = fac.copy()
    out[ok, q] = step[ok]
    return out


def _extrapolate(state: tuple, new: np.ndarray, bar: np.ndarray, score, rescore) -> tuple[tuple, np.ndarray]:
    """End a sweep of an interior pool on ``(factors, value, aux, beta)``:
    ``value`` is minimized, ``aux`` is what the next sweep needs at the
    factors, and ``beta`` is each restart's extrapolation factor.

    ``new`` holds the factors the sweep's block steps reached from ``old``,
    and ``bar`` a value between ``new``'s and ``old``'s.  ``score(ext)``
    returns the extrapolated point's ``(value, aux)``, ``_INVALID`` where it
    is not admissible; it is taken when valid and at most ``bar``, else
    ``rescore(rows)`` gives ``new``'s on the rows that keep it.  A restart
    stays live while its sweep lowers ``value`` by more than ``_STALL_GAIN``.
    """
    old, value, _, beta = state
    ext = _unit_spectral(new + beta[:, None, None, None] * (new - old))
    ext_value, ext_aux = score(ext)
    keep = ~((ext_value <= bar) & (ext_value < _INVALID))
    if keep.any():
        ext[keep] = new[keep]
        ext_value[keep], ext_aux[keep] = rescore(keep)
    return (ext, ext_value, ext_aux, np.where(keep, 1.0, beta * _BETA_GROWTH)), value - ext_value > _STALL_GAIN


def _ascent_sweep(state: tuple, basis: np.ndarray, tdag: np.ndarray) -> tuple[tuple, np.ndarray]:
    """One sweep of the fidelity ascent on ``(factors, value, U, beta)``,
    with ``value`` the negative fidelity and ``U`` the polar factor at the
    factors: three block steps (:func:`_block_step`) under that one ``U``,
    then the extrapolation (:func:`_extrapolate`) with the surrogate at the
    end point as the bar: ``f(old) <= s(new) <= f(new)``.  The steps share
    party 0's image of ``C``, and the end point's image ``Y`` is party 2
    applied to the last step's.  ``tdag`` is ``T^dag``."""
    old, _, unitary, _ = state
    tu = _shared_left(tdag.T, unitary.transpose(0, 2, 1))
    new = _block_step(old, 0, _apply_factors(old, basis, skip=0), tu)
    head = _apply_party(new[:, 0], basis[None], 0)
    new = _block_step(new, 1, _apply_party(new[:, 2], head, 2), tu)
    partial = _apply_party(new[:, 1], head, 1)
    new = _block_step(new, 2, partial, tu)
    y = _apply_party(new[:, 2], partial, 2)
    bar = _scaled_fidelity((tu * y).sum(axis=(1, 2)).real, y, tdag.shape[0])
    return _extrapolate(state, new, bar, lambda ext: _fidelity_at(_apply_factors(ext, basis), tdag),
                        lambda rows: _fidelity_at(y[rows], tdag))


def _collapsed(fac: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Restarts whose three factors are all rank one at a success
    probability of at least ``_FREEZE_PROBABILITY``: filters ``|v><u|`` that
    output the product state ``|v>``."""
    det = np.abs(fac[..., 0, 0] * fac[..., 1, 1] - fac[..., 0, 1] * fac[..., 1, 0])
    norm2 = (fac.real ** 2 + fac.imag ** 2).sum(axis=(-2, -1))
    return (det <= _RANK_ONE_TOL * norm2).all(axis=1) & (prob >= _FREEZE_PROBABILITY)


def _output_states(fac: np.ndarray) -> list[np.ndarray]:
    """Per party, the (n, 2) unit output state ``v`` of rank-one (n, 3, 2, 2)
    factors ``A ~ |v><u|``: the longer column of ``A``, normalized."""
    cols = np.swapaxes(fac, -1, -2)
    norm2 = (cols.real ** 2 + cols.imag ** 2).sum(axis=-1)
    longer = np.take_along_axis(cols, norm2.argmax(axis=-1)[..., None, None], axis=-2)[..., 0, :]
    out = longer / np.sqrt(norm2.max(axis=-1))[..., None]
    return [out[:, q] for q in range(3)]


def _witness_sweep(state: tuple, basis: np.ndarray, span: np.ndarray, parties: list) -> tuple[tuple, np.ndarray]:
    """One sweep of the witness descent on ``(factors, value, prob, beta)``,
    with the witness ``value`` and success probability ``prob`` at the
    factors: three block steps (:func:`_witness_step`) on ``parties[q] =
    _party_span(span, q)`` that share party 0's image of ``C`` and hand on
    their scores, then the extrapolation (:func:`_extrapolate`) with the end
    point's value as the bar.  A restart the sweep leaves
    :func:`_collapsed` stops; the boundary probe finishes it."""
    new = _witness_step(*state[:3], 0, _apply_factors(state[0], basis, skip=0), *parties[0])
    head = _apply_party(new[0][:, 0], basis[None], 0)
    new = _witness_step(*new, 1, _apply_party(new[0][:, 2], head, 2), *parties[1])
    new = _witness_step(*new, 2, _apply_party(new[0][:, 1], head, 1), *parties[2])

    def score(ext):
        value, prob = _witness_value(_apply_factors(ext, basis), span)
        return np.where(prob >= _FREEZE_PROBABILITY, value, _INVALID), prob
    state, moving = _extrapolate(state, new[0], new[1], score, lambda rows: (new[1][rows], new[2][rows]))
    return state, moving & ~_collapsed(state[0], state[2])


def _probe_sweep(state: tuple, descent) -> tuple[tuple, np.ndarray]:
    """One sweep of the boundary probe by ``descent``, the product-vector
    search's exact descent on the target's span, built once by the caller
    (:func:`~upbkit.product_search._descent_sweep`), with a start live while
    its sweep lowers the weight by more than ``_STALL_GAIN``."""
    new, _ = descent(state)
    return new, state[-1] - new[-1] > _STALL_GAIN


def minimize_span_overlap(source: UPB, target: UPB, config: GapSearchConfig | None = None) -> tuple[float, str, list, list]:
    """Empirical minimum of the witness functional over the filtering orbit
    of ``source`` and its boundary.

    Runs the interior pool (:func:`_witness_sweep`), then the boundary
    probe (:func:`_probe_sweep`) on its random starts and, in the same
    batch, on the product states of the witness restarts that collapsed to
    rank-one filters.  Returns ``(delta, argmin_kind, interior_optima,
    boundary_optima)``: a collapsed restart's interior optimum is the weight
    its descent ends at, and the kind is ``"interior"`` only when the
    interior minimum lies more than ``ARGMIN_TIE_TOL`` below the
    boundary's.
    """
    config = config or GapSearchConfig()
    basis, span = source.complement_basis, target.span_basis
    rng = np.random.default_rng(config.seed)
    fac = _interior_starts(rng, config.restarts)
    parties = [_party_span(span, q) for q in range(3)]
    fac, fi, prob, _ = _sweeps((fac, *_witness_value(_apply_factors(fac, basis), span), np.ones(len(fac))),
                               config.budget // 48, lambda s: _witness_sweep(s, basis, span, parties))
    done = _collapsed(fac, prob)
    starts = _unit_starts(rng, BOUNDARY_STARTS, (2, 2, 2))
    starts = [np.concatenate([s, v]) for s, v in zip(starts, _output_states(fac[done]))]
    descent = _descent_sweep(span, (2, 2, 2), finest_partition(3))
    *_, weight = _sweeps((*starts, np.concatenate([np.full(BOUNDARY_STARTS, np.inf), fi[done]])),
                         BOUNDARY_BUDGET // 12, lambda s: _probe_sweep(s, descent))
    fb, fi[done] = weight[:BOUNDARY_STARTS], weight[BOUNDARY_STARTS:]
    kind = "boundary" if fi.min() >= fb.min() - ARGMIN_TIE_TOL else "interior"
    return max(float(min(fi.min(), fb.min())), 0.0), kind, fi.tolist(), fb.tolist()


def maximize_fidelity(source: UPB, target: UPB, config: GapSearchConfig | None = None) -> tuple[float, DensityMatrix | None, list]:
    """Empirical maximum fidelity between the target's bound entangled state
    and single-filter outputs of the source's.

    Runs the fidelity ascent (:func:`_ascent_sweep`).  Returns
    ``(fidelity, state, fidelity_optima)``, with ``state`` the best filter's
    output re-scored through :func:`apply_filter`.
    """
    config = config or GapSearchConfig()
    basis, tdag = source.complement_basis, target.complement_basis.conj().T
    fac = _interior_starts(np.random.default_rng(config.seed + 1), config.restarts)
    fac, fi, _, _ = _sweeps((fac, *_fidelity_at(_apply_factors(fac, basis), tdag), np.ones(len(fac))),
                            config.budget // 48, lambda s: _ascent_sweep(s, basis, tdag))
    state, _ = apply_filter(LocalFilter.from_raw(list(fac[int(np.argmin(fi))])), state_of(source))
    return min(max(-float(fi.min()), 0.0), 1.0), state, (-fi).tolist()


def _canonical_frame(upb: UPB, canon) -> UPB:
    """``upb`` itself when :func:`~upbkit.upb.canonicalize`'s witness ``canon[1]``
    is the identity map within rounding, else ``build_canonical`` of the
    triple ``canon[0]``: the class's representative in its canonical frame."""
    angles, witness = canon
    if witness.permutation == (0, 1, 2, 3) and all(np.abs(u - np.eye(2)).max() <= 1e-12 for u in witness.unitaries):
        return upb
    return build_canonical(angles)


def certify_gap(source: UPB, target: UPB, config: GapSearchConfig | None = None) -> GapCertificate:
    """Run both optimizers and assemble the non-convertibility record.

    The pools run on the canonical representatives of the two classes
    (:func:`_canonical_frame`), of the triples the record reports, so the
    record does not depend on how the inputs are written and restart 0, the
    identity filter, starts at the equivalence map of the diagonal.  The
    returned ``delta_min`` also folds in the witness value at the fidelity
    argmax (itself an orbit point), so the recorded square-root chain holds
    at that state by construction; when that value sets ``delta_min`` more
    than ``ARGMIN_TIE_TOL`` below the witness pools' minimum, ``argmin_kind``
    is ``"interior"``.
    """
    config = config or GapSearchConfig()
    canon_s, canon_t = canonicalize(source), canonicalize(target)
    if match_canonical(source, target, canon_s, canon_t) is not None:
        raise InputError("source and target are equivalent; the gap is undefined")
    source, target = _canonical_frame(source, canon_s), _canonical_frame(target, canon_t)
    delta, argmin_kind, interior_optima, boundary_optima = minimize_span_overlap(source, target, config)
    fmax, argmax_state, fidelity_optima = maximize_fidelity(source, target, config)
    overlap_at_argmax = span_overlap(target, argmax_state)
    if overlap_at_argmax < delta - ARGMIN_TIE_TOL:
        argmin_kind = "interior"
    delta = min(delta, overlap_at_argmax)
    perp = np.eye(target.total_dim, dtype=complex) - target.span_projector
    w = _sandwich_spectrum(perp, argmax_state.matrix)
    return GapCertificate(
        source_angles=canon_s[0].as_tuple(),
        target_angles=canon_t[0].as_tuple(),
        delta_min=delta,
        fidelity_max=fmax,
        argmin_kind=argmin_kind,
        span_overlap_at_argmax=overlap_at_argmax,
        perp_weight_at_argmax=float(w.sum()),
        perp_root_trace_at_argmax=float(np.sqrt(w).sum()),
        interior_optima=tuple(interior_optima),
        boundary_optima=tuple(boundary_optima),
        fidelity_optima=tuple(fidelity_optima),
        config=config,
    )
