"""Three-qubit unextendible product bases: construction, canonical angles,
equivalence testing, and the associated bound entangled states.

An equivalence class of three-qubit UPBs is labeled by an angle triple in the
open box (0, pi)^3; ``canonicalize`` recovers the triple from any member
ordering and any local-unitary dressing, and ``equivalent`` reduces the
equivalence decision to comparing triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import graphs as graphs_mod
from .linalg import DensityMatrix, complement_basis, kron_all, orthonormality_error
from .product_search import is_extendible
from .serialize import InputError

ORTHONORMALITY_TOL = 1e-10
FACTOR_NORM_TOL = 1e-12
BOUNDARY_TOL = 1e-8
ANGLE_MATCH_TOL = 1e-8
UNITARITY_TOL = 1e-10

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def qubit_state(theta: float) -> np.ndarray:
    """``cos(theta/2)|0> + sin(theta/2)|1>``."""
    return np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)


def perp_qubit(v: np.ndarray) -> np.ndarray:
    """The qubit state orthogonal to ``v`` (fixed phase convention)."""
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)


class ProductState:
    """A pure product state: per-party unit factors plus the expanded tensor."""

    __slots__ = ("factors", "tensor")

    def __init__(self, factors: Sequence[np.ndarray]):
        fs = []
        for f in factors:
            f = np.asarray(f, dtype=complex).reshape(-1)
            if not abs(np.linalg.norm(f) - 1.0) <= FACTOR_NORM_TOL:
                raise ValueError(f"factor norm {np.linalg.norm(f)} not 1 within 1e-12")
            f.setflags(write=False)
            fs.append(f)
        tensor = kron_all(fs)
        tensor.setflags(write=False)
        object.__setattr__(self, "factors", tuple(fs))
        object.__setattr__(self, "tensor", tensor)

    def __setattr__(self, name, value):
        raise AttributeError("ProductState is immutable")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def __repr__(self) -> str:
        return f"ProductState(dims={self.dims})"


class UPB:
    """An ordered orthonormal family of product states; its ``dims`` are the
    members' party dimensions, which must agree.

    Pairwise orthonormality (within 1e-10) is enforced at construction; the
    unextendibility claim is checked separately by :func:`validate`, which
    decides it exactly from the members' local factors.
    """

    __slots__ = ("dims", "members", "span_basis", "complement_basis")

    def __init__(self, members: Sequence[ProductState]):
        members = tuple(members)
        if not members:
            raise ValueError("a UPB needs at least one member")
        mdims = members[0].dims
        if any(m.dims != mdims for m in members):
            raise ValueError("members have inconsistent party dimensions")
        stack = np.array([m.tensor for m in members])
        gram_err = orthonormality_error(stack)
        if not gram_err <= ORTHONORMALITY_TOL:
            raise ValueError(f"members are not orthonormal within 1e-10 (error {gram_err})")
        span = stack.T.copy()
        comp = complement_basis(span)
        span.setflags(write=False)
        comp.setflags(write=False)
        object.__setattr__(self, "dims", mdims)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "span_basis", span)
        object.__setattr__(self, "complement_basis", comp)

    def __setattr__(self, name, value):
        raise AttributeError("UPB is immutable")

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def span_projector(self) -> np.ndarray:
        return self.span_basis @ self.span_basis.conj().T

    def __repr__(self) -> str:
        return f"UPB(dims={self.dims}, n={self.n})"


@dataclass(frozen=True)
class CanonicalAngles:
    """The triple labeling a three-qubit UPB equivalence class."""

    theta_a: float
    theta_b: float
    theta_c: float

    def __post_init__(self):
        for name, t in zip("abc", self.as_tuple()):
            if not 0.0 < t < math.pi:
                raise InputError(f"theta_{name}={t} outside the open interval (0, pi)")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta_a, self.theta_b, self.theta_c)


@dataclass(frozen=True)
class EquivalenceWitness:
    """Local unitaries and a member permutation matching one UPB to another.

    ``unitaries[x] (x) ...`` maps source member ``j`` onto target member
    ``permutation[j]`` up to phase, with the worst member mismatch recorded.
    """

    permutation: tuple[int, ...]
    unitaries: tuple[np.ndarray, ...]
    max_error: float

    def __post_init__(self):
        for u in self.unitaries:
            if not orthonormality_error(u) <= UNITARITY_TOL:
                raise ValueError("witness factor is not unitary within 1e-10")


def witness_error(witness: EquivalenceWitness, source: UPB, target: UPB) -> float:
    """Worst phase-aligned mismatch of the witness mapping source to target."""
    worst = 0.0
    for j, m in enumerate(source.members):
        mapped = kron_all(u @ f for u, f in zip(witness.unitaries, m.factors))
        t = target.members[witness.permutation[j]].tensor
        ov = np.vdot(t, mapped)
        phase = ov / abs(ov) if abs(ov) > 0 else 1.0
        worst = max(worst, float(np.linalg.norm(mapped - phase * t)))
    return worst


def build_canonical(angles: CanonicalAngles) -> UPB:
    """The canonical four-member representative of the class ``angles``."""
    a = qubit_state(angles.theta_a)
    b = qubit_state(angles.theta_b)
    c = qubit_state(angles.theta_c)
    members = [
        ProductState([KET0, KET0, KET0]),
        ProductState([KET1, b, c]),
        ProductState([a, KET1, perp_qubit(c)]),
        ProductState([perp_qubit(a), perp_qubit(b), KET1]),
    ]
    return UPB(members)


def shifts() -> UPB:
    """The Shifts UPB: ``{|000>, |1,-,+>, |+,1,->, |-,+,1>}``."""
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)
    members = [
        ProductState([KET0, KET0, KET0]),
        ProductState([KET1, minus, plus]),
        ProductState([plus, KET1, minus]),
        ProductState([minus, plus, KET1]),
    ]
    return UPB(members)


def state_of(upb: UPB) -> DensityMatrix:
    """The bound entangled state: normalized projector onto the span complement."""
    d = upb.total_dim
    if upb.n >= d:
        raise InputError(f"span complement is trivial: the {upb.n} members span the whole space")
    proj = np.eye(d, dtype=complex) - upb.span_projector
    rho = (proj + proj.conj().T) / (2 * (d - upb.n))
    return DensityMatrix(upb.dims, rho)


def orthogonality_graphs(family) -> tuple["graphs_mod.PartyGraph", ...]:
    """Per-party orthogonality graphs: edge (i, j) iff the local factors are
    orthogonal.  Accepts a UPB or any sequence of product states."""
    members = family.members if isinstance(family, UPB) else tuple(family)
    n = len(members)
    out = []
    for p in range(len(members[0].dims)):
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                ov = np.vdot(members[i].factors[p], members[j].factors[p])
                if abs(ov) <= ORTHONORMALITY_TOL:
                    edges.add((i, j))
        out.append(graphs_mod.PartyGraph(n, frozenset(edges)))
    return tuple(out)


def canonicalize(upb: UPB) -> tuple[CanonicalAngles, EquivalenceWitness]:
    """Recover the canonical angles of a three-qubit UPB.

    Each party's orthogonality graph of a UPB is a perfect matching (the one
    K4 coloring with no extension), so once member 0 is rotated onto |000>
    its one partner on party A, B or C fills slot 1, 2 or 3.  Angles come
    from factor magnitudes, which realizes the theta ~ -theta folding into
    (0, pi), and the phases go into the witness, which maps the input onto
    ``build_canonical`` of the angles.  Two partners on one party put an
    angle within 2e-8 of 0 or pi (a "boundary" error); a party with none is
    not a UPB.  Each of these faults of the input raises :class:`InputError`.
    """
    if upb.dims != (2, 2, 2) or upb.n != 4:
        raise InputError(f"{upb!r} is not a four-member three-qubit UPB")
    base = [np.array([x, perp_qubit(x)]).conj() for x in upb.members[0].factors]
    rotated = [[b @ f for b, f in zip(base, m.factors)] for m in upb.members]
    partners = [[k for k in (1, 2, 3) if abs(rotated[k][p][0]) <= BOUNDARY_TOL] for p in range(3)]
    if all(partners) and max(map(len, partners)) > 1:
        raise InputError("canonical angle lands on the boundary of (0, pi): degenerate family")
    order = [0] + [ks[0] for ks in partners if ks]
    if len(set(order)) < 4:
        raise InputError("member 0 lacks a distinct orthogonality partner per party; not a valid UPB")
    seeds = (rotated[order[2]][0], rotated[order[1]][1], rotated[order[1]][2])  # |A>, |B>, |C>
    angles = CanonicalAngles(*(2 * math.atan2(abs(s[1]), abs(s[0])) for s in seeds))
    unitaries = tuple(np.diag([np.conj(s[0]) / abs(s[0]), np.conj(s[1]) / abs(s[1])]) @ b
                      for s, b in zip(seeds, base))
    perm = tuple(order.index(j) for j in range(4))
    err = witness_error(EquivalenceWitness(perm, unitaries, 0.0), upb, build_canonical(angles))
    if not err <= 1e-6:
        raise InputError("member 0's partners do not give the canonical structure; not a valid UPB")
    return angles, EquivalenceWitness(perm, unitaries, err)


def equivalent(s: UPB, t: UPB) -> EquivalenceWitness | None:
    """Witness that ``s`` and ``t`` are the same class, or None.

    Decided by comparing canonical angles (a complete invariant); the witness
    composes the two canonicalization witnesses.
    """
    return match_canonical(s, t, canonicalize(s), canonicalize(t))


def match_canonical(s: UPB, t: UPB, canon_s, canon_t) -> EquivalenceWitness | None:
    """:func:`equivalent` from the :func:`canonicalize` results of ``s`` and
    ``t``, for callers that also need the angles."""
    angles_s, w_s = canon_s
    angles_t, w_t = canon_t
    diff = max(abs(x - y) for x, y in zip(angles_s.as_tuple(), angles_t.as_tuple()))
    if diff > ANGLE_MATCH_TOL:
        return None
    inv_t = [0] * 4
    for j, slot in enumerate(w_t.permutation):
        inv_t[slot] = j
    perm = tuple(inv_t[w_s.permutation[j]] for j in range(4))
    unitaries = tuple(ut.conj().T @ us for us, ut in zip(w_s.unitaries, w_t.unitaries))
    witness = EquivalenceWitness(perm, unitaries, 0.0)
    err = witness_error(witness, s, t)
    return EquivalenceWitness(perm, unitaries, err)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the full UPB check; failures are reported, not raised."""

    dims: tuple[int, ...]
    n_members: int
    orthonormality_error: float
    member_count_ok: bool
    unextendible: bool
    extension: object | None
    party_graphs: tuple

    @property
    def passed(self) -> bool:
        return self.member_count_ok and self.unextendible


def validate(upb: UPB) -> ValidationReport:
    """Check member count and unextendibility, and measure orthonormality.

    A three-qubit UPB has four members; any other UPB has fewer members than
    its space's dimension, as it leaves a nonzero complement.  Productness and orthonormality need no check: :class:`ProductState`
    enforces the first and :class:`UPB` the second (within 1e-10), so
    ``orthonormality_error`` is reported as a number only.  The
    unextendibility flag is exact (:func:`is_extendible` decides it from the
    members' local factors); a family whose verdict hinges on a rank decision
    within rounding raises :class:`~upbkit.product_search.RankAmbiguityError`.
    """
    orth = orthonormality_error(np.array([m.tensor for m in upb.members]))
    count_ok = upb.n == 4 if upb.dims == (2, 2, 2) else upb.n < upb.total_dim
    hit = is_extendible(upb.members)
    return ValidationReport(
        dims=upb.dims,
        n_members=upb.n,
        orthonormality_error=orth,
        member_count_ok=count_ok,
        unextendible=hit is None,
        extension=hit,
        party_graphs=orthogonality_graphs(upb),
    )


def scrambled(upb: UPB, rng: np.random.Generator) -> tuple[UPB, tuple[np.ndarray, ...], tuple[int, ...]]:
    """Dress a UPB with random local unitaries and a random member permutation.

    Returns the scrambled UPB plus the applied unitaries and permutation
    (member ``j`` of the input appears at position ``perm[j]``).
    """
    us = []
    for d in upb.dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        us.append(q)
    order = rng.permutation(upb.n)
    members = [None] * upb.n
    perm = [0] * upb.n
    for pos, j in enumerate(order):
        members[pos] = ProductState([u @ f for u, f in zip(us, upb.members[j].factors)])
        perm[j] = pos
    return UPB(members), tuple(us), tuple(perm)
