"""Dense complex linear algebra for small multipartite Hilbert spaces.

Everything here works on plain numpy arrays plus two light wrapper types
(:class:`DensityMatrix`, :class:`PartitionCut`).  Dimensions are runtime
values so qubit and qutrit systems share one code path; nothing is tuned
beyond total dimension 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
DENSITY_HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def _as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def hermiticity_error(m: np.ndarray) -> float:
    """Max-norm distance from the Hermitian cone, ``max |M - M^dag|``."""
    return float(np.abs(m - m.conj().T).max())


@dataclass(frozen=True)
class PartitionCut:
    """A bipartition of the parties into a left and a right group."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if not self.left or not self.right:
            raise ValueError("both sides of a cut must be non-empty")
        if set(self.left) & set(self.right):
            raise ValueError("cut sides must be disjoint")

    def validate_for(self, n_parties: int) -> None:
        if set(self.left) | set(self.right) != set(range(n_parties)):
            raise ValueError(
                f"cut {self.left}|{self.right} does not cover parties 0..{n_parties - 1}"
            )


class DensityMatrix:
    """A trace-one positive-semidefinite operator over declared party dimensions.

    Invariants (checked on construction): Hermitian within 1e-12, unit trace
    within 1e-12, eigenvalues above -1e-10.
    """

    __slots__ = ("dims", "matrix")

    def __init__(self, dims: Sequence[int], matrix) -> None:
        dims = tuple(int(d) for d in dims)
        matrix = _as_complex_matrix(matrix, "density matrix")
        total = int(np.prod(dims))
        if matrix.shape != (total, total):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match dims {dims} (total {total})"
            )
        if hermiticity_error(matrix) > DENSITY_HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = matrix.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within 1e-12")
        w = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)
        if w.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {w.min()} below -1e-10")
        matrix.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.dims})"


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of vectors or matrices, left to right.

    Two vectors take the flattened outer product: the same elementwise
    products as ``np.kron``, without its general-shape set-up.
    """
    out = None
    for f in factors:
        f = np.asarray(f, dtype=complex)
        if out is None:
            out = f
        elif out.ndim == f.ndim == 1:
            out = np.multiply.outer(out, f).reshape(-1)
        else:
            out = np.kron(out, f)
    if out is None:
        raise ValueError("need at least one factor")
    return out


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the parties in ``keep``; trace is preserved."""
    keep = sorted(set(int(k) for k in keep))
    n = rho.n_parties
    if not keep:
        raise ValueError("keep set must be non-empty")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep set {keep} out of range for {n} parties")
    dims = list(rho.dims)
    tensor = rho.matrix.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for idx in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    total = int(np.prod(dims))
    return DensityMatrix(dims, tensor.reshape(total, total))


def partial_transpose(rho, cut: PartitionCut, dims: Sequence[int] | None = None) -> np.ndarray:
    """Transpose the right-side factor of ``cut``.

    Accepts a :class:`DensityMatrix` or a plain matrix plus explicit ``dims``
    (so the operation can be applied to its own non-PSD output).
    """
    if isinstance(rho, DensityMatrix):
        matrix, dims = rho.matrix, rho.dims
    else:
        if dims is None:
            raise ValueError("dims required when input is a plain matrix")
        matrix = _as_complex_matrix(rho, "matrix")
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    cut.validate_for(n)
    tensor = matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    for p in cut.right:
        axes[p], axes[p + n] = axes[p + n], axes[p]
    total = int(np.prod(dims))
    return tensor.transpose(axes).reshape(total, total)


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Returns eigenvalues ascending and orthonormal eigenvector columns with
    ``V @ diag(w) @ V^dag`` reproducing the input to 1e-10 in max norm.
    """
    h = _as_complex_matrix(h, "matrix")
    if h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    if hermiticity_error(h) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return w, v


def _clip_spectrum(w: np.ndarray) -> np.ndarray:
    # square roots amplify O(1e-17) zero-mode noise to O(1e-9); a 1e-14 floor
    # keeps reconstruction errors well inside every stated tolerance
    return np.where(w < 1e-14, 0.0, w)


def _sandwich_spectrum(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Clipped eigenvalues of the Hermitian ``A M A``, batched over the
    leading axes of ``m``; negative rounding noise is clipped to 0."""
    inner = a @ m @ a
    return _clip_spectrum(np.linalg.eigvalsh((inner + np.swapaxes(inner.conj(), -1, -2)) / 2))


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-1e-10, 0) are clipped to 0."""
    w, v = eigh(m)
    if w.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {w.min()} below -1e-10: not PSD")
    w = _clip_spectrum(w)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``tr sqrt(sqrt(rho) sigma sqrt(rho))`` in [0, 1]."""
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    value = float(np.sqrt(_sandwich_spectrum(psd_sqrt(rho.matrix), sigma.matrix)).sum())
    return min(max(value, 0.0), 1.0)


def fidelity_projector_form(p_perp, rho: DensityMatrix) -> float:
    """Fidelity to the normalized rank-4 projector ``p_perp / 4``.

    Evaluates ``(1/2) tr sqrt(P rho P)``, which agrees with
    ``fidelity(P/4, rho)`` whenever ``P`` is a rank-4 orthogonal projector.
    """
    p_perp = _as_complex_matrix(p_perp, "projector")
    if hermiticity_error(p_perp) > HERMITICITY_TOL:
        raise ValueError("projector is not Hermitian within 1e-10")
    if np.abs(p_perp @ p_perp - p_perp).max() > HERMITICITY_TOL:
        raise ValueError("projector is not idempotent within 1e-10")
    return float(0.5 * np.sqrt(_sandwich_spectrum(p_perp, rho.matrix)).sum())


def complement_basis(vectors) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of ``vectors``.

    ``vectors`` is a sequence of 1-D arrays or a matrix whose columns span the
    input space; they must be linearly independent.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        v = np.asarray(vectors, dtype=complex)
    else:
        cols = [np.asarray(x, dtype=complex).reshape(-1) for x in vectors]
        v = np.column_stack(cols)
    d, k = v.shape
    if k == 0 or k > d:
        raise ValueError(f"cannot take complement of {k} vectors in dimension {d}")
    u, s, _ = np.linalg.svd(v, full_matrices=True)
    if s.min() <= 1e-10 * max(s.max(), 1.0):
        raise ValueError("input vectors are rank deficient")
    return u[:, k:]


def orthonormality_error(vectors: np.ndarray) -> float:
    """Max deviation of the Gram matrix of row vectors from the identity."""
    g = vectors @ vectors.conj().T
    return float(np.abs(g - np.eye(g.shape[0])).max())


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    diff = a.matrix - b.matrix
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.abs(w).sum())


def random_density_matrix(rng: np.random.Generator, dims: Sequence[int], rank: int | None = None) -> DensityMatrix:
    """Wishart-distributed random state, mostly for tests and probes."""
    total = int(np.prod(tuple(dims)))
    r = rank or total
    g = rng.standard_normal((total, r)) + 1j * rng.standard_normal((total, r))
    m = g @ g.conj().T
    m = m / m.trace().real
    return DensityMatrix(dims, (m + m.conj().T) / 2)
