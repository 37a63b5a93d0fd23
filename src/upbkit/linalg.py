"""Dense complex linear algebra for small multipartite Hilbert spaces.

Everything here works on plain numpy arrays plus one light wrapper type,
:class:`DensityMatrix`.  Dimensions are runtime
values so qubit and qutrit systems share one code path; nothing is tuned
beyond total dimension 16.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

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
        if np.abs(matrix - matrix.conj().T).max() > DENSITY_HERMITICITY_TOL:
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
    n = len(rho.dims)
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


def partial_transpose(rho, parties: Iterable[int], dims: Sequence[int] | None = None) -> np.ndarray:
    """Transpose the factors of ``parties``, a non-empty proper subset of
    the parties: one side of a bipartite cut.

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
    parties = set(int(p) for p in parties)
    if not parties or not parties < set(range(n)):
        raise ValueError(f"parties {sorted(parties)} are not a non-empty proper subset of 0..{n - 1}")
    tensor = matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    for p in parties:
        axes[p], axes[p + n] = axes[p + n], axes[p]
    total = int(np.prod(dims))
    return tensor.transpose(axes).reshape(total, total)


def _clip_spectrum(w: np.ndarray) -> np.ndarray:
    # square roots amplify O(1e-17) zero-mode noise to O(1e-9); a 1e-14 floor
    # keeps reconstruction errors well inside every stated tolerance
    return np.where(w < 1e-14, 0.0, w)


def _sandwich_spectrum(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Clipped eigenvalues of the Hermitian ``A M A``, batched over the
    leading axes of ``m``; negative rounding noise is clipped to 0."""
    inner = a @ m @ a
    return _clip_spectrum(np.linalg.eigvalsh((inner + np.swapaxes(inner.conj(), -1, -2)) / 2))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``tr sqrt(sqrt(rho) sigma sqrt(rho))`` in [0, 1]."""
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    w, v = np.linalg.eigh((rho.matrix + rho.matrix.conj().T) / 2)
    root = (v * np.sqrt(_clip_spectrum(w))) @ v.conj().T
    value = float(np.sqrt(_sandwich_spectrum((root + root.conj().T) / 2, sigma.matrix)).sum())
    return min(max(value, 0.0), 1.0)


def complement_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of the
    columns of the matrix ``vectors``, which must be linearly independent;
    no columns give a basis of the whole space."""
    v = np.asarray(vectors, dtype=complex)
    d, k = v.shape
    if k == 0:
        return np.eye(d, dtype=complex)
    if k > d:
        raise ValueError(f"cannot take complement of {k} vectors in dimension {d}")
    u, s, _ = np.linalg.svd(v, full_matrices=True)
    if s.min() <= 1e-10 * max(s.max(), 1.0):
        raise ValueError("input vectors are rank deficient")
    return u[:, k:]


def orthonormality_error(vectors: np.ndarray) -> float:
    """Max deviation of the Gram matrix of row vectors from the identity (0 if none)."""
    g = vectors @ vectors.conj().T
    return float(np.abs(g - np.eye(g.shape[0])).max(initial=0.0))


def _sweeps(state: tuple, sweeps: int, sweep) -> tuple:
    """Up to ``sweeps`` calls of ``sweep`` over a batch of restarts, each call
    run only on the live ones: the one driver of every batched multistart
    loop (the gap pools of :mod:`upbkit.filtering` and the product-state
    descent of :mod:`upbkit.product_search`).

    ``state`` is a tuple of arrays whose leading axis runs over the restarts,
    and ``sweep(state)`` returns the next state and, per restart, whether it
    stays live.  A sweep maps each restart on its own, by arithmetic that
    does not depend on the rest of the batch, so a restart that leaves the
    batch keeps the row its last sweep gave it, and every row equals that
    of sweeping the whole batch with the same per-restart stop.
    """
    out = tuple(np.empty_like(a) for a in state)
    live = np.arange(len(state[0]))
    for _ in range(sweeps):
        if not live.size:
            break
        state, moving = sweep(state)
        for o, a in zip(out, state):
            o[live[~moving]] = a[~moving]
        live, state = live[moving], tuple(a[moving] for a in state)
    for o, a in zip(out, state):
        o[live] = a
    return out
