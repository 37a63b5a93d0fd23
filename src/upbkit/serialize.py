"""Shared wire formats.

Complex scalars serialize as two-element real arrays ``[re, im]``, matrices as
nested row-major arrays.  A UPB document carries ``dims`` and ``members``
(each member a list of per-party factors); the canonical-angle shorthand
``{"canonical": [tA, tB, tC]}`` is accepted wherever a UPB document is.
"""

from __future__ import annotations

import cmath
import json
from typing import Any

import numpy as np

SCHEMA_VERSION = 4


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected [re, im] pair, got {pair!r}")
    z = complex(float(pair[0]), float(pair[1]))
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite value in {pair!r}")
    return z


def vector_to_lists(v: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def vector_from_lists(data) -> np.ndarray:
    return np.array([pair_to_complex(p) for p in data], dtype=complex)


def matrix_to_lists(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_pair(z) for z in row] for row in m]


def upb_to_document(upb) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "dims": list(upb.dims),
        "members": [[vector_to_lists(f) for f in m.factors] for m in upb.members],
    }


class InputError(ValueError):
    """A value from outside the program that the library refuses: a
    malformed document, a bad config or partition, or a family of the wrong
    kind.  The CLI exits 3 on it; every other ``ValueError`` is numerical."""


def upb_from_document(doc: dict):
    """Build a UPB from a document; accepts the canonical-angle shorthand and
    whole CLI reports (the ``result`` of ``upbkit build``).

    Faults of the document itself (a ``dims`` that is not a non-empty list
    of integers of at least 1, a factor that does not match ``dims``) and
    canonical angles outside (0, pi) raise :class:`InputError`; a
    well-formed document whose members are not an orthonormal family raises
    ``ValueError``.  The UPB's dims are its members'.
    """
    from .upb import UPB, CanonicalAngles, ProductState, build_canonical

    if not isinstance(doc, dict):
        raise InputError("UPB document must be a mapping")
    if "members" not in doc and "canonical" not in doc and isinstance(doc.get("result"), dict):
        doc = doc["result"]
    if "canonical" in doc:
        angles = doc["canonical"]
        if not isinstance(angles, (list, tuple)) or len(angles) != 3:
            raise InputError("canonical shorthand requires three angles")
        try:
            angles = [float(a) for a in angles]
        except (TypeError, ValueError) as exc:
            raise InputError(f"canonical angles must be numbers: {exc}") from exc
        return build_canonical(CanonicalAngles(*angles))
    try:
        dims = doc["dims"]
        members = [[vector_from_lists(f) for f in raw] for raw in doc["members"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed UPB document: {exc}") from exc
    if not isinstance(dims, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise InputError(f"dims {dims!r} must be a list of integers")
    if not dims or min(dims) < 1:
        raise InputError(f"dims {dims} must be a non-empty list of positive sizes")
    if not members:
        raise InputError("a UPB document needs at least one member")
    for factors in members:
        if len(factors) != len(dims):
            raise InputError(f"member has {len(factors)} factors, expected {len(dims)}")
        for f, d in zip(factors, dims):
            if f.shape != (d,):
                raise InputError(f"factor of length {f.shape[0]} does not match dim {d}")
    return UPB([ProductState(factors) for factors in members])


def dumps_report(report: dict) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
