"""Two-qutrit UPB support: the bundled Tiles and Pyramid families and the
search for the extra product vectors hiding in their spans.

Unlike the three-qubit case, a two-qutrit UPB's span holds more product
vectors than its five members; for the bundled families the search finds
exactly one extra each.  The member definitions ship as data files, so every
correctness claim rests on checks the toolkit performs itself.
"""

from __future__ import annotations

import json
from importlib import resources

from .product_search import ProductVectorHit, SearchConfig, Subspace, find_product_vectors
from .serialize import InputError, upb_from_document
from .upb import UPB

BUNDLED = ("tiles", "pyramid")

# a grid of 12 finds the six product vectors of each bundled span; on those
# spans no start has run more than 11 of the default 60 sweeps (grids 8-16,
# seeds 0-39)
QUTRIT_SEARCH = SearchConfig(grid_resolution=12)


def bundled_upb(name: str) -> UPB:
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled UPB {name!r}; available: {BUNDLED}")
    text = resources.files("upbkit.data").joinpath(f"{name}.json").read_text()
    return upb_from_document(json.loads(text))


def extra_product_vectors(
    upb: UPB, config: SearchConfig | None = None
) -> tuple[list[ProductVectorHit], list[ProductVectorHit]]:
    """Product vectors in the span of a two-party UPB, for the bipartite
    partition: ``(hits, extras)``, where ``hits`` is every vector the search
    found (members included) and ``extras`` those that are not members.
    The span is searched on the complement the UPB holds."""
    if len(upb.dims) != 2:
        raise InputError(f"{upb!r} is not a two-party UPB")
    sub = Subspace(upb.dims, upb.complement_basis).complement()
    hits = find_product_vectors(sub, [(0,), (1,)], config or QUTRIT_SEARCH)
    extras = [h for h in hits if not any(h.matches(m.factors) for m in upb.members)]
    return hits, extras
