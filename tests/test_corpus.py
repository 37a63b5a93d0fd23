"""Replay of the certificate corpus, ``tests/data/certify_corpus.json``.

Each entry names a pair of canonical triples, scrambled where it gives a
``scramble_seed``, and the ``delta_min``, ``fidelity_max`` and
``argmin_kind`` that ``certify_gap`` gives at the corpus's config, with the
tolerances the file states and how they were set.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from upbkit import CanonicalAngles, GapSearchConfig, build_canonical, certify_gap
from upbkit.upb import scrambled

CORPUS = json.loads((Path(__file__).parent / "data" / "certify_corpus.json").read_text())


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=lambda e: e["name"])
def test_certificate_corpus(entry):
    source, target = (build_canonical(CanonicalAngles(*entry[k])) for k in ("source", "target"))
    if entry["scramble_seed"] is not None:
        rng = np.random.default_rng(entry["scramble_seed"])  # source first
        source, target = (scrambled(u, rng)[0] for u in (source, target))
    cert = certify_gap(source, target, GapSearchConfig(**CORPUS["config"]))
    assert abs(cert.delta_min - entry["delta_min"]) <= entry["delta_rtol"] * entry["delta_min"]
    assert abs(cert.fidelity_max - entry["fidelity_max"]) <= entry["fidelity_atol"]
    assert cert.argmin_kind == entry["argmin_kind"]
    assert cert.consistent
