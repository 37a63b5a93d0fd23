"""Names looked up on upbkit must resolve.  The benchmark's traced runs wrap
upbkit functions by name; a rename or a deletion of one of them must fail
here rather than in a traced run.  The package's ``__all__`` is kept by
hand, so each of its names must resolve and appear once."""

import importlib.util
from pathlib import Path

import upbkit
import upbkit.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    main = upbkit.cli.main
    # installing runs getattr on every (module, name) in TRACED
    with spans.Tracer().installed():
        assert upbkit.cli.main is not main
    assert upbkit.cli.main is main


def test_every_exported_name_resolves_once():
    assert len(upbkit.__all__) == len(set(upbkit.__all__))
    for name in upbkit.__all__:
        assert hasattr(upbkit, name), name
