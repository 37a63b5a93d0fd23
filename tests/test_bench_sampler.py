"""The benchmark's speed sampler must scale a round that ends before its
first sample, which is due ``INTERVAL_S`` after the sampler is entered.

Today it cannot: with no sample at all, ``Sampler.factor`` passes an empty
list to ``statistics.fmean`` (the ``FOUND`` note on ``bench/calibrate.py``
in ``CHANGES.md``).  The test is a strict expected failure while that holds,
and becomes a regression test once the sampler is fixed."""

import importlib.util
import math
import statistics
from pathlib import Path
from time import perf_counter

import pytest

CALIBRATE = Path(__file__).resolve().parents[1] / "bench" / "calibrate.py"


@pytest.mark.xfail(strict=True, raises=statistics.StatisticsError,
                   reason="Sampler.factor has no sample to scale by before the first one")
def test_round_before_the_first_sample_gets_a_factor():
    spec = importlib.util.spec_from_file_location("bench_calibrate", CALIBRATE)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    with calibrate.Sampler() as sampler:
        t = perf_counter()
        factor = sampler.factor(t, t + 0.017)
    assert math.isfinite(factor) and factor > 0
