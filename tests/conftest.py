"""Shared fixtures: the reference profile and its staged builds.

The builds are deterministic, so every frozen constant in the test
files was produced by exactly these calls.
"""
import pytest
from hypothesis import settings

from dfourier.measure import _export_band, build_measure
from dfourier.profile import power_law_profile
from dfourier.series import series_multiply

# modest example counts keep the property tests fast; derandomize makes
# the whole suite reproducible run to run
settings.register_profile("suite", max_examples=60, derandomize=True,
                          deadline=None)
settings.load_profile("suite")

ETA = 0.3
EPS = 0.05


@pytest.fixture(scope="session")
def reference_profile():
    return power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3)


@pytest.fixture(scope="session")
def st0(reference_profile):
    """Window-only measure: no bucket factors."""
    return build_measure(reference_profile, eta=ETA, eps=EPS, stages=0)


@pytest.fixture(scope="session")
def st1(reference_profile):
    """One-stage measure; also what the reference run actually produces."""
    return build_measure(reference_profile, eta=ETA, eps=EPS, stages=1)


@pytest.fixture(scope="session")
def st2(reference_profile):
    """Two-stage measure; the second factor is band-capped, so its
    stored tail bound is honest but large."""
    return build_measure(reference_profile, eta=ETA, eps=EPS, stages=2)


@pytest.fixture(scope="session")
def density():
    """The normalized density series of a stage, ``gfactors`` times h0.

    Cut at the export band like ``gfactors``.  Where ``gfactors`` is
    itself cut there (two stages and up), the outermost h0 half-band of
    coefficients on each side misses the product terms beyond the cut;
    the product's tail bound prices that.
    """
    def of(stage):
        h0 = stage.config.h0()
        full = series_multiply(stage.gfactors, h0)
        return full.slice_to(min(_export_band(stage.config, h0),
                                 full.half_bandwidth))
    return of
