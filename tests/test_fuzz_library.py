"""Fuzzing the library: every computing call returns, or raises a documented
WeakMeterError other than InternalConsistencyError, with no floating-point
warning.

Observable entries, couplings and pointer widths are scaled by
10^U(-300, 300), or left at 1 so that projector observables stay
projectors.  The calls are the computing names of `weakmeter.__all__`.
Warnings are raised as errors, because a caller would see them printed.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakmeter import (
    GaussianPointer,
    GridSpec,
    HermitianObservable,
    InternalConsistencyError,
    MeasurementSetup,
    WeakMeterError,
    check_weak_bounds,
    exact_shifts,
    grid_shifts,
    info_curve,
    jozsa_shifts,
    optimize_pps,
    probability_curve,
    schwarz_gap,
    second_order_shifts,
    weak_moments,
)
from weakmeter.sampling import random_density, random_hermitian, random_projector

EPS = np.finfo(float).eps


def _scale(n):
    # log-uniform: an integer drawn over a wide range spreads the exponent
    # evenly, where a float in [-300, 300] would crowd around 10**0
    return 10.0 ** (-300.0 + 6e-7 * n)


SCALES = st.integers(0, 10**9).map(_scale)


def _observable(kind, seed, dim, scale):
    rng = np.random.default_rng(seed)
    if kind == "projector":
        m = random_projector(rng, dim, int(rng.integers(1, dim))).matrix
    else:
        m = random_hermitian(rng, dim).matrix
    return m * scale


OBSERVABLES = st.builds(
    _observable,
    st.sampled_from(["hermitian", "projector"]),
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.one_of(st.just(1.0), SCALES),
)


def _kept(call, *args, **kwargs):
    """call(*args, **kwargs), or None where it raises a documented error."""
    try:
        return call(*args, **kwargs)
    except InternalConsistencyError:
        raise
    except WeakMeterError:
        return None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
# levels near 0 only: no projector, though A^2 - A is tiny
@example(matrix=np.diag([0.0, 1e-11]), g=1e11, delta=1.0, seed=0)
@example(matrix=np.diag([0.0, 1e-20, 2e-20]), g=1e20, delta=1.0, seed=0)
# constructed shifts past the double range
@example(matrix=np.diag([0.0, 1.0, 2.0]), g=1.7e308, delta=1.0, seed=0)
@example(matrix=np.diag([0.0, 1e10]), g=1e300, delta=1.0, seed=0)
# couplings whose 1 - G is subnormal: no envelope beyond -Delta
@example(matrix=np.diag([0.0, 1.0]), g=1e-161, delta=1.0, seed=0)
@given(matrix=OBSERVABLES, g=SCALES, delta=SCALES, seed=st.integers(0, 2**32 - 1))
def test_every_library_call_keeps_the_contract(matrix, g, delta, seed):
    rng = np.random.default_rng(seed)
    dim = len(matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs = _kept(HermitianObservable, matrix)
        pointer = GaussianPointer(delta)
        rho = random_density(rng, dim, int(rng.integers(1, dim + 1)))
        pi = random_projector(rng, dim, int(rng.integers(1, dim)))
        if obs is not None:
            setup = _kept(MeasurementSetup, obs, rho, pi, g, pointer)
            moments = _kept(weak_moments, rho, pi, obs)
            if moments is not None:
                _kept(second_order_shifts, moments, g, pointer)
                _kept(jozsa_shifts, moments.weak_value, g, pointer)
            _kept(schwarz_gap, rho, pi, obs)
            _kept(optimize_pps, obs, g, pointer)
            if setup is not None:
                _kept(exact_shifts, setup)
                _kept(check_weak_bounds, setup)
                grid = _kept(lambda: GridSpec(GridSpec.for_setup(setup).half_width, 1024))
                if grid is not None:
                    _kept(grid_shifts, setup, grid)
        _kept(probability_curve, g / 2.0, g, 3, delta, "log")
        curve = _kept(info_curve, g / 2.0, g, 3, delta)
    # the envelope's negative extreme never passes the weak-regime ceiling
    assert curve is None or all(pt.q_min >= -delta * (1.0 + 4.0 * EPS) for pt in curve), curve
