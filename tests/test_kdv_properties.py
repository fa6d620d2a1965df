"""Property tests of the Magnus Jost sweep on reflectionless potentials.

For one soliton and for the two-soliton tau-function profile the scattering
coefficient is known in closed form, a(k) = prod_l (k - i kappa_l) /
(k + i kappa_l), and the bound states sit at the kappa_l.  The amplitudes
are drawn at random from [0.8, 2.5].  Every such profile passes the default
window's decay check, and cutting it off at |x| = 20 changes a(k) by about
exp(-40 kappa), below the 1e-11 tolerance; near kappa = 0.62, where the
decay check still passes, that cut-off alone moves a(k) by ~3e-10.

The KdV stepper carries the zero Fourier mode exactly, so the mass of an
evolved field moves only by the rounding of the final inverse transform.
That is a bound in units of eps times int |u| dx, not bit-exactness: on 200
seeded smooth fields (M = 512, 200 steps of 1e-4) the mass moved in 78, by
at most 1.7 eps int |u| dx.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamlab.kdv import (
    LinePotential,
    PeriodicField,
    analytic_soliton_a,
    bound_states,
    kdv_evolve,
    kdv_grid,
    periodic_integral,
    scattering_a,
)

PROBES = np.array([0.1, 0.6, 1.3, 2.5, 4.0, 0.2j, 0.9j, 2.7j])
KAPPA = st.floats(0.8, 2.5)
SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)


def tau_profile(kappas):
    """u = -2 (ln tau)'' for tau = sum_S A_S exp(sum_{l in S} 2 kappa_l x).

    (ln tau)'' is the variance of the slopes 2 sum_{l in S} kappa_l under
    the weights A_S exp(...) / tau, a form that stays accurate where the
    profile decays."""
    k1, k2 = kappas
    slopes = np.array([0.0, 2.0 * k1, 2.0 * k2, 2.0 * (k1 + k2)])
    log_amp = np.array([0.0, 0.0, 0.0, 2.0 * np.log(abs(k1 - k2) / (k1 + k2))])

    def u(x):
        logw = np.multiply.outer(np.asarray(x, dtype=float), slopes) + log_amp
        w = np.exp(logw - logw.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        mean = (w * slopes).sum(axis=-1)
        return -2.0 * (w * (slopes - mean[..., None]) ** 2).sum(axis=-1)

    return u


def check(pot, kappas):
    exact = np.array([analytic_soliton_a(k, kappas) for k in PROBES])
    assert np.max(np.abs(scattering_a(pot, PROBES) - exact)) < 1e-11
    bk = bound_states(pot, max(kappas) + 0.5)
    assert bk.size == len(kappas)
    assert np.max(np.abs(bk - np.sort(kappas))) < 1e-9


@SETTINGS
@given(KAPPA)
def test_one_soliton(kappa):
    check(LinePotential(lambda x: -2.0 * kappa**2 / np.cosh(kappa * x) ** 2, -20.0, 20.0), [kappa])


@SETTINGS
@given(KAPPA, KAPPA)
def test_two_soliton_tau_profile(k1, k2):
    # two zeros inside one bound-state scan step would not be bracketed
    assume(abs(k1 - k2) > 0.1)
    check(LinePotential(tau_profile((k1, k2)), -20.0, 20.0), [k1, k2])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: both roots fall in one scan step")
def test_two_soliton_pair_closer_than_the_scan_step():
    kappas = (1.01, 1.04)
    bk = bound_states(LinePotential(tau_profile(kappas), -20.0, 20.0), max(kappas) + 0.5)
    assert np.allclose(bk, kappas, atol=1e-9)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_mass_moves_only_by_transform_rounding(seed):
    rng = np.random.default_rng(seed)
    L, j = 40.0, np.arange(1, 7)
    x = kdv_grid(L, 512)
    amp = rng.normal(0.0, 0.5, j.size) / j
    phase = rng.uniform(0.0, 2.0 * np.pi, j.size)
    u = rng.normal() + (amp[:, None] * np.cos(2.0 * np.pi * np.outer(j, x) / L + phase[:, None])).sum(0)
    f0 = PeriodicField(u, L)
    f1 = kdv_evolve(f0, 1e-4, 200)
    drift = abs(periodic_integral(f1.u, L) - periodic_integral(f0.u, L))
    assert drift <= 8.0 * np.finfo(float).eps * periodic_integral(np.abs(f0.u), L)
