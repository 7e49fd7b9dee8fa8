import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import diffsemcom as dsc
from diffsemcom.errors import DegenerateInputError, ParameterError


def test_snr_to_noise_var():
    assert dsc.snr_to_noise_var(0.0) == 1.0
    assert dsc.snr_to_noise_var(20.0) == pytest.approx(0.01)
    assert dsc.snr_to_noise_var(5.0) == pytest.approx(10 ** (-0.5))
    with pytest.raises(ParameterError):
        dsc.snr_to_noise_var(float("nan"))


def test_effective_noise_var():
    assert dsc.effective_noise_var(0.4, "complex_paper") == pytest.approx(0.2)
    assert dsc.effective_noise_var(0.4, "real_simplified") == pytest.approx(0.4)


def test_power_normalize_all_ones():
    z = np.ones(10)
    values, gamma = dsc.power_normalize(z)
    assert gamma == pytest.approx(1.0)
    assert np.array_equal(values, z)


def test_power_normalize_scale_invariance():
    rng = np.random.default_rng(50)
    z = rng.standard_normal(16)
    a_values, a_gamma = dsc.power_normalize(z)
    b_values, b_gamma = dsc.power_normalize(3.0 * z)
    assert b_gamma == pytest.approx(a_gamma / 3.0, rel=1e-12)
    assert np.allclose(a_values, b_values, rtol=1e-12)


def test_power_normalize_unit_power_invariant():
    rng = np.random.default_rng(51)
    z = rng.standard_normal((7, 24))
    values, _ = dsc.power_normalize(z)
    assert np.allclose(np.mean(values**2, axis=-1), 1.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(unit=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 32)),
                   elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
       exponents=st.lists(st.integers(-100, 100), min_size=8, max_size=8))
def test_power_normalize_unit_power_property(unit, exponents):
    # rows of any scale whose largest entry keeps its square a normal float
    assume(np.all(np.max(np.abs(unit), axis=1) >= 1e-3))
    z = unit * 10.0 ** np.asarray(exponents[:unit.shape[0]], dtype=float)[:, None]
    values, gamma = dsc.power_normalize(z)
    assert np.all(np.abs(np.mean(values**2, axis=1) - 1.0) <= 1e-12)
    assert np.array_equal(values, z * gamma[:, None])


def test_power_normalize_idempotent():
    rng = np.random.default_rng(52)
    values, _ = dsc.power_normalize(rng.standard_normal(32))
    _, again = dsc.power_normalize(values)
    assert again == pytest.approx(1.0, abs=1e-12)


def test_power_normalize_gamma_concentration():
    # chi-square concentration: |gamma - 1| < 10% nearly always at d = 512
    rng = dsc.stream(0, 53)
    within = 0
    n_seeds = 300
    for _ in range(n_seeds):
        _, gamma = dsc.power_normalize(rng.standard_normal(512))
        within += abs(gamma - 1.0) < 0.1
    assert within / n_seeds >= 0.99


def test_power_normalize_zero_vector():
    with pytest.raises(DegenerateInputError):
        dsc.power_normalize(np.zeros(8))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
def test_power_normalize_non_finite_power(bad):
    # a non-finite entry, or one whose square overflows, has no defined scaling
    row = np.array([bad, 1.0])
    for z in (row, np.vstack([np.ones(2), row])):
        with pytest.raises(DegenerateInputError):
            dsc.power_normalize(z)


def test_awgn_zero_variance_identity():
    rng = dsc.stream(0, 54)
    values, _ = dsc.power_normalize(np.random.default_rng(1).standard_normal(16))
    out = dsc.awgn_apply(values, 0.0, rng)
    assert np.array_equal(out, values)


def test_awgn_complex_halves_variance():
    rng = dsc.stream(0, 55)
    z = np.zeros(100_000)
    # complex model needs even dimension; use a flat even-length signal
    out = dsc.awgn_apply(z.reshape(1, -1), 1.0, rng, model="complex_paper")
    assert abs(out.var() - 0.5) / 0.5 < 0.03
    out2 = dsc.awgn_apply(z.reshape(1, -1), 1.0, dsc.stream(0, 56), model="real_simplified")
    assert abs(out2.var() - 1.0) < 0.03


def test_awgn_odd_dimension_complex_rejected():
    with pytest.raises(ParameterError):
        dsc.awgn_apply(np.zeros(7), 1.0, dsc.stream(0, 57), model="complex_paper")


def test_awgn_measured_snr_calibration():
    rng = dsc.stream(0, 58)
    values, _ = dsc.power_normalize(rng.standard_normal((200, 512)))
    for snr_db in (0.0, 10.0):
        y = dsc.awgn_apply(values, dsc.snr_to_noise_var(snr_db), dsc.stream(0, 59),
                           model="real_simplified")
        measured = dsc.measure_snr(values, y)
        assert abs(measured - snr_db) < 0.2


def test_awgn_streams_independent():
    rng = dsc.stream(0, 60)
    z = np.zeros((1, 100_000))
    n1 = dsc.awgn_apply(z, 1.0, rng, model="real_simplified").ravel()
    n2 = dsc.awgn_apply(z, 1.0, rng, model="real_simplified").ravel()
    rho = np.corrcoef(n1, n2)[0, 1]
    assert abs(rho) < 0.01


def test_measure_snr_sentinels():
    z = np.ones((3, 4))
    assert dsc.measure_snr(z, z) == math.inf
    assert dsc.measure_snr(np.zeros((3, 4)), z) == -math.inf  # signal power = 0
    assert dsc.measure_snr(z, 2 * z) == pytest.approx(0.0)  # noise power = signal power
    with pytest.raises(ParameterError):
        dsc.measure_snr(np.ones(3), np.ones(4))


def test_channel_config_validation():
    with pytest.raises(ParameterError):
        dsc.ChannelConfig(5.0, "rayleigh")
