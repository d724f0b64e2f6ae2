"""Normal CDF/upper quantile against tabulated values and round trips."""

import math

import numpy as np
import pytest

from yule_ou.errors import ParameterError
from yule_ou.gaussian import norm_cdf, upper_quantile

# classic two-sided 5% point
Q975 = 1.959963984540054


def test_cdf_tabulated_values():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(Q975) == pytest.approx(0.975, abs=1e-12)
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert norm_cdf(-1.0) == pytest.approx(1.0 - 0.8413447460685429, abs=1e-12)


def test_quantile_tabulated_values():
    assert upper_quantile(0.025) == pytest.approx(Q975, abs=1e-9)
    assert upper_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert upper_quantile(0.05) == pytest.approx(1.6448536269514722, abs=1e-9)
    # deep upper tail: 1 - alpha would round these levels away
    assert upper_quantile(1e-9) == pytest.approx(5.997807015007687, abs=1e-12)
    assert upper_quantile(1e-12) == pytest.approx(7.034483825301131, abs=1e-12)


def test_quantile_cdf_round_trip():
    p = np.concatenate([np.linspace(1e-8, 1 - 1e-8, 2001),
                        [1e-12, 1e-10, 1 - 1e-10, 1 - 1e-12]])
    err = np.abs(norm_cdf(-np.array([upper_quantile(a) for a in p])) - p)
    assert np.max(err) < 1e-12


def test_quantile_symmetry():
    p = np.linspace(0.001, 0.499, 200)
    np.testing.assert_allclose([upper_quantile(a) for a in p],
                               [-upper_quantile(1 - a) for a in p], rtol=0, atol=1e-12)


def test_pdf_matches_cdf_derivative():
    # central difference is O(h^2) absolute; relative accuracy degrades in
    # the tails where the CDF difference cancels
    x = np.linspace(-5, 5, 41)
    h = 1e-6
    numeric = (norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h)
    density = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(numeric, density, rtol=1e-4, atol=1e-12)


def test_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            upper_quantile(bad)


def test_domain_errors_are_parameter_errors():
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            upper_quantile(bad)


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_quantile_within_8_ulps_of_scipy():
    from scipy.special import ndtri
    lower = np.logspace(-300, math.log10(0.5), 3001)
    upper = np.concatenate([0.5 + np.logspace(-16, math.log10(0.25), 1000),
                            1.0 - np.logspace(math.log10(0.25), -16, 1000)])
    upper = upper[(upper > 0.5) & (upper <= 1.0 - 1e-16)]
    assert lower[-1] == 0.5 and upper[-1] == 1.0 - 1e-16
    for grid in (lower, upper):
        got = np.array([upper_quantile(a) for a in grid])
        assert np.max(_ulps(got, -ndtri(grid))) <= 8


def test_cdf_within_1e13_relative_of_scipy():
    from scipy.special import erfc
    x = np.linspace(-37.0, 10.0, 20001)
    want = 0.5 * erfc(-x / math.sqrt(2.0))
    assert np.max(np.abs(norm_cdf(x) - want) / want) <= 1e-13


def test_cdf_array_equals_its_scalars_bit_for_bit():
    x = np.concatenate([np.linspace(-40.0, 40.0, 4001), [0.0, -0.0, math.inf, -math.inf]])
    got = norm_cdf(x.reshape(5, -1))
    assert got.shape == (5, x.size // 5)
    assert np.array_equal(got.ravel(), [norm_cdf(v) for v in x])
    assert isinstance(norm_cdf(0.3), float) and norm_cdf(np.array([])).shape == (0,)
