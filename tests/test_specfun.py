import math

import numpy as np
import pytest
from scipy.integrate import quad

from ruinlab import complete_gamma, upper_incomplete_gamma

# frozen from numerical quadrature of the defining integral,
# int_0.2^inf x^-0.1 exp(-x) dx (scipy.integrate.quad, epsabs=1e-14)
GAMMA_09_02 = 0.8307881489279113


class TestCompleteGamma:
    def test_integer_values(self):
        assert complete_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert complete_gamma(2.0) == pytest.approx(1.0, rel=1e-14)
        assert complete_gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half_integer(self):
        assert complete_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert complete_gamma(4.5) == pytest.approx(11.631728396567448, rel=1e-13)

    def test_against_stdlib(self):
        for p in np.linspace(0.05, 10.0, 80):
            assert complete_gamma(p) == pytest.approx(math.gamma(p), rel=1e-12)

    def test_large_argument(self):
        assert complete_gamma(150.0) == pytest.approx(math.exp(math.lgamma(150.0)), rel=1e-13)

    def test_rejects_nonpositive(self):
        for p in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                complete_gamma(p)


class TestUpperIncompleteGamma:
    def test_p_equal_one_is_exponential(self):
        assert upper_incomplete_gamma(1.0, 0.5) == pytest.approx(
            math.exp(-0.5), rel=1e-13
        )
        assert upper_incomplete_gamma(1.0, 3.0) == pytest.approx(
            math.exp(-3.0), rel=1e-13
        )

    def test_z_zero_is_complete(self):
        assert upper_incomplete_gamma(2.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert upper_incomplete_gamma(4.5, 0.0) == pytest.approx(
            complete_gamma(4.5), rel=1e-14
        )

    def test_frozen_quadrature_value(self):
        assert upper_incomplete_gamma(0.9, 0.2) == pytest.approx(GAMMA_09_02, rel=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.9, 1.7, 4.5, 9.0])
    @pytest.mark.parametrize("z", [0.05, 0.5, 2.0, 10.0, 40.0])
    def test_against_defining_integral(self, p, z):
        val, err = quad(
            lambda x: x ** (p - 1.0) * math.exp(-x), z, np.inf, epsabs=1e-13, epsrel=1e-12
        )
        assert upper_incomplete_gamma(p, z) == pytest.approx(val, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("p", [0.3, 0.9, 1.7])
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_recurrence_identity(self, p, z):
        lhs = upper_incomplete_gamma(p + 1.0, z)
        rhs = p * upper_incomplete_gamma(p, z) + z**p * math.exp(-z)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_monotone_in_z(self):
        zs = np.linspace(0.0, 20.0, 100)
        vals = [upper_incomplete_gamma(1.7, z) for z in zs]
        assert np.all(np.diff(vals) < 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(-2.0, 1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, -0.1)
