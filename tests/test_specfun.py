import math

import numpy as np
import pytest
from scipy.integrate import quad

from ruinlab import (
    ConvergenceError,
    ModelParams,
    RuinlabError,
    complete_gamma,
    log_upper_incomplete_gamma,
    solve,
    upper_incomplete_gamma,
)
from ruinlab.specfun import log_gamma_ratio

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


class TestLogUpperIncompleteGamma:
    @pytest.mark.parametrize("p", [0.05, 0.9, 4.5, 150.0, 2500.0])
    def test_against_scipy(self, p):
        from scipy.special import gammaincc, gammaln

        # both branches, z = 0 and the switch point z = p + 1 exactly
        z = np.concatenate(([0.0, p + 1.0], np.geomspace(1e-6, 3.0 * p + 50.0, 400)))
        got = log_upper_incomplete_gamma(p, z)
        q = gammaincc(p, z)
        normal = q >= np.finfo(float).tiny
        ref = gammaln(p) + np.log(q[normal])
        # relative on log Gamma, and 1e-13 absolute on it (relative on
        # Gamma) where log Gamma crosses 0
        np.testing.assert_allclose(got[normal], ref, rtol=1e-13, atol=1e-13)
        assert got[0] == math.lgamma(p)

    @pytest.mark.parametrize("p", [0.05, 0.9, 4.5, 150.0])
    def test_matches_scalar_routine(self, p):
        z = np.concatenate((np.linspace(0.01, p + 1.0, 50), np.linspace(p + 1.0, 3.0 * p + 50.0, 50)))
        scalar = np.array([math.log(upper_incomplete_gamma(p, x)) for x in z])
        np.testing.assert_allclose(log_upper_incomplete_gamma(p, z), scalar, rtol=1e-15, atol=1e-15)

    def test_finite_where_gamma_overflows(self):
        # Gamma(2500) ~ 10^7030; the scalar routine overflows there
        with pytest.raises(OverflowError):
            upper_incomplete_gamma(2500.0, 10.0)
        z = np.array([0.0, 10.0, 2500.0, 1e4])
        got = log_upper_incomplete_gamma(2500.0, z)
        assert np.all(np.isfinite(got))
        assert np.all(np.diff(got) <= 0.0) and got[-1] < got[1]

    def test_keeps_shape(self):
        z = np.linspace(0.0, 20.0, 12).reshape(3, 4)
        got = log_upper_incomplete_gamma(1.7, z)
        assert got.shape == (3, 4)
        assert log_upper_incomplete_gamma(1.7, 2.0).shape == ()
        assert log_upper_incomplete_gamma(1.7, np.array([])).shape == (0,)

    def test_rejects_bad_arguments(self):
        for z in ([1.0, -0.1], [1.0, math.nan], [math.inf]):
            with pytest.raises(ValueError):
                log_upper_incomplete_gamma(1.0, z)
        for p in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                log_upper_incomplete_gamma(p, [1.0])

    def test_unconverged_series_raises(self):
        # at p = 1e4 the series needs about 860 terms near z = p
        with pytest.raises(ArithmeticError):
            log_upper_incomplete_gamma(1e4, [1e4])

    def test_unconverged_series_is_typed(self):
        # the same failure reached through a solve is a RuinlabError
        grid = solve(ModelParams(a=1e-5, b=0.0, c=0.0, lam=0.1, m=1.0))
        with pytest.raises(RuinlabError) as exc:
            grid.evaluate(1e4)
        assert isinstance(exc.value, ConvergenceError)
        assert isinstance(exc.value, ArithmeticError)


def _kernel_grid(p: float, rng) -> np.ndarray:
    """z for the kernel at p: the series side down to 1e-6, z = p + 1 exactly,
    the first and last point of each group the continued fraction takes
    (groups end where z doubles), the point of each group where the Lentz
    count is highest, and seeded points in between."""
    from ruinlab.specfun import _lentz

    heads = (p + 1.0) * 2.0 ** np.arange(7)
    z = [np.geomspace(1e-6, p + 1.0, 12, endpoint=False), heads, [p + 1.01, p + 1.0105]]
    for h in heads:
        inside = h * np.linspace(1.0, 2.0, 64, endpoint=False)
        count = [_lentz(p, v)[1] for v in inside]
        z.append([np.nextafter(2.0 * h, 0.0), inside[int(np.argmax(count))]])
        z.append(h * rng.uniform(1.0, 2.0, 3))
    return np.sort(np.concatenate(z))


class TestKernelAgainstMpmath:
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.9, 4.5, 37.0, 150.0, 2500.0])
    def test_matches_mpmath(self, p):
        # relative on log Gamma, or absolute where |log Gamma| < 1; the
        # continued-fraction side is compared beyond the rounding of its
        # prefactor p log z - z, which no evaluation of the fraction avoids
        # (3e-14 of log Gamma where it crosses 0 at p = 150)
        mpmath = pytest.importorskip("mpmath")
        z = _kernel_grid(p, np.random.default_rng(int(10 * p)))
        got = log_upper_incomplete_gamma(p, z)
        cf = z >= p + 1.0
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.log(mpmath.gammainc(p, v))) for v in z])
            pre = np.array([float(p * mpmath.log(v) - v) if c else 0.0 for v, c in zip(z, cf)])
        got = got - np.where(cf, p * np.log(z) - z - pre, 0.0)
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-15

    def test_count_rise_within_a_group(self):
        # the Lentz count is not monotone in z: the depth probed at a group's
        # first point needs its margin
        from ruinlab.specfun import _lentz

        assert _lentz(0.05, 1.05)[1] == 86 and _lentz(0.05, 1.06)[1] == 88
        assert _lentz(0.05, 1.0605)[1] == 98
        assert {1.06, 1.0605} <= set(_kernel_grid(0.05, np.random.default_rng(0)).tolist())

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.9])
    def test_small_shape_series_without_cancellation(self, p):
        # Q = 1 - P cancels just below z = p + 1, where P is near 1; the
        # split of DLMF 8.7.3 does not, and neither Q nor P = -expm1(log Q)
        # loses digits
        mpmath = pytest.importorskip("mpmath")
        z = np.geomspace(1e-6, p + 1.0, 200, endpoint=False)
        z = np.append(z, np.nextafter(p + 1.0, 0.0))
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.log(mpmath.gammainc(p, v))) for v in z])
            ref_q = np.array([float(mpmath.gammainc(p, v, regularized=True)) for v in z])
            ref_p = np.array([float(mpmath.gammainc(p, 0, v, regularized=True)) for v in z])
        scalar = [math.log(upper_incomplete_gamma(p, v)) for v in z]
        for got in (log_upper_incomplete_gamma(p, z), scalar):
            np.testing.assert_allclose(got, ref, rtol=4e-15, atol=4e-15)
        log_q = log_upper_incomplete_gamma(p, z, regularized=True)
        np.testing.assert_allclose(np.exp(log_q), ref_q, rtol=4e-15, atol=0.0)
        # where P < 1/2, P = e^t (1 + s) carries the rounding of t ~ p log z
        near = ref_p >= 0.5
        np.testing.assert_allclose(-np.expm1(log_q[near]), ref_p[near], rtol=1e-15, atol=0.0)

    def test_probes_per_call(self, monkeypatch):
        # one probe per group, and a group ends where z doubles
        from ruinlab import specfun

        probes = []
        lentz = specfun._lentz

        def counted(p, z):
            probes.append(z)
            return lentz(p, z)

        monkeypatch.setattr(specfun, "_lentz", counted)
        p, z = 0.9, np.linspace(0.0, 50.0, 10_001) + 0.2  # fig3-II's array
        log_upper_incomplete_gamma(p, z)
        cf = z[z >= p + 1.0]
        assert 1 <= len(probes) <= math.log2(cf.max() / cf.min()) + 1.0

    def test_unconverged_probe_raises(self):
        with pytest.raises(ConvergenceError):
            log_upper_incomplete_gamma(1e6, [1e6 + 1.0, 3e6])


class TestLogGammaRatio:
    @pytest.mark.parametrize("x", [20.0, 21.5, 100.0, 4621.0, 4.45e7])
    @pytest.mark.parametrize("s", [4e-8, 0.5, 3.0, 200.0])
    def test_matches_mpmath(self, x, s):
        # the two math.lgamma of the difference are 8e8 at x = 4.45e7
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.loggamma(mpmath.mpf(x) + s) - mpmath.loggamma(x))
        assert abs(log_gamma_ratio(x, s) - ref) <= 4.0 * math.ulp(ref) + 1e-18


class TestExtendedExpLog:
    def test_exp_edges(self):
        from ruinlab.specfun import ext_exp

        assert ext_exp(710.0) == math.inf  # math.exp raises OverflowError here
        assert ext_exp(-800.0) == 0.0
        assert ext_exp(-math.inf) == 0.0 and ext_exp(math.inf) == math.inf
        assert math.isnan(ext_exp(math.nan))
        assert ext_exp(1.5) == math.exp(1.5)

    def test_log_edges(self):
        from ruinlab.specfun import ext_log

        assert ext_log(0.0) == -math.inf  # math.log raises ValueError here
        assert math.isnan(ext_log(-1.0)) and math.isnan(ext_log(math.nan))
        assert ext_log(math.inf) == math.inf
        assert type(ext_log(2.0)) is float

    def test_log_is_numpys_bit_for_bit(self):
        # the array paths take numpy's log, which may differ from math.log
        # in the last bit, most often near 1; the point paths multiply it by
        # up to thousands
        from ruinlab.specfun import ext_log

        x = np.random.default_rng(4).uniform(0.25, 4.0, 20_000)
        np.testing.assert_array_equal([ext_log(v) for v in x.tolist()], np.log(x))
