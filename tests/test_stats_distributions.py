"""Student-t distribution functions vs scipy and vs their own identities."""

import pytest
import scipy.stats as scipy_stats
import scipy.special as scipy_special

from repro.stats.distributions import betainc, betaln, t_cdf, t_sf


class TestBetainc:
    def test_boundaries(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_against_scipy(self):
        for a, b, x in [(0.5, 0.5, 0.3), (2, 5, 0.7), (61.5, 0.5, 0.9),
                        (10, 10, 0.5), (1, 1, 0.25), (100, 3, 0.98)]:
            assert betainc(a, b, x) == pytest.approx(
                scipy_special.betainc(a, b, x), rel=1e-10
            )

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        assert betainc(3.0, 7.0, 0.4) == pytest.approx(
            1.0 - betainc(7.0, 3.0, 0.6), abs=1e-12
        )

    def test_betaln_against_scipy(self):
        assert betaln(4.5, 2.5) == pytest.approx(scipy_special.betaln(4.5, 2.5), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            betainc(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            betainc(1.0, 2.0, 1.5)
        with pytest.raises(ValueError):
            betaln(0.0, 1.0)


class TestStudentT:
    def test_cdf_against_scipy(self):
        for t, df in [(0.0, 5), (1.5, 123), (-2.63, 123), (5.11, 123),
                      (0.7, 1), (3.0, 2), (-10.0, 30)]:
            assert t_cdf(t, df) == pytest.approx(scipy_stats.t.cdf(t, df), abs=1e-12)
            assert t_sf(t, df) == pytest.approx(scipy_stats.t.sf(t, df), abs=1e-12)

    def test_symmetry(self):
        assert t_cdf(-1.7, 9) == pytest.approx(1.0 - t_cdf(1.7, 9), abs=1e-14)

    def test_median_is_zero(self):
        assert t_cdf(0.0, 42) == 0.5

    def test_heavy_tails_vs_normal(self):
        # t has heavier tails: P(T > 2) > P(Z > 2) for small df.
        assert t_sf(2.0, 3) > scipy_stats.norm.sf(2.0)

    def test_converges_to_normal(self):
        assert t_cdf(1.3, 100000) == pytest.approx(scipy_stats.norm.cdf(1.3), abs=1e-5)

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)
