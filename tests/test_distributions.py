import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from depaft.distributions import FAMILIES, BaselineSpec, cdf, pdf, pdf_grad, pdf_hess
from depaft.errors import ConfigError, DomainError

from oracles import ref_cdf, ref_pdf

GRID = np.linspace(-10.0, 10.0, 401)


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_reference_forms(family):
    for x in np.linspace(-6, 6, 25):
        # the erf-based reference loses digits in the deep normal tail;
        # the derivative-ladder tests below pin accuracy
        assert cdf(family, x) == pytest.approx(ref_cdf(family, x), rel=1e-6, abs=1e-16)
        assert pdf(family, x) == pytest.approx(ref_pdf(family, x), rel=1e-12, abs=1e-300)


def test_known_values():
    assert cdf("normal", 0.0) == pytest.approx(0.5)
    assert cdf("logistic", 0.0) == pytest.approx(0.5)
    assert cdf("extreme", 0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert pdf("logistic", 0.0) == pytest.approx(0.25, rel=1e-12)
    assert pdf("normal", 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    assert pdf("extreme", 0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert pdf_grad("normal", 0.0) == 0.0
    assert pdf_grad("logistic", 0.0) == 0.0
    assert pdf_grad("extreme", 0.0) == 0.0
    assert pdf_hess("normal", 0.0) == pytest.approx(-1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    assert pdf_hess("extreme", 0.0) == pytest.approx(-math.exp(-1.0), rel=1e-12)
    assert pdf_hess("normal", 1.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
def test_cdf_monotone_and_bounded(family):
    values = cdf(family, GRID)
    assert np.all(np.diff(values) >= 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))


@pytest.mark.parametrize("family", FAMILIES)
def test_pdf_positive(family):
    assert np.all(pdf(family, np.linspace(-30, 6, 200)) > 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_derivative_ladder_finite_differences(family):
    h = 1e-6
    # atol absorbs the region where F is within an ulp of 1.0 and the
    # difference quotient loses all resolution
    fd_pdf = (cdf(family, GRID + h) - cdf(family, GRID - h)) / (2 * h)
    assert np.allclose(fd_pdf, pdf(family, GRID), rtol=1e-6, atol=1e-8)
    h = 1e-5
    fd_grad = (pdf(family, GRID + h) - pdf(family, GRID - h)) / (2 * h)
    assert np.allclose(fd_grad, pdf_grad(family, GRID), rtol=1e-5, atol=1e-9)
    fd_hess = (pdf_grad(family, GRID + h) - pdf_grad(family, GRID - h)) / (2 * h)
    assert np.allclose(fd_hess, pdf_hess(family, GRID), rtol=1e-5, atol=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_pdf_integrates_to_one(family):
    xs = np.linspace(-30.0, 30.0, 120001)
    total = np.trapezoid(pdf(family, xs), xs)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("fn", [cdf, pdf, pdf_grad, pdf_hess])
def test_nonfinite_rejected(family, fn):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            fn(family, bad)
    with pytest.raises(DomainError):
        fn(family, np.array([0.0, np.nan]))


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        cdf("weibull", 0.0)
    with pytest.raises(ConfigError):
        BaselineSpec("weibull", 1.0)


def test_baseline_spec_validation():
    with pytest.raises(ConfigError):
        BaselineSpec("normal", 0.0)
    with pytest.raises(ConfigError):
        BaselineSpec("normal", -1.0)
    spec = BaselineSpec("normal", 0.5)
    assert BaselineSpec.from_dict(spec.to_dict()) == spec


@given(st.floats(-200.0, 200.0))
def test_extreme_family_safe_over_wide_range(x):
    # the log-space closed forms stay finite well beyond the usable range
    for fn in (cdf, pdf, pdf_grad, pdf_hess):
        assert np.isfinite(fn("extreme", x))


@pytest.mark.parametrize("sigma", ["a", "0.5", None, [0.5]])
def test_baseline_spec_rejects_non_numeric_sigma(sigma):
    with pytest.raises(ConfigError, match="sigma"):
        BaselineSpec.from_dict({"family": "normal", "sigma": sigma})
