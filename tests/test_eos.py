import numpy as np
import pytest

from baropc.eos import (AffineLaw, EosDomainError, LinearLaw, PowerLaw,
                        make_eos, tangent_mean)

ALL_LAWS = [PowerLaw(1.4), PowerLaw(2.0), LinearLaw(), AffineLaw(1.4, 0.5)]


def test_affine_reference_density():
    # rho = 1 + gamma*Ma^2*p evaluates to 1 at p = 0
    law = AffineLaw(1.4, 0.5)
    assert law.rho(0.0) == pytest.approx(1.0)
    assert law.rho(1.0) == pytest.approx(1.0 + 1.4 * 0.25)


def test_power_law_unit_point():
    law = PowerLaw(1.4)
    assert law.rho(1.0) == pytest.approx(1.0)
    assert law.potential(1.0) == pytest.approx(2.5)   # 1 / (gamma - 1)


def test_linear_law_identity_and_log_potential():
    law = LinearLaw()
    assert law.rho(2.0) == pytest.approx(2.0)
    assert law.potential(1.0) == 0.0
    z = np.array([0.5, 1.0, 3.0])
    np.testing.assert_allclose(law.potential(z), np.log(z))


def test_affine_potential_anchor():
    law = AffineLaw(1.4, 0.5)
    assert law.potential(1.0) == pytest.approx(0.0, abs=1e-15)
    # antiderivative of pressure(z)/z^2 anchored at 1
    z = 1.7
    expect = (np.log(z) + 1.0 / z - 1.0) / law.coeff
    assert law.potential(z) == pytest.approx(expect, rel=1e-14)


def test_rho_pressure_roundtrip():
    for law in ALL_LAWS:
        rho = np.logspace(-1, 1, 41)
        np.testing.assert_allclose(law.rho(law.pressure(rho)), rho, rtol=1e-12)
        p = np.logspace(-1, 1, 41)
        if isinstance(law, AffineLaw):
            p = np.linspace(-1.0, 10.0, 41)   # admissible: rho stays positive
        np.testing.assert_allclose(law.pressure(law.rho(p)), p, rtol=1e-12,
                                   atol=1e-12)


def test_potential_derivative_matches_pressure_over_z2():
    # P'(z) = pressure(z) / z^2 by central differences
    for law in ALL_LAWS:
        z = np.linspace(0.4, 3.0, 15)
        d = 1e-6
        fd = (law.potential(z + d) - law.potential(z - d)) / (2 * d)
        np.testing.assert_allclose(fd, law.pressure(z) / z ** 2, rtol=1e-7)


def test_rho_potential_prime_second_order_fd():
    for law in ALL_LAWS:
        z = np.linspace(0.4, 3.0, 9)
        f = lambda s: s * law.potential(s)
        errs = []
        for d in (1e-3, 5e-4):
            fd = (f(z + d) - f(z - d)) / (2 * d)
            errs.append(np.abs(fd - law.rho_potential_prime(z)).max())
        assert errs[0] < 1e-5
        if errs[0] > 1e-10:               # above roundoff: O(d^2) decay visible
            assert errs[1] < errs[0] / 3.0


def test_rho_potential_convex():
    rng = np.random.default_rng(5)
    for law in ALL_LAWS:
        z = np.sort(rng.uniform(0.1, 5.0, 300))
        f = z * law.potential(z)
        dd = np.diff(np.diff(f) / np.diff(z)) / np.diff(z[:-1])
        assert np.all(dd > 0.0)


def test_drho_dp_matches_fd():
    for law in ALL_LAWS:
        p = np.linspace(0.3, 2.0, 7)
        d = 1e-6
        fd = (law.rho(p + d) - law.rho(p - d)) / (2 * d)
        np.testing.assert_allclose(law.drho_dp(p), fd, rtol=1e-7)


def test_domain_errors():
    with pytest.raises(EosDomainError):
        PowerLaw(1.4).rho(-0.5)
    with pytest.raises(EosDomainError):
        LinearLaw().potential(0.0)
    with pytest.raises(EosDomainError):
        AffineLaw(1.4, 0.5).rho(-10.0)
    with pytest.raises(EosDomainError):
        PowerLaw(2.0).potential(-1.0)
    with pytest.raises(ValueError):
        PowerLaw(1.0)
    with pytest.raises(ValueError):
        make_eos("tabulated")


@pytest.mark.parametrize("gamma, mach", [
    (1.4, 1e200),            # Ma^2 overflows
    (1e300, 1e10),           # gamma * Ma^2 overflows
    (1.4, 1e-200),           # Ma^2 underflows to 0
    (1.4, np.inf), (np.nan, 0.5), (1.4, np.nan), (0.0, 0.5), (-1.4, 0.5), (1.4, 0.0),
    (1.4, -0.5),
])
def test_affine_law_needs_a_positive_finite_coefficient(gamma, mach):
    with pytest.raises(ValueError, match="0 < gamma\\*Ma\\^2 < inf"):
        AffineLaw(gamma, mach)


def test_make_eos_dispatch():
    assert isinstance(make_eos("power", 1.4), PowerLaw)
    assert isinstance(make_eos("linear"), LinearLaw)
    law = make_eos("affine", 1.4, 0.5)
    assert isinstance(law, AffineLaw)
    assert law.coeff == pytest.approx(0.35)


# ----------------------------------------------------------------------
# tangent mean

def _potentials():
    return [
        (lambda z: z ** 2, lambda z: 2 * z),
        (lambda z: z * np.log(z), lambda z: np.log(z) + 1.0),
        (lambda z: z ** 1.4 / 0.4, lambda z: 3.5 * z ** 0.4),
        (lambda z: z ** 3 / 2.0, lambda z: 1.5 * z ** 2),
    ]


def test_tangent_mean_equal_inputs():
    g, gp = _potentials()[0]
    assert tangent_mean(g, gp, 1.3, 1.3) == 1.3


def test_tangent_mean_square_is_arithmetic_mean():
    g, gp = _potentials()[0]
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.uniform(0.1, 5.0, 2)
        assert tangent_mean(g, gp, a, b) == pytest.approx((a + b) / 2.0, rel=1e-13)


def test_tangent_mean_zlogz_is_logarithmic_mean():
    g, gp = _potentials()[1]
    val = tangent_mean(g, gp, 1.0, np.e)
    assert val == pytest.approx(np.e - 1.0, rel=1e-13)
    assert val == pytest.approx(1.71828, abs=5e-6)


def test_tangent_mean_properties():
    rng = np.random.default_rng(7)
    for g, gp in _potentials():
        for _ in range(250):
            a, b = rng.uniform(0.05, 5.0, 2)
            rbar = tangent_mean(g, gp, a, b)
            assert min(a, b) - 1e-12 <= rbar <= max(a, b) + 1e-12
            res = g(a) + gp(a) * (rbar - a) - g(b) - gp(b) * (rbar - b)
            scale = max(abs(g(a)), abs(g(b)), 1.0)
            assert abs(res) <= 1e-12 * scale
