"""Barotropic equations of state and their elastic potentials.

Each law provides rho(p), its derivative, the inverse pressure(rho), the
elastic potential P with P'(z) = pressure(z)/z^2, and the derivative of
z*P(z) used by the pressure-work inequality.  Potentials are anchored so
P(1) = 0 whenever the textbook integral from zero diverges; only
differences of the quantity integral(rho*P(rho)) are ever used.
"""

import numpy as np


class EosDomainError(ValueError):
    pass


def _positive(x, msg):
    """x as a float array; EosDomainError(msg) unless every entry is > 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise EosDomainError(msg)
    return x


class PowerLaw:
    """Isentropic law p = rho**gamma (gamma > 1)."""

    name = "power"

    def __init__(self, gamma=1.4):
        if gamma <= 1.0:
            raise ValueError("power law requires gamma > 1 (use 'linear' for gamma = 1)")
        self.gamma = float(gamma)

    def rho(self, p):
        return _positive(p, "power law needs p > 0") ** (1.0 / self.gamma)

    def drho_dp(self, p):
        return _positive(p, "power law needs p > 0") ** (1.0 / self.gamma - 1.0) / self.gamma

    def pressure(self, rho):
        return _positive(rho, "density must be positive") ** self.gamma

    def potential(self, rho):
        return _positive(rho, "density must be positive") ** (self.gamma - 1.0) / (self.gamma - 1.0)

    def rho_potential_prime(self, rho):
        rho = _positive(rho, "density must be positive")
        return self.gamma / (self.gamma - 1.0) * rho ** (self.gamma - 1.0)


class LinearLaw:
    """Isothermal law p = rho, with P(rho) = log(rho)."""

    name = "linear"
    gamma = 1.0

    def rho(self, p):
        return _positive(p, "linear law needs p > 0").copy()

    def drho_dp(self, p):
        return np.ones_like(np.asarray(p, dtype=float))

    def pressure(self, rho):
        return _positive(rho, "density must be positive").copy()

    def potential(self, rho):
        return np.log(_positive(rho, "density must be positive"))

    def rho_potential_prime(self, rho):
        return np.log(_positive(rho, "density must be positive")) + 1.0


class AffineLaw:
    """Low-Mach linearized law rho = 1 + gamma*Ma^2 * p.

    This is the law of the smooth test flow; rho(0) = 1, so positivity
    statements are made on rho rather than p.  The anchored potential is
    P(z) = (log z + 1/z - 1) / (gamma*Ma^2), with P(1) = 0.
    """

    name = "affine"

    def __init__(self, gamma=1.4, mach=0.5):
        self.gamma, self.mach = float(gamma), float(mach)
        try:
            self.coeff = self.gamma * self.mach ** 2
        except OverflowError:
            self.coeff = np.inf
        if not (self.mach > 0.0 and 0.0 < self.coeff < np.inf):
            raise ValueError("affine law requires mach > 0 and 0 < gamma*Ma^2 < inf, got "
                             f"gamma {gamma}, mach {mach}")

    def rho(self, p):
        return _positive(1.0 + self.coeff * np.asarray(p, dtype=float),
                         "affine law needs 1 + gamma*Ma^2*p > 0")

    def drho_dp(self, p):
        return np.full_like(np.asarray(p, dtype=float), self.coeff)

    def pressure(self, rho):
        return (_positive(rho, "density must be positive") - 1.0) / self.coeff

    def potential(self, rho):
        rho = _positive(rho, "density must be positive")
        return (np.log(rho) + 1.0 / rho - 1.0) / self.coeff

    def rho_potential_prime(self, rho):
        return np.log(_positive(rho, "density must be positive")) / self.coeff


# kind -> the law built from the config keys gamma and mach
_LAWS = {"power": lambda gamma, mach: PowerLaw(gamma),
         "linear": lambda gamma, mach: LinearLaw(),
         "affine": AffineLaw}


def make_eos(kind, gamma=1.4, mach=0.5):
    """Instantiate an equation of state from config keys."""
    if kind not in _LAWS:
        raise ValueError(f"unknown eos '{kind}', expected one of {sorted(_LAWS)}")
    return _LAWS[kind](gamma, mach)


def tangent_mean(g, gprime, a, b):
    """Value where the tangents of a strictly convex g at a and b agree.

    Returns the unique rbar with
        g(a) + g'(a) (rbar - a) = g(b) + g'(b) (rbar - b),
    which always lies in [min(a, b), max(a, b)].  For g(z) = z^2 this is
    the arithmetic mean, for g(z) = z*log(z) the logarithmic mean.
    """
    if a == b:
        return a
    ga, gb = g(a), g(b)
    da, db = gprime(a), gprime(b)
    denom = db - da
    if denom == 0.0:
        raise ValueError("g is not strictly convex between the inputs")
    return (ga - gb - da * a + db * b) / denom
