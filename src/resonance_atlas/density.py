"""Angular resonance-density functions for odd dimensions d >= 3.

The central object is the angular density

    h(theta) = (4/(d-2)!) * integral over t >= |z0(theta)| of
               (-Re rho(t e^{i theta})) / t^(d+1) dt,

together with its theta-derivative, the total counting constant

    c_d = (d/2pi) * integral of h over (0, pi),

the sector density s~(phi, theta) = h'(theta) - h'(phi) + d^2 * int h, and
the near-axis coefficient.  The integrand is supported exactly on
t >= |z0(theta)| because Re rho is negative outside the critical curve and
positive inside, and it vanishes at the lower endpoint, so no singular
weighting is needed.

Quadrature notes: radial integrals run in the variable x = ln t, where the
integrand decays like exp(-(d-1) x); the infinite tail is truncated at a
radius T chosen so that the analytic bound

    tail(T) <= (8/(d-2)!) * T^(1-d) / (d-1)

stays below a tenth of the absolute tolerance (the bound uses
-Re rho(t e^{i theta}) <= 2 t for t >= 2).  The two-dimensional
cross-check nests the same checked quadrature in log1p-mapped Cartesian
axes, from the support's edge (see weyl_constant_2d).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import NumericalError, QuadratureError
from .special import bessel_phase, critical_curve_modulus

__all__ = [
    "QuadratureSpec",
    "DensityTable",
    "angular_density",
    "angular_density_d3_closed",
    "angular_density_deriv",
    "angular_density_deriv_at_zero",
    "angular_density_tail_bound",
    "weyl_constant",
    "weyl_constant_2d",
    "sector_density",
    "near_axis_coefficient",
    "build_density_table",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the density quadratures; the truncation radius of the
    radial integrals follows from ``abs_tol`` and the tail bound."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("quadrature tolerances must be positive and finite, got "
                             f"abs_tol={self.abs_tol}, rel_tol={self.rel_tol}")

    def radius_for(self, d: int) -> float:
        # (8/(d-2)!) T^(1-d)/(d-1) <= abs_tol/10
        fact = math.factorial(d - 2)
        return (80.0 / (fact * (d - 1) * self.abs_tol)) ** (1.0 / (d - 1))

    def to_dict(self):
        return {"abs_tol": self.abs_tol, "rel_tol": self.rel_tol}

    @classmethod
    def from_dict(cls, doc):
        # tables written with the former truncation_radius and
        # max_subdivisions keys load too; those keys are ignored
        return cls(abs_tol=doc["abs_tol"], rel_tol=doc["rel_tol"])


DEFAULT_QUAD = QuadratureSpec()


def _check_dimension(d: int) -> int:
    if d < 3 or d % 2 == 0:
        raise ValueError(f"dimension must be an odd integer >= 3; got {d}")
    return int(d)


# the one subdivision limit of every adaptive quadrature in the package
_QUAD_LIMIT = 200


def _integrate(fn, a, b, what: str, abs_tol: float, rel_tol: float) -> float:
    """scipy's adaptive quad of fn over [a, b] (b may be inf); raises
    QuadratureError, with the estimate and its error, if it does not
    converge to the tolerances."""
    value, err, info, *rest = quad(fn, a, b, epsabs=abs_tol, epsrel=rel_tol,
                                   limit=_QUAD_LIMIT, full_output=1)
    if rest:
        raise QuadratureError(f"{what}: quadrature failed to converge ({rest[0].strip()})",
                              estimate=value, achieved_error=err)
    return value


def angular_density_tail_bound(d: int, radius: float) -> float:
    """Analytic bound on the truncated tail of the angular-density integral."""
    _check_dimension(d)
    return 8.0 / math.factorial(d - 2) * radius ** (1 - d) / (d - 1)


def _radial_integral(d: int, theta: float, spec: QuadratureSpec, what: str, f) -> float:
    """(4/(d-2)!) times the integral of f(t e^{i theta}) / t^(d+1) dt from
    the critical curve |z0(theta)| to the truncation radius, in x = ln t."""
    t0 = critical_curve_modulus(theta)
    T = max(spec.radius_for(d), 4.0 * t0)
    eith = cmath.exp(1j * theta)

    def integrand(x):
        return f(math.exp(x) * eith) * math.exp(-d * x)

    fact = math.factorial(d - 2)
    raw = _integrate(integrand, math.log(t0), math.log(T),
                     f"{what}(d={d}, theta={theta:.6g})",
                     spec.abs_tol * fact / 4.0 * 0.45, spec.rel_tol)
    return 4.0 / fact * raw


def _minus_re_phase(z: complex) -> float:
    v = -bessel_phase(z).real
    return 0.0 if v < 0.0 else v  # roundoff just outside the curve


def angular_density(d: int, theta: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """The angular density at theta in [0, pi]; exactly 0 at the endpoints."""
    _check_dimension(d)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"angle must lie in [0, pi]; got {theta}")
    if theta == 0.0 or theta == math.pi:
        return 0.0
    return _radial_integral(d, theta, spec, "angular_density", _minus_re_phase)


def angular_density_d3_closed(theta: float) -> float:
    """Closed form of the d=3 angular density on (0, pi).

    (4/9) * ( sin(3 theta) + Re[(1 - z0^2)^{3/2} / |z0|^3] ) with the same
    square-root branch convention as the phase function.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"angle must lie in (0, pi); got {theta}")
    m = critical_curve_modulus(theta)
    z0 = m * cmath.exp(1j * theta)
    w = cmath.sqrt(1.0 - z0) * cmath.sqrt(1.0 + z0)
    return 4.0 / 9.0 * (math.sin(3.0 * theta) + (w ** 3).real / m ** 3)


def _dtheta_minus_re_phase(z: complex) -> float:
    return (1j * (cmath.sqrt(1.0 - z) * cmath.sqrt(1.0 + z))).real


def angular_density_deriv(d: int, theta: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """d/dtheta of the angular density, for theta strictly inside (0, pi).

    Differentiating under the integral sign is legitimate because the phase
    function satisfies d rho(t e^{i theta})/d theta = -i sqrt(1-(t e^{i theta})^2)
    and the boundary term vanishes (Re rho = 0 on the critical curve).
    """
    _check_dimension(d)
    if not 0.0 < theta < math.pi:
        raise ValueError(f"angle must lie in (0, pi); got {theta}")
    return _radial_integral(d, theta, spec, "angular_density_deriv",
                            _dtheta_minus_re_phase)


def angular_density_deriv_at_zero(d: int) -> float:
    """Limit of the density derivative as theta -> 0+, in closed form.

    Equals sqrt(pi) * Gamma((d-1)/2) / ((d-2)! * Gamma(1 + d/2)), which for
    d = 2m + 1 is the rational (m-1)! 2^(m+1) / ((d-2)! d!!); it is computed
    in integers and rounded once, so d = 3 gives exactly 4/3.
    """
    _check_dimension(d)
    m = (d - 1) // 2
    return (math.factorial(m - 1) * 2 ** (m + 1)
            / (math.factorial(d - 2) * math.prod(range(d, 0, -2))))


_cd_cache: dict = {}


def weyl_constant(d: int, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """c_d = (d/2pi) * integral of the angular density over (0, pi).

    Evaluated on (0, pi/2] and doubled (the density is symmetric about
    pi/2); results are cached per (d, spec).
    """
    _check_dimension(d)
    key = (d, spec)
    if key in _cd_cache:
        return _cd_cache[key]
    value = _integrate(lambda th: angular_density(d, th, spec), 0.0, math.pi / 2.0,
                       f"weyl_constant(d={d})", 1e-8, spec.rel_tol)
    out = d / (2.0 * math.pi) * 2.0 * value
    _cd_cache[key] = out
    return out


def weyl_constant_2d(d: int, abs_tol: float = 5e-7) -> float:
    """The same constant from the two-dimensional integral form.

    (2d / (pi (d-2)!)) * integral over the upper half plane of
    [-Re rho]_+(z) / |z|^(d+2) dx dy, evaluated in Cartesian coordinates as
    an independent cross-check of the one-dimensional form.  The integrand
    is even in x; the region |z| > T contributes at most about
    2 (T^(1-d)/(d-1))(1+1/T) to the double integral, abs_tol/2 to c_d.

    Outer over x on [0, 1] and [1, T] (the support's edge meets the real
    axis at x = 1), inner over y from the edge y_c(x) to |z| = T, both in
    u = log1p(.); y_c is 0 for x >= 1, else the sign change of -Re rho(x+iy)
    on (0, 1] (brentq).  The quadratures share the other abs_tol/2: with
    tol = abs_tol/(4 coeff) on the quarter plane, 3 tol/8 per outer piece and
    tol/(4 ln(1+T)(1+x)) per inner integral, whose errors times the outer's
    Jacobian 1+x sum to at most tol/4 over a u-range of length ln(1+T).
    """
    _check_dimension(d)
    if not 0 < abs_tol < math.inf:
        raise ValueError(f"abs_tol must be positive and finite, got {abs_tol}")
    coeff = 2.0 * d / (math.pi * math.factorial(d - 2))
    T = (8.0 / (d - 1) * coeff / abs_tol) ** (1.0 / (d - 1))
    tol, uT = abs_tol / coeff / 4.0, math.log1p(T)
    what = f"weyl_constant_2d(d={d}, abs_tol={abs_tol:g})"

    def edge(y, x):
        return -bessel_phase(complex(x, y)).real

    def over_y(u):
        x = math.expm1(u)
        if x < 1.0 and not edge(0.0, x) < 0.0 < edge(1.0, x):
            raise NumericalError(f"{what}: no support edge on y in (0, 1] at x = {x!r}")
        y_c = brentq(edge, 0.0, 1.0, args=(x,)) if x < 1.0 else 0.0
        v_lo, v_hi = math.log1p(y_c), math.log1p(math.sqrt(max(T * T - x * x, 0.0)))

        def integrand(v):
            y = math.expm1(v)
            return _minus_re_phase(complex(x, y)) * (1.0 + y) / (x * x + y * y) ** (0.5 * d + 1)

        return (1.0 + x) * _integrate(integrand, v_lo, v_hi, f"{what} inner at x = {x:.6g}",
                                      tol / (4.0 * uT * (1.0 + x)), 0.0)

    total = sum(_integrate(over_y, ua, ub, f"{what} outer from u = {ua:.4g}", 3 * tol / 8, 0.0)
                for ua, ub in [(0.0, math.log(2.0)), (math.log(2.0), uT)])
    return coeff * 2.0 * total  # doubled for x < 0


def _density_integral(d: int, lo: float, hi: float) -> float:
    """integral of the angular density over [lo, hi] inside [0, pi]."""
    return _integrate(lambda th: angular_density(d, th), lo, hi,
                      f"density integral over [{lo:.6g}, {hi:.6g}]",
                      1e-9, DEFAULT_QUAD.rel_tol)


def sector_density(d: int, phi: float, theta: float) -> float:
    """h'(theta) - h'(phi) + d^2 * integral of h over [phi, theta]."""
    _check_dimension(d)
    if not 0.0 < phi < theta < math.pi:
        raise ValueError(
            f"sector angles must satisfy 0 < phi < theta < pi; got ({phi}, {theta})")
    return (angular_density_deriv(d, theta)
            - angular_density_deriv(d, phi)
            + d * d * _density_integral(d, phi, theta))


def near_axis_coefficient(d: int, theta: float) -> float:
    """(1/(2 pi d)) * [h'(theta) + d^2 * integral of h over (0, theta)].

    Multiplied by (a r)^d this is the leading count of resonances in the
    sector hugging the negative real axis with opening theta.
    """
    _check_dimension(d)
    if not 0.0 < theta < math.pi:
        raise ValueError(f"angle must lie in (0, pi); got {theta}")
    bracket = (angular_density_deriv(d, theta)
               + d * d * _density_integral(d, 0.0, theta))
    return bracket / (2.0 * math.pi * d)


# ---------------------------------------------------------------------------
# Density tables
# ---------------------------------------------------------------------------

# slack of the nonnegativity and symmetry checks of DensityTable.validate
_TABLE_TOL = 1e-8


@dataclass
class DensityTable:
    """Sampled angular density and derivative on a theta grid."""

    d: int
    thetas: np.ndarray
    h: np.ndarray
    h_prime: np.ndarray
    c_d: float
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def validate(self) -> None:
        """Raise if table invariants do not hold, to ``_TABLE_TOL``."""
        th = self.thetas
        if not np.all(np.diff(th) > 0):
            raise ValueError("theta grid must be strictly increasing")
        if th[0] == 0.0 and self.h[0] != 0.0:
            raise ValueError("h(0) must be exactly 0")
        if th[-1] == math.pi and self.h[-1] != 0.0:
            raise ValueError("h(pi) must be exactly 0")
        if np.any(self.h < -_TABLE_TOL):
            raise ValueError("density must be nonnegative")
        # symmetry about pi/2 wherever the grid has mirror pairs
        mirrored = math.pi - th[::-1]
        if np.allclose(mirrored, th, atol=1e-12):
            if np.max(np.abs(self.h - self.h[::-1])) > _TABLE_TOL:
                raise ValueError("density table violates symmetry about pi/2")
            mid_err = np.abs(self.h_prime + self.h_prime[::-1])
            if np.max(mid_err) > 10 * _TABLE_TOL:
                raise ValueError("derivative table violates antisymmetry about pi/2")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write("theta,h,h_prime\n")
            for t, h, hp in zip(self.thetas, self.h, self.h_prime):
                f.write(f"{t:.17g},{h:.17g},{hp:.17g}\n")

    def to_json(self, path) -> None:
        doc = {
            "d": self.d,
            "c_d": self.c_d,
            "quad": self.quad.to_dict(),
            "rows": [
                {"theta": float(t), "h": float(h), "h_prime": float(hp)}
                for t, h, hp in zip(self.thetas, self.h, self.h_prime)
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    @classmethod
    def from_json(cls, path) -> "DensityTable":
        with open(path) as f:
            doc = json.load(f)
        rows = doc["rows"]
        return cls(
            d=doc["d"],
            thetas=np.array([r["theta"] for r in rows]),
            h=np.array([r["h"] for r in rows]),
            h_prime=np.array([r["h_prime"] for r in rows]),
            c_d=doc["c_d"],
            quad=QuadratureSpec.from_dict(doc["quad"]),
        )


def build_density_table(d: int, n_thetas: int = 181,
                        spec: QuadratureSpec = DEFAULT_QUAD) -> DensityTable:
    """Tabulate the density and derivative on a uniform inclusive grid.

    Endpoint rows carry the defining values: h = 0 exactly, and the
    derivative column holds the closed-form one-sided limits (the quadrature
    form is only defined strictly inside the interval).
    """
    _check_dimension(d)
    if n_thetas < 3:
        raise ValueError("need at least 3 grid points")
    thetas = np.linspace(0.0, math.pi, n_thetas)
    h = np.zeros(n_thetas)
    hp = np.zeros(n_thetas)
    hp0 = angular_density_deriv_at_zero(d)
    hp[0], hp[-1] = hp0, -hp0
    for i in range(1, n_thetas - 1):
        h[i] = angular_density(d, float(thetas[i]), spec)
        hp[i] = angular_density_deriv(d, float(thetas[i]), spec)
    return DensityTable(d=d, thetas=thetas, h=h, h_prime=hp,
                        c_d=weyl_constant(d, spec), quad=spec)
