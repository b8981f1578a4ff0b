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
-Re rho(t e^{i theta}) <= 2 t for t >= 2).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad

from .errors import QuadratureError
from .special import bessel_phase, critical_curve_modulus, gamma_real

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
    """Tolerances and truncation controls for the density quadratures."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    truncation_radius: float | None = None  # None: derive from abs_tol
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.truncation_radius is not None and self.truncation_radius <= 1.0:
            raise ValueError("truncation radius must exceed 1")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")

    def radius_for(self, d: int) -> float:
        if self.truncation_radius is not None:
            return self.truncation_radius
        # (8/(d-2)!) T^(1-d)/(d-1) <= abs_tol/10
        fact = math.factorial(d - 2)
        return (80.0 / (fact * (d - 1) * self.abs_tol)) ** (1.0 / (d - 1))

    def to_dict(self):
        return {
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
            "truncation_radius": self.truncation_radius,
            "max_subdivisions": self.max_subdivisions,
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(
            abs_tol=doc["abs_tol"],
            rel_tol=doc["rel_tol"],
            truncation_radius=doc.get("truncation_radius"),
            max_subdivisions=doc["max_subdivisions"],
        )


DEFAULT_QUAD = QuadratureSpec()


def _check_dimension(d: int) -> int:
    if d < 3 or d % 2 == 0:
        raise ValueError(f"dimension must be an odd integer >= 3; got {d}")
    return int(d)


def _quad_checked(fn, a, b, spec: QuadratureSpec, what: str, abs_tol=None):
    tol = spec.abs_tol if abs_tol is None else abs_tol
    value, err, info, *rest = quad(
        fn, a, b, epsabs=tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions, full_output=1)
    if rest:
        raise QuadratureError(
            f"{what}: quadrature failed to converge ({rest[0].strip()})",
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
    raw = _quad_checked(integrand, math.log(t0), math.log(T), spec,
                        f"{what}(d={d}, theta={theta:.6g})",
                        abs_tol=spec.abs_tol * fact / 4.0 * 0.45)
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

    Equals sqrt(pi) * Gamma((d-1)/2) / ((d-2)! * Gamma(1 + d/2)); for d = 3
    this is 4/3.
    """
    _check_dimension(d)
    return math.sqrt(math.pi) * gamma_real((d - 1) / 2.0) / (
        math.factorial(d - 2) * gamma_real(1.0 + d / 2.0))


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
    value = _quad_checked(lambda th: angular_density(d, th, spec),
                          0.0, math.pi / 2.0, spec,
                          f"weyl_constant(d={d})", abs_tol=1e-8)
    out = d / (2.0 * math.pi) * 2.0 * value
    _cd_cache[key] = out
    return out


def weyl_constant_2d(d: int, abs_tol: float = 5e-7) -> float:
    """The same constant from the two-dimensional integral form.

    (2d / (pi (d-2)!)) * integral over the upper half plane of
    [-Re rho]_+(z) / |z|^(d+2) dx dy, evaluated in Cartesian coordinates as
    an independent cross-check of the one-dimensional form.  The integrand
    is even in x, and the region |z| > T contributes at most about
    2 (T^(1-d)/(d-1))(1+1/T) to the double integral.
    """
    _check_dimension(d)
    from scipy.integrate import dblquad

    fact = math.factorial(d - 2)
    coeff = 2.0 * d / (math.pi * fact)
    T = (8.0 / (d - 1) * coeff / abs_tol) ** (1.0 / (d - 1))
    inner_min = 0.60  # the critical curve keeps |z0| above ~0.6627

    def integrand(y, x):
        if y <= 0.0:
            return 0.0
        r2 = x * x + y * y
        if r2 <= inner_min * inner_min or r2 >= T * T:
            return 0.0
        v = -bessel_phase(complex(x, y)).real
        if v <= 0.0:
            return 0.0
        return v / r2 ** (0.5 * (d + 2))

    total = 0.0
    # split the x-range so the adaptive rule resolves the curved support edge
    for (xa, xb) in [(0.0, 1.2), (1.2, 8.0), (8.0, T)]:
        part, err = dblquad(integrand, xa, xb,
                            lambda x: 0.0, lambda x: math.sqrt(max(T * T - x * x, 0.0)),
                            epsabs=abs_tol / coeff / 4.0, epsrel=1e-7)
        total += part
    return coeff * 2.0 * total  # doubled for x < 0


def _density_integral(d: int, lo: float, hi: float) -> float:
    """integral of the angular density over [lo, hi] inside [0, pi]."""
    return _quad_checked(lambda th: angular_density(d, th), lo, hi, DEFAULT_QUAD,
                         f"density integral over [{lo:.6g}, {hi:.6g}]",
                         abs_tol=1e-9)


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

@dataclass
class DensityTable:
    """Sampled angular density and derivative on a theta grid."""

    d: int
    thetas: np.ndarray
    h: np.ndarray
    h_prime: np.ndarray
    c_d: float
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def validate(self, tol: float = 1e-8) -> None:
        """Raise if table invariants do not hold."""
        th = self.thetas
        if not np.all(np.diff(th) > 0):
            raise ValueError("theta grid must be strictly increasing")
        if th[0] == 0.0 and self.h[0] != 0.0:
            raise ValueError("h(0) must be exactly 0")
        if th[-1] == math.pi and self.h[-1] != 0.0:
            raise ValueError("h(pi) must be exactly 0")
        if np.any(self.h < -tol):
            raise ValueError("density must be nonnegative")
        # symmetry about pi/2 wherever the grid has mirror pairs
        mirrored = math.pi - th[::-1]
        if np.allclose(mirrored, th, atol=1e-12):
            if np.max(np.abs(self.h - self.h[::-1])) > tol:
                raise ValueError("density table violates symmetry about pi/2")
            mid_err = np.abs(self.h_prime + self.h_prime[::-1])
            if np.max(mid_err) > 10 * tol:
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
