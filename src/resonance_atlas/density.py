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
-Re rho(t e^{i theta}) <= 2 t for t >= 2).  Every integral is one row of
a batch of the one checked quadrature, ``_integrate`` (QUADPACK's adaptive
21-point Gauss-Kronrod rule, all rows in one numpy pass per round): a table
takes all its h rows in one batch and all its h' rows in another, and the
theta quadratures of c_d and of the sector integrals take the density at
all their nodes of a round as one batch of radial rows.  The
two-dimensional cross-check nests the same quadrature in log1p-mapped
Cartesian axes, from the support's edge (see weyl_constant_2d).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, QuadratureError
from .special import (_EPS, _branch_sqrt_one_minus_z2, _root, bessel_phase,
                      critical_curve_modulus)

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

# QUADPACK's 21-point Gauss-Kronrod pair (qk21): the Kronrod nodes on
# [-1, 1], their weights, and the 10-point Gauss weights of the odd nodes
# (0 at the Kronrod-only nodes)
_GK_HALF = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
            0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
            0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
            0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
            0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_GK_X = np.array(_GK_HALF + (0.0,) + tuple(-x for x in reversed(_GK_HALF)))
_K_HALF = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
           0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
           0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
           0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
           0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_GK_K = np.array(_K_HALF + (0.149445554002916905664936468389821,) + _K_HALF[::-1])
_G_HALF = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
           0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
           0.0, 0.295524224714752870173892994651338)
_GK_G = np.array(_G_HALF + (0.0,) + _G_HALF[::-1])


def _gk21(fn, lo, hi, rows):
    """The qk21 estimates and error estimates of the integrals of fn over the
    intervals [lo, hi] (shape (len(rows), j)), interval k of row rows[k]."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = c[..., None] + h[..., None] * _GK_X
    f = fn(x.reshape(len(rows), -1), rows).reshape(x.shape)
    kron, width = (f * _GK_K).sum(-1), abs(h)
    asc = (abs(f - 0.5 * kron[..., None]) * _GK_K).sum(-1) * width
    err = abs(kron - (f * _GK_G).sum(-1)) * width
    scaled = asc * np.minimum(1.0, (200.0 * err / np.where(asc > 0.0, asc, 1.0)) ** 1.5)
    err = np.where((asc > 0.0) & (err > 0.0), scaled, err)
    # QUADPACK's floor: the rounding error of the sum itself
    return kron * h, np.maximum(err, 50.0 * _EPS * (abs(f) * _GK_K).sum(-1) * width)


def _integrate(fn, a, b, what, abs_tol, rel_tol):
    """Integrals of fn over finite intervals [a, b] by QUADPACK's adaptive
    21-point Gauss-Kronrod rule, one integral per row of the broadcast of
    a, b and the tolerances; a float when all four are scalars.

    ``fn(x, rows)`` evaluates the integrand of row ``rows[k]`` at the nodes
    ``x[k]`` (a 2-D array): one call per round covers every live interval.
    Each round, every row whose summed error estimate exceeds
    ``max(abs_tol, rel_tol |I|)`` bisects its interval of largest estimate
    (qk21's ``resasc min(1, (200 |K - G| / resasc)^1.5)``, floored at 50 eps
    ``resabs``).  A row still short at ``_QUAD_LIMIT`` subintervals raises
    QuadratureError, named by ``what`` (a string, or a function of the row
    index) and carrying the row's estimate and error.  The rows do not
    interact, so each row's result is the same, bit for bit, in any batch.
    """
    shape = np.broadcast_shapes(*map(np.shape, (a, b, abs_tol, rel_tol)))
    a, b, abs_tol, rel_tol = (np.array(v, dtype=float).ravel() for v in
                              np.broadcast_arrays(a, b, abs_tol, rel_tol))
    # the intervals of the live rows, one column each, in the order made
    rows, lo, hi = np.arange(a.size), a[:, None], b[:, None]
    val, err = _gk21(fn, lo, hi, rows)
    out = np.zeros(a.size)
    while True:
        count = lo.shape[1]
        total, error = val.sum(1), err.sum(1)
        done = error <= np.maximum(abs_tol[rows], rel_tol[rows] * abs(total))
        out[rows[done]] = total[done]
        if done.all():
            break
        keep = ~done
        rows, lo, hi, val, err = rows[keep], lo[keep], hi[keep], val[keep], err[keep]
        if count == _QUAD_LIMIT:
            name = what(rows[0]) if callable(what) else what
            total, error = total[keep][0], error[keep][0]
            raise QuadratureError(
                f"{name}: quadrature failed to converge in {count} subintervals "
                f"(estimate {total:.10g}, error {error:.3g})",
                estimate=float(total), achieved_error=float(error))
        # each live row bisects its worst interval into it and a new column
        k, worst = np.arange(rows.size), err.argmax(1)
        left, right = lo[k, worst], hi[k, worst]
        mid = 0.5 * (left + right)
        v, e = _gk21(fn, np.stack([left, mid], 1), np.stack([mid, right], 1), rows)
        hi[k, worst], val[k, worst], err[k, worst] = mid, v[:, 0], e[:, 0]
        lo, hi = np.column_stack([lo, mid]), np.column_stack([hi, right])
        val, err = np.column_stack([val, v[:, 1]]), np.column_stack([err, e[:, 1]])
    return out.reshape(shape) if shape else float(out[0])


def angular_density_tail_bound(d: int, radius: float) -> float:
    """Analytic bound on the truncated tail of the angular-density integral."""
    _check_dimension(d)
    return 8.0 / math.factorial(d - 2) * radius ** (1 - d) / (d - 1)


def _radial_integral(d: int, theta, spec: QuadratureSpec, what: str, f):
    """(4/(d-2)!) times the integrals of f(t e^{i theta}) / t^(d+1) dt from
    the critical curve |z0(theta)| to the truncation radius, in x = ln t,
    for the 1-D array of angles theta in one batch."""
    t0 = critical_curve_modulus(theta)
    T = np.maximum(spec.radius_for(d), 4.0 * t0)
    eith = np.exp(1j * theta)

    def integrand(x, rows):
        return f(np.exp(x) * eith[rows, None]) * np.exp(-d * x)

    fact = math.factorial(d - 2)
    raw = _integrate(integrand, np.log(t0), np.log(T),
                     lambda i: f"{what}(d={d}, theta={theta[i]:.6g})",
                     spec.abs_tol * fact / 4.0 * 0.45, spec.rel_tol)
    return 4.0 / fact * raw


def _minus_re_phase(z):
    v = -bessel_phase(z).real
    return np.where(v < 0.0, 0.0, v)  # roundoff just outside the curve


def angular_density(d: int, theta: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """The angular density at theta in [0, pi]; exactly 0 at the endpoints."""
    _check_dimension(d)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"angle must lie in [0, pi]; got {theta}")
    if theta == 0.0 or theta == math.pi:
        return 0.0
    return float(_radial_integral(d, np.array([theta], dtype=float), spec,
                                  "angular_density", _minus_re_phase)[0])


def angular_density_d3_closed(theta):
    """Closed form of the d=3 angular density on (0, pi), at a float or an
    array of angles (a float or an array back).

    (4/9) * ( sin(3 theta) + Re[(1 - z0^2)^{3/2} / |z0|^3] ) with the same
    square-root branch convention as the phase function.
    """
    m = critical_curve_modulus(theta)  # checks the angles
    th = np.asarray(theta, dtype=float)
    w = _branch_sqrt_one_minus_z2(m * np.exp(1j * th))
    out = 4.0 / 9.0 * (np.sin(3.0 * th) + (w ** 3).real / m ** 3)
    return out if th.ndim else float(out)


def _dtheta_minus_re_phase(z):
    return -_branch_sqrt_one_minus_z2(z).imag


def angular_density_deriv(d: int, theta: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """d/dtheta of the angular density, for theta strictly inside (0, pi).

    Differentiating under the integral sign is legitimate because the phase
    function satisfies d rho(t e^{i theta})/d theta = -i sqrt(1-(t e^{i theta})^2)
    and the boundary term vanishes (Re rho = 0 on the critical curve).
    """
    _check_dimension(d)
    if not 0.0 < theta < math.pi:
        raise ValueError(f"angle must lie in (0, pi); got {theta}")
    return float(_radial_integral(d, np.array([theta], dtype=float), spec,
                                  "angular_density_deriv", _dtheta_minus_re_phase)[0])


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


# c_d per (d, spec), and the near-axis coefficient per exact (d, theta)
_cd_cache: dict = {}


def _density_rows(d: int, spec: QuadratureSpec):
    """The angular density as the vectorised integrand of a theta quadrature."""
    def h(theta, rows):
        return _radial_integral(d, theta.ravel(), spec, "angular_density",
                                _minus_re_phase).reshape(theta.shape)
    return h


def weyl_constant(d: int, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """c_d = (d/2pi) * integral of the angular density over (0, pi).

    Evaluated on (0, pi/2] and doubled (the density is symmetric about
    pi/2); results are cached per (d, spec).
    """
    _check_dimension(d)
    key = (d, spec)
    if key in _cd_cache:
        return _cd_cache[key]
    value = _integrate(_density_rows(d, spec), 0.0, math.pi / 2.0,
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
    axis at x = 1; the two pieces are two rows of one batch), inner over y
    from the edge y_c(x) to |z| = T, both in u = log1p(.).  Each outer round
    takes the inner integrals of all its nodes in one batch; their edges
    y_c are 0 for x >= 1, else the sign change of -Re rho(x+iy) on (0, 1],
    all found by one elementwise root search to 2e-12.  The quadratures share
    the other abs_tol/2: with tol = abs_tol/(4 coeff) on the quarter plane,
    3 tol/8 per outer piece and tol/(4 ln(1+T)(1+x)) per inner integral,
    whose errors times the outer's Jacobian 1+x sum to at most tol/4 over a
    u-range of length ln(1+T).
    """
    _check_dimension(d)
    if not 0 < abs_tol < math.inf:
        raise ValueError(f"abs_tol must be positive and finite, got {abs_tol}")
    coeff = 2.0 * d / (math.pi * math.factorial(d - 2))
    T = (8.0 / (d - 1) * coeff / abs_tol) ** (1.0 / (d - 1))
    tol, uT = abs_tol / coeff / 4.0, math.log1p(T)
    what = f"weyl_constant_2d(d={d}, abs_tol={abs_tol:g})"

    def over_y(u, rows):
        x = np.expm1(u).ravel()
        near = np.flatnonzero(x < 1.0)
        xn = x[near]

        def edge(y):
            return -bessel_phase(xn + 1j * y).real

        has_edge = (edge(0.0) < 0.0) & (0.0 < edge(1.0))
        if not has_edge.all():
            raise NumericalError(f"{what}: no support edge on y in (0, 1] "
                                 f"at x = {float(xn[~has_edge][0])!r}")
        y_c = np.zeros_like(x)
        y_c[near] = _root(edge, 0.0, np.ones(near.size), xtol=2e-12)
        v_lo, v_hi = np.log1p(y_c), np.log1p(np.sqrt(np.maximum(T * T - x * x, 0.0)))

        def integrand(v, rows):
            y, xr = np.expm1(v), x[rows, None]
            return _minus_re_phase(xr + 1j * y) * (1.0 + y) / (xr * xr + y * y) ** (0.5 * d + 1)

        inner = _integrate(integrand, v_lo, v_hi, lambda i: f"{what} inner at x = {x[i]:.6g}",
                           tol / (4.0 * uT * (1.0 + x)), 0.0)
        return ((1.0 + x) * inner).reshape(u.shape)

    starts = np.array([0.0, math.log(2.0)])
    pieces = _integrate(over_y, starts, np.array([math.log(2.0), uT]),
                        lambda i: f"{what} outer from u = {starts[i]:.4g}", 3 * tol / 8, 0.0)
    return float(coeff * 2.0 * (pieces[0] + pieces[1]))  # doubled for x < 0


def _density_integral(d: int, lo: float, hi: float) -> float:
    """integral of the angular density over [lo, hi] inside [0, pi]."""
    return _integrate(_density_rows(d, DEFAULT_QUAD), lo, hi,
                      f"density integral over [{lo:.6g}, {hi:.6g}]",
                      1e-9, DEFAULT_QUAD.rel_tol)


def sector_density(d: int, phi: float, theta: float) -> float:
    """h'(theta) - h'(phi) + d^2 * integral of h over [phi, theta]."""
    _check_dimension(d)
    if not 0.0 < phi < theta < math.pi:
        raise ValueError(
            f"sector angles must satisfy 0 < phi < theta < pi; got ({phi}, {theta})")
    hp = _radial_integral(d, np.array([theta, phi], dtype=float), DEFAULT_QUAD,
                          "angular_density_deriv", _dtheta_minus_re_phase)
    return float(hp[0] - hp[1] + d * d * _density_integral(d, phi, theta))


def near_axis_coefficient(d: int, theta: float) -> float:
    """(1/(2 pi d)) * [h'(theta) + d^2 * integral of h over (0, theta)];
    cached per exact (d, theta) in ``_cd_cache``, so that the two mirror
    sectors of a prediction share one quadrature.

    Multiplied by (a r)^d this is the leading count of resonances in the
    sector hugging the negative real axis with opening theta.
    """
    _check_dimension(d)
    if not 0.0 < theta < math.pi:
        raise ValueError(f"angle must lie in (0, pi); got {theta}")
    key = ("near_axis_coefficient", d, theta)
    if key not in _cd_cache:
        bracket = (angular_density_deriv(d, theta)
                   + d * d * _density_integral(d, 0.0, theta))
        _cd_cache[key] = bracket / (2.0 * math.pi * d)
    return _cd_cache[key]


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
    inner = thetas[1:-1]
    h[1:-1] = _radial_integral(d, inner, spec, "angular_density", _minus_re_phase)
    hp[1:-1] = _radial_integral(d, inner, spec, "angular_density_deriv", _dtheta_minus_re_phase)
    return DensityTable(d=d, thetas=thetas, h=h, h_prime=hp,
                        c_d=weyl_constant(d, spec), quad=spec)
