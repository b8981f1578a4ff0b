"""Solve a fixed list of 48 resonance sets and compare two such dumps.

A change to the solver that should not change its output is checked by
dumping the sets before and after and comparing the dumps:

    PYTHONPATH=src python tools/solve_sets.py dump after.json
    PYTHONPATH=../parent/src python tools/solve_sets.py dump before.json
    PYTHONPATH=src python tools/solve_sets.py compare before.json after.json

``dump`` writes, per set, the set's recorded ``zero_tol`` and every
(ell, Re lambda, Im lambda, multiplicity, residual), with floats written
by ``repr`` so they read back exactly.  ``compare`` prints
``identical`` or ``different`` per set and exits with status 1 when any set
differs or is missing from either file.  When the ``density`` entry
differs, it is followed by one ``identical`` or ``different
density.<key>`` line per key of the entry, so a change that should move one
density result shows which ones moved; the ``det`` and ``pairs`` entries
are compared the same way, with ``det.<key>`` and ``pairs.<key>`` lines.
A ``different`` key line also gives the largest absolute shift and the
largest relative shift (to the larger modulus) over the key's numbers,
when both dumps hold the same layout of numbers under the key:

    different  density.weyl_constant  (max shift 2.2e-16 abs, 1.2e-16 rel)

A ``pairs.<key>`` line gives instead the largest shift in log form over
its rows: per row the larger shift of log f_(l-1) + s and log f_l + s,
the phase wrapped, over max(1, |log f|), since a part of a normal-form
member near 0 moves by a large share of itself when its log barely moves:

    different  pairs.j  (max shift 1.5e-14 in log)

``compare --tol`` is for a change that may move located zeros in their last
bits: a set that is not identical prints ``close`` when both dumps have the
same resonance count per channel, and each resonance pairs off with the
nearest unpaired one of its channel and multiplicity in the other dump,
within the smaller recorded ``zero_tol``.
It exits with status 1 only when a set is ``different``; the ``density``,
``det`` and ``pairs`` entries are still compared exactly.

The 48 sets: the a = 1, v0 = -20 reference well at R = 40; the 21 members of
the acceptance family (v0 = -20 to -12+3i, 5 x 5 bump grid) at r = 25;
v0 = -20 at R = 6 and 8; v0 = -5 at R = 30; v0 = -1e-12 at R = 20; the free
well at R = 12 and 40; the 9 members of the 3 x 3 family grid at r = 6
with their conj(v0) re-solves; and two wells of a != 1, so that the
a-dependent arithmetic is covered: a = 0.5, v0 = -80 at R = 20 and a = 2,
v0 = -5+1i at R = 10.

The dump also writes one ``density`` entry, so that a change to the
density quadratures is checked the same way: ``weyl_constant`` for d = 3
and 5, ``weyl_constant_2d(3)`` at its default and at a 1e-3 tolerance, the
rows and ``c_d`` of a 181-row d = 3 table and of a 21-row one at 1e-6
tolerances, the predicted counts of the five r = 40 sectors of the
``asymptotics`` bench workload, two sector and near-axis coefficients,
and the ``jensen_suite`` residuals.

It writes one ``det`` entry too, so that a change to ``scattering_log_det``
is checked the same way: ``ln|det S|`` at the 26 det points of the solve
bench workloads and the 38 of the ``asymptotics`` workload, one key per
well and point set, for a = 1 with v0 = -20, complex(-20, 0), -1e-12 and
-16+1.5i and for a = 2, v0 = -20; for a = 1, v0 = -20, at r = 640 and
1000 on pi/4 and pi/2; and at finite near-pole points, where the channel
of the pole is screened in for the S-matrix pole check: the two bound
states of a = 1, v0 = -20 (3.682135i, ell = 0, and 2.676552i, ell = 1)
times 1 + 1e-9 and 1 + 1e-6, and the upper-half-plane zero of channel 0 of
a = 1, v0 = -20+2i (0.252484+3.689553i) times 1 + 1e-9.

And it writes one ``pairs`` entry, so that a change to the special
functions shows which values moved: the scaled pairs ``sph_j_pair_log`` and
``sph_h_pair_log``, one row (Re f_(l-1), Im f_(l-1), Re f_l, Im f_l, log
scale) per point, over 2,000 seeded draws of l < 1000 and |z| < 600, at
l = 1205, z = 11.288 - 394.735i, where j_l is below double range, and at
five points where no AMOS Hankel pair of order l is usable, so that a
change to a fallback seed shows as a shift of its rows: (60, 1e-5) and
(200, 3), carried up from the closed forms at order 0, and order 322 at
0.207 - 20i, - 25i and - 27i, carried up from the Hankel minimum's order.
The whole dump runs in one process and takes about 50 s on a 2-core Xeon VM.
"""

from __future__ import annotations

import cmath
import json
import math
import sys

import numpy as np

from resonance_atlas import density as dn
from resonance_atlas.contour import jensen_suite
from resonance_atlas.counting import FamilyExperiment, SectorQuery, predict_sector
from resonance_atlas.resonances import RadialStepPotential, find_resonances, scattering_log_det
from resonance_atlas.special import sph_h_pair_log, sph_j_pair_log

REFERENCE = RadialStepPotential(1.0, -20.0)
FAMILY_END = RadialStepPotential(1.0, complex(-12.0, 3.0))


def _family(r: float, n: int) -> list[RadialStepPotential]:
    exp = FamilyExperiment.on_bump_grid(REFERENCE, FAMILY_END, r=r, n=n,
                                        bump_radius=0.5)
    return [exp.potential_at(exp.zs[i]) for i in exp.active_indices()]


def all_sets() -> list[tuple[str, RadialStepPotential, float]]:
    """(name, potential, search radius) of the 48 sets."""
    sets = [("reference R=40", REFERENCE, 40.0)]
    sets += [(f"family r=25 v0={complex(p.v0)!r}", p, 25.0) for p in _family(25.0, 5)]
    sets += [("v0=-20 R=6", REFERENCE, 6.0), ("v0=-20 R=8", REFERENCE, 8.0),
             ("v0=-5 R=30", RadialStepPotential(1.0, -5.0), 30.0),
             ("v0=-1e-12 R=20", RadialStepPotential(1.0, -1e-12), 20.0),
             ("free R=12", RadialStepPotential(1.0, 0.0), 12.0),
             ("free R=40", RadialStepPotential(1.0, 0.0), 40.0)]
    for p in _family(6.0, 3):
        conj = RadialStepPotential(p.a, p.v0.conjugate())
        sets += [(f"complex_family r=6 v0={complex(p.v0)!r}", p, 6.0),
                 (f"complex_family r=6 v0={complex(conj.v0)!r} (conj)", conj, 6.0)]
    sets += [("a=0.5 v0=-80 R=20", RadialStepPotential(0.5, -80.0), 20.0),
             ("a=2 v0=-5+1j R=10", RadialStepPotential(2.0, complex(-5.0, 1.0)), 10.0)]
    return sets


def solve(pot: RadialStepPotential, R: float) -> dict:
    rset = find_resonances(pot, R)
    return {"zero_tol": rset.tolerances["zero_tol"],
            "resonances": [[r.ell, r.lam.real, r.lam.imag, r.multiplicity, r.residual]
                           for r in rset.resonances]}


def _table(table: dn.DensityTable) -> dict:
    return {"c_d": table.c_d,
            "rows": [[float(t), float(h), float(hp)]
                     for t, h, hp in zip(table.thetas, table.h, table.h_prime)]}


def density_entry() -> dict:
    """The density layer's quadrature results, as listed in the module docstring."""
    pi = math.pi
    edges = [pi, pi + pi / 8, pi + 3 * pi / 8, pi + 5 * pi / 8, pi + 7 * pi / 8, 2 * pi]
    listed, sectors, randomized = jensen_suite()
    return {
        "weyl_constant": [dn.weyl_constant(3), dn.weyl_constant(5)],
        "weyl_constant_2d": [dn.weyl_constant_2d(3), dn.weyl_constant_2d(3, abs_tol=1e-3)],
        "table_181": _table(dn.build_density_table(3, 181)),
        "table_21": _table(dn.build_density_table(3, 21, dn.QuadratureSpec(1e-6, 1e-6))),
        "sectors": [predict_sector(3, 1.0, SectorQuery(40.0, lo, hi))
                    for lo, hi in zip(edges, edges[1:])],
        "near_axis_coefficient": dn.near_axis_coefficient(3, 0.9),
        "sector_density": dn.sector_density(5, 0.3, 0.9),
        "jensen": [[res for _, res, *_ in listed + sectors], randomized],
    }


def _det_points(radii, n_angles: int, reals) -> list[complex]:
    """The det points of a bench workload: n_angles rays in the upper half
    plane at each radius, and +-x on the real axis."""
    upper = [rho * cmath.exp(1j * math.pi * k / (n_angles + 1))
             for rho in radii for k in range(1, n_angles + 1)]
    return upper + [complex(s * x, 0.0) for x in reals for s in (1, -1)]


BOUND_STATES = (3.6821352559107354j, 2.676552411683095j)  # a = 1, v0 = -20, ell = 0 and 1
# channel 0's zero of a = 1, v0 = -20+2i, located by locate_zeros to 1e-13
COMPLEX_EIGENVALUE = 0.25248428790364 + 3.689552720964342j

DET_POINTS = {"solve": _det_points((5.0, 10.0, 15.0, 20.0), 5, (3.0, 7.5, 18.0)),
              "asymptotics": _det_points((10.0, 20.0, 30.0, 40.0), 7,
                                         (2.5, 5.0, 10.0, 20.0, 35.0))}


def det_entry() -> dict:
    """ln|det S| values, as listed in the module docstring."""
    wells = [("v0=-20", REFERENCE),
             ("v0=complex(-20, 0)", RadialStepPotential(1.0, complex(-20.0, 0.0))),
             ("v0=-1e-12", RadialStepPotential(1.0, -1e-12)),
             ("v0=-16+1.5j", RadialStepPotential(1.0, complex(-16.0, 1.5))),
             ("a=2 v0=-20", RadialStepPotential(2.0, -20.0))]
    entry = {f"{name} {tag}": [float(scattering_log_det(pot, lam)) for lam in points]
             for name, pot in wells for tag, points in DET_POINTS.items()}
    entry["v0=-20 r=640,1000"] = [float(scattering_log_det(REFERENCE, r * cmath.exp(1j * t)))
                                  for r in (640.0, 1000.0) for t in (math.pi / 4, math.pi / 2)]
    entry["v0=-20,-20+2j near-pole"] = (
        [float(scattering_log_det(REFERENCE, lam * (1.0 + d)))
         for lam in BOUND_STATES for d in (1e-9, 1e-6)]
        + [float(scattering_log_det(RadialStepPotential(1.0, complex(-20.0, 2.0)),
                                    COMPLEX_EIGENVALUE * (1.0 + 1e-9)))])
    return entry


# Hankel fallback rows: carried up from the closed forms at order 0 (on the
# real axis) and from the Hankel minimum's order (below it)
CARRIED_PAIRS = [(60, 1e-5 + 0j), (200, 3.0 + 0j),
                 (322, 0.207 - 20j), (322, 0.207 - 25j), (322, 0.207 - 27j)]


def pair_points() -> tuple[np.ndarray, np.ndarray]:
    """(orders, arguments) of the pairs entry, as listed in the module docstring."""
    rng = np.random.default_rng(11)
    ell = rng.integers(0, 1000, 2000)
    z = rng.uniform(0.01, 600.0, 2000) * np.exp(1j * rng.uniform(-math.pi, math.pi, 2000))
    more_ell, more_z = zip(*([(1205, 11.288 - 394.735j)] + CARRIED_PAIRS))
    return np.append(ell, more_ell), np.append(z, more_z)


def pairs_entry() -> dict:
    """Both scaled pairs at the pair points, one row per point."""
    ell, z = pair_points()
    return {name: [[p.real, p.imag, q.real, q.imag, s] for p, q, s in zip(*pair(ell, z))]
            for name, pair in (("j", sph_j_pair_log), ("h", sph_h_pair_log))}


def dump(path, sets=None) -> None:
    """Write the given sets, or the 48 sets and the density, det and pairs
    entries."""
    doc = {name: solve(pot, R) for name, pot, R in (sets or all_sets())}
    if sets is None:
        doc["density"] = density_entry()
        doc["det"] = det_entry()
        doc["pairs"] = pairs_entry()
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def _close(a: dict, b: dict) -> bool:
    """True if each resonance of the set a pairs off with the nearest
    unpaired resonance of the set b of its channel and multiplicity, within
    the smaller recorded zero_tol, leaving none of b unpaired."""
    if "zero_tol" not in a or "zero_tol" not in b:
        return False
    tol = min(a["zero_tol"], b["zero_tol"])
    unpaired = {}
    for ell, re, im, mult, _ in b["resonances"]:
        unpaired.setdefault((ell, mult), []).append(complex(re, im))
    for ell, re, im, mult, _ in a["resonances"]:
        partners, z = unpaired.get((ell, mult)), complex(re, im)
        if not partners:
            return False
        if abs(partners.pop(min(range(len(partners)),
                                key=lambda i: abs(partners[i] - z))) - z) > tol:
            return False
    return not any(unpaired.values())


def _leaves(v, path=()):
    """(path, value) of every leaf of a JSON value."""
    if isinstance(v, (dict, list)):
        for k, x in (v.items() if isinstance(v, dict) else enumerate(v)):
            yield from _leaves(x, path + (k,))
    else:
        yield path, v


def _shift(a, b) -> str:
    """The largest absolute and relative shift between the numbers of a and
    b, or "" when their layouts differ."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    if la.keys() != lb.keys():
        return ""
    moved = [(abs(x - y), abs(x - y) / max(abs(x), abs(y)))
             for k, x in la.items() if (y := lb[k]) != x
             and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))]
    most_abs, most_rel = (max(m) for m in zip(*moved)) if moved else (0.0, 0.0)
    return f"  (max shift {most_abs:.1e} abs, {most_rel:.1e} rel)"


def _log_shift(a, b) -> str:
    """The largest shift between two lists of pair rows (Re f_(l-1), Im
    f_(l-1), Re f_l, Im f_l, s), in log form: per row the larger shift of
    log f_(l-1) + s and log f_l + s, the phase wrapped, over max(1, |log f|);
    "" when their layouts differ."""
    ra, rb = np.array(a, dtype=float), np.array(b, dtype=float)
    if ra.shape != rb.shape or ra.ndim != 2 or ra.shape[1] != 5:
        return ""
    fa, fb = ra[:, [0, 2]] + 1j * ra[:, [1, 3]], rb[:, [0, 2]] + 1j * rb[:, [1, 3]]
    sa, sb = ra[:, 4:], rb[:, 4:]
    with np.errstate(divide="ignore", invalid="ignore"):
        moved = np.abs(np.log(fa / fb) + (sa - sb))  # log(fa / fb) wraps the phase
        size = np.fmax(np.abs(np.log(fa) + sa), np.abs(np.log(fb) + sb))
    return f"  (max shift {np.max(moved / np.fmax(size, 1.0)):.1e} in log)"


def _compare_entries(a: dict, b: dict, prefix: str = "", tol: bool = False) -> bool:
    """Print identical/different (with ``tol``, close for a set that passes
    ``_close``) per key of either dict, and per key of a differing
    ``density``, ``det`` or ``pairs`` entry; True if no key is different."""
    all_same = True
    for key in list(a) + [k for k in b if k not in a]:
        both = key in a and key in b
        status = "identical" if both and a[key] == b[key] else "different"
        entry = not prefix and key in ("density", "det", "pairs")
        if status == "different" and both and tol and not entry and _close(a[key], b[key]):
            status = "close"
        shift = ((_log_shift if prefix == "pairs." else _shift)(a[key], b[key])
                 if status == "different" and both and prefix else "")
        print(f"{status:<9}  {prefix}{key}{shift}")
        if status == "different" and both and entry:
            _compare_entries(a[key], b[key], f"{key}.")
        all_same &= status != "different"
    return all_same


def compare(path_a, path_b, tol: bool = False) -> int:
    """Print identical/different (or close, with ``tol``) per set; 1 if any
    set differs, else 0."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    return 0 if _compare_entries(a, b, tol=tol) else 1


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "dump":
        dump(args[1])
        return 0
    if args[:1] == ["compare"] and len(args) in (3, 4) and args[1:-2] in ([], ["--tol"]):
        return compare(args[-2], args[-1], tol=len(args) == 4)
    print("usage: solve_sets.py dump OUT.json | compare [--tol] A.json B.json",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
