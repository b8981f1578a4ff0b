"""Per-layer timing from outside the program, at its module boundaries.

``install`` replaces the names one module of ``resonance_atlas`` imports
from another (and the public functions the benchmark calls) with timing
wrappers; ``uninstall`` puts the originals back.  Every wrapped call is a
span: its seconds, its self seconds (minus the spans it caused), and the
points it evaluated.  Nothing inside the program is changed.

Family members solved in pool workers are traced in the worker: the
member function is replaced by ``traced_solve_member``, which attaches the
worker's record to the returned resonance set for the parent to merge.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

_perf = time.perf_counter


@dataclass
class Span:
    calls: int = 0
    points: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0

    def add(self, other: "Span") -> None:
        self.calls += other.calls
        self.points += other.points
        self.seconds += other.seconds
        self.self_seconds += other.self_seconds


@dataclass
class Tracer:
    """Span totals by name, plus the counters that need a caller context."""

    spans: dict = field(default_factory=dict)
    member_seconds: list = field(default_factory=list)
    det_channels: int = 0
    # matcher points by where they were evaluated
    contour_points: int = 0
    solve_points: int = 0   # inside find_resonances, contour calls included
    tile_points: int = 0    # inside find_resonances, outside contour calls
    _stack: list = field(default_factory=list)
    _in_solve: int = 0
    _in_contour: int = 0
    originals: list = field(default_factory=list)

    def reset(self) -> None:
        self.spans = {}
        self.member_seconds = []
        self.det_channels = 0
        self.contour_points = self.solve_points = self.tile_points = 0
        self._stack = []
        self._in_solve = self._in_contour = 0

    def span(self, name: str) -> Span:
        if name not in self.spans:
            self.spans[name] = Span()
        return self.spans[name]

    def snapshot(self) -> dict:
        return {"spans": {k: vars(v).copy() for k, v in self.spans.items()},
                "member_seconds": list(self.member_seconds),
                "det_channels": self.det_channels,
                "contour_points": self.contour_points,
                "solve_points": self.solve_points,
                "tile_points": self.tile_points}

    def merge(self, snap: dict) -> None:
        for name, values in snap["spans"].items():
            self.span(name).add(Span(**values))
        self.member_seconds.extend(snap["member_seconds"])
        for key in ("det_channels", "contour_points", "solve_points", "tile_points"):
            setattr(self, key, getattr(self, key) + snap[key])

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn, points_arg: int | None = None,
              region: str | None = None):
        """fn wrapped as span ``name``; ``points_arg`` is the index of the
        array argument whose size is the number of points evaluated;
        ``region`` marks calls that contain a solve or a contour walk."""
        tracer = self

        def wrapper(*args, **kwargs):
            children = [0.0]
            top = not tracer._stack
            tracer._stack.append(children)
            if region == "solve":
                tracer._in_solve += 1
            elif region == "contour":
                tracer._in_contour += 1
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                tracer._stack.pop()
                if region == "solve":
                    tracer._in_solve -= 1
                    if top:
                        tracer.member_seconds.append(dt)
                elif region == "contour":
                    tracer._in_contour -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                sp = tracer.span(name)
                sp.calls += 1
                sp.seconds += dt
                sp.self_seconds += dt - children[0]
                if points_arg is not None:
                    sp.points += int(np.size(args[points_arg]))

        wrapper.__wrapped__ = fn
        return wrapper

    def matcher_factory(self, factory):
        """channel_matcher_log wrapped so that every evaluator it returns is
        a span, with its points sorted by caller context."""
        tracer = self

        def make(ell, pot, kind=1):
            if kind == 2:
                tracer.det_channels += 1  # one incoming matcher per channel
            evaluate = tracer.timed("resonances.matcher", factory(ell, pot, kind), 0)

            def counted(lam):
                n = int(np.size(lam))
                if tracer._in_solve:
                    tracer.solve_points += n
                    if tracer._in_contour:
                        tracer.contour_points += n
                    else:
                        tracer.tile_points += n
                elif tracer._in_contour:
                    tracer.contour_points += n
                return evaluate(lam)
            return counted

        make.__wrapped__ = factory
        return make


# (module, attribute, span name, index of the points argument, region)
_BOUNDARY = [
    ("resonances", "sph_h_pair_log", "special.h_pair", 1, None),
    ("resonances", "sph_j_pair_log", "special.j_pair", 1, None),
    ("density", "bessel_phase", "special.bessel_phase", None, None),
    ("resonances", "locate_zeros", "contour.locate", None, "contour"),
    ("resonances", "_winding_with_perturbation", "contour.winding", None, "contour"),
    ("resonances", "ell_cutoff", "resonances.cutoff", None, None),
    ("resonances", "find_resonances", "resonances.find", None, "solve"),
    ("counting", "find_resonances", "resonances.find", None, "solve"),
    ("resonances", "scattering_log_det", "resonances.det", None, None),
    ("density", "angular_density", "density.angular_density", None, None),
    ("density", "weyl_constant_2d", "density.weyl_2d", None, None),
    ("counting", "weyl_constant", "density.predict", None, None),
    ("counting", "near_axis_coefficient", "density.predict", None, None),
    ("counting", "sector_density", "density.predict", None, None),
]

_active: Tracer | None = None


def install() -> Tracer:
    """Wrap the boundaries; returns the tracer that records them."""
    global _active
    import resonance_atlas

    if _active is not None:
        raise RuntimeError("tracing is already installed")
    tracer = Tracer()
    mods = {name: getattr(resonance_atlas, name)
            for name in ("resonances", "density", "counting")}

    def swap(mod, attr, new):
        tracer.originals.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    for mod_name, attr, span, points_arg, region in _BOUNDARY:
        mod = mods[mod_name]
        swap(mod, attr, tracer.timed(span, getattr(mod, attr), points_arg, region))
    rs = mods["resonances"]
    swap(rs, "channel_matcher_log", tracer.matcher_factory(rs.channel_matcher_log))
    swap(mods["counting"], "_solve_member", traced_solve_member)
    _active = tracer
    return tracer


def uninstall() -> None:
    global _active
    if _active is None:
        return
    for mod, attr, original in reversed(_active.originals):
        setattr(mod, attr, original)
    _active = None


def traced_solve_member(pot, r):
    """Pool-worker side of ``counting._solve_member`` under tracing.

    A forked worker inherits the parent's wrappers and tracer; a spawned
    one installs its own.  The record of this member alone travels back as
    the attribute ``bench_trace`` of the resonance set.
    """
    from resonance_atlas import counting

    tracer = _active if _active is not None else install()
    tracer.reset()
    rset = counting.find_resonances(pot, r)
    rset.bench_trace = tracer.snapshot()
    return rset


def collect_members(rsets, tracer: Tracer) -> None:
    """Merge the worker records carried by ``rsets`` into ``tracer``."""
    for rset in rsets:
        snap = rset.__dict__.pop("bench_trace", None)
        if snap is not None:
            tracer.merge(snap)


def layer_metrics(tracer: Tracer, solve_wall: float, workers: int,
                  channels_solved: int, channels_nonempty: int,
                  records: int) -> dict:
    """The per-layer metrics of one traced round, by name."""
    sp = tracer.span

    def per(total: float, count: float, scale: float = 1.0) -> float:
        return total / count * scale if count else 0.0

    h, j, m = sp("special.h_pair"), sp("special.j_pair"), sp("resonances.matcher")
    bp, ad = sp("special.bessel_phase"), sp("density.angular_density")
    loc, win = sp("contour.locate"), sp("contour.winding")
    members = tracer.member_seconds
    return {
        "special.h_pair.points": h.points,
        "special.h_pair.us_per_point": per(h.seconds, h.points, 1e6),
        "special.j_pair.points": j.points,
        "special.j_pair.us_per_point": per(j.seconds, j.points, 1e6),
        "special.bessel_phase.calls": bp.calls,
        "special.bessel_phase.us_per_call": per(bp.seconds, bp.calls, 1e6),
        "resonances.matcher.points": m.points,
        "resonances.matcher.us_per_point": per(m.seconds, m.points, 1e6),
        "resonances.matcher.self_s": m.self_seconds,
        "resonances.matcher.j_pairs_per_point": per(j.points, m.points),
        "resonances.tile_points": tracer.tile_points,
        "resonances.channels_solved": channels_solved,
        "resonances.channels_nonempty": channels_nonempty,
        "resonances.cutoff_s": sp("resonances.cutoff").seconds,
        "resonances.points_per_resonance": per(tracer.solve_points, records),
        "resonances.det.channels": tracer.det_channels,
        "resonances.det.us_per_channel": per(sp("resonances.det").seconds,
                                             tracer.det_channels, 1e6),
        "contour.locate.calls": loc.calls,
        "contour.locate_s": loc.seconds,
        "contour.winding.calls": win.calls,
        "contour.winding_s": win.seconds,
        "contour.points": tracer.contour_points,
        "contour.self_s": loc.self_seconds + win.self_seconds,
        "counting.member_s.max": max(members, default=0.0),
        "counting.member_s.median": statistics.median(members) if members else 0.0,
        "counting.pool_efficiency": per(sum(members), workers * solve_wall),
        "density.angular_density.calls": ad.calls,
        "density.angular_density.us_per_call": per(ad.seconds, ad.calls, 1e6),
        "density.weyl_2d_s": sp("density.weyl_2d").seconds,
        "density.predict_s": sp("density.predict").seconds,
    }
