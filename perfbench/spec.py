"""What the benchmark measures: workloads, metrics and bounds.

``BENCHMARK.json`` at the root of the repository is written from this file
by ``python3 perfbench/run.py --write-spec``.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 5

WORKLOADS = [
    ("reference_well",
     "a = 1, v0 = -20 solved at R = 8 in one process: tile windings and "
     "Bessel/Hankel pairs do nearly all the work; the plain baseline"),
    ("weak_wells",
     "free well at R = 40 and v0 = -1e-12 at R = 20: the matcher's "
     "multiplication-theorem series path and the ell_cutoff overshoot"),
    ("complex_family",
     "3 x 3 bump grid of the line from v0 = -20 to -12+3i at r = 6 on 2 "
     "pool workers: complex v0, the process pool and its load balance"),
    ("asymptotics",
     "Weyl constant in 1-D and 2-D form, a d = 3 density table, sector "
     "predictions and ln|det S|: density quadratures, a small solve only"),
]

# (name, unit, better, bound)
# The time bounds are the widest allowed: on the 2-core machine the
# benchmark was written on, calibrated medians still spread by 5 to 15 %
# between runs.  Peak RSS repeats to 0.5 %.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("density_s", "s", "lower", 0.25),
    ("det_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# (name, unit, better)
PER_LAYER = [
    ("special.h_pair.points", "count", "lower"),
    ("special.h_pair.us_per_point", "us", "lower"),
    ("special.j_pair.points", "count", "lower"),
    ("special.j_pair.us_per_point", "us", "lower"),
    ("special.bessel_phase.calls", "count", "lower"),
    ("special.bessel_phase.us_per_call", "us", "lower"),
    ("resonances.matcher.points", "count", "lower"),
    ("resonances.matcher.us_per_point", "us", "lower"),
    ("resonances.matcher.self_s", "s", "lower"),
    ("resonances.matcher.j_pairs_per_point", "ratio", "lower"),
    ("resonances.tile_points", "count", "lower"),
    ("resonances.channels_solved", "count", "lower"),
    ("resonances.channels_nonempty", "count", "higher"),
    ("resonances.cutoff_s", "s", "lower"),
    ("resonances.points_per_resonance", "ratio", "lower"),
    ("resonances.det.channels", "count", "lower"),
    ("resonances.det.us_per_channel", "us", "lower"),
    ("contour.locate.calls", "count", "lower"),
    ("contour.locate_s", "s", "lower"),
    ("contour.winding.calls", "count", "lower"),
    ("contour.winding_s", "s", "lower"),
    ("contour.points", "count", "lower"),
    ("contour.self_s", "s", "lower"),
    ("counting.member_s.max", "s", "lower"),
    ("counting.member_s.median", "s", "lower"),
    ("counting.pool_efficiency", "ratio", "higher"),
    ("density.angular_density.calls", "count", "lower"),
    ("density.angular_density.us_per_call", "us", "lower"),
    ("density.weyl_2d_s", "s", "lower"),
    ("density.predict_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
