"""Benchmark of the resonance-atlas pipeline, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload until S seconds have passed, checks the
outputs against computations made apart from the program, and prints every
metric by name with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced rounds
alternate and the metrics are the per-layer ones.  A record of the run is
written to ``perfbench/results/``.

``--write-spec`` writes ``BENCHMARK.json`` at the root of the checkout.
Exits 2 when the program's sources are not in the checkout, and 1 when a
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def _parse(argv):
    from perfbench import spec

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json and exit")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up, timed by the parent
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


@dataclass
class Round:
    outputs: dict     # label -> output of each stage's first pass
    seconds: dict     # stage -> seconds of every pass
    calibrated: dict  # stage -> the same, in calibrated seconds
    errors: list      # one line per failed operation
    identical: bool   # every later pass gave the first pass's outputs
    layers: dict | None = None  # per-layer metrics of a traced round

    @property
    def wall(self) -> float:
        return sum(map(sum, self.seconds.values()))


def run_round(wl) -> Round:
    """Each stage's operations in ``wl.passes[stage]`` timed passes."""
    from perfbench import calibration
    from perfbench.workloads import STAGES, fingerprint
    from resonance_atlas.errors import NumericalError

    rnd = Round({}, {st: [] for st in STAGES}, {st: [] for st in STAGES}, [], True)
    for stage in STAGES:
        ops = [(label, thunk) for st, label, thunk in wl.ops if st == stage]
        kernel = calibration.kernel_seconds()
        for k in range(wl.passes[stage]):
            wl.prepare(stage)
            results = {}
            t0 = time.perf_counter()
            for label, thunk in ops:
                try:
                    results[label] = thunk()
                except NumericalError as exc:
                    rnd.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            kernel_before, kernel = kernel, calibration.kernel_seconds()
            rnd.seconds[stage].append(dt)
            rnd.calibrated[stage].append(
                dt if stage in wl.raw_stages
                else calibration.calibrated(dt, kernel_before, kernel))
            if k == 0:
                rnd.outputs.update(results)
            elif any(fingerprint(v) != fingerprint(rnd.outputs.get(n))
                     for n, v in results.items()):
                rnd.identical = False
    return rnd


def traced_round(wl) -> Round:
    from perfbench import tracing

    tracer = tracing.install()
    try:
        rnd = run_round(wl)
    finally:
        tracing.uninstall()
    sets = [] if rnd.errors else wl.solved(rnd.outputs)
    tracing.collect_members(sets, tracer)
    n = wl.passes["solve"]  # counts are per round, like the points
    rnd.layers = tracing.layer_metrics(
        tracer, sum(rnd.seconds["solve"]), max(1, wl.pool_workers),
        channels_solved=n * sum(s.ell_max + 1 for s in sets),
        channels_nonempty=n * sum(len({r.ell for r in s.resonances}) for s in sets),
        records=n * sum(len(s.resonances) for s in sets))
    return rnd


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the point where the
    workload's first timed operation would begin (raw)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return t1 - t0


def _peak_rss_mb(pool_workers: int) -> float:
    """Peak resident memory of this process plus, for a pool, the workers:
    the largest worker's peak counted once per worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _machine() -> dict:
    import scipy

    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _number(x):
    return int(x) if isinstance(x, (int, np.integer)) else float(x)


def measure(wl, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Timed rounds, checks and metrics of one run."""
    from perfbench import calibration, spec, workloads

    rounds = []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(traced_round(wl) if traced else run_round(wl))
        if time.perf_counter() - t_start >= seconds and (not trace or len(rounds) >= 2):
            break
    peak_rss = _peak_rss_mb(wl.pool_workers)

    checks = []
    errors = [e for r in rounds for e in r.errors]
    if not errors:
        first = {k: workloads.fingerprint(v) for k, v in rounds[0].outputs.items()}
        same = all(r.identical for r in rounds) and all(
            {k: workloads.fingerprint(v) for k, v in r.outputs.items()} == first
            for r in rounds[1:])
        checks.append(("passes_identical", same,
                       f"every pass of {len(rounds)} rounds gave the same outputs"))
        try:
            checks += wl.check(rounds[0].outputs)
        except Exception:  # a check that raises fails the run, with its cause
            checks.append(("checks_completed", False,
                           traceback.format_exc().strip().splitlines()[-1]))
    untraced = [r for r in rounds if r.layers is None]
    if trace:
        traced = [r for r in rounds if r.layers is not None]
        values = {name: statistics.median(r.layers[name] for r in traced)
                  for name in traced[0].layers}
        counts = [n for n, unit, _ in spec.PER_LAYER if unit == "count"]
        checks.append(("layer_counts_repeat",
                       all(r.layers[n] == traced[0].layers[n] for r in traced for n in counts),
                       f"counts identical over {len(traced)} traced rounds"))
        values["trace.overhead"] = (statistics.median(r.wall for r in traced)
                                    / statistics.median(r.wall for r in untraced))
        units = {n: u for n, u, _ in spec.PER_LAYER}
    else:
        setup = []
        kernel = calibration.kernel_seconds()
        for _ in range(SETUP_PROBES):
            dt = probe_setup(workload, seed)
            kernel_before, kernel = kernel, calibration.kernel_seconds()
            setup.append(calibration.calibrated(dt, kernel_before, kernel))
        values = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss}
        for stage in workloads.STAGES:
            values[f"{stage}_s"] = statistics.median(
                t for r in untraced for t in r.calibrated[stage])
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    metrics = {n: {"value": _number(values[n]), "unit": units[n]} for n in units}
    return {
        "correct": bool(not errors and all(ok for _, ok, _ in checks)),
        "attempted": len(rounds) * sum(wl.passes[st] for st, _, _ in wl.ops),
        "failed": len(errors),
        "metrics": metrics,
        "rounds": len(rounds),
        "pass_seconds": [dict(r.seconds, traced=r.layers is not None) for r in rounds],
        "pass_calibrated_seconds": [r.calibrated for r in rounds],
        "checks": [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks],
        "errors": errors,
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    args = _parse(argv)
    if args.write_spec:
        from perfbench import spec

        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "resonance_atlas" / "__init__.py").is_file():
        print(f"resonance_atlas sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench import workloads

    wl = workloads.BUILDERS[args.workload](args.seed)
    if args.probe_setup:
        wl.prepare("solve")
        print("ready", flush=True)
        return 0

    result = measure(wl, args.workload, args.seed, args.seconds, bool(args.trace))
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, commit=_commit(),
                  src_lines=_src_lines(), machine=_machine(),
                  finished=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for c in result["checks"]:
        print(f"check {'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    for e in result["errors"]:
        print(f"failed operation {e}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
