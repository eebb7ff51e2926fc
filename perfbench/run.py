"""plthick benchmark: time to a verified verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plthick checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  End-to-end times are calibrated to a
nominal host speed (calibrate.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 15

sys.path.insert(0, str(HERE))
from calibrate import Sampler, speed_now  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ProgramMissing(Exception):
    pass


def load_program():
    """Import plthick from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "plthick" / "__init__.py").is_file():
        raise ProgramMissing("no plthick sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import plthick
    import plthick.cli  # noqa: F401  (the pipeline entry point)

    if Path(plthick.__file__).resolve().parent != SRC / "plthick":
        raise ProgramMissing("plthick imported from %s, not %s" % (plthick.__file__, SRC))
    return plthick


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "plthick").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# -- set-up -------------------------------------------------------------------------------


def setup_probe(workload, seed):
    """Child side of the set-up measurement: import, build the inputs, say so."""
    WORKLOADS[workload](load_program(), seed)
    print("ready", flush=True)


def measure_setup(workload, seed):
    """Median over fresh processes of start -> plthick imported -> inputs
    built: (raw seconds, seconds at the nominal host speed).  Each probe is
    calibrated by the host speed measured just before and just after it."""
    times, calibrated = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        before = speed_now()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
        times.append(dt)
        calibrated.append(dt * (before + speed_now()) / 2)
    return statistics.median(times), statistics.median(calibrated)


# -- timed passes -------------------------------------------------------------------------


def cpu_now():
    """CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Pass:
    """One call per input; call times only, verdict checks excluded.

    ``wall`` and ``cpu`` are raw seconds.  When the pass was sampled,
    ``speeds`` holds the host speed indices taken during its calls, and
    ``wall_cal``/``cpu_cal`` are the times at the nominal host speed."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.speeds = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    @property
    def speed(self):
        return statistics.fmean(self.speeds)

    @property
    def wall_cal(self):
        return self.wall * self.speed

    @property
    def cpu_cal(self):
        return self.cpu * self.speed


def timed_call(call, sampler):
    """Run one call: (result or exception, wall s, CPU s), with the
    sampler's own time taken out of both."""
    held_wall, held_cpu = (sampler.wall, sampler.cpu) if sampler else (0.0, 0.0)
    c0, t0 = cpu_now(), time.perf_counter()
    try:
        with sampler or contextlib.nullcontext():
            result = call()
    except Exception as exc:  # a raising input is a failed verdict, not a crash
        result = exc
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    if sampler is not None:
        wall -= sampler.wall - held_wall
        cpu -= sampler.cpu - held_cpu
    return result, wall, cpu


def run_pass(ops, tracer=None, sampled=False):
    p = Pass()
    sampler = Sampler() if sampled else None
    for op in ops:
        gc.collect()
        p.attempted += 1
        call = op.call
        if tracer is not None:
            tracer.input = op.input
            call = functools.partial(tracer.span, "bench.op", op.call)
        result, wall, cpu = timed_call(call, sampler)
        p.wall += wall
        p.cpu += cpu
        if isinstance(result, Exception):
            p.problems.append("%s: raised %s: %s" % (op.input, type(result).__name__, result))
            p.failed += 1
            continue
        problems, digests = op.check(result)
        del result
        p.failed += bool(problems)
        p.problems += ["%s: %s" % (op.input, msg) for msg in problems]
        p.digests.update({"%s/%s" % (op.input, k): v for k, v in digests.items()})
    if sampler is not None:
        # Every pass is many sampling intervals long; this only guards the index.
        p.speeds = sampler.speeds or [speed_now()]
    return p


# -- determinism ------------------------------------------------------------------------


def compare_records(key, digests, counts):
    """Check this invocation's digests (and counts, when traced) against an
    earlier process's record for the same workload, seed and source, then
    merge them into it.  Returns (digest mismatches, count mismatches)."""
    path = OUT / "state" / ("%s.json" % key)
    old = json.loads(path.read_text()) if path.is_file() else {}
    bad_digests = sorted(k for k, v in digests.items()
                         if k in old.get("digests", {}) and old["digests"][k] != v)
    bad_counts = sorted(k for k, v in (counts or {}).items()
                        if k in old.get("counts", {}) and old["counts"][k] != v)
    record = {"digests": {**old.get("digests", {}), **digests},
              "counts": {**old.get("counts", {}), **(counts or {})}}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return bad_digests, bad_counts


def digest_mismatches(passes):
    first = passes[0].digests
    return sorted({k for p in passes[1:] for k, v in p.digests.items() if first.get(k) != v})


# -- runs -------------------------------------------------------------------------------


def untraced_run(ops, seconds):
    """Whole passes until the next one would overrun ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, sampled=True))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return passes


def traced_run(plthick, ops, workload, seed):
    """One untraced pass, then one traced pass; returns (passes, metrics)."""
    plain = run_pass(ops)
    tracer = Tracer()
    tracer.install(plthick)
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.remove()
    metrics = layer_metrics(tracer)
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.untraced_wall_s"] = plain.wall
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    metrics["trace.spans"] = len(tracer.spans)

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / ("layers-%s.json" % workload)).write_text(
        json.dumps({"workload": workload, "seed": seed, "metrics": metrics},
                   sort_keys=True, indent=1))
    (OUT / ("trace-%s.json" % workload)).write_text(json.dumps({
        "workload": workload, "seed": seed,
        "fields": ["id", "parent", "name", "start", "end", "input"],
        "spans": tracer.records()}, separators=(",", ":")))
    return [plain, traced], metrics


COUNT_METRICS = ("calls", "complex_builds", "simplices_built", "attempts", "coord_bits",
                 "p_simplices", "q_simplices", "local_classes")


def select(metrics, wanted, what):
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError("%s metrics not measured: %s" % (what, ", ".join(missing)))
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seed = args.seed % 2 ** 64

    try:
        if args.setup_probe:
            setup_probe(args.workload, seed)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        plthick = load_program()
    except (ProgramMissing, OSError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](plthick, seed)
    if args.trace:
        passes, metrics = traced_run(plthick, ops, args.workload, seed)
        counts = {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNT_METRICS}
    else:
        setup_raw, setup_s = measure_setup(args.workload, seed)
        passes = untraced_run(ops, args.seconds)
        counts = None

    attempted = sum(p.attempted for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    failed = sum(p.failed for p in passes)
    findings = ["output differs between passes: %s" % k for k in digest_mismatches(passes)]
    bad_digests, bad_counts = compare_records(
        "%s-%d-%s" % (args.workload, seed, source_digest()), passes[-1].digests, counts)
    findings += ["output differs from an earlier process: %s" % k for k in bad_digests]
    for k in bad_counts:
        print("perfbench: nondeterminism finding: count %s differs from an earlier "
              "process" % k, file=sys.stderr)
    for msg in problems + findings:
        print("perfbench: %s" % msg, file=sys.stderr)

    if args.trace:
        metrics["trace.count_mismatches"] = len(bad_counts)
        out = select(metrics, spec["per_layer"], "per-layer")
    else:
        e2e = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall_cal for p in passes),
            "cpu_s": statistics.median(p.cpu_cal for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
        print("%s seed=%d passes=%d" % (args.workload, seed, len(passes)))
        for p in passes:
            print("  pass: raw wall %.3f s, cpu %.3f s; host speed %.3f (%d samples)"
                  % (p.wall, p.cpu, p.speed, len(p.speeds)))
        print("  set-up: raw %.4f s" % setup_raw)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, value in [*e2e.items(), ("fail_ratio", failed / attempted)]:
            print("%-12s %s %s" % (name, value, units.get(name, "ratio")))
        out = select(e2e, spec["end_to_end"], "end-to-end")

    print(json.dumps({"correct": not problems and not findings, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
