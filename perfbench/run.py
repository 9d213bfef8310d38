"""Seeded benchmark of sparse-rips, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --trace 1            # the traced per-layer run

With ``--trace 0`` the run repeats the workload's call sequence on seeded
instances for ``--seconds`` seconds and reports ``wall_s`` (median
iteration), ``peak_rss_mb`` (mean of the iterations' peaks; each
iteration runs in a forked child) and ``setup_s`` (median of several
set-ups).  ``wall_s`` is scaled by the host's speed, measured with a
fixed reference loop on both sides of each iteration, to a host on which
that loop takes ``REFERENCE_S``.  ``setup_s`` is scaled the same way by
the fresh-interpreter import of numpy and scipy, to a host on which it
takes ``IMPORT_REFERENCE_S``.  The raw times are printed too.
With ``--trace 1`` it runs each workload once untraced and once traced,
replaying hidden layers as separate calls, and reports the per-layer
metrics of all three workloads.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every output is checked; a wrong output counts as failed.

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
Thread pools of numerical libraries are pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("pipeline", "build_roundtrip", "verify_battery")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
CHILD_TIMEOUT = 900
PACKAGE_MODULES = "sparse_rips, sparse_rips.cli"
#: the libraries the package stands on; their import time in a fresh
#: interpreter is the speed reference of ``setup_s``: the package's import
#: follows it, and not ``reference_loop``
IMPORT_REFERENCE_MODULES = "numpy, scipy.spatial.distance"
#: seconds that reference import takes on a 2-core x86-64 host at its
#: usual speed; set-up times are scaled to a host on which it takes this long
IMPORT_REFERENCE_S = 0.45


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds(modules: str) -> float:
    """Import time of ``modules`` in a fresh interpreter."""
    probe = (f"import time; t0 = time.perf_counter(); import {modules}; "
             "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT)
    return float(proc.stdout.split()[-1])


#: seconds the reference loop takes on a 2-core x86-64 host at its usual
#: speed; iteration times are scaled to a host on which it takes this long
REFERENCE_S = 0.5


def reference_loop() -> float:
    """Fixed pure-Python work, independent of the package, on a working set
    of tens of MB: tuple keys in a dict, a sort, and floats written as text
    and parsed back, the operations the workloads spend most of their time
    in.  Of the loops tried, the time of this one followed the workloads'
    times most closely as the host's speed drifted."""
    table = {}
    for i in range(120000):
        table[(i * 7919) % 100003, i & 15] = i * 0.5
    lines = [f"{a} {b} {v!r}" for (a, b), v in sorted(table.items())]
    total = 0.0
    for line in lines:
        a, b, v = line.split()
        total += float(v) / (int(a) + int(b) + 1)
    return total


def reference_seconds() -> float:
    """Time of one reference loop, run in a forked child."""
    def timed():
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    return forked(timed, "reference loop")


def instance_of(seed: int, iteration: int) -> int:
    return (seed + iteration) % inputs.POOL


def environment(args) -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def measure(workload: str, seed: int, seconds: float, checks, workdir: str) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    import workloads
    wl = workloads.suite()[workload]
    setup, raw_setup, preps = [], [], []
    for r in range(SETUP_REPS):
        reference = import_seconds(IMPORT_REFERENCE_MODULES)
        imported = import_seconds(PACKAGE_MODULES)
        t0 = time.perf_counter()
        preps.append(wl.prepare(instance_of(seed, r), workdir))
        raw_setup.append(imported + time.perf_counter() - t0)
        setup.append(raw_setup[-1] * IMPORT_REFERENCE_S / reference)

    walls: list[float] = []
    raws: list[float] = []
    peaks: list[float] = []
    start = time.perf_counter()
    # an iteration is scaled by the reference times on its two sides
    ref = reference_seconds()
    # stop when another iteration would end farther from the budget than now
    last = 0.0
    while not walls or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        j = len(walls)
        prep = preps[j] if j < len(preps) else wl.prepare(instance_of(seed, j), workdir)
        done = iteration(wl, prep, checks.references)
        before, ref = ref, reference_seconds()
        raws.append(done["wall_s"])
        walls.append(raws[-1] * 2 * REFERENCE_S / (before + ref))
        peaks.append(done["peak_rss_mb"])
        last = time.perf_counter() - t0
        checks.attempted += done["attempted"]
        checks.failed += done["failed"]
        checks.messages += done["messages"]
        print(f"iteration {j} instance {prep.instance} wall_s {walls[-1]:.4f} "
              f"raw {raws[-1]:.4f} peak_rss_mb {peaks[-1]:.1f}")
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup)}")
    print(f"raw setup_s median {statistics.median(raw_setup):.4f} s")
    print(f"raw wall_s median {statistics.median(raws):.4f} s over {len(raws)} iterations")
    return {"wall_s": statistics.median(walls),
            # a peak RSS has no timing noise, only instance sizes: average them
            "peak_rss_mb": statistics.fmean(peaks),
            "setup_s": statistics.median(setup)}


def forked(fn, what: str):
    """Run ``fn`` in a forked child process and return what it returns,
    passed back as JSON.

    The run process stays small: each iteration starts from its small
    footprint, so an iteration's peak RSS is its own and does not depend
    on which instances or reference loops ran before it.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            value = fn()
            with os.fdopen(write, "w") as fh:
                json.dump(value, fh)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"{what} failed (status {status})")
    return json.loads(data)


def iteration(wl, prep, references) -> dict:
    """Time and check one instance in a forked child process."""
    import workloads

    def timed():
        t0 = time.perf_counter()
        out = wl.calls(prep)
        wall = time.perf_counter() - t0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        checks = workloads.Checks(references)
        wl.check(prep, out, checks)
        return {"wall_s": wall, "peak_rss_mb": peak, "attempted": checks.attempted,
                "failed": checks.failed, "messages": checks.messages}
    return forked(timed, f"iteration on instance {prep.instance}")


def trace(seed: int, checks, workdir: str, suite=None) -> dict:
    """Per-layer metrics of every workload from one traced pass each."""
    import workloads
    suite = workloads.suite() if suite is None else suite
    layer: dict = {}
    untraced = traced = 0.0
    for name in WORKLOADS:
        wl = suite[name]
        prep = wl.prepare(instance_of(seed, 0), workdir)
        t0 = time.perf_counter()
        out = wl.calls(prep)
        untraced += time.perf_counter() - t0
        wl.check(prep, out, checks)
        del out
        gc.collect()

        tr = workloads.Tracer(name)
        out = wl.calls(prep, tr)
        layer.update(wl.check(prep, out, checks))
        del out
        gc.collect()
        layer.update(wl.replay(prep, tr, checks, workdir))
        traced += tr.sequence_seconds()
        layer.update({f"{span}_s": tr.seconds(span) for span in wl.timed})
        print_spans(tr)
    layer["trace.overhead_frac"] = traced / untraced - 1.0
    return layer


def print_spans(tr) -> None:
    totals: dict = {}
    for s in tr.spans:
        key = (s.name, s.call, "replay" if s.replay else "call")
        calls, secs = totals.get(key, (0, 0.0))
        totals[key] = (calls + 1, secs + s.seconds)
    for (name, call, kind), (calls, secs) in totals.items():
        print(f"span {tr.workload:<16} {name:<26} {call:<28} {kind:<6} "
              f"calls {calls:>3} {secs:.4f} s")


def result(declared: list, values: dict, checks) -> dict:
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def run_one(args, spec: dict) -> int:
    import workloads
    print(json.dumps({"env": environment(args)}, sort_keys=True))
    with open(HERE / "references.json") as fh:
        checks = workloads.Checks(json.load(fh))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.trace:
            values = trace(args.seed, checks, workdir)
            declared = spec["per_layer"]
        else:
            values = measure(args.workload, args.seed, args.seconds, checks, workdir)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    for message in checks.messages:
        print(f"FAILED {message}", file=sys.stderr)
    doc = result(declared, values, checks)
    for name, metric in doc["metrics"].items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(f"metric failed_frac {checks.failed / checks.attempted:.6g} 1 "
          f"({checks.failed} of {checks.attempted} operations)")
    print(json.dumps(doc))
    return 1 if checks.failed else 0


def run_all(args) -> int:
    """Each workload, or the traced run, in its own process, one at a time."""
    names = ["trace"] if args.trace else list(WORKLOADS)
    failed = False
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", WORKLOADS[0] if name == "trace" else name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: exit {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            if line.startswith(("metric ", "{\"env\"")):
                print(f"{name:<16} {line}")
        failed |= proc.returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sparse_rips" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a sparse-rips source checkout "
              "(needs src/sparse_rips and BENCHMARK.json)", file=sys.stderr)
        return 2
    # before numpy is first imported, in this process and in every child
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    with open(spec_path) as fh:
        spec = json.load(fh)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
