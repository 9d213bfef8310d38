"""Record the output digests that the benchmark checks against.

    python3 perfbench/record.py

Runs ``pipeline`` and ``build_roundtrip`` on every instance of the pool
and writes their entries of ``references.json``: the sha256 of each
diagram JSON and of each filtration file.  The
committed references were taken on the commit that introduced the
benchmark.  Recording again replaces them, so do it only when an output
format changes on purpose, and say so in the change that does it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import sys
import tempfile

from run import HERE, SRC, THREAD_VARS, WORK


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import inputs
    import workloads

    checks = workloads.Checks(None)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        for wl in (workloads.Pipeline(), workloads.Roundtrip()):
            for instance in range(inputs.POOL):
                prep = wl.prepare(instance, workdir)
                out = wl.calls(prep)
                wl.check(prep, out, checks)
                del out
                gc.collect()
                print(wl.key, instance, checks.recorded[wl.key][str(instance)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    if checks.failed:
        print("\n".join(checks.messages), file=sys.stderr)
        return 1
    path = HERE / "references.json"
    references = json.loads(path.read_text()) if path.exists() else {}
    references.update(checks.recorded)
    with open(path, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
