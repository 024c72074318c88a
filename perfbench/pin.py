#!/usr/bin/env python3
"""Regenerate the pinned expected outputs in perfbench/expected/.

    python3 perfbench/pin.py

Run from the root of a source checkout. For the command-line workloads
the tracer replays every cell on the reference walk (`fast_path =
false`) and renders the stdout `repro` must print, so the pinned values
do not come from the fast paths being measured. For serve-mixed it
records the SHA-256 of every table and explain body any seed can
request, as served by `repro serve`. Re-pin only when a change is meant
to alter results.
"""

import hashlib
import json
import os
import subprocess
import sys

import run


def pin_table1(spec, tiny):
    r = subprocess.run([run.TRACER, "cells", "--reference", "--scale", str(spec["scale"])],
                       cwd=run.fresh_dir("pin-table1"), stdout=subprocess.PIPE, check=True)
    out = json.loads(r.stdout)
    bad = [c for c in out["cells"] if "error" in c]
    if bad:
        run.fail(f"reference walk failed: {bad}")
    cells = [{k: c[k] for k in ("bench", "kind", "procs", "cycles", "checksum_bits")} for c in out["cells"]]
    with open(run.expected_path(tiny, "stdout"), "w") as f:
        f.write(out["stdout"])
    with open(run.expected_path(tiny, "cells.json"), "w") as f:
        json.dump({"cells": cells}, f, indent=1)
        f.write("\n")
    run.log(f"pinned table1{' (tiny)' if tiny else ''}: {len(cells)} cells")


def pin_serve():
    srv = run.Server(run.fresh_dir("pin-serve"))
    reqs = (run.HOT + [("sweep", b, m, run.NEW_PROCS) for b, m in run.NEW_POOL]
            + [("explain", b, m, run.EXPLAIN_PROCS) for b, m in run.EXPLAIN_POOL])
    digests = {}
    try:
        for req in reqs:
            ok, body, _ = run.do_request(srv, req + (False,), None)
            if not ok:
                run.fail(f"{run.request_key(req)} failed: {body[:200]}")
            digests[run.request_key(req)] = hashlib.sha256(body.encode()).hexdigest()
    finally:
        srv.stop()
    with open(os.path.join(run.EXPECTED, "serve.json"), "w") as f:
        json.dump(digests, f, indent=0, sort_keys=True)
        f.write("\n")
    run.log(f"pinned serve-mixed: {len(digests)} bodies")


def main():
    run.build()
    os.makedirs(run.EXPECTED, exist_ok=True)
    pin_table1(run.TABLE1, False)
    pin_table1(run.TABLE1_TINY, True)
    pin_serve()


if __name__ == "__main__":
    sys.exit(main())
