#!/usr/bin/env python3
"""Pin each workload variant's point estimates into pinned.json.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs the CLI once per input variant of each named workload (all by default)
and records the inputs' sha256 and the report's point estimates.  Run it only
on the commit whose outputs the benchmark should hold later commits to; it
fails when a report does not pass the workload's other checks.
"""

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import WORK, run_child
from workloads import (PINNED_PATH, VARIANTS, WORKLOADS, check_report, load_pinned,
                       point_estimates, write_inputs)


def main(names: list[str]) -> int:
    pinned = load_pinned()
    bad = 0
    WORK.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        w = WORKLOADS[name]
        entries = {}
        for variant in range(VARIANTS):
            work = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=WORK))
            try:
                inputs = write_inputs(w, variant, work)
                argv = [sys.executable, "-m", "mivest.cli", *inputs["args"],
                        "--out", str(work / "r.json")]
                run = run_child(argv, work / "r.log", time.monotonic() + 600)
                if run["exit_code"] != 0:
                    print(f"{name} variant {variant}: exit {run['exit_code']}\n"
                          f"{(work / 'r.log').read_text()}", file=sys.stderr)
                    return 1
                report = json.loads((work / "r.json").read_text())
            finally:
                shutil.rmtree(work, ignore_errors=True)
            entry = {"sha256": inputs["sha256"], "values": point_estimates(w, report)}
            problems = check_report(w, report, entry)
            bad += bool(problems)
            print(f"{name} variant {variant}: {run['wall_s']:.2f} s {entry['values']} "
                  f"{problems or 'ok'}", flush=True)
            entries[str(variant)] = entry
        pinned[name] = entries
    PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
