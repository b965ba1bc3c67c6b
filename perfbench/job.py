"""One benchmark job, run in a fresh interpreter.

Usage: ``python3 perfbench/job.py SPEC.json``

The spec names the CLI argument lists to run (none for an import probe),
whether to trace, and where to write the result.  The job times
``import ductflow.cli`` (what every CLI run pays), then each
``ductflow.cli.main(argv)`` call, and writes the timings, exit codes, peak
resident set size and -- when traced -- the recorded spans as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    start = time.perf_counter()
    import ductflow.cli  # noqa: F401 - the import is what is timed
    result: dict = {"setup_s": time.perf_counter() - start}

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    cli = sys.modules["ductflow.cli"]
    wall = cpu = 0.0
    codes = []
    for argv in spec["argvs"]:
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        codes.append(cli.main(argv))
        wall += time.perf_counter() - wall_start
        cpu += time.process_time() - cpu_start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(wall_s=wall, cpu_s=cpu, exit_codes=codes,
                  maxrss_kb=usage.ru_maxrss,
                  spans=tracer.spans if tracer else None)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
