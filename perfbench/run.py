"""ductflow benchmark: one workload, timed through the CLI in fresh processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cir_narrow --seed 1 --seconds 50 --trace 0

Each job is one closed-loop client: a fresh interpreter that imports
``ductflow.cli`` (timed as set-up) and runs the workload's CLI calls (timed
as ``wall_s``).  Jobs run back to back for about ``--seconds``, and the
medians are reported.  With ``--trace 1`` untraced and traced jobs
alternate, and the per-layer metrics come from the traced jobs' spans.
Outputs are checked after the timed region; the last line of standard
output is the JSON result, whose metric names and units are those of
``BENCHMARK.json``.  Work files go to ``.perfbench/`` under the repository
root.  ``--smoke`` runs tiny sizes, for the harness's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up time is reported as a median of at least this many imports.
MIN_SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
JOB_TIMEOUT_S = 100
#: ``-X importtime`` rows reported as ``setup.import.<key>_s``.
IMPORT_MODULES = {"ductflow": "ductflow", "ductflow.ook": "ductflow_ook",
                  "ductflow.impulse": "ductflow_impulse",
                  "ductflow.oracles": "ductflow_oracles",
                  "scipy.stats": "scipy_stats", "scipy.integrate": "scipy_integrate"}


def _parse_args(argv, run_seconds):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_job(job_dir: Path, argvs_for, traced: bool) -> dict:
    """Run one job process; ``argvs_for(out_dir)`` gives its CLI calls."""
    job_dir.mkdir(parents=True)
    spec = {"argvs": argvs_for(str(job_dir / "out")), "trace": traced,
            "result": str(job_dir / "result.json")}
    (job_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with open(job_dir / "log.txt", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), str(job_dir / "spec.json")],
                cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=JOB_TIMEOUT_S, check=False)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
    result_path = job_dir / "result.json"
    if code != 0 or not result_path.is_file():
        return {"ok": False, "traced": traced, "out": job_dir / "out", "exit": code}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(ok=all(c == 0 for c in result["exit_codes"]), traced=traced,
                  out=job_dir / "out")
    return result


def _import_times() -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds of the reported modules (median)."""
    samples: dict[str, list[float]] = {key: [] for key in IMPORT_MODULES.values()}
    row = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ductflow"],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            match = row.match(line)
            if match and match.group(3) in IMPORT_MODULES:
                samples[IMPORT_MODULES[match.group(3)]].append(int(match.group(2)) * 1e-6)
    return {f"setup.import.{key}_s": statistics.median(vals) if vals else 0.0
            for key, vals in samples.items()}


def _environment() -> dict:
    """Machine and software the result was measured on (read-only probes)."""
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
           "cpu_model": platform.processor() or platform.machine(), "l2_cache": None,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            if (index / "level").read_text().strip() == "2":
                env["l2_cache"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def _run_checks(workload, jobs, work: Path, seed: int, smoke: bool):
    from checks import Checks, check_same_outputs
    from ductflow import oracles
    from tracing import Tracer

    checks = Checks()
    tracer = Tracer()
    tracer.wrap(oracles, "oracle_cir_dispersion", "oracles.oracle_cir_dispersion")
    tracer.wrap(oracles, "oracle_cir_flow", "oracles.oracle_cir_flow")
    good = [job for job in jobs if job["ok"]]
    if not good:
        checks.check("at least one job exits 0", False)
        return checks, tracer
    out = good[0]["out"]
    try:
        workload.check(checks, out, workload.argvs(seed, str(out), smoke),
                       workload.configs(seed, smoke), work, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        # Missing or malformed output files.
        checks.check(f"{workload.name} outputs readable", False, repr(exc))
    for job in good[1:]:
        check_same_outputs(checks, out, job["out"])
    if len(good) < len(jobs):
        # A job that failed fails every check of the run.
        for result in checks.results:
            result["ok"] = False
    return checks, tracer


def _median_metrics(samples: list[dict]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _timed_jobs(work: Path, argvs_for, seconds: float, trace: bool) -> list[dict]:
    """Jobs back to back; with ``trace`` untraced and traced ones alternate.

    Another job starts only while it would end no later than half a job
    after ``seconds``, so a run measures about ``seconds`` of work.
    """
    jobs: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 1
        job_start = time.perf_counter()
        jobs.append(_run_job(work / f"job{len(jobs)}", argvs_for, traced))
        durations.append(time.perf_counter() - job_start)
        elapsed = time.perf_counter() - start
        both_kinds = len({job["traced"] for job in jobs}) == 1 + trace
        if both_kinds and elapsed + statistics.median(durations) / 2 > seconds:
            return jobs


def _end_to_end(workload, jobs, work: Path, seed: int, smoke: bool) -> tuple[dict, dict]:
    untraced = [job for job in jobs if job["ok"] and not job["traced"]]
    if not untraced:
        return {}, {}
    setups = [job["setup_s"] for job in jobs if job["ok"]]
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = _run_job(work / f"probe{len(setups)}", lambda _: [], False)
        if not probe["ok"]:
            break
        setups.append(probe["setup_s"])
    walls = [job["wall_s"] for job in untraced]
    units = workload.work_units(workload.configs(seed, smoke), untraced[0]["out"])
    per_core = [units / (wall * workload.threads) for wall in walls]
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(job["maxrss_kb"] * 1024 / 1e6
                                               for job in untraced),
              "throughput_per_core": statistics.median(per_core)}
    details = {"jobs": len(untraced), "wall_s_samples": walls, "setup_s_samples": setups,
               workload.rate_name: values["throughput_per_core"]}
    return values, details


def _per_layer(jobs, untraced_wall, oracle_spans, checks) -> dict[str, float]:
    from tracing import layer_metrics

    traced = [job for job in jobs if job["ok"] and job["traced"]]
    if not traced:
        return {}
    values = _median_metrics([layer_metrics(job["spans"]) for job in traced])
    traced_wall = statistics.median(job["wall_s"] for job in traced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.unaccounted_s"] = traced_wall - values["trace.self_sum_s"]
    values["oracles.calls"] = len(oracle_spans)
    values["oracles.busy_s"] = sum(s["end"] - s["start"] for s in oracle_spans)
    values["oracles.max_abs_dev"] = checks.max_oracle_dev
    values.update(_import_times())
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse_args(argv, spec["run_seconds"])
    if not (SRC / "ductflow" / "__init__.py").is_file():
        print(f"perfbench: no ductflow source at {SRC.relative_to(ROOT)}/ductflow",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = ROOT / ".perfbench" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def argvs_for(out_dir):
        return workload.argvs(args.seed, out_dir, args.smoke)

    # Compiles bytecode and fills the file cache, which users do not pay per run.
    _run_job(work / "warmup", lambda _: [], False)
    jobs = _timed_jobs(work, argvs_for, args.seconds, bool(args.trace))

    checks, oracle_tracer = _run_checks(workload, jobs, work, args.seed, args.smoke)
    values, details = _end_to_end(workload, jobs, work, args.seed, args.smoke)
    if args.trace:
        values.update(_per_layer(jobs, values.get("wall_s", 0.0), oracle_tracer.spans,
                                 checks))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    checks.check("every metric of BENCHMARK.json measured", not missing,
                 f"missing {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    env = _environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "details": details, "all_values": values, "checks": checks.results}
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str),
                                      encoding="utf-8")
    print("perfbench environment: " + json.dumps(env))
    for result in checks.results:
        if not result["ok"]:
            print(f"perfbench check FAILED: {result['name']} {result['detail']}")
    print(f"perfbench: {len(jobs)} jobs, {checks.attempted} checks, "
          f"{checks.failed} failed; details in {work.relative_to(ROOT)}/result.json")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
