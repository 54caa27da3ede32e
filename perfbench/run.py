"""Benchmark of the manifold-ssl CLI over four workloads.

    python3 perfbench/run.py --workload pi_train --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

Run from a checkout: the package is imported from its src/ directory, and
the script fails without printing a result when that is missing. Every
operation is one call of manifold_ssl.cli.main in a fresh, single-threaded
interpreter (child.py) with a config file this script writes into
.perfbench_tmp/ and removes again. Each invocation first runs gradcheck as
its correctness gate. The workload call is then repeated for --seconds
seconds (at least MIN_REPS times); every repetition's outputs are checked
and hashed, and all hashes must agree.

--trace 0 reports the end-to-end metrics of the untraced calls. --trace 1
alternates untraced and traced calls (tracer.py) and reports the per-layer
metrics of the traced ones. Program inputs are pinned by the workload
definitions, so every seed writes the same outputs; --seed orders the
invocation's own schedule (whether the known-failure probe runs before or
after the timed calls, and which kind of call comes first when tracing).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it start with "#" and give the
environment, the output hash and the named results of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import BOUNDARIES
from workloads import WORKLOADS, check_gradcheck, config_text, output_hash

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


@dataclass
class Rep:
    """One operation: a CLI call, its check and its measurements."""
    exit_code: int
    checked: object       # what the check returned
    digest: str
    setup_s: float
    wall_s: float
    speed: float          # machine speed around the call, from calibration
    peak_rss_mb: float
    env: dict
    trace: dict | None


def operation(scratch: Path, command: str, config: str | None, check,
              trace: bool = False) -> Rep:
    """Run one CLI call in a fresh interpreter, check and hash its outputs."""
    job_dir = scratch / f"op{time.monotonic_ns()}"
    job_dir.mkdir(parents=True)
    config_path = None
    if config is not None:
        config_path = job_dir / "run.cfg"
        config_path.write_text(config)
    argv = ["--out", str(job_dir / "out"), "--jobs", "1", command]
    if config_path is not None:
        argv = ["--config", str(config_path)] + argv
    job = {"src": str(SRC), "argv": argv, "trace": trace,
           "config": None if config_path is None else str(config_path),
           "result": str(job_dir / "record.json")}
    env = {**os.environ, **SINGLE_THREAD}
    launched = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                               json.dumps(job)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{command} ran past {CHILD_TIMEOUT_S} s") from exc
    run_dirs = sorted((job_dir / "out").glob("*"))
    if proc.returncode != 0 or len(run_dirs) != 1:
        raise BenchError(f"{command} did not run (exit code "
                         f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    record = json.loads((job_dir / "record.json").read_text())
    try:
        return Rep(exit_code=record["exit_code"],
                   checked=check(run_dirs[0], record["exit_code"]),
                   digest=output_hash(job_dir / "out"),
                   setup_s=record["ready"] - launched,
                   wall_s=record["wall_s"], speed=record["speed"],
                   peak_rss_mb=record["peak_rss_mb"],
                   env=record["env"], trace=record.get("trace"))
    finally:
        shutil.rmtree(job_dir)


def environment(load_at_start, child_env: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), **child_env,
            "loadavg_at_start": [round(x, 2) for x in load_at_start]}


def per_layer_metrics(traced: list[Rep], untraced: list[Rep]) -> dict:
    metrics = {}

    def put(name, values, unit):
        metrics[name] = {"value": statistics.median(values), "unit": unit}

    for b in BOUNDARIES:
        stats = [r.trace["layers"].get(b.layer, [0, 0.0, 0.0, 0, 0.0])
                 for r in traced]
        put(f"{b.layer}.calls", [s[0] for s in stats], "count")
        put(f"{b.layer}.self_ms", [s[1] * 1e3 for s in stats], "ms")
        put(f"{b.layer}.incl_ms", [s[2] * 1e3 for s in stats], "ms")
        if b.cost is not None:
            put(f"{b.layer}.rows", [s[3] for s in stats], "count")
        if b.flops:
            put(f"{b.layer}.mflop", [s[4] / 1e6 for s in stats], "Mflop")
    traced_wall = statistics.median(r.wall_s * r.speed for r in traced)
    untraced_wall = statistics.median(r.wall_s * r.speed for r in untraced)
    put("trace.overhead_share", [traced_wall / untraced_wall - 1.0], "share")
    put("trace.uncovered_share",
        [(r.wall_s - r.trace["covered_s"]) / r.wall_s for r in traced], "share")
    return metrics


def bench(name: str, seed: int, seconds: float, trace: bool, scratch: Path,
          gate_problem: str | None, tiny: bool = False):
    """One workload; returns (result object, lines to print before it)."""
    wl = WORKLOADS[name]
    schedule = random.Random(f"{name}:{seed}")
    config = config_text(wl.config, wl.tiny if tiny else None)
    kinds = [False, True] if trace else [False]
    schedule.shuffle(kinds)
    probe_first = schedule.random() < 0.5

    def run_probe():
        if wl.probe is None:
            return None
        return operation(scratch, wl.command, config_text(wl.probe), wl.check)

    probe = run_probe() if probe_first else None
    reps = {False: [], True: []}
    deadline = time.monotonic() + seconds
    done = 0
    while done < MIN_REPS * len(kinds) or time.monotonic() < deadline:
        kind = kinds[done % len(kinds)]
        reps[kind].append(operation(scratch, wl.command, config, wl.check,
                                    trace=kind))
        done += 1
    if not probe_first:
        probe = run_probe()

    untraced = reps[False]
    everything = untraced + reps[True] + ([probe] if probe else [])
    first = untraced[0].checked
    attempted = first.attempted + (probe.checked.attempted if probe else 0)
    failed = first.failed + (probe.checked.failed if probe else 0)
    problems = [gate_problem] + [r.checked.problem for r in everything]
    if len({r.digest for r in untraced + reps[True]}) != 1:
        problems.append("repeated calls wrote different outputs")
    problems = [p for p in problems if p]

    if trace:
        metrics = per_layer_metrics(reps[True], untraced)
    else:
        metrics = {
            "steps_per_s": statistics.median(
                r.checked.steps / r.wall_s / r.speed for r in untraced),
            "setup_s": statistics.median(r.setup_s * r.speed for r in untraced),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
            "completed_share": (attempted - failed) / attempted,
            "result_error": first.result_error,
        }
        units = {"steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                 "completed_share": "share", "result_error": "1"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    lines = [f"# workload {name} trace {int(trace)}: {len(untraced)} untraced "
             f"and {len(reps[True])} traced calls, output sha256 "
             f"{untraced[0].digest[:16]}",
             f"# failed_share {failed / attempted:.4g} ({failed} of "
             f"{attempted} operations, probe "
             f"{'none' if probe is None else f'exit {probe.exit_code}'})",
             "# results " + json.dumps(first.info),
             "# unscaled steps_per_s {:.6g}, machine speed {:.4g}".format(
                 statistics.median(r.checked.steps / r.wall_s
                                   for r in untraced),
                 statistics.median(r.speed for r in untraced))]
    absent = sorted({m for r in reps[True] for m in r.trace.get("absent", [])})
    if absent:
        lines.append("# absent boundary members: " + ", ".join(absent))
    lines.extend(f"# problem: {p}" for p in problems)
    lines.extend(f"# {k} = {m['value']:.6g} {m['unit']}"
                 for k, m in metrics.items())
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, tiny: bool = False) -> list:
    """Run the benchmark; returns the result objects it printed."""
    args = parse_args(argv)
    if not (SRC / "manifold_ssl" / "__init__.py").is_file():
        raise BenchError(f"no manifold_ssl package under {SRC}")
    load_at_start = os.getloadavg()
    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    results = []
    try:
        gate = operation(scratch, "gradcheck", None, check_gradcheck)
        env = environment(load_at_start, gate.env)
        for name, trace in plan:
            result, lines = bench(name, args.seed, args.seconds, trace,
                                  scratch, gate.checked, tiny=tiny)
            print("# env " + json.dumps(env))
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            results.append(result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it
    return results


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
