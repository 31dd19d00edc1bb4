"""Run one workload of the qdutch benchmark and print its metrics.

    python3 bench/run.py --workload succession-table --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The workloads, the default run length and
the metric units come from ``BENCHMARK.json``.

Set-up is importing ``qdutch`` in a fresh interpreter plus generating the
seeded inputs, outside the timed phase.  The import is timed several times
before the first round and once after every untraced round, so that a slow
stretch of the host at the start of a run does not set ``setup_s``.  The
inputs are generated several times before the first round, and their files
are written once after that, untimed: on this benchmark's file system,
creating and deleting a few hundred files per run made file creation slower
run after run, so their writing time would creep along a sequence of runs
whatever the code.  ``setup_s`` is the fastest import plus the fastest
generation.

The timed phase repeats whole rounds of the workload, each from the
package's import-time caches, while one more round of median length still
fits in ``--seconds``.  The first round's outputs are checked against the
harness's own values, outside the timed phase; every later round must
reproduce them exactly.

With ``--trace 0`` the last line reports the end-to-end metrics: the median
round's wall and CPU time, the set-up time and the peak resident memory.
With ``--trace 1`` every other round is traced and the last line reports
the per-layer metrics of the traced rounds (medians), plus the tracing
overhead; the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IMPORT_PROBES_BEFORE = 5
INPUT_PROBES = 5
DEFAULT_SEED = 20260810
IMPORT_PROBE = "import time; t = time.perf_counter(); import qdutch; print(time.perf_counter() - t)"


def _import_seconds() -> float:
    """Time to import qdutch in a fresh interpreter, as a user's command pays it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def _time_inputs(module, seed: int, workdir: Path):
    """Generate the inputs in memory several times: the inputs and the fastest time."""
    times = []
    for _ in range(INPUT_PROBES):
        start = time.perf_counter()
        inputs = module.make_inputs(seed, workdir)
        times.append(time.perf_counter() - start)
    return inputs, min(times)


def _another_round(walls: list[float], seconds: float, minimum: int) -> bool:
    """Start a round until ``minimum`` have run, then only while one more
    round of median length still ends within ``seconds``."""
    if len(walls) < minimum:
        return True
    return sum(walls) + statistics.median(walls) <= seconds


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    module = importlib.import_module(workload.replace("-", "_"))
    from common import reset_caches, write_input_files
    import tracing

    workdir = BENCH / "work" / f"{workload}-{os.getpid()}"
    try:
        imports = [_import_seconds() for _ in range(IMPORT_PROBES_BEFORE)]
        inputs, generated = _time_inputs(module, seed, workdir)
        workdir.mkdir(parents=True)
        write_input_files(inputs)
        tracer = tracing.Tracer()
        walls, cpus, traced_walls, traced_rounds, traced_spans = [], [], [], [], []
        every_wall: list[float] = []
        attempted = failed = 0
        first = None
        problems: list[str] = []
        while _another_round(every_wall, seconds, 2 if trace else 1):
            traced = trace and len(every_wall) % 2 == 1
            reset_caches()
            gc.collect()
            if traced:
                tracer.install()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            outputs, n_ops, n_failed = module.run_round(inputs)
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            tracer.uninstall()
            every_wall.append(wall)
            attempted += n_ops
            failed += n_failed
            if traced:
                spans, counts = tracer.take_round()
                traced_walls.append(wall)
                traced_rounds.append(tracing.round_summary(spans, counts))
                traced_spans.append((len(every_wall) - 1, spans))
            else:
                walls.append(wall)
                cpus.append(cpu)
                imports.append(_import_seconds())
            if first is None:
                first = outputs
            elif not module.same_outputs(first, outputs):
                problems.append(f"round {len(every_wall)} did not reproduce round 1")
        setup_s = min(imports) + generated
        problems += module.check(inputs, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    threads = os.environ.get("QDUTCH_THREADS", "unset")
    print(f"# workload={workload} seed={seed} rounds={len(every_wall)} "
          f"traced_rounds={len(traced_walls)} QDUTCH_THREADS={threads}")
    print("# round wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracing.write_spans(out_dir / f"trace-{workload}-seed{seed}.jsonl", traced_spans)
        values = tracing.median_summary(traced_rounds)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdutch" / "__init__.py").is_file():
        print(f"error: no qdutch sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
