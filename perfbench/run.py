"""offerbandit benchmark: the offer pipeline on one workload, checked.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ./src, not
installed. The run writes its inputs from --seed, then repeats whole
pipeline passes (see pipeline.py) until --seconds would be exceeded, at
least once. With --trace 0 it reports the end-to-end metrics as medians
over passes; with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones plus the tracing
overhead. Every pass must reproduce the first pass's outputs byte for byte,
and the last pass's outputs go through checks.py. The last line of
standard output is one JSON object; the exit code is 0 only when every
operation succeeded and every check passed.
"""

from __future__ import annotations

import os

# BLAS stays on one thread: the benchmark machine has two cores and the
# program's solves are tiny. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gen
from checks import Expectations, check_all, check_identical
from gen import WORKLOADS
from pipeline import POLICIES, PassResult, Pipeline, digest
from tracer import Tracer, layer_metrics, save_spans, unit_of

SRC = Path.cwd() / "src"

# camb must end a reference-world simulate with less regret than random,
# by at least this share of random's regret (see README.md).
CAMB_MARGIN = {"reference": 0.2}
# Timed set-ups made before the first pass, on top of one per pass.
SETUPS = 4


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(pipeline, passes, setups, replay_rounds: int, n_events: int, out_bytes: int) -> dict[str, tuple[float, str]]:
    """Step metrics over all of the run's passes (total work / total time);
    setup_s is the median of the run's timed set-ups (see README.md)."""
    def seconds(step):
        return statistics.mean(p.seconds[step] for p in passes)

    rounds = pipeline.workload.world.rounds
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for policy in POLICIES:
        metrics[f"simulate_{policy}_rounds_per_s"] = (rounds / seconds(f"simulate_{policy}"), "rounds/s")
    metrics["replay_rounds_per_s"] = (replay_rounds / seconds("replay"), "rounds/s")
    metrics["backfit_events_per_s"] = (n_events / seconds("backfit"), "events/s")
    metrics["mf_s"] = (seconds("mf"), "s")
    explain = [sum(v for k, v in p.seconds.items() if k.startswith("explain_")) for p in passes]
    metrics["explain_s"] = (statistics.mean(explain), "s")
    metrics["output_mb"] = (out_bytes / 1e6, "MB")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "offerbandit" / "cli.py").is_file():
        print(f"error: no offerbandit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = Path.cwd() / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def run(args: argparse.Namespace, workload, work: Path) -> int:
    inputs = gen.write_log(workload.log, args.seed, work / "inputs")
    pipeline = Pipeline(workload, args.seed, inputs, work)
    # The first set-up (bytecode, third-party imports) is not timed; the
    # next SETUPS are, besides the one that opens each pass.
    extra = [PassResult(setup_s=0.0) for _ in range(SETUPS + 1)]
    for result in extra:
        pipeline.setup(result)

    passes, traced, tracers = [], [], []
    errors = [e for r in extra for e in r.failed]
    start = time.perf_counter()
    first = None
    while True:
        for tracer in ([None, Tracer()] if args.trace else [None]):
            result = pipeline.run_pass(tracer)
            (traced if tracer else passes).append(result)
            if tracer:
                tracers.append(tracer)
            if result.failed:
                errors += result.failed
                break
            digests = digest(pipeline.out, result.stdout)
            if first is None:
                first = digests
            else:
                what = "traced pass vs untraced pass" if tracer else "rerun vs first pass"
                errors += check_identical(first, digests, what)
        last = sum(r.total_s for r in (passes[-1:] + traced[-1:]))
        if errors or time.perf_counter() - start + last > args.seconds:
            break
    attempted = sum(r.attempted for r in extra + passes + traced)
    failed = sum(len(r.failed) for r in extra + passes + traced)
    metrics: dict[str, tuple[float, str]] = {}
    if not failed:
        replay = json.loads((pipeline.out / "replay" / "summary.json").read_text(encoding="utf-8"))
        backfit = json.loads((pipeline.out / "backfit" / "backfit_report.json").read_text(encoding="utf-8"))
        if args.trace:
            per_pass = [layer_metrics(t) for t in tracers]
            for name in per_pass[0]:
                metrics[name] = (statistics.median(m[name] for m in per_pass), unit_of(name))
            overhead = statistics.median(r.total_s for r in traced) - statistics.median(r.total_s for r in passes)
            metrics["trace.overhead_s"] = (overhead, "s")
            save_spans(tracers, work.parent / f"spans-{workload.name}.npz")
        else:
            setups = [r.setup_s for r in extra[1:] + passes]
            metrics = end_to_end(pipeline, passes, setups, replay["rounds"], backfit["n_events"], pipeline.output_bytes())
        measured = time.perf_counter() - start
        errors += check_all(pipeline.out, Expectations(
            inputs=inputs,
            rounds=workload.world.rounds,
            offers_per_round=workload.world.offers_per_round,
            camb_margin=CAMB_MARGIN.get(workload.name),
            explain={m: passes[-1].stdout[f"explain_{m}"] for m in pipeline.explain_members},
        ))
        print(f"passes (s): untraced {[round(r.total_s, 2) for r in passes]}, traced {[round(r.total_s, 2) for r in traced]}; "
              f"measured {measured:.1f} s, checks {time.perf_counter() - start - measured:.1f} s", file=sys.stderr)
        print("step seconds per pass: " + json.dumps([dict(r.seconds, setup=r.setup_s) for r in passes]), file=sys.stderr)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
