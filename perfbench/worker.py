"""One workload process: set up, run timed rounds, then check every task.

Usage (run.py starts it; it is not meant to be run by hand):

    python perfbench/worker.py --workload W --seed N --seconds T
        --workdir DIR --result FILE [--setup-only] [--trace]

The process reports the `time.monotonic()` at which set-up finished, so
the parent can time set-up from before it started this interpreter.
Rounds run one task at a time; a run makes --seconds // ROUND_SECONDS
rounds (at least one), ROUND_SECONDS being the share of --seconds that
each workload spends on one round.  With --trace, one untraced round
(the reference for the tracing overhead) is followed by a traced set-up
and a traced round, and the spans go to DIR/spans.jsonl (cli: one file
per call).
Checks run after the timed rounds and after peak RSS is read.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_round(wl, index: int, workdir: str, traced: bool, tracer=None) -> list:
    records = []
    for task in wl.round_tasks(index, workdir, traced):
        if tracer is not None:
            tracer.task = task.id
        start = time.perf_counter()
        try:
            output = task.run()
        except Exception as exc:  # a raising task is a failed task, not a crash
            output = exc
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.task = None
        kept = output if isinstance(output, Exception) else wl.keep(task, output, workdir)
        records.append({"task": task, "kept": kept, "seconds": seconds,
                        "round": index, "traced": traced})
    return records


def check_all(wl, records: list) -> None:
    for rec in records:
        task, kept = rec["task"], rec["kept"]
        if isinstance(kept, Exception):
            verdict = workloads.Verdict(False, f"raised {type(kept).__name__}: {kept}")
            summary = {"raised": type(kept).__name__}
        else:
            try:
                verdict = wl.check(task, kept)
            except Exception as exc:
                verdict = workloads.Verdict(
                    False, f"check raised {type(exc).__name__}: {exc}")
            summary = wl.summary(kept)
        rec["verdict"] = verdict
        rec["summary"] = summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, args.workdir)
    ready = time.monotonic()
    result = {"ready_monotonic": ready}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    # A fixed number of rounds keeps the task count, and so the tail
    # percentile, the same from run to run.  With --trace, set-up has
    # already imported everything, so one untraced round is the reference
    # the traced one is compared with.
    count = 1 if args.trace else max(1, int(args.seconds // wl.ROUND_SECONDS))
    records = []
    rounds = []
    for index in range(count):
        recs = run_round(wl, index, args.workdir, traced=False)
        records += recs
        rounds.append(sum(r["seconds"] for r in recs))
    is_cli = isinstance(wl, workloads.Cli)
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    result["round_walls"] = rounds

    if args.trace:
        spans_path = os.path.join(args.workdir, "spans.jsonl")
        if is_cli:
            recs = run_round(wl, len(rounds), args.workdir, traced=True)
        else:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.task = "setup"
            wl.setup(args.seed, args.workdir)
            recs = run_round(wl, len(rounds), args.workdir, traced=True, tracer=tracer)
            tracer.write(spans_path)
        records += recs
        result["traced_wall"] = sum(r["seconds"] for r in recs)
        result["spans"] = ([r["task"].info["spans"] for r in recs] if is_cli
                           else [spans_path])
        result["span_tasks"] = [r["task"].id for r in recs] if is_cli else [None]

    check_all(wl, records)
    result["tasks"] = [{
        "id": r["task"].id,
        "label": r["task"].label,
        "round": r["round"],
        "traced": r["traced"],
        "seconds": r["seconds"],
        "ok": r["verdict"].ok,
        "defect": r["verdict"].defect,
        "reason": r["verdict"].reason,
        "summary": r["summary"],
    } for r in records]
    result["environment"] = environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
