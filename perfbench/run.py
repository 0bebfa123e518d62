"""Benchmark of the matched-transforms toolkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {discover,synthesize,cli}
        --seed N --seconds T --trace {0,1}

Workloads (closed loop, one task at a time, one BLAS thread):

* discover   -- `discover_sequential` on exact invariant covariances,
                M = 8, 16, 32 (matrix units) and 64 (cyclic shifts);
* synthesize -- `synthesize_matched` for M = 256 to 1024;
* cli        -- `python -m matched_transforms.cli` subprocesses.

Every task's output is checked outside the timed region (see
workloads.py).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
report for people.

--trace 0 reports the end-to-end metrics: wall_s (median over rounds of
the summed task seconds of one round), setup_s (median of seven fresh
set-ups, from starting the interpreter to the first task) and peak_rss_mb
(the workload process; for cli the largest child).  The report lines also
give task_p50_s, task_tail_s (highest nearest-rank percentile leaving at
least ten tasks beyond it, with its rank and count) and failed_frac (also
carried exactly by `failed`/`attempted`).  These three are not in the
final metrics: failed_frac is 0 on synthesize, and on a two-vCPU shared
host the order statistics of per-task seconds swing by up to a third
between runs of the same code, more than the largest bound (0.25).

--trace 1 reports per-layer metrics from one traced round after one
untraced round (the reference for trace.overhead_s): import times probed
with `-X importtime`, then seconds, self seconds, calls and computed
counts of the wrapped public functions.  steady.py checks that the
computed counts repeat across runs of one seed.

`correct` is false when a task fails in a way that matches no known
defect (workloads.py lists the two known ones); known-defect failures
still count in `failed`.  A run that cannot finish (a worker crash, or
the 170 s deadline) prints no result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 6  # plus the measured run's own set-up: median of seven
IMPORT_PROBES = 3
# One BLAS thread (nproc or fewer, as the workloads require).  On two
# shared vCPUs, OpenBLAS threading made the many small factorizations of
# discovery 4x slower and their timings several times noisier.
BLAS_THREADS = 1

# The function each workload's task calls first; see trace.self_coverage.
ENTRY_POINTS = ("discovery.discover_sequential", "transforms.synthesize_matched", "cli.main")

# ROADMAP.md baseline rows: (workload, task label, seconds, how measured)
ROADMAP_ROWS = (
    ("discover", "cyclic:32", 5.7, "median of 3, 2 iterations"),
    ("discover", "dyadic-wreath:4", 8.3, "median of 3, seed 3, 62 iterations"),
    ("discover", "cyclic:64/cyclic-shifts", 0.55, "single run"),
    ("synthesize", "cyclic:1024", 16.3, "single run"),
    ("cli", "verify", 1.24, "subprocess wall time, median of 3"),
)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise subprocess.TimeoutExpired("perfbench", 0)
        return left


def start_worker(args, workdir, result, env, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir, "--result", result, *extra]
    started = time.monotonic()
    # own session, so a timeout also stops the worker's cli children
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=deadline.left())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    data["setup_s"] = data["ready_monotonic"] - started
    return data


def import_probe(env, deadline) -> dict:
    """Cumulative import seconds from `-X importtime`: the package (with
    cli) as a whole, and scipy.sparse / scipy.optimize inside it."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import matched_transforms.cli"],
        env=env, timeout=deadline.left(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-2000:]}")
    out = {"import.s": 0.0, "import.scipy_sparse_s": 0.0, "import.scipy_optimize_s": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        seconds = int(cumulative) * 1e-6
        bare = name.strip()
        if bare.startswith("matched_transforms") and name[1:2] != " ":
            out["import.s"] += seconds
        elif bare == "scipy.sparse":
            out["import.scipy_sparse_s"] = seconds
        elif bare == "scipy.optimize":
            out["import.scipy_optimize_s"] = seconds
    return out


def tail(values: list) -> dict:
    """Highest nearest-rank percentile with at least ten values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100, "beyond": 0, "n": n}
    return {"value": ordered[n - 11], "percentile": math.floor(100 * (n - 10) / n),
            "beyond": 10, "n": n}


def baseline_rows(workload: str, tasks: list) -> list:
    rows = []
    for wl, label, seconds, how in ROADMAP_ROWS:
        times = [t["seconds"] for t in tasks if t["label"] == label and not t["traced"]]
        if wl != workload or not times:
            continue
        summaries = {json.dumps(t["summary"], sort_keys=True)
                     for t in tasks if t["label"] == label}
        rows.append({"task": label, "bench_median_s": statistics.median(times),
                     "roadmap_s": seconds, "roadmap_how": how, "runs": len(times),
                     "outcomes": sorted(summaries)})
    return rows


def merged_aggregate(paths: list, tasks) -> dict:
    agg: dict = {}
    for path in paths:
        for name, entry in tracer.aggregate(tracer.read_spans(path), tasks).items():
            into = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
            for key in ("calls", "s", "self_s"):
                into[key] += entry[key]
            for key, value in entry["counts"].items():
                into["counts"][key] = into["counts"].get(key, 0) + value
    return agg


def layer_metrics(workload: str, data: dict, imports: dict) -> tuple:
    """Per-layer metrics over the traced set-up and round, plus the top
    self times of the round."""
    traced = [t for t in data["tasks"] if t["traced"]]
    if workload == "cli":
        # each call is its own process; its spans are all of the call
        agg = round_agg = merged_aggregate(data["spans"], None)
        startup = sum(t["seconds"] for t in traced) - agg.get("cli.main", {}).get("s", 0.0)
    else:
        task_ids = {t["id"] for t in traced}
        agg = merged_aggregate(data["spans"], task_ids | {"setup"})
        round_agg = merged_aggregate(data["spans"], task_ids)
        startup = 0.0

    def get(name, key):
        entry = agg.get(name)
        if entry is None:
            return 0
        return entry["counts"].get(key, 0) if key not in ("calls", "s", "self_s") else entry[key]

    m = dict(imports)
    for name in ("rng.normal_rows", "numkernel.random_psd", "numkernel.herm_eig",
                 "diagnostics.subspace_match", "diagnostics.eigen_clusters",
                 "diagnostics.multiplicity_free_probe", "groups.pair_orbits",
                 "groups.reynolds_project", "numkernel.gevp_min",
                 "numkernel.hungarian_max", "diagnostics.residual_delta",
                 "groups.closure_enumerate", "matrixio.read_matrix_file",
                 "matrixio.write_matrix_file", "cli.main"):
        m[f"{name}.s"] = get(name, "s")
    for name in ("numkernel.herm_eig", "diagnostics.subspace_match", "groups.pair_orbits",
                 "discovery.dc_gevp_step", "numkernel.gevp_min",
                 "diagnostics.residual_delta", "groups.closure_enumerate"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("transforms.synthesize_matched", "discovery.dc_gevp_step",
                 "discovery.discover_sequential"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["groups.closure_enumerate.elements"] = get("groups.closure_enumerate", "elements")
    m["groups.closure_enumerate.overflows"] = get("groups.closure_enumerate", "overflows")
    m["discovery.deflation_rows"] = get("discovery.dc_gevp_step", "deflation_rows")
    m["numkernel.gevp_min.dim_sum"] = get("numkernel.gevp_min", "dim")
    iterations = get("discovery.discover_sequential", "iterations")
    m["discovery.iterations"] = iterations
    m["discovery.rejected"] = get("discovery.discover_sequential", "rejected")
    m["discovery.accept_ratio"] = (
        get("discovery.discover_sequential", "accepted") / iterations if iterations else 0.0)
    m["matrixio.read_matrix_file.bytes"] = get("matrixio.read_matrix_file", "bytes")
    m["matrixio.write_matrix_file.bytes"] = get("matrixio.write_matrix_file", "bytes")
    m["cli.startup_s"] = startup
    traced_wall = data["traced_wall"]
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - data["round_walls"][-1]
    # Share of the traced round spent in the named layers: self seconds of
    # every wrapped function except the task's entry point (whose self time
    # is what no layer below it accounts for), plus, for cli, the startup
    # (interpreter start and import) of each call.
    covered = sum(e["self_s"] for name, e in round_agg.items() if name not in ENTRY_POINTS)
    m["trace.self_coverage"] = (covered + startup) / traced_wall
    top = sorted(round_agg.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    return m, [(name, e["self_s"], e["calls"]) for name, e in top]


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("discover", "synthesize", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "matched_transforms", "__init__.py")):
        print("error: run from a checkout root holding src/matched_transforms", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    env = child_env(root)
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    try:
        imports = {}
        setups = []
        if args.trace:
            probes = [import_probe(env, deadline) for _ in range(IMPORT_PROBES)]
            imports = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
            data = start_worker(args, workdir, result_path, env, deadline, ("--trace",))
        else:
            def probe_setup():
                probe_dir = os.path.join(workdir, f"probe{len(setups)}")
                os.makedirs(probe_dir)
                setups.append(start_worker(args, probe_dir, os.path.join(probe_dir, "result.json"),
                                           env, deadline, ("--setup-only",))["setup_s"])

            # half the probes before the measured run and half after, so a
            # slow stretch of a shared host does not catch them all
            for _ in range(SETUP_PROBES // 2):
                probe_setup()
            data = start_worker(args, workdir, result_path, env, deadline)
            setups.append(data["setup_s"])
            for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
                probe_setup()
        tasks = data["tasks"]
        failures = [t for t in tasks if not t["ok"]]
        unexpected = [t for t in failures if t["defect"] is None]
        defects: dict = {}
        for t in failures:
            if t["defect"]:
                by_task = defects.setdefault(t["defect"], {})
                by_task[t["label"]] = by_task.get(t["label"], 0) + 1
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(root),
            "environment": data["environment"],
            "failed_frac": {"value": len(failures) / len(tasks), "failed": len(failures),
                            "attempted": len(tasks)},
            "known_defects": defects,
            "unexpected_failures": [f"{t['label']}#{t['id']}: {t['reason']}" for t in unexpected],
            "baseline": baseline_rows(args.workload, tasks),
            "tasks": tasks,
        }
        if args.trace:
            metrics, top = layer_metrics(args.workload, data, imports)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
            detail["top_self"] = top
            # one file for all spans: parent indices shifted, cli calls tagged
            spans_out = os.path.join(outdir, f"{args.workload}-seed{args.seed}.spans.jsonl")
            with open(spans_out, "w", encoding="utf-8") as fh:
                offset = 0
                for path, task_id in zip(data["spans"], data["span_tasks"]):
                    spans = tracer.read_spans(path)
                    for span in spans:
                        span[3] = span[3] + offset if span[3] >= 0 else -1
                        span[4] = span[4] or task_id
                        fh.write(json.dumps(span) + "\n")
                    offset += len(spans)
        else:
            untraced = [t["seconds"] for t in tasks if not t["traced"]]
            tl = tail(untraced)
            detail["task_tail"] = tl
            detail["setup_runs_s"] = setups
            detail["round_walls_s"] = data["round_walls"]
            detail["task_p50_s"] = statistics.median(untraced)
            metrics = {
                "wall_s": {"value": statistics.median(data["round_walls"]), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": data["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
        detail["metrics"] = metrics
        with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
    except (subprocess.TimeoutExpired, RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(detail)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(tasks),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def git_sha(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def report(detail: dict) -> None:
    env = detail["environment"]
    print(f"perfbench {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"git={detail['git_sha']}")
    print(f"  python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {env['blas']} threads {env['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"nproc {env['nproc']}")
    for name, m in detail["metrics"].items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    ff = detail["failed_frac"]
    print(f"  {'failed_frac':38s} {ff['value']:.6g} ({ff['failed']} of {ff['attempted']} tasks)")
    if "task_tail" in detail:
        tl = detail["task_tail"]
        print(f"  {'task_p50_s':38s} {detail['task_p50_s']:.6g} s")
        print(f"  {'task_tail_s':38s} {tl['value']:.6g} s (p{tl['percentile']} of {tl['n']} tasks)")
    print(f"  known defects: {detail['known_defects'] or 'none'}")
    for line in detail["unexpected_failures"]:
        print(f"  UNEXPECTED: {line}")
    for row in detail["baseline"]:
        print(f"  ROADMAP row {row['task']}: bench {row['bench_median_s']:.3f} s "
              f"(n={row['runs']}) vs {row['roadmap_s']} s ({row['roadmap_how']}); "
              f"outcome {'; '.join(row['outcomes'])}")
    for name, self_s, calls in detail.get("top_self", []):
        print(f"  self {name:36s} {self_s:9.4f} s  {calls} calls")


if __name__ == "__main__":
    sys.exit(main())
