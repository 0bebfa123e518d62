"""The three workloads: their seeded inputs, their tasks and the checks.

Each workload class builds its inputs in `setup` (this is what `setup_s`
times), hands out one list of `Task`s per round with `round_tasks`, and
judges each task's output in `check`, outside the timed region.  A check
returns a `Verdict`; a failure whose signature matches a documented defect
carries that defect's name, so it is counted but told apart from a new
failure.

Known defects, counted in `failed`, never dropped or re-seeded:

* ``certified-subgroup`` (ROADMAP item 2): discovery stops with
  ``spectral-bound`` on a proper subgroup of the matched group.  It is
  matched only on the families where ROADMAP records it (dyadic-wreath,
  hybrid and wreath); the same failure on any other family is a new
  failure and makes the run incorrect.
* ``library-comma-split``: ``mtf match-library --library`` splits
  ``hybrid:W,K`` and ``wreath:...`` specs at their commas and exits 2.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def derive(seed: int, *tags) -> int:
    """Sub-seed for one input, fixed by the master seed and the tags."""
    text = ":".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:7], "little")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    defect: str | None = None


@dataclass
class Task:
    id: str
    label: str
    run: object  # () -> output; the only timed call
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# discover

def catalog_order(spec: str) -> int:
    """Closure order of a catalog action, from its formula."""
    head, arg = spec.split(":", 1)
    if head == "cyclic":
        return int(arg)
    if head == "boolean":
        return 2 ** int(arg)
    if head == "dyadic-wreath":
        return 2 ** (2 ** int(arg) - 1)
    raise ValueError(f"no order formula for {spec}")


def brute_force_matched_group(r: np.ndarray, tol: float = 1e-10) -> set:
    """Every permutation of S_m commuting with r, found by exhaustive
    commutation (the same oracle as the test suite's helper)."""
    m = r.shape[0]
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    invs = np.argsort(perms, axis=1)
    left = r[invs, :]
    right = r.T[perms].transpose(0, 2, 1)
    norms = np.linalg.norm((left - right).reshape(perms.shape[0], -1), axis=1)
    scale = np.sqrt(m) * np.linalg.norm(r)
    return {tuple(int(x) for x in perms[i]) for i in np.nonzero(norms <= tol * scale)[0]}


def closure_of(generators, degree: int) -> set:
    """Breadth-first closure over image tuples, independent of the library."""
    ident = tuple(range(degree))
    gens = [tuple(g) for g in generators]
    seen, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return seen


class Discover:
    """`discover_sequential` on exact invariant covariances.

    Degree 8: seven families, three covariances each.  Degree 16:
    cyclic:16, boolean:4, dyadic-wreath:4.  Degree 32 with matrix units,
    degree 64 with cyclic shifts.  The span SVDs, `gevp_min`, assignment
    rounding and closure do almost all the work; dyadic-wreath:4 is
    dominated by deflation, cyclic:32 by the M^2 assembly.

    Where the number of search iterations swings with the sample (2 to 14
    at degree 8, 37 to 62 for dyadic-wreath:4), a per-seed draw would make
    the timings measure the draw, so those families use fixed covariance
    seeds: 1-3 as in ROADMAP item 2, and the seeds of ROADMAP's baseline
    rows.  Families whose iteration count does not depend on the sample
    (boolean:n, cyclic:64 with cyclic shifts) are drawn from the master
    seed.
    """

    name = "discover"
    ROUND_SECONDS = 15
    # (spec, basis, fixed covariance seeds, or a count drawn from the master seed)
    INPUTS = (
        ("cyclic:8", "matrix-units", (1, 2, 3)),
        ("dihedralM:8", "matrix-units", (1, 2, 3)),
        ("boolean:3", "matrix-units", 3),
        ("dyadic-wreath:3", "matrix-units", (1, 2, 3)),
        ("hybrid:2,4", "matrix-units", (1, 2, 3)),
        ("wreath:4s,2c", "matrix-units", (1, 2, 3)),
        ("wreath:2s,4c", "matrix-units", (1, 2, 3)),
        ("cyclic:16", "matrix-units", (1,)),
        ("boolean:4", "matrix-units", 1),
        ("dyadic-wreath:4", "matrix-units", (3,)),
        ("cyclic:32", "matrix-units", (1,)),
        ("cyclic:64", "cyclic-shifts", 1),
    )
    CAP = 10**4  # discover_sequential's default enumeration cap
    SUBGROUP_DEFECT_FAMILIES = ("dyadic-wreath", "hybrid", "wreath")

    def setup(self, seed: int, workdir: str) -> None:
        from matched_transforms import diagnostics, groups

        self.inputs = []
        for spec, basis, seeds in self.INPUTS:
            if isinstance(seeds, int):
                seeds = [derive(seed, "discover", spec, k) for k in range(seeds)]
            self.inputs += [(spec, s, basis) for s in seeds]
        self.covs = []
        for spec, cov_seed, _ in self.inputs:
            action = groups.parse_group_spec(spec)
            self.covs.append(diagnostics.sample_invariant_cov(action, cov_seed))

    def round_tasks(self, round_index: int, workdir: str, traced: bool) -> list:
        from matched_transforms import discovery

        tasks = []
        for i, ((spec, _, basis), r) in enumerate(zip(self.inputs, self.covs)):
            def run(r=r, basis=basis):
                if basis == "cyclic-shifts":
                    cand = discovery.CandidateBasis.cyclic_shifts(r.shape[0])
                    return discovery.discover_sequential(r, basis=cand)
                return discovery.discover_sequential(r)
            label = spec if basis == "matrix-units" else f"{spec}/{basis}"
            tasks.append(Task(f"d{i}", label, run))
        return tasks

    def keep(self, task: Task, output, workdir: str):
        return output

    def summary(self, output) -> dict:
        return {"iterations": output.iterations, "order": output.group_order,
                "stop": output.stop_reason}

    def check(self, task: Task, output) -> Verdict:
        index = int(task.id[1:])
        spec = self.inputs[index][0]
        r = self.covs[index]
        m = r.shape[0]
        r_norm = np.linalg.norm(r)
        for g in output.generators:
            p = np.asarray(g.images)
            comm = r[np.argsort(p), :] - r[:, p]
            if np.linalg.norm(comm) > 1e-8 * np.sqrt(m) * r_norm:
                return Verdict(False, f"generator {g.cycle_string()} does not commute")
        found_subgroup = False
        if m <= 8:
            oracle = brute_force_matched_group(r)
            found = closure_of((g.images for g in output.generators), m)
            if found != oracle:
                reason = f"closure has {len(found)} elements, oracle {len(oracle)}"
                found_subgroup = found < oracle
            elif output.group_order != len(oracle):
                return Verdict(False, f"reported order {output.group_order} != {len(oracle)}")
            else:
                return Verdict(True)
        else:
            expected = catalog_order(spec)
            if expected > self.CAP:
                if output.order_exceeded_cap:
                    return Verdict(True)
                reason = f"order {output.group_order} reported, {expected} exceeds the cap"
                found_subgroup = output.group_order < expected
            else:
                if not output.order_exceeded_cap and output.group_order == expected:
                    return Verdict(True)
                reason = f"order {output.group_order} != catalog order {expected}"
                found_subgroup = (not output.order_exceeded_cap
                                  and output.group_order < expected)
        certified = (found_subgroup and output.stop_reason == "spectral-bound"
                     and spec.split(":", 1)[0] in self.SUBGROUP_DEFECT_FAMILIES)
        return Verdict(False, reason, "certified-subgroup" if certified else None)


# ---------------------------------------------------------------------------
# synthesize

class Synthesize:
    """`synthesize_matched` from M = 256 to 1024.

    `rng`, `pair_orbits`/`reynolds_project`, `herm_eig` and
    `subspace_match` do the work; discovery and closure do none.  trivial
    takes the data-dependent KLT path.  The working set runs from 1 MB
    (M = 256) to 16 MB (M = 1024), either side of a 2 MiB L2.
    """

    name = "synthesize"
    ROUND_SECONDS = 30
    SMALL = ("cyclic:256", "dihedralM:256", "trivial:256")
    SMALL_SEEDS = 4
    LARGE = ("boolean:9", "dyadic-wreath:9", "cyclic:1024")

    def setup(self, seed: int, workdir: str) -> None:
        from matched_transforms import groups

        self.inputs = []
        for k in range(self.SMALL_SEEDS):
            for spec in self.SMALL:
                self.inputs.append((spec, derive(seed, "synthesize", spec, k)))
        for spec in self.LARGE:
            self.inputs.append((spec, derive(seed, "synthesize", spec)))
        self.actions = [groups.parse_group_spec(spec) for spec, _ in self.inputs]
        self.seed = seed

    def round_tasks(self, round_index: int, workdir: str, traced: bool) -> list:
        from matched_transforms import transforms

        tasks = []
        for i, ((spec, s), action) in enumerate(zip(self.inputs, self.actions)):
            tasks.append(Task(
                f"s{i}", spec,
                lambda action=action, s=s: transforms.synthesize_matched(action, s),
                {"synth_seed": s, "round": round_index},
            ))
        return tasks

    def keep(self, task: Task, output, workdir: str):
        """Park U on disk so held outputs do not inflate peak RSS."""
        path = os.path.join(workdir, f"r{task.info['round']}-{task.id}.npy")
        np.save(path, output.transform.matrix)
        return {"path": path, "data_dependent": output.data_dependent,
                "pattern": list(output.degeneracy_pattern)}

    def summary(self, kept) -> dict:
        return {"data_dependent": kept["data_dependent"]}

    def check(self, task: Task, kept) -> Verdict:
        from matched_transforms import diagnostics, numkernel

        index = int(task.id[1:])
        action = self.actions[index]
        u = np.load(kept["path"])
        m = action.degree
        unitary_err = np.linalg.norm(u.conj().T @ u - np.eye(m)) / np.sqrt(m)
        if unitary_err > 1e-10:
            return Verdict(False, f"U is not unitary: {unitary_err:.3e}")
        trivial = all(g.is_identity() for g in action.generators)
        if trivial:
            # no fixed basis exists: U must be the KLT of its own sample
            if not kept["data_dependent"]:
                return Verdict(False, "trivial action not flagged data_dependent")
            r3 = numkernel.random_psd(m, task.info["synth_seed"])
        else:
            if kept["data_dependent"]:
                return Verdict(False, "non-trivial action flagged data_dependent")
            r3 = diagnostics.sample_invariant_cov(
                action, derive(self.seed, "synthesize-check", index))
        d = u.conj().T @ r3 @ u
        off = np.linalg.norm(d - np.diag(np.diag(d))) / np.linalg.norm(r3)
        if off > 1e-8:
            return Verdict(False, f"U*R3U off-diagonal norm {off:.3e} > 1e-8")
        if sum(kept["pattern"]) != m:
            return Verdict(False, f"degeneracy pattern sums to {sum(kept['pattern'])}")
        return Verdict(True)


# ---------------------------------------------------------------------------
# cli

CLI_LAUNCHER = os.path.join(HERE, "cli_launcher.py")
# Degree-8 catalog specs; the last three contain commas.
CATALOG8 = (
    "trivial:8", "cyclic:8", "dihedralM:8", "boolean:3", "dyadic-wreath:3",
    "hybrid:2,4", "wreath:4s,2c", "wreath:2s,4c",
)
CATALOG8_PLAIN = CATALOG8[:5]


class Cli:
    """A closed loop of `python -m matched_transforms.cli` calls, one client.

    Each call pays interpreter start, package import and text matrix
    parse/render while its numeric work is small, so a change that adds
    import-time or per-call cost shows here even if it speeds large-M
    kernels.  Writes (`--out`, `.matched.mtx`) run beside reads.

    The input covariance is a seeded dihedralM:8-invariant sample.  Each
    call is checked against the same computation done in-process, so the
    checks cover the CLI path; the discover workload checks discovery
    itself against an oracle.
    """

    name = "cli"
    # A round takes about 8 s, but its calls are dominated by interpreter
    # start and import, whose speed drifts on a shared host from one
    # stretch of seconds to the next; four rounds per 20 s average more of
    # that drift than the two that 8 s rounds would give.
    ROUND_SECONDS = 5
    GROUP = "dihedralM:8"

    def setup(self, seed: int, workdir: str) -> None:
        from matched_transforms import diagnostics, groups, matrixio

        self.cmd_seed = derive(seed, "cli") % 10**6
        action = groups.parse_group_spec(self.GROUP)
        self.cov_path = os.path.join(workdir, "cov.mtx")
        cov = diagnostics.sample_invariant_cov(action, derive(seed, "cli", "cov"))
        matrixio.write_matrix_file(self.cov_path, cov)

    def round_tasks(self, round_index: int, workdir: str, traced: bool) -> list:
        rdir = os.path.join(workdir, f"round{round_index}")
        os.makedirs(rdir, exist_ok=True)
        cov = os.path.join(rdir, "cov.mtx")
        with open(self.cov_path, "rb") as src, open(cov, "wb") as dst:
            dst.write(src.read())
        s = str(self.cmd_seed)
        commands = [
            ("kernel", ["kernel", "dft", "--size", "16", "--out", os.path.join(rdir, "dft16.mtx")]),
            ("verify", ["verify", "--case", "all", "--seed", s, "--json"]),
            ("residual", ["residual", "--perm", "(0 1 2 3 4 5 6 7)", "--in", cov, "--json"]),
            ("alpha", ["alpha", "--group", self.GROUP, "--in", cov, "--json"]),
            ("project", ["project", "--group", "cyclic:8", "--in", cov,
                         "--out", os.path.join(rdir, "proj.mtx")]),
            ("match-library", ["match-library", "--in", cov, "--library",
                               ",".join(CATALOG8_PLAIN), "--json"]),
            ("match-library-catalog", ["match-library", "--in", cov, "--library",
                                       ",".join(CATALOG8), "--json"]),
            ("discover", ["discover", cov, "--seed", s, "--json"]),
            ("synthesize", ["synthesize", "--group", "dyadic-wreath:4", "--seed", s,
                            "--out", os.path.join(rdir, "synth.mtx"), "--json"]),
        ]
        tasks = []
        for i, (label, argv) in enumerate(commands):
            task_id = f"c{i}"
            if traced:
                spans = os.path.join(rdir, f"{task_id}.spans.jsonl")
                prefix = [sys.executable, CLI_LAUNCHER, spans]
            else:
                spans = None
                prefix = [sys.executable, "-m", "matched_transforms.cli"]
            tasks.append(Task(
                task_id, label,
                lambda cmd=prefix + argv: self._invoke(cmd),
                {"argv": argv, "spans": spans, "cov": cov},
            ))
        return tasks

    def _invoke(self, cmd):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def keep(self, task: Task, output, workdir: str):
        return output

    def summary(self, output) -> dict:
        return {"exit": output[0]}

    def check(self, task: Task, output) -> Verdict:
        code, out, err = output
        try:
            return getattr(self, "_check_" + task.label.replace("-", "_"))(
                task.info["argv"], task.info["cov"], code, out, err)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            return Verdict(False, f"unreadable output: {exc!r}; exit {code}; {err.strip()[-200:]}")

    # Each reference below is computed in-process with library calls.

    @staticmethod
    def _expect_exit0(code, err):
        if code != 0:
            return Verdict(False, f"exit {code}: {err.strip()[-200:]}")
        return None

    def _check_kernel(self, argv, cov, code, out, err):
        from matched_transforms import matrixio, transforms

        bad = self._expect_exit0(code, err)
        if bad:
            return bad
        with open(argv[-1], encoding="ascii") as fh:
            text = fh.read()
        ref = matrixio.render_matrix(np.asarray(transforms.dft_matrix(16).matrix))
        return Verdict(text == ref, "" if text == ref else "kernel file differs")

    def _check_verify(self, argv, cov, code, out, err):
        from matched_transforms import diagnostics, groups, transforms

        bad = self._expect_exit0(code, err)
        if bad:
            return bad
        seed = int(argv[argv.index("--seed") + 1])
        refs = {
            "dft": diagnostics.subspace_match(
                diagnostics.sample_invariant_cov(groups.make_cyclic(16), seed),
                transforms.dft_matrix(16)),
            "wht": diagnostics.subspace_match(
                diagnostics.sample_invariant_cov(groups.make_boolean(4), seed),
                transforms.wht_matrix(4)),
            "dct": diagnostics.subspace_match(
                diagnostics.dct_fold_cov(8, seed), transforms.dct2_matrix(8)),
            "haar": diagnostics.subspace_match(
                diagnostics.sample_invariant_cov(groups.make_dyadic_wreath(5), seed),
                transforms.haar_matrix(5)),
            "circle64": diagnostics.circle_check(64, seed),
        }
        doc = json.loads(out)
        if not doc["pass"] or [c["case"] for c in doc["cases"]] != list(refs):
            return Verdict(False, "verify cases or pass flag differ")
        for case in doc["cases"]:
            ref = refs[case["case"]]
            if (abs(case["min_match"] - ref.min_match) > 1e-6
                    or case["pattern"] != list(ref.degeneracy_pattern)):
                return Verdict(False, f"verify case {case['case']} differs")
        return Verdict(True)

    def _check_residual(self, argv, cov, code, out, err):
        from matched_transforms import diagnostics, groups, matrixio

        bad = self._expect_exit0(code, err)
        if bad:
            return bad
        r = matrixio.read_matrix_file(cov)
        perm = groups.parse_permutation(argv[argv.index("--perm") + 1], degree=r.shape[0])
        ref = diagnostics.residual_delta(perm, r)
        got = json.loads(out)["delta"]
        return Verdict(abs(got - ref) <= 1e-6, f"delta {got} vs {ref}")

    def _check_alpha(self, argv, cov, code, out, err):
        from matched_transforms import diagnostics, groups, matrixio

        bad = self._expect_exit0(code, err)
        if bad:
            return bad
        ref = diagnostics.coloring_alpha(groups.parse_group_spec(self.GROUP),
                                         matrixio.read_matrix_file(cov))
        got = json.loads(out)["alpha"]
        return Verdict(abs(got - ref) <= 1e-6, f"alpha {got} vs {ref}")

    def _check_project(self, argv, cov, code, out, err):
        from matched_transforms import groups, matrixio

        bad = self._expect_exit0(code, err)
        if bad:
            return bad
        ref = groups.reynolds_project(matrixio.read_matrix_file(cov),
                                      groups.parse_group_spec("cyclic:8"))
        got = matrixio.read_matrix_file(argv[-1])
        return Verdict(bool(np.allclose(got, ref, rtol=0, atol=1e-12)), "projection differs")

    def _library_reference(self, cov, specs):
        from matched_transforms import discovery, groups, matrixio

        report = discovery.match_library(
            matrixio.read_matrix_file(cov), [groups.parse_group_spec(s) for s in specs])
        return [(e.name, round(e.score, 6), round(e.alpha, 6),
                 f">{10**4}" if e.order_exceeded_cap else e.group_order)
                for e in report.matches]

    def _compare_library(self, specs, cov, code, out, err, defect=None):
        if code != 0:
            return Verdict(False, f"exit {code}: {err.strip()[-200:]}",
                           defect if code == 2 and "malformed group spec" in err else None)
        got = [(e["group"], e["score"], e["alpha"], e["order"])
               for e in json.loads(out)["entries"]]
        ref = self._library_reference(cov, specs)
        same = len(got) == len(ref) and all(
            g[0] == r[0] and g[3] == r[3] and abs(g[1] - r[1]) <= 1e-6
            and abs(g[2] - r[2]) <= 1e-6 for g, r in zip(got, ref))
        return Verdict(same, "" if same else f"ranking {got} != {ref}")

    def _check_match_library(self, argv, cov, code, out, err):
        return self._compare_library(CATALOG8_PLAIN, cov, code, out, err)

    def _check_match_library_catalog(self, argv, cov, code, out, err):
        return self._compare_library(CATALOG8, cov, code, out, err,
                                     defect="library-comma-split")

    def _check_discover(self, argv, cov, code, out, err):
        from matched_transforms import discovery, errors, groups, matrixio, transforms

        bad = self._expect_exit0(code, err)
        if bad:
            return bad
        r = matrixio.read_matrix_file(cov)
        ref = discovery.discover_sequential(r)
        doc = json.loads(out)
        gens = [doc[f"generator_{i}"] for i in range(len(ref.generators))]
        if (gens != [g.cycle_string() for g in ref.generators]
                or doc["order"] != ref.group_order or doc["stop"] != ref.stop_reason
                or abs(doc["alpha"] - ref.alpha) > 1e-6):
            return Verdict(False, "discover report differs from the reference")
        action = groups.from_generators(
            list(ref.generators) or [groups.Permutation.identity(r.shape[0])], "discovered")
        seed = int(argv[argv.index("--seed") + 1])
        try:
            basis = transforms.synthesize_matched(action, seed)
        except errors.NotMultiplicityFreeError:
            return Verdict(doc["matched_transform"] == "-", "unexpected matched transform")
        got = matrixio.read_matrix_file(doc["matched_transform"])
        same = bool(np.allclose(got, basis.transform.matrix, rtol=0, atol=1e-10))
        return Verdict(same, "" if same else ".matched.mtx differs")

    def _check_synthesize(self, argv, cov, code, out, err):
        from matched_transforms import groups, matrixio, transforms

        bad = self._expect_exit0(code, err)
        if bad:
            return bad
        action = groups.parse_group_spec(argv[argv.index("--group") + 1])
        ref = transforms.synthesize_matched(action, int(argv[argv.index("--seed") + 1]))
        got = matrixio.read_matrix_file(argv[argv.index("--out") + 1])
        doc = json.loads(out)
        same = (doc["pattern"] == list(ref.degeneracy_pattern)
                and bool(np.allclose(got, ref.transform.matrix, rtol=0, atol=1e-10)))
        return Verdict(same, "" if same else "synthesized basis differs")


WORKLOADS = {w.name: w for w in (Discover, Synthesize, Cli)}
