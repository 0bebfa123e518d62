import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matched_transforms import (
    InputError,
    NumericError,
    arithmetic_matrix,
    cli,
    dct2_matrix,
    dft_matrix,
    discovery,
    fp_rm_matrix,
    groups,
    haar_matrix,
    hartley_matrix,
    make_cyclic,
    numkernel,
    parse_matrix,
    random_psd,
    read_matrix_file,
    render_matrix,
    rm_matrix,
    sample_invariant_cov,
    synthesize_matched,
    wht_matrix,
    write_matrix_file,
)

from helpers import is_invariant


def run(argv):
    """cli.main, with argparse's SystemExit folded into the return code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return int(exc.code)


def nested_product(depth, leaf="cyclic:1", side="left"):
    """A product spec `depth` levels deep; side is left, right or alternate."""
    spec = leaf
    for level in range(depth):
        left = side == "left" or (side == "alternate" and level % 2 == 0)
        spec = f"product:({spec},{leaf})" if left else f"product:({leaf},{spec})"
    return spec


def write_cov(path, arr):
    write_matrix_file(str(path), np.asarray(arr, dtype=np.complex128))
    return str(path)


class TestMatrixFile:
    def test_round_trip_complex_exact(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        assert np.array_equal(parse_matrix(render_matrix(x)), x)

    def test_round_trip_real_exact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 4)) + 0j
        text = render_matrix(x)
        assert text.splitlines()[0] == "# rows=4 cols=4 field=real"
        assert np.array_equal(parse_matrix(text), x)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "1:nan"])
    def test_non_finite_tokens_rejected(self, token):
        field = "complex" if ":" in token else "real"
        with pytest.raises(InputError):
            parse_matrix(f"# rows=1 cols=1 field={field}\n{token}\n")

    def test_width_checked_before_allocation(self):
        # 1e11 complex entries would need 1.46 TiB
        with pytest.raises(InputError, match="expected 100000000000 entries"):
            parse_matrix("# rows=1 cols=100000000000 field=real\n1 2 3\n")

    @pytest.mark.parametrize("body", ["1e300 0\n0 2e300", "1e-300 0\n0 2e-300"])
    @pytest.mark.parametrize("command", [
        ["residual", "--perm", "(0 1)", "--in"],
        ["alpha", "--group", "cyclic:2", "--in"],
        ["project", "--group", "cyclic:2", "--out", "{out}", "--in"],
        ["match-library", "--library", "cyclic:2,trivial:2", "--in"],
        ["discover"],
    ])
    def test_scale_outside_float64_exit_2(self, tmp_path, body, command, capsys):
        # the Frobenius norm overflows to inf or underflows to 0
        path = tmp_path / "scale.mtx"
        path.write_text(f"# rows=2 cols=2 field=real\n{body}\n", encoding="ascii")
        out = str(tmp_path / "out.mtx")
        assert run([out if a == "{out}" else a for a in command] + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: matrix scale is too")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["residual", "--perm", "(0 1)", "--in"],
        ["alpha", "--group", "cyclic:2", "--in"],
        ["match-library", "--library", "cyclic:2,trivial:2", "--in"],
        ["discover"],
    ])
    def test_zero_matrix_exit_2(self, tmp_path, command, capsys):
        # a normalized residual is undefined for the zero matrix: an input
        # error, not a failed verification
        path = tmp_path / "zero.mtx"
        path.write_text("# rows=2 cols=2 field=real\n0 0\n0 0\n", encoding="ascii")
        assert run(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "undefined for the zero matrix" in captured.err

    def test_zero_matrix_parses(self):
        assert not parse_matrix("# rows=2 cols=2 field=real\n0 0\n0 -0\n").any()

    def test_file_round_trip(self, tmp_path):
        x = np.array([[1e-300 + 2.5j, -7.0], [0.0, 3.141592653589793]])
        p = tmp_path / "m.mtx"
        write_matrix_file(str(p), x)
        assert np.array_equal(read_matrix_file(str(p)), x)


class TestKernel:
    def test_dft_stdout(self, capsys):
        assert run(["kernel", "dft", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# rows=4 cols=4 field=complex"
        assert np.max(np.abs(parse_matrix(out) - dft_matrix(4).matrix)) <= 1e-15

    def test_rm_is_real_integer_file(self, capsys):
        assert run(["kernel", "rm", "--size", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# rows=8 cols=8 field=real"
        assert np.array_equal(parse_matrix(out).real, rm_matrix(3).matrix)

    def test_haar_scaling_column(self, capsys):
        assert run(["kernel", "haar", "--size", "3"]) == 0
        got = parse_matrix(capsys.readouterr().out)
        assert np.allclose(got[:, 0].real, np.full(8, 2.0**-1.5), atol=1e-15)
        assert np.max(np.abs(got - haar_matrix(3).matrix)) <= 1e-15

    def test_fprm_polarity(self, capsys):
        assert run(["kernel", "fprm", "--polarity", "10"]) == 0
        got = parse_matrix(capsys.readouterr().out)
        assert np.array_equal(got.real, fp_rm_matrix((1, 0)).matrix)

    def test_out_file(self, tmp_path, capsys):
        p = tmp_path / "dct.mtx"
        assert run(["kernel", "dct2", "--size", "8", "--out", str(p)]) == 0
        capsys.readouterr()
        assert read_matrix_file(str(p)).shape == (8, 8)

    def test_missing_size_is_usage_error(self, capsys):
        assert run(["kernel", "dft"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fprm_needs_polarity(self, capsys):
        assert run(["kernel", "fprm"]) == 2
        assert "polarity" in capsys.readouterr().err

    def test_bad_polarity_string(self, capsys):
        # fp_rm_matrix owns the check; the command adds none of its own
        for polarity in ("102", "", "1 0", "0.5", "x"):
            assert run(["kernel", "fprm", "--polarity", polarity]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("error:") == 1 and "polarity" in captured.err

    def test_unknown_name_is_usage_error(self, capsys):
        assert run(["kernel", "nonexistent", "--size", "4"]) == 2
        capsys.readouterr()

    def test_bad_size(self, capsys):
        assert run(["kernel", "wht", "--size", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, build", [
        (("dft", "--size", "5"), lambda: dft_matrix(5)),
        (("dct2", "--size", "7"), lambda: dct2_matrix(7)),
        (("hartley", "--size", "6"), lambda: hartley_matrix(6)),
        (("wht", "--size", "3"), lambda: wht_matrix(3)),
        (("haar", "--size", "3"), lambda: haar_matrix(3)),
        (("rm", "--size", "3"), lambda: rm_matrix(3)),
        (("arith", "--size", "3"), lambda: arithmetic_matrix(3)),
        (("fprm", "--polarity", "101"), lambda: fp_rm_matrix("101")),
    ], ids=["dft", "dct2", "hartley", "wht", "haar", "rm", "arith", "fprm"])
    def test_text_is_the_complex_text(self, argv, build, capsys):
        # every kernel is rendered as it is stored, real ones with no
        # complex copy, and gives the text of its complex128 cast
        assert run(["kernel", *argv]) == 0
        matrix = build().matrix
        assert capsys.readouterr().out == render_matrix(matrix.astype(np.complex128))

    @pytest.mark.parametrize("argv, digest", [
        (("wht", "--size", "6"), "218fe0db1a4d4ef1db31c9ee6e5cde7f77a70c383ed682198bcb5a5dff8e335f"),
        (("haar", "--size", "6"), "2ce58af43dc30b5f5b7f566073b67df0b547a4c1cf8f7020d75ab4464804f9a6"),
        (("rm", "--size", "3"), "f9679448c5e90cb70b48ee8cab8e4fb5f579fa27cc41234318a45850c6ac3173"),
        (("arith", "--size", "6"), "04f758104d1415e5dc2fc6318f068ea6898456eec4d0bd56dcba797017c6123f"),
        (("fprm", "--polarity", "0110"), "02204febcdb3c9f0ed4e5889e279e320b77a1c176ba49c58b0ae297a7d5fe7ce"),
    ])
    def test_exact_kernel_text_pinned(self, argv, digest, capsys):
        # kernels built from sqrt and division alone, or integers, have
        # fixed text: these SHA-256 pins are that of rendering them complex
        assert run(["kernel", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("matrix", [
        rm_matrix(3).matrix, np.array([[-0.0, 1e-300], [2.5, -7.0]]), np.array([[True, False]])])
    def test_real_text_equals_complex_text(self, matrix):
        # an IntTransform's int64 matrix, signed zeros and booleans included
        assert render_matrix(matrix) == render_matrix(matrix.astype(np.complex128))

    @pytest.mark.parametrize("name", ["wht", "haar", "rm", "arith"])
    def test_huge_log2_size_is_usage_error(self, name, capsys):
        # rejected before 1 << size is built
        assert run(["kernel", name, "--size", str(10**17)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestVerify:
    def test_single_case(self, capsys):
        assert run(["verify", "--case", "dft", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("case=dft group=cyclic:16 min_match=1.000000 pattern=1 ")
        assert " pass=true seconds=" in out
        assert out.endswith("\npass: true\n")

    def test_haar_pattern(self, capsys):
        assert run(["verify", "--case", "haar"]) == 0
        assert "pattern=1 1 2 4 8 16" in capsys.readouterr().out

    def test_circle64_pattern(self, capsys):
        assert run(["verify", "--case", "circle64"]) == 0
        out = capsys.readouterr().out
        assert "pattern=1 " + "2 " * 31 + "1" in out

    def test_all_cases(self, capsys):
        assert run(["verify", "--case", "all", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l.startswith("case=")]) == 5

    def test_json_text_parity(self, capsys):
        assert run(["verify", "--case", "wht", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        assert run(["verify", "--case", "wht", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        text_match = float(re.search(r"min_match=([0-9.]+)", text).group(1))
        row = payload["cases"][0]
        assert row["case"] == "wht"
        assert row["min_match"] == text_match
        assert payload["pass"] is True

    def test_seconds_per_case_text_json_parity(self, capsys):
        # timings differ between runs, so parity is the field's presence and
        # format: one seconds value per case, six decimals in both outputs
        assert run(["verify", "--case", "all", "--seed", "2"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("case=")]
        assert run(["verify", "--case", "all", "--seed", "2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["cases"]
        assert [r["case"] for r in rows] == [l.split()[0][len("case="):] for l in lines]
        for line, row in zip(lines, rows):
            token = re.search(r" pass=true seconds=([0-9]+\.[0-9]{6})$", line).group(1)
            assert float(token) >= 0.0
            assert row["seconds"] >= 0.0 and row["seconds"] == round(row["seconds"], 6)
            assert list(row)[-1] == "seconds"

    def test_failing_case_row(self, monkeypatch, capsys):
        def broken(seed):
            raise NumericError("broken case")

        monkeypatch.setitem(cli._VERIFY_CASES, "dct", broken)
        assert run(["verify", "--seed", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith(
            "case=dct group=- min_match=- pattern= pass=false error=broken case seconds=")
        assert [l.split()[0] for l in lines] == [
            "case=dft", "case=wht", "case=dct", "case=haar", "case=circle64", "pass:"]
        assert lines[-1] == "pass: false"
        assert sum(" pass=true " in l for l in lines) == 4
        assert run(["verify", "--seed", "3", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        row = payload["cases"][2]
        del row["seconds"]
        assert row == {"case": "dct", "group": "-", "min_match": None, "pattern": [],
                       "pass": False, "error": "broken case"}
        assert [r["pass"] for r in payload["cases"]] == [True, True, False, True, True]
        assert payload["pass"] is False

    def test_import_builds_no_matrix(self):
        # the verify and kernel tables name their builders without calling them
        probe = textwrap.dedent("""
            from matched_transforms import diagnostics, groups, transforms

            def refuse(*args):
                raise AssertionError("built at import")

            for module in (diagnostics, groups, transforms):
                for name in dir(module):
                    if name.endswith(("_matrix", "_cov", "_check")) or name.startswith("make_"):
                        setattr(module, name, refuse)
            import matched_transforms.cli
        """)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestDiscover:
    def test_circulant(self, tmp_path, capsys):
        r = sample_invariant_cov(make_cyclic(8), seed=1)
        path = write_cov(tmp_path / "circ.mtx", r)
        assert run(["discover", path]) == 0
        out = capsys.readouterr().out
        assert "generator_0: (0 1 2 3 4 5 6 7)" in out
        # delta is a %.3e string: six decimals would read 0.000000
        delta = re.search(r"^delta_0: (\S+)$", out, re.M).group(1)
        assert re.fullmatch(r"[0-9]\.[0-9]{3}e[+-][0-9]{2}", delta)
        assert 0.0 <= float(delta) <= 1e-8
        assert "order: 8" in out
        assert "alpha: 1.000000" in out
        assert "stop: complete" in out
        matched = path + ".matched.mtx"
        assert f"matched_transform: {matched}" in out
        u = read_matrix_file(matched)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10
        d = u.conj().T @ r @ u
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-8 * np.linalg.norm(r)

    def test_delta_text_json_parity(self, tmp_path, capsys):
        # a perturbation far below tau keeps the generators but gives each a
        # delta well above roundoff, which the report must show
        from matched_transforms import discovery

        r = sample_invariant_cov(groups.parse_group_spec("product:(cyclic:2,cyclic:4)"), 4)
        e = 1e-11 * random_psd(8, 6)
        path = write_cov(tmp_path / "noisy.mtx", r + e)
        result = discovery.discover_sequential(read_matrix_file(path))
        assert result.generators and min(result.residuals) > 1e-13
        assert run(["discover", path]) == 0
        text = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert run(["discover", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for i, delta in enumerate(result.residuals):
            assert doc[f"delta_{i}"] == text[f"delta_{i}"] == f"{delta:.3e}"

    def test_identity_completes_with_degenerate_spectrum(self, tmp_path, capsys):
        # S_8 has order 40320, above the default cap; a complete search
        # proves it, so the report gives it
        path = write_cov(tmp_path / "eye.mtx", np.eye(8))
        assert run(["discover", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 1.0
        assert payload["stop"] == "complete"
        assert payload["order"] == 40320

    def test_coarse_colors_past_the_cap_print_the_cap(self, tmp_path, capsys):
        # the one order a report cannot give: a coarse-colors closure that
        # overflows the cap (see test_discovery for this matrix)
        p = np.arange(11)
        r = np.eye(14)
        r[:11, :11] = (p[:, None] + p[None, :]) / 20
        path = write_cov(tmp_path / "coarse.mtx", r)
        assert run(["discover", path, "--tau", "0.06", "--cap", "50"]) == 0
        text = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert text["stop"] == "coarse-colors"
        assert text["order"] == ">50"

    def test_trace_lines_equal_the_result_trace(self, tmp_path, capsys, monkeypatch):
        from matched_transforms import discovery

        original = discovery.discover_sequential
        results = []

        def recording(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(discovery, "discover_sequential", recording)
        r = sample_invariant_cov(groups.parse_group_spec("wreath:4s,2c"), 2)
        path = write_cov(tmp_path / "w.mtx", r)
        trace = tmp_path / "trace.jsonl"
        assert run(["discover", path, "--trace", str(trace)]) == 0
        capsys.readouterr()
        lines = trace.read_text(encoding="utf-8").splitlines()
        (result,) = results
        assert len(lines) == len(result.trace) > 0
        for line, level in zip(lines, result.trace):
            assert json.loads(line) == {
                "point": level.point, "cell_size": level.cell_size,
                "orbit_length": level.orbit_length, "nodes": level.nodes,
                "leaves": level.leaves, "seconds": level.seconds,
            }

    def test_unwritable_trace_exit_3(self, tmp_path, capsys):
        path = write_cov(tmp_path / "c4.mtx", sample_invariant_cov(make_cyclic(4), seed=2))
        assert run(["discover", path, "--trace", str(tmp_path / "missing" / "t.jsonl")]) == 3
        assert "I/O failure" in capsys.readouterr().err

    def test_asymmetric_psd_finds_nothing_and_writes_no_transform(self, tmp_path, capsys):
        r = random_psd(5, 9)
        path = write_cov(tmp_path / "plain.mtx", r)
        assert run(["discover", path]) == 0
        out = capsys.readouterr().out
        assert "generators: none" in out
        assert "alpha: 1.000000" in out
        assert "matched_transform: -" in out
        import os

        assert not os.path.exists(path + ".matched.mtx")

    def test_non_hermitian_exit_2(self, tmp_path, capsys):
        arr = np.array([[0.0, 1.0], [0.0, 0.0]])
        path = write_cov(tmp_path / "bad.mtx", arr)
        assert run(["discover", path]) == 2
        err = capsys.readouterr().err
        # one error line, whose reason is stated once
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert err.count("not Hermitian") == 1

    def test_hermitian_check_runs_once(self, tmp_path, monkeypatch):
        calls = []
        check = numkernel._check_hermitian

        def counted(a):
            calls.append(a.shape)
            return check(a)

        monkeypatch.setattr(numkernel, "_check_hermitian", counted)
        monkeypatch.setattr(discovery, "_check_hermitian", counted)
        path = write_cov(tmp_path / "c4.mtx", sample_invariant_cov(make_cyclic(4), seed=2))
        assert run(["discover", path]) == 0
        assert calls == [(4, 4)]

    @pytest.mark.parametrize("tau", ["nan", "-1", "0", "inf", "-inf"])
    def test_bad_tau_exit_2(self, tmp_path, tau, capsys):
        # discover_sequential owns the check; the command adds none of its own
        path = write_cov(tmp_path / "c4.mtx", sample_invariant_cov(make_cyclic(4), seed=2))
        assert run(["discover", path, f"--tau={tau}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert captured.err.startswith("error: tau must be finite and > 0")

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_exit_2_without_symmetry(self, tmp_path, cap, capsys):
        # no generator is accepted, so closure enumeration never sees the cap
        path = write_cov(tmp_path / "rand6.mtx", random_psd(6, 3))
        assert run(["discover", path, f"--cap={cap}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap must be >= 1" in captured.err

    def test_missing_file_exit_3(self, capsys):
        assert run(["discover", "/nonexistent/path.mtx"]) == 3
        assert "I/O failure" in capsys.readouterr().err

    def test_json_text_parity(self, tmp_path, capsys):
        r = sample_invariant_cov(make_cyclic(4), seed=2)
        path = write_cov(tmp_path / "c4.mtx", r)
        assert run(["discover", path]) == 0
        text = capsys.readouterr().out
        assert run(["discover", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        text_alpha = float(re.search(r"alpha: ([0-9.]+)", text).group(1))
        assert payload["alpha"] == text_alpha
        assert str(payload["order"]) == re.search(r"order: (\S+)", text).group(1)


class TestResidual:
    def test_hand_value_cycle_notation(self, tmp_path, capsys):
        path = write_cov(tmp_path / "diag12.mtx", np.diag([1.0, 2.0]))
        assert run(["residual", "--perm", "(0 1)", "--in", path]) == 0
        assert "delta: 0.447214" in capsys.readouterr().out

    def test_image_list_form(self, tmp_path, capsys):
        path = write_cov(tmp_path / "diag12.mtx", np.diag([1.0, 2.0]))
        assert run(["residual", "--perm", "1 0", "--in", path]) == 0
        assert "delta: 0.447214" in capsys.readouterr().out

    def test_bad_perm_exit_2(self, tmp_path, capsys):
        path = write_cov(tmp_path / "diag12.mtx", np.diag([1.0, 2.0]))
        assert run(["residual", "--perm", "0 0", "--in", path]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("perm, point", [("(0 1)(0 1)", 0), ("(0 1)(1 2)", 1)])
    def test_shared_cycle_point_exit_2(self, tmp_path, perm, point, capsys):
        path = write_cov(tmp_path / "diag123.mtx", np.diag([1.0, 2.0, 3.0]))
        assert run(["residual", "--perm", perm, "--in", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: point {point} appears twice; cycles must be disjoint\n"

    @pytest.mark.parametrize("perm", ["(a b)", "1,x"])
    def test_non_integer_perm_exit_2(self, tmp_path, perm, capsys):
        path = write_cov(tmp_path / "diag12.mtx", np.diag([1.0, 2.0]))
        assert run(["residual", "--perm", perm, "--in", path]) == 2
        assert "must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["residual", "--perm", "(0 1)"],
                                         ["alpha", "--group", "cyclic:2"]])
    def test_non_finite_entry_exit_2(self, tmp_path, command, capsys):
        path = tmp_path / "nan.mtx"
        path.write_text("# rows=2 cols=2 field=real\n1 nan\nnan 1\n", encoding="ascii")
        assert run(command + ["--in", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err


class TestAlpha:
    def test_invariant_input(self, tmp_path, capsys):
        r = sample_invariant_cov(make_cyclic(4), seed=1)
        path = write_cov(tmp_path / "circ4.mtx", r)
        assert run(["alpha", "--group", "cyclic:4", "--in", path]) == 0
        assert "alpha: 1.000000" in capsys.readouterr().out

    def test_unknown_group_lists_valid_forms(self, tmp_path, capsys):
        path = write_cov(tmp_path / "m.mtx", np.eye(4))
        assert run(["alpha", "--group", "icosahedral:4", "--in", path]) == 2
        assert "valid forms" in capsys.readouterr().err

    def test_degree_mismatch_exit_2(self, tmp_path, capsys):
        path = write_cov(tmp_path / "m.mtx", np.eye(4))
        assert run(["alpha", "--group", "cyclic:5", "--in", path]) == 2
        capsys.readouterr()


class TestProject:
    def test_projection_fixed_point(self, tmp_path, capsys):
        src = write_cov(tmp_path / "in.mtx", random_psd(4, 3))
        out1 = str(tmp_path / "p1.mtx")
        out2 = str(tmp_path / "p2.mtx")
        assert run(["project", "--group", "cyclic:4", "--in", src, "--out", out1]) == 0
        assert run(["project", "--group", "cyclic:4", "--in", out1, "--out", out2]) == 0
        capsys.readouterr()
        a = read_matrix_file(out1)
        b = read_matrix_file(out2)
        assert np.max(np.abs(a - b)) <= 1e-12
        assert is_invariant(a, make_cyclic(4), tol=1e-12)


_DEGREE_ARGV = [
    ["project", "--group", "cyclic:2", "--out", "{out}", "--in", "{in}"],
    ["residual", "--perm", "1 0", "--in", "{in}"],
    ["alpha", "--group", "cyclic:2", "--in", "{in}"],
    ["match-library", "--library", "cyclic:2,trivial:2", "--in", "{in}"],
]


@pytest.mark.parametrize("argv, matrix", [
    pytest.param(argv, matrix, id=f"{argv[0]}-{label}")
    for argv in _DEGREE_ARGV
    for label, matrix in (("non-square", np.ones((2, 3))), ("degree-3", np.eye(3)))
] + [
    # discover has no degree of its own to mismatch
    pytest.param(["discover", "{in}"], np.ones((2, 3)), id="discover-non-square"),
])
def test_shape_or_degree_mismatch_exit_2(tmp_path, argv, matrix, capsys):
    # the library calls reject both; the commands add no checks of their own
    out = str(tmp_path / "out.mtx")
    paths = {"{in}": write_cov(tmp_path / "in.mtx", matrix), "{out}": out}
    assert run([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line.startswith("error:") for line in captured.err.splitlines()].count(True) == 1
    assert "Traceback" not in captured.err
    if matrix.shape == (2, 3):
        assert "shape (2, 3)" in captured.err
    assert not os.path.exists(out)


class TestMatchLibrary:
    def test_text_ranking(self, tmp_path, capsys):
        r = sample_invariant_cov(make_cyclic(8), seed=1)
        path = write_cov(tmp_path / "cov.mtx", r)
        lib = "trivial:8,cyclic:8,dihedralM:8,boolean:3"
        assert run(["match-library", "--in", path, "--library", lib]) == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert first.startswith("rank=1 group=cyclic:8 score=0.000000")
        assert "order=8" in first

    def test_warning_on_degree_mismatch(self, tmp_path, capsys):
        r = sample_invariant_cov(make_cyclic(4), seed=1)
        path = write_cov(tmp_path / "cov.mtx", r)
        assert run(["match-library", "--in", path, "--library", "cyclic:4,cyclic:5"]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "cyclic:5" not in captured.out

    def test_json_text_parity(self, tmp_path, capsys):
        r = sample_invariant_cov(make_cyclic(4), seed=5)
        path = write_cov(tmp_path / "cov.mtx", r)
        lib = "trivial:4,cyclic:4"
        assert run(["match-library", "--in", path, "--library", lib]) == 0
        text = capsys.readouterr().out
        assert run(["match-library", "--in", path, "--library", lib, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        first_text = text.splitlines()[0]
        assert payload["entries"][0]["group"] == re.search(r"group=(\S+)", first_text).group(1)
        assert f"score={payload['entries'][0]['score']:.6f}" in first_text

    def test_specs_with_commas_stay_whole(self, tmp_path, capsys):
        r = sample_invariant_cov(make_cyclic(8), seed=1)
        path = write_cov(tmp_path / "cov.mtx", r)
        lib = "cyclic:8,hybrid:2,4,wreath:4s,2c,product:(cyclic:2,cyclic:4),wreath:2s,4c"
        assert run(["match-library", "--in", path, "--library", lib, "--json"]) == 0
        names = {e["group"] for e in json.loads(capsys.readouterr().out)["entries"]}
        assert names == {"cyclic:8", "hybrid:2,4", "wreath:4s,2c",
                         "product:(cyclic:2,cyclic:4)", "wreath:2s,4c"}

    def test_every_entry_skipped_exit_2(self, tmp_path, capsys):
        path = write_cov(tmp_path / "cov.mtx", np.eye(8))
        assert run(["match-library", "--in", path, "--library", "cyclic:4,cyclic:5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("lib", ["trivial:6,cyclic:6", "cyclic:4"])
    def test_cap_below_one_exit_2_without_symmetry(self, tmp_path, cap, lib, capsys):
        path = write_cov(tmp_path / "rand6.mtx", random_psd(6, 3))
        assert run(["match-library", "--in", path, "--library", lib, f"--cap={cap}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap must be >= 1" in captured.err

    def test_empty_library_exit_2(self, tmp_path, capsys):
        # match_library owns the check; the command adds none of its own
        path = write_cov(tmp_path / "cov.mtx", np.eye(3))
        assert run(["match-library", "--in", path, "--library", " , "]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: library must contain at least one action\n"


class TestSynthesize:
    def test_cyclic8(self, tmp_path, capsys):
        out = str(tmp_path / "basis.mtx")
        assert run(["synthesize", "--group", "cyclic:8", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "data_dependent: false" in text
        u = read_matrix_file(out)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10
        r = sample_invariant_cov(make_cyclic(8), seed=31)
        d = u.conj().T @ r @ u
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-8 * np.linalg.norm(r)

    @pytest.mark.parametrize("spec, certified", [
        # the orbital route: a primitive action, a product with a wreath
        # factor, and the wreath route with an orbital factor (S_4 on the
        # blocks)
        ("wreath:5s", True), ("product:(dyadic-wreath:3,cyclic:3)", True), ("hybrid:3,4", True),
        # no eigensolve: the wreath route with exact factors, the semidirect route
        ("hybrid:4,3", False), ("dyadic-wreath:3", False), ("dihedralM:8", False),
        ("trivial:4", False), ("cyclic:8", False),
    ])
    def test_certificate_text_json_parity(self, tmp_path, capsys, spec, certified):
        out = str(tmp_path / "basis.mtx")
        argv = ["synthesize", "--group", spec, "--seed", "3", "--out", out]
        assert run(argv) == 0
        text = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert run(argv + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        basis = synthesize_matched(groups.parse_group_spec(spec), 3)
        assert "attempts" not in doc and "attempts" not in text
        if certified:
            assert doc["certificate"] == text["certificate"] == f"{basis.certificate:.3e}"
            assert 0.0 <= float(doc["certificate"]) <= 1e-8
        else:
            # neither the trivial action's KLT nor a basis proved by exact
            # integer checks alone (semidirect, or wreath with factors that
            # need no eigensolve) carries a ratio
            assert doc["certificate"] is None and text["certificate"] == "-"
            assert basis.certificate is None

    @pytest.mark.parametrize("spec, field", [
        ("dihedralM:8", "real"), ("dihedral:4", "real"), ("dyadic-wreath:3", "real"),
        ("wreath:3s,2c", "real"), ("cyclic:8", "complex"), ("hybrid:4,3", "complex"),
    ])
    def test_self_paired_out_is_real(self, tmp_path, spec, field):
        # every orbital of a self-paired action is its own transpose, so its
        # matched basis is real on every route, and the file says so
        out = tmp_path / "basis.mtx"
        assert run(["synthesize", "--group", spec, "--seed", "3", "--out", str(out)]) == 0
        assert f"field={field}" in out.read_text().splitlines()[0]

    def test_nested_spec_depth_limit(self, tmp_path, capsys):
        out = str(tmp_path / "x.mtx")
        limit = groups.MAX_SPEC_DEPTH
        assert run(["synthesize", "--group", nested_product(limit), "--out", out]) == 0
        capsys.readouterr()
        for depth in (limit + 1, 1500):
            assert run(["synthesize", "--group", nested_product(depth), "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1
            assert "deeper than" in err

    def test_product_of_a_spec_with_commas(self, tmp_path, capsys):
        # the factor spec's pieces without ':' rejoin it, as in --library
        out = str(tmp_path / "x.mtx")
        assert run(["synthesize", "--group", "product:(wreath:4s,2c,cyclic:2)", "--out", out]) == 0
        capsys.readouterr()

    def test_non_multiplicity_free_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "x.mtx")
        code = run(["synthesize", "--group", "product:(trivial:2,cyclic:2)", "--out", out])
        assert code == 1
        capsys.readouterr()


class TestUsage:
    def test_no_subcommand_exit_2(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["kernel", "dft", "--size=--"],
                                      ["alpha", "--group=--", "--in", "m.mtx"]])
    def test_attached_double_dash_value_exit_2(self, argv, capsys):
        assert run(argv) == 2
        assert "expected one argument" in capsys.readouterr().err


def run_quiet(argv) -> tuple:
    """run() with stdout and stderr captured: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


_COV3 = sample_invariant_cov(make_cyclic(3), seed=4)
_SPEC_PIECES = (
    "cyclic:3", "trivial:3", "dihedralM:3", "cyclic:4", "hybrid:2,2", "wreath:3s",
    "product:(cyclic:3,trivial:1)", "boolean:10000000000000000", "dyadic-wreath:99",
    "cyclic:-1", "hybrid:2", "perms:", "2", "c", ":", "(", ")", "", " ",
)
_TOKENS = ("0", "1", "-2.5", "1e999", "1e300", "1e-300", "nan", "-inf", "x", "1:2", "3:", ":",
           "1:nan", "\u00e9")


class TestContract:
    """Malformed input ends in exit 0, 1, 2 or 3, never in a traceback."""

    def check(self, argv, matrix_text=None):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.mtx")
            if matrix_text is None:
                write_cov(path, _COV3)
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(matrix_text)
            paths = {"{in}": path, "{out}": os.path.join(tmp, "out.mtx")}
            code, err = run_quiet([paths.get(a, a) for a in argv])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="0123456789 (),-ax", max_size=12))
    @example("(a b)")
    @example("1,x")
    def test_perm(self, perm):
        self.check(["residual", "--perm", perm, "--in", "{in}"])

    @settings(max_examples=15, deadline=None)
    @given(st.one_of(st.floats().map(repr), st.text(alphabet="0123456789.-einfa", max_size=6)))
    @example("nan")
    @example("-1")
    @example("--")
    def test_tau(self, tau):
        self.check(["discover", "{in}", f"--tau={tau}"])

    @settings(max_examples=25, deadline=None)
    @given(st.text(max_size=14))
    @example("0.5")
    @example("1x1")
    @example(" ")
    @example("1" * 13)
    def test_polarity(self, polarity):
        self.check(["kernel", "fprm", "--polarity", polarity])

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from(_SPEC_PIECES), max_size=4).map(",".join),
                     st.text(max_size=12)))
    @example("hybrid:2,4")
    def test_library(self, library):
        self.check(["match-library", "--in", "{in}", "--library", library])

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(cli._KERNELS)),
           st.one_of(st.integers(-3, 6), st.integers(groups.MAX_DEGREE + 1, 10**18)))
    @example("wht", 10**17)
    @example("haar", 10**17)
    def test_kernel_size(self, name, size):
        self.check(["kernel", name, "--size", str(size)])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 3000), st.sampled_from(["cyclic:1", "trivial:1", "("]),
           st.sampled_from(["left", "right", "alternate"]))
    @example(1500, "cyclic:1", "left")
    def test_nested_spec(self, depth, leaf, side):
        self.check(["synthesize", "--group", nested_product(depth, leaf, side),
                    "--out", "{out}"])

    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(
            st.builds("# rows={} cols={} field={}".format,
                      st.sampled_from([0, 1, 2, 3, 10**11]),
                      st.sampled_from([0, 1, 2, 3, 10**11]),
                      st.sampled_from(["real", "complex", "int"])),
            st.text(max_size=12),
        ),
        st.lists(st.lists(st.sampled_from(_TOKENS), max_size=4).map(" ".join), max_size=4),
        st.sampled_from([
            ["residual", "--perm", "(0 1)", "--in", "{in}"],
            ["alpha", "--group", "cyclic:2", "--in", "{in}"],
            ["project", "--group", "cyclic:2", "--in", "{in}", "--out", "{out}"],
            ["discover", "{in}"],
            ["match-library", "--in", "{in}", "--library", "cyclic:2,trivial:2"],
        ]),
    )
    @example("# rows=1 cols=100000000000 field=real", ["1 2 3"], ["discover", "{in}"])
    @example("# rows=2 cols=2 field=real", ["1 nan", "nan 1"],
             ["residual", "--perm", "(0 1)", "--in", "{in}"])
    @example("# rows=2 cols=2 field=real", ["1e300 0", "0 2e300"],
             ["match-library", "--in", "{in}", "--library", "cyclic:2,trivial:2"])
    def test_matrix_text(self, header, body, argv):
        self.check(argv, "\n".join([header] + body) + "\n")
