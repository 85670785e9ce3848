import warnings

import numpy as np
import pytest

import conevi.cli
import conevi.solvers
from conevi.basis import orthonormalize
from conevi.cli import main
from conevi.cones import orthant
from conevi.fileio import parse_basis, parse_problem, write_basis, write_problem
from conevi.generate import generate_instance
from conevi.projective import build_projective, solve_ipm
from conevi.solvers import SolveConfig, solve_bertsekas, solve_exact, solve_galerkin

PROBLEM = """\
VI1 2 nn:2
2 1
0 2
-2 -2
"""

BASIS_AXIS = """\
BASIS1 2 1
1
0
"""

BASIS_FULL = """\
BASIS1 2 2
1 0
0 1
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "p.vi"
    path.write_text(PROBLEM)
    return str(path)


@pytest.fixture
def basis_file(tmp_path):
    path = tmp_path / "b.mat"
    path.write_text(BASIS_FULL)
    return str(path)


def kv_lines(captured: str) -> dict:
    out = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition("\t")
        out[key] = value
    return out


class TestSolve:
    def test_exact_smoke(self, problem_file, capsys):
        assert main(["solve", "--method", "exact", "--problem", problem_file]) == 0
        out = capsys.readouterr().out
        assert "converged: true" in out
        # the fixed-point methods print the step their stopping rule tests,
        # apart from the residual
        assert "step: " in out and "residual: " in out and "x:" in out

    @pytest.mark.parametrize("method", ["exact", "bertsekas", "galerkin", "ipm"])
    def test_all_methods_agree_here(self, method, problem_file, basis_file, capsys):
        # full basis: all four methods solve the same LCP; x = (0.5, 1)
        basis = [] if method == "exact" else ["--basis", basis_file]
        code = main(["solve", "--method", method, "--problem", problem_file,
                     "--format", "kv"] + basis)
        assert code == 0
        x = np.array(kv_lines(capsys.readouterr().out)["x"].split(), dtype=float)
        np.testing.assert_allclose(x, [0.5, 1.0], atol=1e-6)

    def test_galerkin_reports_certificate(self, problem_file, basis_file, capsys):
        assert main(["solve", "--method", "galerkin", "--problem", problem_file,
                     "--basis", basis_file, "--format", "kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert kv["cert_normalcone"] == "true"
        assert float(kv["cert_nullspace"]) <= 1e-8

    def test_missing_basis_is_usage_error(self, problem_file, tmp_path, capsys):
        # reported before the problem file is read, so a missing or malformed
        # file cannot hide it
        bad = tmp_path / "bad.vi"
        bad.write_text("VI0 2 nn:2\n")
        for method in ("bertsekas", "galerkin"):
            for path in (problem_file, str(tmp_path / "missing.vi"), str(bad)):
                assert main(["solve", "--method", method, "--problem", path]) == 2
                assert "requires --basis" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, problem_file, capsys):
        code = main(["solve", "--method", "exact", "--problem", problem_file,
                     "--max-iter", "1", "--tol", "1e-14"])
        assert code == 1

    # at --alpha 1e300 gamma is inf, and the run stops on its first non-finite
    # step; the steps warn, since F is evaluated outside np.errstate
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["exact", "galerkin"])
    def test_step_whose_gamma_overflows_ends_unconverged(self, method, problem_file, basis_file,
                                                         capsys):
        basis = [] if method == "exact" else ["--basis", basis_file]
        assert main(["solve", "--method", method, "--problem", problem_file,
                     "--alpha", "1e300"] + basis) == 1
        out = capsys.readouterr().out
        assert "converged: false" in out and "gamma: inf" in out

    def test_trace_file_rows(self, problem_file, tmp_path, capsys):
        trace = tmp_path / "trace.tsv"
        assert main(["solve", "--method", "exact", "--problem", problem_file,
                     "--trace", str(trace)]) == 0
        rows = [line.split("\t") for line in trace.read_text().strip().splitlines()]
        assert all(len(r) == 3 for r in rows)
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        assert float(rows[-1][2]) == 0.0

    @pytest.mark.parametrize("method, flag, value", [
        ("ipm", "--trace", None),
        ("exact", "--basis", None),
    ])
    def test_option_the_method_does_not_use_is_usage_error(
            self, method, flag, value, problem_file, basis_file, tmp_path, capsys):
        # None stands for a path that does not exist: the check comes before
        # any file is read or written
        trace = tmp_path / "trace.tsv"
        basis = [] if method == "exact" else ["--basis", basis_file]
        code = main(["solve", "--method", method, "--problem", problem_file,
                     flag, value or str(trace)] + basis)
        assert code == 2
        captured = capsys.readouterr()
        assert f"does not use {flag}" in captured.err
        assert captured.out == ""
        assert not trace.exists()

    @pytest.mark.parametrize("method", ["exact", "bertsekas", "galerkin", "ipm"])
    def test_cert_tol_is_not_an_option(self, method, problem_file, basis_file, capsys):
        # the certificate's tolerance is fixed; argparse rejects the flag
        code = main(["solve", "--method", method, "--problem", problem_file,
                     "--basis", basis_file, "--cert-tol", "1e-8"])
        assert code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --cert-tol" in captured.err
        assert captured.out == ""

    def test_ipm_options_reach_the_solver(self, problem_file, capsys):
        argv = ["solve", "--method", "ipm", "--problem", problem_file, "--format", "kv"]
        # a tol the first iterate meets stops it before the finish is tried
        assert main(argv + ["--tol", "10"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert (kv["iters"], kv["finish"]) == ("1", "false")
        assert main(argv) == 0
        assert kv_lines(capsys.readouterr().out)["finish"] == "true"
        assert main(argv + ["--max-iter", "1"]) == 1
        assert kv_lines(capsys.readouterr().out)["iters"] == "1"

    def test_full_span_ipm_runs_at_alpha_one(self, tmp_path, capsys):
        # the full span needs no beta: the skew problem with beta = 0 solves
        skew = tmp_path / "skew.vi"
        skew.write_text("VI1 2 nn:2\n0 -1\n1 0\n1 1\n")
        (tmp_path / "full.mat").write_text(BASIS_FULL)
        for basis in ([], ["--basis", str(tmp_path / "full.mat")]):
            assert main(["solve", "--method", "ipm", "--problem", str(skew),
                         "--format", "kv"] + basis) == 0
            assert [float(v) for v in kv_lines(capsys.readouterr().out)["x"].split()] == [0, 0]

    def test_full_span_ipm_ignores_alpha(self, tmp_path, capsys):
        # scaled by alpha = 1e-9, the LCP meets the IPM's absolute tolerances at
        # (1.0000547, 0.0025442), far from the solution (1, 0)
        path = tmp_path / "eye.vi"
        path.write_text("VI1 2 nn:2\n1 0\n0 1\n-1 1\n")
        assert main(["solve", "--method", "ipm", "--problem", str(path), "--alpha", "1e-9",
                     "--format", "kv"]) == 0
        x = np.array([float(v) for v in kv_lines(capsys.readouterr().out)["x"].split()])
        assert np.abs(x - [1.0, 0.0]).max() <= 1e-12

    def test_full_span_ipm_solves_the_lcp_in_its_own_units(self, tmp_path, capsys):
        # at alpha = beta/L^2 = 1e-5 the IPM's absolute tolerances stopped at
        # ||min(x, Mx + q)|| = 1.3e-3, without a finish
        op, _ = generate_instance(300, 8, 1e-3, 10.0, 3)
        path = tmp_path / "f.vi"
        path.write_text(write_problem(op, orthant(300)))
        assert main(["solve", "--method", "ipm", "--problem", str(path), "--format", "kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert kv["finish"] == "true"
        x = np.array([float(v) for v in kv["x"].split()])
        assert np.linalg.norm(np.minimum(x, op.M @ x + op.q)) <= 1e-10

    def test_full_span_ipm_builds_no_basis(self, tmp_path, monkeypatch, capsys):
        # README's `solve --method ipm --problem f.vi`: without --basis the
        # operator is the reduced problem, so no identity is orthonormalized
        # and the output is that of the identity basis given as a file
        op, _ = generate_instance(40, 8, 1.0, 4.0, 7)
        problem = tmp_path / "f.vi"
        problem.write_text(write_problem(op, orthant(40)))
        eye = tmp_path / "eye.mat"
        eye.write_text(write_basis(np.eye(40)))
        argv = ["solve", "--method", "ipm", "--problem", str(problem), "--format", "kv"]
        assert main(argv + ["--basis", str(eye)]) == 0
        with_basis = capsys.readouterr().out

        def fail(raw):
            raise AssertionError("orthonormalize ran")

        monkeypatch.setattr(conevi.cli, "orthonormalize", fail)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == with_basis
        assert kv_lines(out)["converged"] == "true"

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1e-3", "one"])
    def test_full_span_ipm_refuses_a_bad_alpha(self, alpha, tmp_path, capsys):
        # --alpha is checked as it is parsed, before any file is read, also
        # where a full span never reads it
        assert main(["solve", "--method", "ipm", "--problem", str(tmp_path / "missing.vi"),
                     "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert "argument --alpha: must be positive and finite" in captured.err
        assert captured.out == ""

    def test_ipm_reports_finish(self, problem_file, capsys):
        assert main(["solve", "--method", "ipm", "--problem", problem_file,
                     "--format", "kv"]) == 0
        assert kv_lines(capsys.readouterr().out)["finish"] == "true"

    def test_ipm_pins_a_zero_segment(self, tmp_path, capsys):
        # README's zero.vi: x_3 is pinned at 0, and the orthant rows then solve
        # to x = (0.5, 0) with Mx + q = (0, 0.5)
        path = tmp_path / "zero.vi"
        path.write_text("VI1 3 nn:2,zero:1\n2 1 0\n-1 2 1\n0 -1 2\n-1 1 -2\n")
        assert main(["solve", "--method", "ipm", "--problem", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("\nx: 0.5 0 0\n") and captured.err == ""

    def test_exact_does_not_read_basis(self, problem_file, basis_file, tmp_path, capsys):
        # a basis given to the exact method is refused, not silently dropped:
        # neither a valid one nor a missing file is opened
        for path in (basis_file, str(tmp_path / "missing.mat")):
            assert main(["solve", "--method", "exact", "--problem", problem_file,
                         "--basis", path]) == 2
            captured = capsys.readouterr()
            assert captured.err == "solve --method exact does not use --basis\n"
            assert captured.out == ""

    def test_deterministic_output(self, problem_file, basis_file, capsys):
        argv = ["solve", "--method", "galerkin", "--problem", problem_file,
                "--basis", basis_file, "--format", "kv"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestBounds:
    def test_verdicts_ok(self, problem_file, tmp_path, capsys):
        basis = tmp_path / "axis.mat"
        basis.write_text(BASIS_AXIS)
        code = main(["bounds", "--problem", problem_file, "--basis", str(basis),
                     "--format", "kv"])
        assert code == 0
        kv = kv_lines(capsys.readouterr().out)
        for key in ("gamma", "bound_new", "err_new", "err_new_z",
                    "bound_bertsekas", "err_bertsekas"):
            assert key in kv
        assert kv["verdict_new"] == "OK"
        assert kv["verdict_bertsekas"] == "OK"
        assert float(kv["err_new"]) <= float(kv["bound_new"]) + 1e-8

    def test_failed_intersection_projection_skips_bertsekas(self, problem_file, basis_file,
                                                            monkeypatch, capsys):
        def fail(*args):
            raise conevi.solvers.IntersectionProjectionFailed("NNLS cap")

        monkeypatch.setattr(conevi.solvers, "project_intersection", fail)
        assert main(["bounds", "--problem", problem_file, "--basis", basis_file,
                     "--format", "kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert kv["verdict_bertsekas"] == "SKIPPED"
        assert "bound_bertsekas" not in kv

    def test_reference_solve_ignores_a_looser_tol(self, tmp_path, capsys):
        # --tol sets the solves being measured; x*, and with it bound_new,
        # is solved at the default tol 1e-10 or tighter. At --tol 1e-2 a
        # loose x* used to move bound_new from 53.47 to 51.53 here
        out, bout = str(tmp_path / "f.vi"), str(tmp_path / "b.mat")
        assert main(["gen", "--n", "40", "--k", "8", "--beta", "1", "--L", "4",
                     "--seed", "7", "--out", out, "--basis-out", bout]) == 0
        capsys.readouterr()
        seen = set()
        for tol in ("1e-10", "1e-6", "1e-2"):
            assert main(["bounds", "--problem", out, "--basis", bout, "--format", "kv",
                         "--tol", tol]) == 0
            kv = kv_lines(capsys.readouterr().out)
            seen.add((kv["bound_new"], kv["gamma"], kv["iters"]))
        assert len(seen) == 1


class TestKvKeys:
    def test_kv_keys(self, problem_file, basis_file, capsys):
        # the null-space violation is 2.4e-10 at the default tol, within the
        # certificate's tolerance 1e-8, and 1.4e-6 at tol 1e-6, beyond it
        op, cone = parse_problem(PROBLEM)
        basis = orthonormalize(parse_basis(BASIS_FULL))
        argv = ["solve", "--method", "galerkin", "--problem", problem_file,
                "--basis", basis_file, "--format", "kv"]
        for tol, valid in ((None, "true"), (1e-6, "false")):
            option = [] if tol is None else ["--tol", repr(tol)]
            assert main(argv + option) == 0
            kv = kv_lines(capsys.readouterr().out)
            cfg = SolveConfig() if tol is None else SolveConfig(tol=tol)
            cert = solve_galerkin(op, cone, basis, cfg).certificate
            assert kv["cert_normalcone"] == "true"
            assert float(kv["cert_nullspace"]) >= 0.0
            assert kv["cert_gap"] == format(cert.complementarity_gap, ".17g")
            assert kv["cert_valid"] == valid == ("true" if cert.valid else "false")

    @pytest.mark.parametrize("method", ["exact", "bertsekas", "galerkin", "ipm"])
    def test_residual_follows_iters(self, method, problem_file, basis_file, capsys):
        # every method prints its report's natural residual right after iters
        op, cone = parse_problem(PROBLEM)
        basis = orthonormalize(parse_basis(BASIS_FULL))
        option = [] if method == "exact" else ["--basis", basis_file]
        assert main(["solve", "--method", method, "--problem", problem_file,
                     "--format", "kv"] + option) == 0
        kv = kv_lines(capsys.readouterr().out)
        keys = list(kv)
        assert keys[keys.index("iters") + 1] == "residual"
        rep = {"exact": lambda: solve_exact(op, cone),
               "bertsekas": lambda: solve_bertsekas(op, cone, basis),
               "galerkin": lambda: solve_galerkin(op, cone, basis),
               "ipm": lambda: solve_ipm(build_projective(op, basis), cone)}[method]()
        assert kv["residual"] == format(rep.residual, ".17g")


class TestGenAndPipeline:
    def test_gen_then_solve_ipm(self, tmp_path, capsys):
        out = tmp_path / "f.vi"
        bout = tmp_path / "b.mat"
        assert main(["gen", "--n", "40", "--k", "8", "--beta", "1", "--L", "4",
                     "--seed", "7", "--out", str(out), "--basis-out", str(bout)]) == 0
        assert main(["solve", "--method", "ipm", "--problem", str(out),
                     "--basis", str(bout)]) == 0

    def test_gen_then_bounds_verdicts_ok(self, tmp_path, capsys):
        for seed in ("3", "11"):
            out = tmp_path / f"g{seed}.vi"
            bout = tmp_path / f"g{seed}.mat"
            assert main(["gen", "--n", "20", "--k", "4", "--beta", "1", "--L", "2",
                         "--seed", seed, "--out", str(out), "--basis-out", str(bout)]) == 0
            capsys.readouterr()
            assert main(["bounds", "--problem", str(out), "--basis", str(bout),
                         "--format", "kv"]) == 0
            kv = kv_lines(capsys.readouterr().out)
            assert kv["verdict_new"] == "OK"
            assert kv["verdict_bertsekas"] == "OK"

    def test_gen_deterministic(self, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.vi"
            bout = tmp_path / f"{tag}.mat"
            assert main(["gen", "--n", "10", "--k", "3", "--beta", "1", "--L", "4",
                         "--seed", "0", "--out", str(out), "--basis-out", str(bout)]) == 0
            paths.append((out.read_text(), bout.read_text()))
        assert paths[0] == paths[1]

    def test_gen_hits_beta_target(self, tmp_path, capsys):
        from conevi.operators import monotone_modulus

        out = tmp_path / "f.vi"
        assert main(["gen", "--n", "10", "--k", "3", "--beta", "1", "--L", "4",
                     "--seed", "0", "--out", str(out)]) == 0
        op, _ = parse_problem(out.read_text())
        assert monotone_modulus(op.M) >= 0.999999

    def test_gen_nonfinite_targets_are_usage_errors(self, tmp_path, capsys):
        for beta, lip in (("1", "inf"), ("1", "nan"), ("nan", "4")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["gen", "--n", "10", "--k", "3", "--beta", beta, "--L", lip,
                             "--seed", "0", "--out", str(tmp_path / "f.vi")]) == 2
            assert "L_target" in capsys.readouterr().err
        assert not (tmp_path / "f.vi").exists()


class TestBench:
    def test_small_sizes_smoke(self, capsys):
        assert main(["bench", "--sizes", "60,120", "--k", "4", "--repeats", "2",
                     "--format", "kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert float(kv["bench_60_per_iter_s"]) > 0.0
        assert kv["bench_120_converged"] == "true"

    def test_empty_sizes_is_usage_error(self, capsys):
        assert main(["bench", "--sizes", ","]) == 2

    def test_nonpositive_size_is_usage_error(self, capsys):
        for sizes in ("0", "60,-4"):
            assert main(["bench", "--sizes", sizes]) == 2
            assert "sizes must be >= 1" in capsys.readouterr().err

    def test_k_outside_one_to_n_is_usage_error(self, capsys):
        # k = 80 at n = 50 exited 0, timing the dense n x n route
        for k in ("80", "50", "0", "-3"):
            assert main(["bench", "--sizes", "60,50", "--k", k]) == 2
            assert f"k={k}" in capsys.readouterr().err


class TestUsageErrors:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["solve", "--wat"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, problem_file, basis_file, capsys):
        # solve --method galerkin prints the certificate; there is no certify
        for argv in (["frobnicate"], ["certify", "--problem", problem_file, "--basis", basis_file]):
            assert main(argv) == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.vi"
        bad.write_text("VI1 2 nn:2\n1 0\n")
        assert main(["solve", "--method", "exact", "--problem", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        # a directory is an OSError other than FileNotFoundError
        for path in ("/nope.vi", str(tmp_path)):
            assert main(["solve", "--method", "exact", "--problem", path]) == 2
            assert f"cannot read {path}" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, problem_file, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out")
        for argv in (["solve", "--method", "exact", "--problem", problem_file, "--trace", out],
                     ["gen", "--n", "4", "--k", "2", "--beta", "1", "--L", "4", "--seed", "0",
                      "--out", out]):
            assert main(argv) == 2
            assert f"cannot write {out}" in capsys.readouterr().err

    def test_not_strongly_monotone_refused(self, tmp_path, capsys):
        skew = tmp_path / "skew.vi"
        skew.write_text("VI1 2 nn:2\n0 -1\n1 0\n1 1\n")
        axis = tmp_path / "axis.mat"
        axis.write_text(BASIS_AXIS)
        assert main(["solve", "--method", "exact", "--problem", str(skew)]) == 1
        # on a proper subspace the IPM derives alpha from beta > 0, so it asks
        # for --alpha here
        assert main(["solve", "--method", "ipm", "--problem", str(skew),
                     "--basis", str(axis)]) == 1
        assert "pass --alpha explicitly" in capsys.readouterr().err

    def test_zero_basis_is_solver_error(self, problem_file, tmp_path, capsys):
        bad = tmp_path / "zero.mat"
        bad.write_text("BASIS1 2 1\n0\n0\n")
        assert main(["solve", "--method", "galerkin", "--problem", problem_file,
                     "--basis", str(bad)]) == 1

    @pytest.mark.parametrize("options", [
        ["solve", "--method", "exact", "--tol", "inf"],
        ["solve", "--method", "exact", "--tol", "nan"],
        ["solve", "--method", "exact", "--alpha", "inf"],
        ["solve", "--method", "ipm", "--tol", "inf"],
        ["solve", "--method", "ipm", "--alpha", "nan"],
        ["solve", "--method", "galerkin", "--tol", "nan"],
        # values that start with "-" and are not plain decimals
        ["solve", "--method", "exact", "--alpha", "-1e-3"],
        ["solve", "--method", "ipm", "--tol", "-inf"],
        ["solve", "--method", "exact", "--tol", "-1"],
        ["solve", "--method", "ipm", "--max-iter", "0"],
        ["bounds", "--tol", "nan"],
    ])
    def test_nonfinite_tolerance_is_usage_error(self, options, problem_file, basis_file,
                                                tmp_path, capsys):
        # with --tol inf the exact method used to stop after one step at a
        # point that is not the solution (0.5, 1) and report converged: true.
        # Every value is refused before a file is read, so missing files give
        # the same message
        missing = str(tmp_path / "missing")
        for problem, basis_path in ((problem_file, basis_file),
                                    (missing + ".vi", missing + ".mat")):
            basis = [] if "exact" in options else ["--basis", basis_path]
            assert main(options[:1] + ["--problem", problem] + basis + options[1:]) == 2
            captured = capsys.readouterr()
            assert "finite" in captured.err or "max_iter must be a positive integer" in captured.err
            assert "cannot read" not in captured.err and captured.out == ""
