import argparse
import json
import re
import signal
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ridgesnr import cli, dataio, harness
from ridgesnr.dataio import (
    dump_model,
    load_model,
    read_correlation,
    read_matrix,
    write_correlation,
    write_matrix,
    write_vector,
)
from ridgesnr.exceptions import ConvergenceError, DataFormatError, DimensionError
from ridgesnr.estimator import LinearModel, SnrEstimate, estimate_snr
from ridgesnr.rmt import CorrelationSpectrum
from square_requests import reference_estimate, write_square_request

# Cells of every magnitude float64 holds: subnormals, signed zeros, huge exponents
CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                   1.7976931348623157e308]))
PADDING = st.sampled_from(["", " ", "\t", "  "])


def dump_scenario(out_dir: Path, name: str) -> Path:
    """Model files of scenario ``name`` produced by the scenario dump path, plus the grid used."""
    code = cli.main([
        "scenario", name, "--trials", "2", "--seed", "3",
        "--snr-db", "10", "--dump", str(out_dir),
    ])
    assert code == 0
    return out_dir


def strict_json(text: str):
    """json.loads that, like strict parsers such as jq, rejects NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture()
def dumped_model(tmp_path):
    """Model files produced by the scenario dump path, plus the grid used."""
    return dump_scenario(tmp_path / "dump", "a")


class TestDataIO:
    def test_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        mat = np.array([[1.5, -2.25], [0.0, 3.125]])
        write_matrix(path, mat)
        assert np.array_equal(read_matrix(path), mat)

    def test_vector_single_row_or_column(self, tmp_path):
        col = tmp_path / "col.csv"
        write_vector(col, np.array([1.0, 2.0, 3.0]))
        row = tmp_path / "row.csv"
        row.write_text("1.0,2.0,3.0\n")
        from ridgesnr.dataio import read_vector
        assert np.array_equal(read_vector(col), read_vector(row))

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataFormatError, match=r"bad\.csv:2:2"):
            read_matrix(path)

    @pytest.mark.parametrize("text, message", [
        ("1.0,2.0\n3.0,,4.0\n", "2:2: empty cell"),
        ("1.0, \t,4.0\n", "1:2: empty cell"),
        ("1.0,2.0\n3.0, oops \n", "2:2: not a number: 'oops'"),
        ("# header\n\n1.0,2.0e\n", "3:2: not a number: '2.0e'"),
    ])
    def test_parse_error_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as err:
            read_matrix(path)
        assert str(err.value) == f"{path}:{message}"

    def test_whitespace_padded_cells_parse(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text(" 1.5 ,\t-2.25\n  3e-1,4 \n")
        assert np.array_equal(read_matrix(path), np.array([[1.5, -2.25], [0.3, 4.0]]))
        path.write_text("diag: 0.5 , 2\n")
        assert np.array_equal(read_correlation(path).eigenvalues, [0.5, 2.0])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="columns"):
            read_matrix(path)

    def test_diag_correlation_roundtrip(self, tmp_path):
        path = tmp_path / "psi.csv"
        spec = CorrelationSpectrum.from_diagonal([0.5, 0.25, 1.0])
        write_correlation(path, spec)
        assert path.read_text().startswith("diag:")
        loaded = read_correlation(path)
        assert loaded.diagonal
        assert np.allclose(loaded.eigenvalues, spec.eigenvalues)

    def test_correlation_bad_cell_after_comments(self, tmp_path):
        path = tmp_path / "psi.csv"
        path.write_text("# dense Psi\n\n  \n1.0,0.5\n0.5,x1\n")
        with pytest.raises(DataFormatError) as err:
            read_correlation(path)
        assert str(err.value) == f"{path}:5:2: not a number: 'x1'"

    def test_correlation_diag_after_comment(self, tmp_path):
        path = tmp_path / "psi.csv"
        path.write_text("# diagonal Psi\n\n  \ndiag:0.5,2\n\n# end of file\n")
        spectrum = read_correlation(path)
        assert spectrum.diagonal
        assert np.array_equal(spectrum.eigenvalues, [0.5, 2.0])

    @pytest.mark.parametrize("text, lineno", [
        ("diag:1,2\n3,4,5\n", 2),
        ("# Psi\n\ndiag:1,2\n# stray row\n\n3,4\n1,1\n", 6),
    ], ids=["next-line", "after-comments"])
    def test_correlation_data_line_after_diag_rejected(self, tmp_path, text, lineno):
        path = tmp_path / "psi.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as err:
            read_correlation(path)
        assert str(err.value) == f"{path}:{lineno}: data line after the diag: row"

    @pytest.mark.parametrize("text", ["# Psi\n1.0,0.5\n0.5,1.0\n", "diag:1,2\n"],
                             ids=["dense", "diag"])
    def test_correlation_file_read_once(self, tmp_path, monkeypatch, text):
        path = tmp_path / "psi.csv"
        path.write_text(text)
        reads = []
        read_text = Path.read_text

        def counting_read_text(self, *args, **kwargs):
            reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        read_correlation(path)
        assert reads == [path]

    def test_dense_vs_diag_path_equivalence(self, tmp_path):
        rng = np.random.default_rng(0)
        q = rng.uniform(0.2, 1.0, 10)
        diag_path = tmp_path / "psi_diag.csv"
        dense_path = tmp_path / "psi_dense.csv"
        diag_path.write_text("diag:" + ",".join(f"{v:.17g}" for v in q) + "\n")
        write_matrix(dense_path, np.diag(q))
        wbar = rng.standard_normal((10, 5))
        y = rng.standard_normal(10)
        y_path, w_path = tmp_path / "y.csv", tmp_path / "w.csv"
        write_vector(y_path, y)
        write_matrix(w_path, wbar)
        grid = [0.1, 0.5]
        est_diag = estimate_snr(load_model(y_path, w_path, diag_path), grid)
        est_dense = estimate_snr(load_model(y_path, w_path, dense_path), grid)
        assert est_diag.sigma_x2_hat == pytest.approx(est_dense.sigma_x2_hat, abs=1e-10)
        assert est_diag.sigma_n2_hat == pytest.approx(est_dense.sigma_n2_hat, abs=1e-10)

    # each example rewrites the one file, so sharing tmp_path across examples is safe
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.integers(1, 6).flatmap(lambda width: st.lists(
        st.lists(st.tuples(PADDING, CELLS, PADDING), min_size=width, max_size=width),
        min_size=1, max_size=6)))
    def test_parse_matches_the_per_cell_loop(self, tmp_path, rows):
        path = tmp_path / "m.csv"
        lines = [",".join(f"{left}{value:.17g}{right}" for left, value, right in row)
                 for row in rows]
        path.write_text("\n".join(lines) + "\n")
        expected = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        parsed = read_matrix(path)
        assert parsed.shape == expected.shape
        assert parsed.tobytes() == expected.tobytes()

    def test_cells_only_float_reads_still_parse(self, tmp_path):
        # digit underscores and non-ASCII digits: float() reads them, np.loadtxt does not
        path = tmp_path / "m.csv"
        path.write_text("1_000,\u0661\n2.5,-3\n", encoding="utf-8")
        assert np.array_equal(read_matrix(path), [[1000.0, 1.0], [2.5, -3.0]])

    def test_comment_only_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# header only\n\n   \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError) as err:
                read_matrix(path)
        assert str(err.value) == f"{path}: no data rows"

    # spreadsheet exports start a UTF-8 file with the byte-order mark EF BB BF
    @pytest.mark.parametrize("text", ["1.5,2\n3,4\n", "# exported\n1.5,2\n3,4\n"],
                             ids=["data", "comment"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert np.array_equal(read_matrix(path), [[1.5, 2.0], [3.0, 4.0]])

    def test_byte_order_mark_before_a_diag_row(self, tmp_path):
        path = tmp_path / "psi.csv"
        path.write_bytes(b"\xef\xbb\xbfdiag:0.5,2\n")
        spectrum = read_correlation(path)
        assert spectrum.diagonal
        assert np.array_equal(spectrum.eigenvalues, [0.5, 2.0])

    def test_dimension_mismatch(self, tmp_path):
        write_vector(tmp_path / "y.csv", np.ones(4))
        write_matrix(tmp_path / "w.csv", np.ones((5, 2)))
        (tmp_path / "psi.csv").write_text("diag:1,1,1,1,1\n")
        with pytest.raises(DimensionError):
            load_model(tmp_path / "y.csv", tmp_path / "w.csv", tmp_path / "psi.csv")

    # an infinite SNR (zero noise variance) reads null in estimate.json
    def test_dumped_estimate_json_is_strict(self, tmp_path):
        wbar = np.random.default_rng(0).standard_normal((20, 10))
        model = LinearModel(design=wbar, raw_design=wbar, y=np.ones(20),
                            spectrum=CorrelationSpectrum.from_diagonal(np.ones(20)))
        paths = dump_model(tmp_path, model, (0.1, 0.2), SnrEstimate(1.0, 0.0))
        assert strict_json(Path(paths["estimate"]).read_text()) == {
            "sigma_x2_hat": 1.0, "sigma_n2_hat": 0.0, "snr_linear": None, "snr_db": None,
            "degenerate": True, "fit_residual_norm": 0.0, "fixed_point_iters": []}


class TestCliEstimate:
    def test_roundtrip_matches_dumped_estimate(self, tmp_path, capsys):
        # scenario a writes psi.csv as a diag: row and reads back bit for bit, so `estimate
        # --json` prints the dumped estimate.json byte for byte; b's Bessel Psi is dense,
        # written in full, and its eigenvalues read back within rounding
        for name, rel in (("a", 0.0), ("b", 1e-12)):
            dumped_model = dump_scenario(tmp_path / name, name)
            grid = (dumped_model / "lambdas.csv").read_text().strip()
            capsys.readouterr()  # drop the dump run's own output
            code = cli.main([
                "estimate", str(dumped_model / "y.csv"), str(dumped_model / "wbar.csv"),
                str(dumped_model / "psi.csv"), "--lambdas", grid, "--json",
            ])
            assert code == 0
            out = capsys.readouterr().out
            text = (dumped_model / "estimate.json").read_text()
            reported, recorded = json.loads(out), json.loads(text)
            assert list(reported) == list(recorded) == list(dataio.ESTIMATE_FIELDS)
            if name == "a":
                assert out == text
            for field in ("snr_db", "sigma_x2_hat", "sigma_n2_hat"):
                assert reported[field] == pytest.approx(recorded[field], rel=rel, abs=0.0)

    def test_missing_file_exits_config_error(self, tmp_path, capsys):
        code = cli.main([
            "estimate", str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv"),
            str(tmp_path / "nope.csv"), "--lambdas", "0.1,0.2",
        ])
        assert code == 2

    def test_bad_number_exits_config_error(self, tmp_path, capsys):
        (tmp_path / "y.csv").write_text("1.0\nbad\n")
        (tmp_path / "w.csv").write_text("1.0\n1.0\n")
        (tmp_path / "psi.csv").write_text("diag:1,1\n")
        code = cli.main([
            "estimate", str(tmp_path / "y.csv"), str(tmp_path / "w.csv"),
            str(tmp_path / "psi.csv"), "--lambdas", "0.1,0.2",
        ])
        assert code == 2

    def test_non_utf8_file_exits_config_error_naming_it(self, tmp_path, capsys):
        write_vector(tmp_path / "y.csv", np.ones(2))
        (tmp_path / "bin.csv").write_bytes(b"\xff\xfe1\x00,\x000\x00\n\x00")
        (tmp_path / "psi.csv").write_text("diag:1,1\n")
        code = cli.main([
            "estimate", str(tmp_path / "y.csv"), str(tmp_path / "bin.csv"),
            str(tmp_path / "psi.csv"), "--lambdas", "0.1,0.2",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'bin.csv'}: not UTF-8 text")

    # plain Picard takes 105-111 steps on these systems; leaving it once it
    # provably cannot finish, Newton ends every penalty in about 30
    @pytest.mark.parametrize("grid", [(1e-6, 2e-6, 3e-6, 4e-6), (1e-3, 2e-3, 3e-3, 4e-3)],
                             ids=["1e-6", "default"])
    @pytest.mark.parametrize("m", [60, 80])
    def test_square_request_takes_few_fixed_point_steps(self, tmp_path, capsys, m, grid):
        paths, (psi, wbar, y) = write_square_request(tmp_path, 0, m)
        assert cli.main(["estimate", *map(str, paths), "--lambdas",
                         ",".join(map(str, grid)), "--json"]) == 0
        reported = json.loads(capsys.readouterr().out)
        reference = reference_estimate(psi, wbar, y, grid)
        sigma = np.array([reported["sigma_x2_hat"], reported["sigma_n2_hat"]])
        assert np.max(np.abs(sigma - reference)) <= 1e-5 * np.sum(reference)
        assert len(reported["fixed_point_iters"]) == len(grid)
        assert max(reported["fixed_point_iters"]) <= 40

    def test_fixed_point_without_a_root_exits_numeric_error(self, tmp_path, capsys):
        # every c q of Psi = 1e40 I exceeds 2^53, so Newton's slope at M = K rounds to 0
        rng = np.random.default_rng(22)
        write_vector(tmp_path / "y.csv", rng.standard_normal(22))
        write_matrix(tmp_path / "w.csv", rng.standard_normal((22, 22)))
        (tmp_path / "psi.csv").write_text("diag:" + ",".join(["1e40"] * 22) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([
                "estimate", str(tmp_path / "y.csv"), str(tmp_path / "w.csv"),
                str(tmp_path / "psi.csv"), "--lambdas", "1e-3,2e-3,3e-3,4e-3",
            ])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("numeric error: fixed point stopped short of a positive root")
        assert len(err.splitlines()) == 1

    def test_indefinite_psi_exits_numeric_error(self, tmp_path, capsys):
        write_vector(tmp_path / "y.csv", np.ones(2))
        write_matrix(tmp_path / "w.csv", np.eye(2))
        write_matrix(tmp_path / "psi.csv", np.diag([1.0, -0.5]))
        code = cli.main([
            "estimate", str(tmp_path / "y.csv"), str(tmp_path / "w.csv"),
            str(tmp_path / "psi.csv"), "--lambdas", "0.1,0.2",
        ])
        assert code == 3

    def test_mismatched_dims_exit_config_error(self, tmp_path, capsys):
        write_vector(tmp_path / "y.csv", np.ones(4))
        write_matrix(tmp_path / "w.csv", np.ones((5, 2)))
        (tmp_path / "psi.csv").write_text("diag:1,1,1,1,1\n")
        code = cli.main([
            "estimate", str(tmp_path / "y.csv"), str(tmp_path / "w.csv"),
            str(tmp_path / "psi.csv"), "--lambdas", "0.1,0.2",
        ])
        assert code == 2

    def test_nonsquare_psi_exits_config_error(self, tmp_path, capsys):
        write_vector(tmp_path / "y.csv", np.ones(2))
        write_matrix(tmp_path / "w.csv", np.eye(2))
        write_matrix(tmp_path / "psi.csv", np.ones((2, 3)))
        code = cli.main([
            "estimate", str(tmp_path / "y.csv"), str(tmp_path / "w.csv"),
            str(tmp_path / "psi.csv"), "--lambdas", "0.1,0.2",
        ])
        assert code == 2

    def test_subnormal_lambda_exits_config_error(self, tmp_path, capsys):
        # K / 5e-324 overflows; the message names the penalty, with no warning
        write_vector(tmp_path / "y.csv", np.ones(2))
        write_matrix(tmp_path / "w.csv", np.eye(2))
        (tmp_path / "psi.csv").write_text("diag:1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([
                "estimate", str(tmp_path / "y.csv"), str(tmp_path / "w.csv"),
                str(tmp_path / "psi.csv"), "--lambdas", "5e-324,1e-3",
            ])
        assert code == 2
        assert "lambda 5e-324 is too small" in capsys.readouterr().err

    # t = K / 4e-307 is finite, but t tr(Psi) / K is not; 2e-306 and 1e-300 stay estimable
    @pytest.mark.parametrize("lam, code", [(4e-307, 2), (2e-306, 0), (1e-300, 0)])
    def test_near_overflow_lambda(self, tmp_path, capsys, lam, code):
        write_vector(tmp_path / "y.csv", np.ones(2))
        write_matrix(tmp_path / "w.csv", np.eye(2))
        (tmp_path / "psi.csv").write_text("diag:100,100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([
                "estimate", str(tmp_path / "y.csv"), str(tmp_path / "w.csv"),
                str(tmp_path / "psi.csv"), "--lambdas", f"{lam},1e-3", "--json",
            ]) == code
        out, err = capsys.readouterr()
        if code:
            assert f"lambda {lam} is too small" in err
        else:
            reported = json.loads(out)
            assert np.isfinite([reported["sigma_x2_hat"], reported["sigma_n2_hat"]]).all()

    # y = 0 fits zero variances: the nan SNR reads null, and degenerate says why
    def test_degenerate_estimate_json_is_strict(self, tmp_path, capsys):
        write_vector(tmp_path / "y.csv", np.zeros(20))
        write_matrix(tmp_path / "w.csv", np.random.default_rng(0).standard_normal((20, 10)))
        (tmp_path / "psi.csv").write_text("diag:" + ",".join(["1"] * 20) + "\n")
        assert cli.main(["estimate", str(tmp_path / "y.csv"), str(tmp_path / "w.csv"),
                         str(tmp_path / "psi.csv"), "--lambdas", "0.1,0.2", "--json"]) == 0
        reported = strict_json(capsys.readouterr().out)
        assert (reported["snr_linear"], reported["snr_db"], reported["degenerate"]) == (
            None, None, True)

    def test_text_output_matches_json(self, dumped_model, capsys):
        argv = ["estimate", str(dumped_model / "y.csv"), str(dumped_model / "wbar.csv"),
                str(dumped_model / "psi.csv"), "--lambdas",
                (dumped_model / "lambdas.csv").read_text().strip()]
        capsys.readouterr()  # drop the dump run's own output
        assert cli.main(argv + ["--json"]) == 0
        reported = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        lines = [line.split(" = ") for line in capsys.readouterr().out.splitlines()]
        # one line per JSON field, in the same order
        assert [(label.rstrip(), text) for label, text in lines] == [
            ("sigma_x2_hat", f"{reported['sigma_x2_hat']:.10g}"),
            ("sigma_n2_hat", f"{reported['sigma_n2_hat']:.10g}"),
            ("snr_linear", f"{reported['snr_linear']:.10g}"),
            ("snr_db", f"{reported['snr_db']:.10g}"),
            ("degenerate", str(reported["degenerate"])),
            ("fit_residual_norm", f"{reported['fit_residual_norm']:.10g}"),
            ("fixed_point_iters", str(reported["fixed_point_iters"])),
        ]

    def test_negative_lambda_exits_config_error(self, tmp_path, capsys):
        write_vector(tmp_path / "y.csv", np.ones(2))
        write_matrix(tmp_path / "w.csv", np.eye(2))
        (tmp_path / "psi.csv").write_text("diag:1,1\n")
        code = cli.main([
            "estimate", str(tmp_path / "y.csv"), str(tmp_path / "w.csv"),
            str(tmp_path / "psi.csv"), "--lambdas=-0.1,0.2",
        ])
        assert code == 2


class TestCliRuns:
    def test_scenario_unwritable_output_exits_io_error(self, tmp_path, capsys):
        code = cli.main([
            "scenario", "a", "--trials", "2", "--snr-db", "10",
            "--out", str(tmp_path / "no-such-dir" / "x.csv"),
        ])
        assert code == 4

    # checked when the run starts, so no trial or theorem draw runs first and no file is
    # written: a missing directory, a directory as --out, or one at the --dump-trials path
    # (verify-theorem writes no per-trial CSV)
    @pytest.mark.parametrize("command, target", [
        *(pytest.param(command, target, id=command + suffix)
          for target, suffix in [("missing", ""), ("out-dir", "-out-dir")]
          for command in ["scenario", "dim-sweep", "lambda-sensitivity", "verify-theorem"]),
        *(pytest.param(command, "trials-dir", id=command + "-trials-dir")
          for command in ["scenario", "dim-sweep", "lambda-sensitivity"]),
    ])
    def test_unwritable_output_exits_before_any_trial(self, monkeypatch, tmp_path, capsys,
                                                      command, target):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("ridgesnr.harness._draw_trial", no_trial)
        monkeypatch.setattr("ridgesnr.harness.sample_truth", no_trial)
        name = ["a"] if command == "scenario" else []
        out = tmp_path / ("no-such-dir" if target == "missing" else "d") / "x.csv"
        flags = ["--dump-trials"] if target == "trials-dir" else []
        blocked = {"out-dir": out, "trials-dir": out.parent / "x_trials.csv"}.get(target)
        if blocked is None:
            error = f"no directory to write {out} into"
        else:
            blocked.mkdir(parents=True)
            error = f"cannot write {blocked}: it is a directory"
        before = sorted(tmp_path.rglob("*"))
        assert cli.main([command, *name, "--trials", "2", "--out", str(out), *flags]) == 4
        assert capsys.readouterr().err == f"i/o error: {error}\n"
        assert sorted(tmp_path.rglob("*")) == before

    # a grid the fixed point rejects exits before the first draw: t = K / lambda overflows at
    # 1e-320 (verify-theorem's K = 100) and at 1e-306 (the sweep's second block, K = 300),
    # so no trial of the sweep's first block runs either
    @pytest.mark.parametrize("argv, lam, k", [
        (["verify-theorem", "--lambdas", "1e-320,1e-3"], "1e-320", 100),
        (["dim-sweep", "--snr-db", "0,10", "--dims", "40x20,400x300", "--lambdas",
          "1e-306,1e-3"], "1e-306", 300),
    ], ids=["verify-theorem", "dim-sweep"])
    def test_a_rejected_grid_exits_before_any_draw(self, monkeypatch, capsys, argv, lam, k):
        def no_draw(*args):
            raise AssertionError("a draw ran")

        monkeypatch.setattr("ridgesnr.harness.derive_rng", no_draw)
        monkeypatch.setattr("ridgesnr.harness._draw_trial", no_draw)
        assert cli.main([*argv, "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: lambda {lam} is too small: ")
        assert err.endswith(f" overflows at K = {k}\n")

    def test_verify_theorem_fixed_point_failure_exits_before_any_draw(self, monkeypatch,
                                                                     capsys):
        def no_draw(*args):
            raise AssertionError("a draw ran")

        def no_root(*args):
            raise ConvergenceError("fixed point did not converge")

        monkeypatch.setattr("ridgesnr.harness.derive_rng", no_draw)
        monkeypatch.setattr("ridgesnr.harness.coefficients_grid", no_root)
        assert cli.main(["verify-theorem", "--trials", "2"]) == 3
        assert capsys.readouterr().err == "numeric error: fixed point did not converge\n"

    def test_verify_theorem_prints_table(self, capsys):
        code = cli.main(["verify-theorem", "--trials", "5", "--lambdas", "0.5,5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("lambda,mc_mean_phi,alpha,rel_error")
        assert "# max relative error" in out

    def test_verify_theorem_stdout_table_is_the_csv_table(self, tmp_path, capsys):
        out = tmp_path / "theorem.csv"
        code = cli.main(["verify-theorem", "--trials", "3", "--lambdas", "0.5,5",
                         "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1].startswith("# max relative error")
        table = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert printed[:-1] == table

    @pytest.mark.parametrize("argv", [
        ["verify-theorem", "--snr-db", "5"],
        ["verify-theorem", "--parallelism", "2"],
        ["verify-theorem", "--dump-trials"],
        ["lambda-sensitivity", "--lambdas", "0.5,0.6"],
    ], ids=lambda argv: argv[0] + argv[1])
    def test_flags_the_run_ignores_are_rejected_by_parser(self, argv):
        with pytest.raises(SystemExit) as err:
            cli.main([*argv, "--trials", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command, payload", [
        ("verify-theorem", {"snr_points_db": [5.0]}),
        ("lambda-sensitivity", {"lambda_grid": [0.5, 0.6]}),
        ("verify-theorem", {"dims": [[16, 8]]}),
        ("lambda-sensitivity", {"dims": [[16, 8]]}),
    ])
    def test_config_file_values_the_run_ignores_exit_config_error(self, tmp_path, capsys,
                                                                  command, payload):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 2, **payload}))
        out = tmp_path / "o.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_dim_sweep_default_dims(self, capsys):
        code = cli.main(["dim-sweep", "--trials", "2", "--snr-db", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "31,30" in out and "30,35" in out and "10,7" in out

    def test_dim_sweep_header_records_the_dims(self, tmp_path, capsys):
        headers = []
        for dims in ([], ["--dims", "16x8"]):
            out = tmp_path / f"dims{len(dims)}.csv"
            assert cli.main(["dim-sweep", "--trials", "2", "--snr-db", "10",
                             "--out", str(out), *dims]) == 0
            headers.append(out.read_text().splitlines()[1])
        assert headers[1].endswith(" dims=16x8")
        assert headers[0] != headers[1]

    # rejected before any trial runs: no plan-failure warning, no numpy error
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dim_sweep_negative_dims_exit_config_error(self, tmp_path, capsys, source):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dims": [[-16, 8]]}))
        flags = ["--dims", "16x-3"] if source == "flag" else ["--config", str(cfg)]
        assert cli.main(["dim-sweep", "--trials", "2", "--snr-db", "10", *flags]) == 2
        pair = "16x-3" if source == "flag" else "-16x8"
        assert capsys.readouterr() == ("", f"error: dims {pair} has a negative dimension\n")

    def test_dim_sweep_dash_led_dims_after_a_space(self, capsys):
        assert cli.main(["dim-sweep", "--trials", "2", "--snr-db", "10", "--dims", "-16x8"]) == 2
        assert capsys.readouterr() == ("", "error: dims -16x8 has a negative dimension\n")

    # a value that starts with '-' and a digit is the flag's value, not an option
    @pytest.mark.parametrize("snr", ["-4:20:2", "-4,0"])
    def test_dash_led_snr_points_after_a_space(self, tmp_path, capsys, snr):
        written = []
        for flags in (["--snr-db", snr], [f"--snr-db={snr}"]):
            out = tmp_path / f"{len(flags)}.csv"
            assert cli.main(["scenario", "a", "--trials", "2", *flags, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert b"\n-4,proposed," in written[0]

    def test_lambda_sensitivity_runs(self, capsys):
        code = cli.main(["lambda-sensitivity", "--trials", "2", "--snr-db", "10"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 6  # header + 3 grids x 2 methods

    def test_parallelism_auto(self, tmp_path, capsys):
        out = tmp_path / "auto.csv"
        code = cli.main(["scenario", "a", "--trials", "16", "--snr-db", "10",
                         "--parallelism", "auto", "--out", str(out)])
        assert code == 0
        assert out.exists()

    # a config's "auto" is None, as the flag's is, and a --parallelism flag overrides it
    @pytest.mark.parametrize("flags, parallelism", [([], None), (["--parallelism", "2"], 2)],
                             ids=["config", "flag-over-config"])
    def test_config_parallelism_auto(self, monkeypatch, tmp_path, capsys, flags, parallelism):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 2, "snr_points_db": [10], "parallelism": "auto"}))
        configs = []
        monkeypatch.setattr("ridgesnr.harness._sweep",
                            lambda config, *args: configs.append(config) or [])
        assert cli.main(["scenario", "a", "--config", str(cfg), *flags]) == 0
        assert [config.parallelism for config in configs] == [parallelism]

    def test_bad_parallelism_exits_config_error(self, capsys):
        for value in ("zero", "2.5"):
            code = cli.main(["scenario", "a", "--trials", "2", "--snr-db", "10",
                             "--parallelism", value])
            assert code == 2
            assert capsys.readouterr().err.startswith(f"error: 'parallelism' = {value!r}: ")

    def test_dump_trials_without_out_exits_config_error(self, capsys):
        assert cli.main(["scenario", "a", "--trials", "2", "--snr-db", "10",
                         "--dump-trials"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dump_trials" in captured.err and "output_path" in captured.err

    # the config's dump_trials takes its output_path from --out
    def test_config_dump_trials_writes_next_to_the_out_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 2, "snr_points_db": [10], "dump_trials": True}))
        out = tmp_path / "x.csv"
        assert cli.main(["scenario", "a", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists() and (tmp_path / "x_trials.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_penalty_exits_config_error(self, capsys, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["verify-theorem", "--lambdas", f"{bad},1", "--trials", "2"])
        assert code == 2
        assert f"lambda must be positive and finite, got {bad}" in capsys.readouterr().err

    def test_one_penalty_grid_exits_config_error(self, tmp_path, capsys):
        # rejected like a repeated or nonpositive penalty, not logged per block
        out = tmp_path / "one.csv"
        code = cli.main(["scenario", "a", "--trials", "2", "--snr-db", "10",
                         "--lambdas", "0.001", "--out", str(out)])
        assert code == 2
        assert "at least 2 penalty values" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_range_parsing(self, capsys):
        code = cli.main(["scenario", "a", "--trials", "2", "--snr-db", "0:4:2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("\nproposed") == 0  # method is a column, not a row start
        assert len([l for l in out.splitlines() if l.startswith(("0,", "2,", "4,"))]) == 6

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "trials": 3,
            "master_seed": 11,
            "snr_points_db": [10.0],
            "output_path": str(tmp_path / "from_config.csv"),
        }))
        code = cli.main(["scenario", "a", "--config", str(cfg)])
        assert code == 0
        text = (tmp_path / "from_config.csv").read_text()
        assert "trials=3" in text and "seed=11" in text

    def test_cli_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 3, "snr_points_db": [10.0]}))
        out = tmp_path / "o.csv"
        code = cli.main(["scenario", "a", "--config", str(cfg),
                         "--trials", "5", "--out", str(out)])
        assert code == 0
        assert "trials=5" in out.read_text()

    @pytest.mark.parametrize("payload, key", [
        ({"trials": None, "snr_points_db": [10]}, "trials"),
        ({"trials": 2, "snr_points_db": 10}, "snr_points_db"),
        ({"trials": 2, "seed": 7, "snr_points_db": [10]}, "seed"),
        ({"trails": 2, "snr_points_db": [10]}, "trails"),
    ], ids=["null-trials", "scalar-snr-points", "seed-not-master-seed", "misspelt-key"])
    def test_bad_config_key_or_value_exits_config_error(self, tmp_path, capsys, payload, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o.csv"
        assert cli.main(["scenario", "a", "--config", str(cfg), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_config_error_naming_the_field(self, capsys):
        assert cli.main(["scenario", "a", "--trials", "2", "--snr-db", "10", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "master_seed" in captured.err

    # null is no trial count, even where the subcommand defaults its own, and a config
    # value is checked even when a flag overrides it
    @pytest.mark.parametrize("flags", [[], ["--trials", "2"]], ids=["config", "overridden"])
    def test_null_trials_exits_config_error_on_verify_theorem(self, tmp_path, capsys, flags):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": None}))
        out = tmp_path / "o.csv"
        assert cli.main(["verify-theorem", "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert repr("trials") in capsys.readouterr().err
        assert not out.exists()

    # a null or empty dims in the config leaves dim-sweep its g+h default
    @pytest.mark.parametrize("dims", [None, []], ids=["null", "empty"])
    def test_dim_sweep_config_without_dims_runs_the_default_dims(self, tmp_path, capsys, dims):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 2, "snr_points_db": [10], "dims": dims}))
        assert cli.main(["dim-sweep", "--config", str(cfg)]) == 0
        with_config = capsys.readouterr().out
        assert cli.main(["dim-sweep", "--trials", "2", "--snr-db", "10"]) == 0
        assert with_config == capsys.readouterr().out

    def test_bad_config_json_exits_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code = cli.main(["scenario", "a", "--config", str(cfg), "--trials", "2",
                         "--snr-db", "10"])
        assert code == 2

    def test_unknown_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["scenario", "zz", "--trials", "2"])
        assert err.value.code == 2

    # a point whose 10 ** (+-dB/10) is 0, inf or nan: rejected before any trial runs
    @pytest.mark.parametrize("value", ["1e6", "-1e6", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", ["a", "c"])
    def test_unrepresentable_snr_point_exits_config_error(self, tmp_path, capsys, name,
                                                          source, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 2, "snr_points_db": [10, float(value)]}))
        flags = (["--trials", "2", f"--snr-db=10,{value}"] if source == "flag"
                 else ["--config", str(cfg)])
        out = tmp_path / "o.csv"
        assert cli.main(["scenario", name, *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: SNR point {float(value)} dB is out of range")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    # the dump is of the first point, but every point is checked before it is written
    def test_unrepresentable_later_snr_point_writes_no_dump(self, tmp_path, capsys):
        dump = tmp_path / "dump"
        dump.mkdir()
        assert cli.main(["scenario", "a", "--trials", "2", "--snr-db=10,nan",
                         "--dump", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SNR point nan dB is out of range")
        assert len(captured.err.splitlines()) == 1
        assert not list(dump.iterdir())

    # the dump draws trial 0 again, apart from the sweep; both must give the same estimate
    def test_dump_is_the_sweeps_own_trial_0(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert cli.main(["scenario", "a", "--trials", "3", "--seed", "4", "--snr-db", "10,20",
                         "--lambdas", "0.002,0.004,0.008", "--dump-trials", "--out", str(out),
                         "--dump", str(tmp_path / "dump")]) == 0
        lines = (tmp_path / "run_trials.csv").read_text().splitlines()
        rows = [dict(zip(lines[2].split(","), line.split(","))) for line in lines[3:]]
        first = next(row for row in rows if row["method"] == "proposed")
        assert (first["snr_true_db"], first["trial"]) == ("10", "0")
        recorded = json.loads((tmp_path / "dump" / "estimate.json").read_text())
        assert (tmp_path / "dump" / "lambdas.csv").read_text() == "0.002,0.004,0.008\n"
        for name in ("sigma_x2_hat", "sigma_n2_hat"):
            assert harness._cell(recorded[name]) == first[name]

    @pytest.mark.parametrize("name", ["a", "c"])
    def test_snr_points_of_400_db_still_run(self, tmp_path, capsys, name):
        out = tmp_path / "o.csv"
        assert cli.main(["scenario", name, "--trials", "2", "--snr-db=-400,400",
                         "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[3:]
        assert [row.split(",")[:2] for row in rows] == [
            ["-400", "proposed"], ["-400", "ml"], ["400", "proposed"], ["400", "ml"]]

    # 10 ** 308.2 is finite, but scenario c's noise variance 25/3 * 10 ** 308.2 is not
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_overflowing_swept_variance_exits_config_error(self, tmp_path, capsys, source):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 2, "snr_points_db": [10, -3082]}))
        flags = (["--trials", "2", "--snr-db=10,-3082"] if source == "flag"
                 else ["--config", str(cfg)])
        out = tmp_path / "o.csv"
        assert cli.main(["scenario", "c", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SNR point -3082")
        assert "dB is out of range: the swept noise variance inf" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()


# RunConfig's flags each subcommand registers; --config and argparse's own -h/--help aside
_SCENARIO_FLAGS = {"--trials", "--seed", "--lambdas", "--snr-db", "--out", "--parallelism",
                   "--dump-trials", "--config", "--dump"}


@pytest.mark.parametrize("command, flags", [
    ("scenario", _SCENARIO_FLAGS),
    ("verify-theorem", {"--trials", "--seed", "--lambdas", "--out", "--config"}),
    ("dim-sweep", _SCENARIO_FLAGS - {"--dump"} | {"--dims"}),
    ("lambda-sensitivity", _SCENARIO_FLAGS - {"--lambdas", "--dump"}),
    ("estimate", {"--lambdas", "--json"}),
])
def test_each_subcommand_registers_exactly_its_flags(command, flags):
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    registered = {option for action in subcommands.choices[command]._actions
                  for option in action.option_strings}
    assert registered - {"-h", "--help"} == flags


@pytest.mark.parametrize("command, shown", [
    ("scenario", ["--trials TRIALS Monte-Carlo trials per point (default 1000)"]),
    ("verify-theorem", ["--trials TRIALS Monte-Carlo trials per point (default 200)"]),
    ("dim-sweep", ["--trials TRIALS Monte-Carlo trials per point (default 1000)",
                   "--dims DIMS comma-separated MxK pairs (default "
                   "10x7,20x10,40x20,80x40,31x30,30x35)"]),
    ("lambda-sensitivity", ["--trials TRIALS Monte-Carlo trials per point (default 1000)"]),
])
def test_help_names_the_subcommands_own_defaults(capsys, command, shown):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for line in shown:
        assert line in text


def _exit_code(argv) -> int:
    """cli.main's return code, or the code of the SystemExit argparse raises."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["verify-theorem", "--trials", "2", "--lambdas", "0.1,oops"], "bad lambda list: '0.1,oops'"),
    (["verify-theorem", "--trials", "2", "--lambdas", ","], "empty lambda list"),
    (["scenario", "a", "--trials", "2", "--snr-db", "5:1:1"], "bad SNR range: '5:1:1'"),
    (["dim-sweep", "--trials", "2", "--dims", "31by30"], "bad dims token: '31by30'"),
    (["scenario", "a", "--trials", "2", "--config", "{config}"], "config must be a JSON object"),
], ids=["lambdas", "empty lambdas", "snr range", "dims", "config list"])
def test_cli_input_checks(tmp_path, capsys, argv, message):
    config = tmp_path / "run.json"
    config.write_text("[1, 2]")
    assert _exit_code([arg.format(config=config) for arg in argv]) == 2
    assert message in capsys.readouterr().err


@contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# a non-finite end or step, and a range of more than MAX_SNR_POINTS points (0:1e20:1 could not
# even be listed, as v + 1 == v past 2^53), exit 2 before any trial and without looping
@pytest.mark.parametrize("text", ["nan:1:1", "0:nan:1", "0:1:nan", "0:inf:1", "-inf:0:1",
                                  "0:1:inf", "0:1e20:1", "0:10000:1"])
def test_bad_snr_range_exits_config_error_at_once(capsys, text):
    with _deadline(1.0):
        assert _exit_code(["scenario", "a", "--trials", "2", f"--snr-db={text}"]) == 2
    assert f"bad SNR range: {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("text, points", [
    ("-4:20:2", tuple(float(v) for v in range(-4, 21, 2))),
    ("0:4:2", (0.0, 2.0, 4.0)),
    ("0:1:0.1", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
    ("0:0.3:0.1", (0.0, 0.1, 0.2, 0.3)),
    ("5:5:1", (5.0,)),
])
def test_snr_range_points(text, points):
    assert cli._parse_snr_range(text) == points


def test_snr_range_holds_at_most_max_points():
    assert len(cli._parse_snr_range(f"0:{cli.MAX_SNR_POINTS - 1}:1")) == cli.MAX_SNR_POINTS


def _accumulated_range(a: float, b: float, step: float) -> tuple[float, ...]:
    """The range as a loop that adds step until it passes b + 1e-9."""
    points, v = [], a
    while v <= b + 1e-9:
        points.append(round(v, 9))
        v += step
    return tuple(points)


@pytest.mark.parametrize("step", [0.1, 0.2, 0.25, 0.3, 0.7, 1.0, 2.5])
def test_snr_range_count_matches_the_accumulating_loop(step):
    ends = [v / 10 for v in range(-60, 61, 3)]
    for i, a in enumerate(ends):
        for b in ends[i:]:
            assert cli._parse_snr_range(f"{a}:{b}:{step}") == _accumulated_range(a, b, step)


@pytest.mark.parametrize("name, text, reader, message", [
    ("y.csv", "1,2\n3,4\n", "read_vector", "expected a vector, got shape (2, 2)"),
    ("psi.csv", "diag:1,nan\n", "read_correlation", "invalid diagonal"),
], ids=["vector", "diagonal"])
def test_dataio_input_checks(tmp_path, name, text, reader, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DataFormatError, match=re.escape(message)):
        getattr(dataio, reader)(path)
