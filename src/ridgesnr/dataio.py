"""Plain-text data formats: matrices and vectors as CSV, correlation matrices
optionally as a ``diag:`` single-row shorthand, and model dump/load helpers.

All parse failures raise DataFormatError with one-based line/column context.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .estimator import LinearModel, SnrEstimate, _check_dims
from .exceptions import DataFormatError, DimensionError
from .rmt import CorrelationSpectrum

__all__ = [
    "read_matrix",
    "read_vector",
    "read_correlation",
    "write_matrix",
    "write_vector",
    "write_correlation",
    "load_model",
    "dump_model",
    "format_float",
]


def format_float(x: float) -> str:
    """12-significant-digit text form (nan, inf, -inf as such) of a run CSV's cells;
    round-trips aggregates within rounding."""
    return f"{x:.12g}"


def _exact(x: float) -> str:
    """Shortest text that reads back as the same float64 (nan, inf, -inf as such)."""
    return repr(float(x))


def _exact_row(values) -> str:
    return ",".join(map(_exact, values))


def _parse_row(line: str, lineno: int, path: str) -> list[float]:
    values = []
    for col, cell in enumerate(line.split(","), start=1):
        cell = cell.strip()
        if not cell:
            raise DataFormatError(f"{path}:{lineno}:{col}: empty cell")
        try:
            values.append(float(cell))
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}:{col}: not a number: {cell!r}") from None
    return values


def _data_lines(path: str | Path) -> list[tuple[int, str]]:
    """(one-based line number, stripped text) of each line that is not blank or a comment.

    The file is read as UTF-8; a leading byte-order mark (as spreadsheet exports
    write it) is dropped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = ((lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1))
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def _parse_matrix(lines: list[tuple[int, str]], path: str | Path) -> np.ndarray:
    if not lines:  # np.loadtxt warns on no input
        raise DataFormatError(f"{path}: no data rows")
    # one C-level parse; it accepts no cell that float() rejects, so the row
    # loop below runs only to name the first bad cell or ragged row, or to
    # read what float() alone accepts (digit underscores, non-ASCII digits)
    try:
        return np.loadtxt([line for _, line in lines], delimiter=",", comments=None,
                          ndmin=2, dtype=float)
    except ValueError:
        pass
    rows = []
    width = None
    for lineno, line in lines:
        row = _parse_row(line, lineno, str(path))
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataFormatError(
                f"{path}:{lineno}: row has {len(row)} columns, expected {width}"
            )
        rows.append(row)
    return np.array(rows)


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a dense matrix, one CSV row per line; '#' lines are comments."""
    return _parse_matrix(_data_lines(path), path)


def read_vector(path: str | Path) -> np.ndarray:
    """Read a vector stored either one value per line or as a single CSV row."""
    mat = read_matrix(path)
    if 1 in mat.shape:
        return mat.reshape(-1)
    raise DataFormatError(f"{path}: expected a vector, got shape {mat.shape}")


def read_correlation(path: str | Path) -> CorrelationSpectrum:
    """Read a correlation matrix, dense or as a single ``diag:`` prefixed row.

    The file is read once; its first data line decides the form; a ``diag:`` row stands alone.
    """
    lines = _data_lines(path)
    if lines and lines[0][1].startswith("diag:"):
        if len(lines) > 1:
            raise DataFormatError(f"{path}:{lines[1][0]}: data line after the diag: row")
        lineno, line = lines[0]
        diag = _parse_row(line[len("diag:"):], lineno, str(path))
        try:
            return CorrelationSpectrum.from_diagonal(diag)
        except (DimensionError, ValueError) as exc:
            raise DataFormatError(f"{path}:{lineno}: invalid diagonal: {exc}") from exc
    mat = _parse_matrix(lines, path)
    if mat.shape[0] != mat.shape[1]:
        raise DataFormatError(f"{path}: correlation matrix must be square, got {mat.shape}")
    return CorrelationSpectrum.from_matrix(mat)


def write_matrix(path: str | Path, matrix: np.ndarray) -> None:
    lines = [_exact_row(row) for row in np.atleast_2d(matrix)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_vector(path: str | Path, vector: np.ndarray) -> None:
    Path(path).write_text("\n".join(map(_exact, vector)) + "\n")


def write_correlation(path: str | Path, spectrum: CorrelationSpectrum) -> None:
    """Diagonal spectra use the ``diag:`` shorthand; others are written dense."""
    if spectrum.diagonal:
        payload = "diag:" + _exact_row(spectrum.eigenvalues)
        Path(path).write_text(payload + "\n")
    else:
        write_matrix(path, spectrum.matrix())


def load_model(y_path: str | Path, wbar_path: str | Path,
               psi_path: str | Path) -> LinearModel:
    """Assemble a LinearModel from files, with dimension cross-checks."""
    y = read_vector(y_path)
    wbar = read_matrix(wbar_path)
    spectrum = read_correlation(psi_path)
    if wbar.shape[0] != y.size:
        raise DimensionError(
            f"design has {wbar.shape[0]} rows but observation has {y.size} entries"
        )
    _check_dims(spectrum, *wbar.shape)  # sqrt_apply needs the dims to agree
    design = spectrum.sqrt_apply(wbar)
    return LinearModel(design=design, raw_design=wbar, spectrum=spectrum, y=y)


def _estimate_json(estimate: SnrEstimate, *extra: str) -> dict:
    """The fields of an estimate in ``estimate.json``, then the ``extra`` ones; a nan or inf is
    null, as strict JSON has neither (``degenerate`` says why)."""
    names = ("sigma_x2_hat", "sigma_n2_hat", "snr_linear", "snr_db", "degenerate", *extra)
    values = (getattr(estimate, name) for name in names)
    return {name: None if isinstance(v, float) and not np.isfinite(v) else v
            for name, v in zip(names, values)}


def dump_model(directory: str | Path, model: LinearModel, lambdas,
               estimate: SnrEstimate | None = None) -> dict:
    """Write y.csv, wbar.csv, psi.csv (and the grid/estimate) into a directory.

    The model files and the grid hold each float as the shortest text that reads back as
    it, so :func:`load_model` reads back the same y, Wbar and Psi eigenvalues (a dense Psi
    is written as its recomposed matrix, whose eigenvalues read back within rounding).

    Returns the paths written, keyed by role.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "y": directory / "y.csv",
        "wbar": directory / "wbar.csv",
        "psi": directory / "psi.csv",
        "lambdas": directory / "lambdas.csv",
    }
    write_vector(paths["y"], model.y)
    write_matrix(paths["wbar"], model.raw_design)
    write_correlation(paths["psi"], model.spectrum)
    Path(paths["lambdas"]).write_text(_exact_row(lambdas) + "\n")
    if estimate is not None:
        paths["estimate"] = directory / "estimate.json"
        text = json.dumps(_estimate_json(estimate), indent=2, allow_nan=False)
        Path(paths["estimate"]).write_text(text + "\n")
    return {k: str(v) for k, v in paths.items()}
