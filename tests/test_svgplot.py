"""Plots and reader paths that the golden outputs do not reach, pinned by sha256.

Each SVG is drawn by `cohtrack plot` from a small hand-written CSV: a
constant column, non-finite and empty cells inside a curve, a single row,
a file with no data row, a surface with one c or one p value (cell size
0.02) and a surface with no breakdown time. The hashes were taken from the row-at-a-time drawing code;
the column-at-a-time code must give the same bytes.
"""

import hashlib
import warnings

import numpy as np
import pytest

from cohtrack.cli import main
from cohtrack.errors import ValidationError
from cohtrack.svgplot import read_csv_columns

TRAJECTORY = "t,vx,vy,vz,purity,coherence,omega0,omega1,omega2\n"

# name -> (plot kind, CSV text, sha256 of the SVG)
PLOTS = {
    "constant-column": ("trajectory", TRAJECTORY + "".join(
        f"{t},0.25,0.25,{0.5 - 0.1 * t},0.6,0.125,4,1,2\n" for t in range(5)),
        "31aac34972a2981ffb0618755318da704e0ccad8d67c5c88fea5dd6f61735741"),
    # A constant 1e20 gives lo == hi even after the +-0.5 widening.
    "flat-huge-column": ("fields", "t,omega0,omega1,omega2\n"
                         "0,4,1e20,1e20\n1,4,1e20,1e20\n2,4,1e20,1e20\n",
                         "796df794a8c6bda862661c9ffb259bec357bd80465bd750841013d1ae058c872"),
    "non-finite-cells": ("trajectory", TRAJECTORY
                         + "0,0.1,0,0.9,0.82,0.01,4,0,0\n"
                         + "0.5,nan,0,0.8,0.65,0.01,4,0,0\n"
                         + "1,0.1,0,inf,0.5,0.01,4,0,0\n"
                         + "1.5,,0,-inf,0.4,0.01,4,0,0\n"
                         + "2,0.1,0,,0.3,0.01,4,0,0\n"
                         + "nan,0.1,0,0.4,0.2,0.01,4,0,0\n"
                         + ",0.1,0,0.3,0.1,0.01,4,0,0\n"
                         + "3,-0.1,0,0.2,0.05,0.01,4,0,0\n"
                         + "# termination=horizon\n",
                         "4923fec0b0aad5d3db018b9c8efaaf8a480b96128d30f8bdb5fc935b59a20da3"),
    "header-only": ("trajectory", TRAJECTORY,
                    "6f36ea5868d79cee95b6c72a2d0307f907f92467dda6d41533e21cbeae151535"),
    "one-row": ("trajectory", TRAJECTORY + "0,0.3,0.4,0.5,0.5,0.25,4,1,2\n",
                "b8db7f886b955235fb683c1cb12f84082f7d0b1568a0da69af161b8ba7db520e"),
    "surface-one-c": ("surface", "c,p,t_b\n0.3,0.4,0.6\n0.3,0.5,1.2\n0.3,0.7,2.5\n0.3,0.2,\n",
                      "df381c638dc8c810d9b9d17bd39d2454635a3d9469a6d82047bfdb283010d42e"),
    "surface-one-p": ("surface", "c,p,t_b\n0.1,0.5,4\n0.2,0.5,1.5\n0.6,0.5,\n0.4,0.5,inf\n",
                      "a162aad567dd094b80c2522d7b79050e6652607e92d7ddaa183dd3486c06eb2e"),
    "surface-no-breakdown": ("surface", "c,p,t_b\n0.5,0.2,\n0.6,0.2,\n0.5,0.3,\n0.6,0.3,\n",
                             "9f7af1ffc8bd42b27650aea59aed2b324d74b24fb32f30079e202ccab6455de6"),
}


@pytest.mark.parametrize("name", sorted(PLOTS))
def test_plot_bytes_match_pinned_hash(tmp_path, name):
    kind, text, digest = PLOTS[name]
    csv, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
    csv.write_text(text, encoding="utf-8")
    assert main(["plot", str(csv), "--kind", kind, "-o", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


# Rows are numbered over non-blank lines, so the blank line below is not counted.
@pytest.mark.parametrize("text, header, message", [
    ("a,b,c\n1,2,3\n4,5\n", None, "row 3: expected 3 columns, got 2"),
    ("a,b,c\n1,2,3\n4,5,6\n# note\n\n7,8,9\n10,x1,12\n", None,
     "row 6: non-numeric value 'x1' in column 'b'"),
    ("a,b,c\n1,2,3\n4,,6\n", ["a", "b", "c"], "row 3: empty cell in column 'b'"),
], ids=["ragged", "late-non-numeric", "empty-under-header"])
def test_reader_error_words(tmp_path, text, header, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_csv_columns(path, header)
    assert str(err.value) == f"{path}: {message}"


def test_reader_blocks_give_the_row_by_row_values(tmp_path):
    # 9,000 cells, more than one parsing block, with empty cells throughout.
    rows = [f"{i / 7!r},{i * 0.1!r},{'' if i % 3 else repr(1e3 / (i + 1))}"
            for i in range(3000)]
    path = tmp_path / "big.csv"
    path.write_text("c,p,t_b\n" + "\n".join(rows) + "\n", encoding="utf-8")
    _, cells, _ = read_csv_columns(path)
    want = [[float(x) if x else np.nan for x in row.split(",")] for row in rows]
    assert np.array_equal(cells, want, equal_nan=True)
    path.write_text("c,p,t_b\n" + "\n".join(rows) + "\n1,2,3x\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_csv_columns(path)
    assert str(err.value) == f"{path}: row 3002: non-numeric value '3x' in column 't_b'"


@pytest.mark.parametrize("cells, row", [((-1, 1, 2), 2), ((-3, 1, 2), 2),
                                        ((1, 2, -1), 5), ((1, -np.inf, 2), 3)])
def test_negative_breakdown_time_is_refused_before_colouring(tmp_path, capsys, cells,
                                                             row):
    # t_b cells in three rows, a comment line and a blank line among them.
    csv, svg = tmp_path / "neg.csv", tmp_path / "neg.svg"
    first, second, third = cells
    csv.write_text(f"c,p,t_b\n0.1,0.5,{first}\n0.2,0.5,{second}\n# note\n\n"
                   f"0.3,0.5,{third}\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plot", str(csv), "--kind", "surface", "-o", str(svg)]) == 1
    bad = [c for c in cells if c < 0][0]
    assert capsys.readouterr().err == (f"error: {csv}: row {row}: negative breakdown "
                                       f"time {float(bad)!r} in column 't_b'\n")
    assert not svg.exists()
