"""The tables that `rrteig run --case {a,b,c} --levels 4` writes stay
byte-identical to the committed copies in tests/data.

The copies were generated with numpy 2.4.6 and scipy 1.17.1 (Python
3.11.7, x86-64).  A change that is meant to alter a table replaces its copy
and says why; another numpy or scipy may move a 17-digit figure value by
roundoff, which this test then reports.
"""

from pathlib import Path

import pytest

from rrteig.cli import main

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_level4_tables_byte_identical(case, tmp_path, capsys):
    assert main(["run", "--case", case, "--levels", "4",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for table in ("eigenvalues", "residuals", "figure"):
        name = f"{case}_{table}.txt"
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
