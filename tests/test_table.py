"""The CSV writer against its reference, the row loop ``"%.17g" % values``:
byte for byte on hard values, on a forced fallback and on every artifact the
CLI writes; plus its input checks and its memory bound."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from holocurve import _table
from holocurve._table import write_csv
from holocurve.cli import main


def _reference(header, columns):
    """The row loop the kernel replaces: one ``%`` per row."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(
        row % values for values in zip(*columns))


def _written(header, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(path, header, columns)
        return path.read_text()


def _assert_matches_reference(values):
    """Every value, in a six-column table, as the reference writes it."""
    values = np.asarray(values)
    pad = np.zeros(-len(values) % 6, values.dtype)
    columns = list(np.concatenate([values, pad]).reshape(-1, 6).T)
    header = tuple("abcdef")
    got, want = _written(header, columns), _reference(header, columns)
    if got != want:
        bad = next(i for i, (g, w) in enumerate(
            zip(got.splitlines(), want.splitlines())) if g != w)
        pytest.fail(f"row {bad}: {got.splitlines()[bad]!r} != "
                    f"{want.splitlines()[bad]!r}")


def _powers_of_ten():
    return _with_neighbours(np.array([float(f"1e{k}")
                                      for k in range(-323, 309)]))


def _ties():
    """Doubles whose decimal expansion has exactly 18 significant digits,
    the last a 5: ties at 17 digits, decided half-to-even."""
    m = np.arange(1, 2 ** 17, 2, dtype=np.float64)
    family = [(2.0 ** 17 + m) / 2.0 ** 17]
    for t in range(1, 70):
        # M / 2^t with odd M < 2^53 and M 5^t of 18 digits.
        lo = -(-10 ** 17 // 5 ** t) | 1
        hi = min(10 ** 18 // 5 ** t, 2 ** 53)
        if lo < hi:
            odd = np.linspace(lo, hi - 1, 2000).astype(np.int64) | 1
            odd = np.unique(odd[(odd >= lo) & (odd < hi)])
            family.append(odd.astype(np.float64) / 2.0 ** t)
    return np.concatenate(family)


def _with_neighbours(values):
    return np.concatenate([values, np.nextafter(values, 0.0),
                           np.nextafter(values, np.inf)])


def test_ties_are_ties():
    for v in _ties():
        digits = f"{v:.25e}".split("e")[0].replace(".", "").rstrip("0")
        assert len(digits) == 18 and digits[-1] == "5", v


@pytest.mark.parametrize("seed", [0, 1])
def test_random_bit_patterns(seed):
    # Both signs, every exponent, subnormals, infinities and NaN payloads.
    bits = np.random.default_rng(seed).integers(
        0, 2 ** 64, 120_000, dtype=np.uint64, endpoint=False)
    _assert_matches_reference(bits.view(np.float64))


def test_random_values_of_every_magnitude():
    rng = np.random.default_rng(2)
    mant = rng.uniform(1.0, 10.0, 60_000)
    exps = rng.integers(-30, 30, 60_000).astype(float)
    signs = rng.choice([-1.0, 1.0], 60_000)
    _assert_matches_reference(signs * mant * 10.0 ** exps)


def test_special_values():
    _assert_matches_reference(np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
         2.2250738585072014e-308, 2.2250738585072009e-308,
         1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.5,
         0.1, 1e-4, 9.9999999999999991e-5, 1e-5, 1e16, 1e17, 12345678.0]))


def test_powers_of_ten_and_neighbours():
    tens = _powers_of_ten()
    _assert_matches_reference(np.concatenate([tens, -tens]))


def test_exact_ties_round_half_even():
    ties = _with_neighbours(_ties())
    _assert_matches_reference(np.concatenate([ties, -ties]))
    assert _written(("x",), ([(2 ** 17 + 1) / 2 ** 17],)) \
        == "x\n1.0000076293945312\n"


def test_int64_columns_past_2_53():
    big = np.array([2 ** 53, 2 ** 53 + 1, 2 ** 53 + 3, 2 ** 62 + 1,
                    2 ** 63 - 1, -2 ** 63, -(2 ** 53) - 1,
                    123456789012345678, 0, 1, -7], dtype=np.int64)
    rng = np.random.default_rng(3)
    wide = rng.integers(-2 ** 63, 2 ** 63 - 1, 6000, dtype=np.int64)
    for column in (big, wide, np.arange(-3000, 3000)):
        assert _written(("n",), (column,)) == _reference(("n",), (column,))


def test_forced_fallback_gives_the_same_bytes(monkeypatch):
    values = np.concatenate([
        np.random.default_rng(4).integers(0, 2 ** 64, 30_000,
                                          dtype=np.uint64).view(np.float64),
        _powers_of_ten(), _with_neighbours(_ties()[::50])])
    values = values[:len(values) // 6 * 6]
    columns = list(values.reshape(-1, 6).T)
    fast = _written(tuple("abcdef"), columns)
    monkeypatch.setattr(_table, "_MARGIN", np.inf)
    assert _written(tuple("abcdef"), columns) == fast \
        == _reference(tuple("abcdef"), columns)


def test_plain_double_platform_skips_the_kernel(monkeypatch):
    # Where long double is a plain double the bound exceeds 1/2, no value
    # can take the kernel, and its tables are never built.
    values = np.concatenate([
        np.random.default_rng(6).integers(0, 2 ** 64, 6_000,
                                          dtype=np.uint64).view(np.float64),
        _powers_of_ten()])
    columns = list(values[:len(values) // 6 * 6].reshape(-1, 6).T)
    monkeypatch.setattr(_table, "_MARGIN", np.inf)
    _table._tables.cache_clear()
    assert _written(tuple("abcdef"), columns) \
        == _reference(tuple("abcdef"), columns)
    assert _table._tables.cache_info().misses == 0


def test_blocks_change_no_byte(monkeypatch):
    # On both paths: the kernel, and one row-format % per block where long
    # double is a plain double.
    columns = list(np.random.default_rng(5).normal(size=(3, 1001)) * 1e3)
    want = _reference(("a", "b", "c"), columns)
    for margin in (_table._MARGIN, np.inf):
        monkeypatch.setattr(_table, "_MARGIN", margin)
        for block in (1, 3, 7, 4096):
            monkeypatch.setattr(_table, "_BLOCK", block)
            assert _written(("a", "b", "c"), columns) == want


def test_empty_table_is_the_header():
    assert _written(("a", "b"), (np.array([]), [])) == "a,b\n"


def test_csv_writer_pins_special_values_and_counts():
    written = _written(("x", "y", "count"),
                       (np.array([np.nan, -0.0, 0.1]),
                        np.array([np.inf, -np.inf, 1e300]),
                        np.array([0, 7, 123456789], dtype=np.int64)))
    assert written == ("x,y,count\n"
                              "nan,inf,0\n"
                              "-0,-inf,7\n"
                              "0.10000000000000001,1.0000000000000001e+300,"
                              "123456789\n")


@pytest.mark.parametrize("header,columns,message", [
    (("a", "b"), ([1.0, 2.0],), "2 header names but 1 columns"),
    (("a",), ([1.0], [2.0]), "1 header names but 2 columns"),
    (("a", "b"), ([1.0, 2.0], [3.0]), r"columns differ in length: \[2, 1\]"),
    (("a", "b", "c"), ([1.0], [2.0, 3.0], [4.0]),
     r"columns differ in length: \[1, 2, 1\]"),
])
def test_mismatched_columns_raise_before_writing(tmp_path, header, columns,
                                                 message):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=message):
        write_csv(path, header, columns)
    assert not path.exists()


def _peak_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(6)
    columns = [rng.normal(size=n_rows) * 10.0 ** rng.integers(-8, 8, n_rows)
               for _ in range(6)]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", tuple("abcdef"), columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_by_the_block(tmp_path):
    # 256,001 rows of six are 12 MB of columns and 30 MB of CSV; the writer
    # holds one block at a time, so its peak is the same at 16k rows.
    small = _peak_bytes(tmp_path, 16_000)
    large = _peak_bytes(tmp_path, 256_001)
    assert large < 2.5e6
    assert large < 1.1 * small


_ARTIFACTS = [
    ("check-criterion", "curve.kind = example2\nnehari.kind = inverse_square\n"
     "grid.n_r = 30\ngrid.n_theta = 16\ngrid.refine = 2\n", "scan.csv"),
    ("extremal-profile", "nehari.kind = inverse_square\n"
     "profile.samples = 65\n", "profile.csv"),
    ("covering", "curve.kind = example1\ncovering.radii = 0.3,0.6\n"
     "covering.resolution = 40\n", "covering.csv"),
    ("reproduce-example", "example.which = 1\ngrid.n_r = 20\n"
     "grid.n_theta = 8\n", "example1_table.csv"),
    ("reproduce-example", "example.which = 2\ngrid.n_r = 20\n"
     "grid.n_theta = 8\nexample.c_values = 0.05\n",
     "example2_slack_hist.csv"),
]


@pytest.mark.parametrize("command,config,artifact", _ARTIFACTS,
                         ids=[run[2] for run in _ARTIFACTS])
def test_cli_artifacts_match_the_reference(tmp_path, capsys, monkeypatch,
                                           command, config, artifact):
    # Every table the CLI writes, covering's tuples of floats, the
    # histogram's int64 counts and scan.csv's blocks of rows included, as
    # the row loop writes it.
    blocks = []
    rows = _table._rows

    def spy(columns):
        blocks.append(columns)
        return rows(columns)

    monkeypatch.setattr(_table, "_rows", spy)
    (tmp_path / "run.cfg").write_text(config)
    assert main([command, str(tmp_path / "run.cfg"),
                 "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    written = (tmp_path / artifact).read_bytes()
    header = tuple(written.decode().split("\n", 1)[0].split(","))
    columns = [np.concatenate(col) for col in zip(*blocks)]
    assert written == _reference(header, columns).encode()


def test_tables_have_the_bits_of_the_stacked_construction():
    # The digit tables were built from int64 (10000, 4) stacks; the lean
    # construction writes the same bytes digit by digit.
    g = np.arange(10000)
    quad = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1)
            + ord("0")).astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    zeros4 = np.zeros(10000, np.intp)
    zeros4[0] = 4
    for p in (10, 100, 1000):
        zeros4[1:] += g[1:] % p == 0
    _, got_quad, got_zeros4, *_ = _table._tables()
    for got, want in ((got_quad, quad), (got_zeros4, zeros4)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
