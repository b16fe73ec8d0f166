"""Sample tables on disk: the columnar reader and the one-pass writer.

``read_table`` parses a samples file line by line and converts it column by
column, and ``validate_table`` checks the columns without stacking the rows
again.  Every table, well formed or not, must end as the line-by-line
reader in ``oracles`` ends: the same arrays and ``table``, or the same
exception type, message and line number.  ``write_samples`` must write the
bytes of one ``json.dumps({"x": x, "fx": fx})`` line per row.
"""

import json

import numpy as np
import pytest

import oracles
from phaseiso import NormSpec, PhaseMapOracle, read_samples, read_table, write_samples
from phaseiso.cli import main
from phaseiso.phase_maps import validate_table

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

L2_2 = NormSpec.lp(2, 2)
LINF_3 = NormSpec.lp(3, float("inf"))
SPACES = [(L2_2, L2_2), (L2_2, LINF_3), (LINF_3, L2_2)]

# derandomized so that a run is reproducible; no example database on disk
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                    suppress_health_check=list(HealthCheck))

# coordinates as JSON text: a few repeated values (so rows repeat an x),
# overflow at |2x|, the non-finite spellings, and values of the wrong type
SMALL = st.sampled_from(["0.0", "-0.0", "1.0", "3", "-2.5"])
NUMBERS = SMALL | st.sampled_from(["5e-324", "1e308", "0.1", "1e-05"])
ODD = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "true", "false", "null",
                       '"1.5"', '"abc"', "[1.0]", "[]", "{}", "[1, [2]]",
                       "12345678901234567890123", "1" + "0" * 400])
coordinate = st.one_of(NUMBERS, NUMBERS, NUMBERS, ODD)


def _row(dim, values=coordinate):
    return st.lists(values, min_size=dim, max_size=dim).map(lambda c: "[" + ", ".join(c) + "]")


vector = st.one_of(_row(2), _row(2), _row(2), _row(3),
                   st.lists(coordinate, max_size=4).map(lambda c: "[" + ", ".join(c) + "]"),
                   coordinate, st.lists(_row(2), min_size=1, max_size=2).map(
                       lambda rows: "[" + ", ".join(rows) + "]"))
# a well-formed row of the most common table, (l2, dim 2) to itself
good = st.builds('{{"x": {}, "fx": {}}}'.format, _row(2, SMALL), _row(2, NUMBERS))


@st.composite
def record(draw):
    keys = draw(st.sampled_from([("x", "fx"), ("x", "fx"), ("x", "fx"), ("fx", "x"),
                                 ("x",), ("fx",), (), ("x", "fx", "y")]))
    text = "{" + ", ".join(f'"{k}": {draw(vector)}' for k in keys) + "}"
    cut = draw(st.one_of(st.none(), st.none(), st.none(), st.integers(0, len(text))))
    return text if cut is None else text[:cut]


line = st.one_of(good, good, good, good, good, good, good, good, record(),
                 st.sampled_from(["", "   ", "\t", "[1, 2]", "3", '"x"', "null",
                                  '{"x": [1.0, 0.0], "fx": [1.0, 0.0]} {}',
                                  '\ufeff{"x": [1.0, 0.0], "fx": [1.0, 0.0]}', "{", "}"]))
clean = st.lists(good | st.just(""), max_size=8)
# well-formed tables, tables with one line of any kind among good ones, and any lines
tables = st.one_of(
    clean, st.tuples(clean, line, st.integers(0, 8)).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]),
    st.lists(line, max_size=8))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("tables") / "table.jsonl")


def outcome(fn):
    """What ``fn()`` returns, or the type, message and line number of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "line_no", None))


def same_arrays(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_table(got, want):
    if isinstance(want[0], str):
        assert got == want
        return
    assert not isinstance(got[0], str), got
    (X, FX, table), (X0, FX0, table0) = got, want
    assert same_arrays(X, X0) and same_arrays(FX, FX0)
    assert list(oracles.tuple_keyed_table(table).items()) == list(table0.items())
    assert not FX.flags.writeable


def assert_same_rows(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert len(got) == len(want)
    for (x, fx), (x0, fx0) in zip(got, want):
        assert same_arrays(x, x0) and same_arrays(fx, fx0)


RAGGED_THEN_TRUNCATED = ['{"x": [1.0, 0.0, 0.0], "fx": [1.0, 0.0]}', '{"x": [0.5,']


class TestReaderMatchesLineByLine:
    @PROPERTY
    @given(lines=tables, spaces=st.sampled_from([SPACES[0]] * 4 + SPACES[1:]))
    @example(lines=RAGGED_THEN_TRUNCATED, spaces=SPACES[0])
    @example(lines=['{"x": [1.0, 0.0], "fx": [1.0]}', '{"x": [1.0], "fx": [1.0, 0.0]}'],
             spaces=SPACES[0])
    @example(lines=['{"x": [1.0, 0.0, 0.0], "fx": [1.0, 0.0]}',
                    '{"x": [1.0, 0.0], "fx": [NaN, 0.0]}'], spaces=SPACES[0])
    @example(lines=['{"x": [1.0, 0.0], "fx": [1.0, 0.0]}', '{"x": [1.0, 0.0], "fx": [0.0, 1.0]}'],
             spaces=SPACES[0])
    @example(lines=['{"x": [1e308, 0.0], "fx": [1.0, 0.0]}'], spaces=SPACES[0])
    @example(lines=['{"x": [1e400, 0.0], "fx": [1.0, 0.0]}', '{"x": "abc"}'], spaces=SPACES[0])
    @example(lines=[], spaces=SPACES[0])
    @example(lines=['{"x": [1.0, "abc"], "fx": [1, 0]}', '{"x": [1' + "0" * 400 + ', 0]}'],
             spaces=SPACES[0])
    def test_validated_table(self, path, lines, spaces):
        domain, codomain = spaces
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        got = outcome(lambda: validate_table(domain, codomain, columns=read_table(path)))
        want = outcome(lambda: oracles.row_stacked_table(
            domain, codomain, oracles.line_by_line_samples(path)))
        assert_same_table(got, want)

    @PROPERTY
    @given(lines=tables)
    @example(lines=RAGGED_THEN_TRUNCATED)
    def test_rows(self, path, lines):
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert_same_rows(outcome(lambda: read_samples(path)),
                         outcome(lambda: oracles.line_by_line_samples(path)))

    def test_oracle_over_columns_equals_oracle_over_rows(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = [([1.0, -0.0], [0.0, 1.0]), ([0.5, 2.0], [2.0, 0.5]), ([1.0, -0.0], [0.0, 1.0])]
        path.write_text("".join(json.dumps({"x": x, "fx": fx}) + "\n" for x, fx in rows))
        f = PhaseMapOracle.from_table(L2_2, L2_2, columns=read_table(str(path)))
        g = PhaseMapOracle.from_table(L2_2, L2_2, read_samples(str(path)))
        assert f.table == g.table and same_arrays(f.table_images, g.table_images)

    def test_unreadable_file(self, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        assert_same_rows(outcome(lambda: read_table(missing)),
                         outcome(lambda: oracles.line_by_line_samples(missing)))


class TestCliFailureOrder:
    """Parse and shape errors of a line come first (64), then non-finite values (64),
    then x shapes, fx shapes (65), overflow and conflicting rows (64)."""

    @pytest.mark.parametrize("lines,code,line_no", [
        (RAGGED_THEN_TRUNCATED, 64, 2),
        (['{"x": [1.0, 0.0, 0.0], "fx": [1.0, 0.0]}', '{"x": [1.0, 0.0], "fx": [Infinity, 0]}'],
         64, 2),
        (['{"x": [1.0, 0.0], "fx": [1.0, 0.0, 0.0]}', '{"x": [1.0], "fx": [1.0, 0.0]}'], 65, None),
        (['{"x": [1.0, 0.0], "fx": [1.0, 0.0]}', '{"x": [[1.0, 0.0]], "fx": [1.0, 0.0]}'], 64, 2),
    ], ids=["ragged-then-truncated", "ragged-then-infinite", "fx-then-x-shape", "nested"])
    def test_exit_code_and_line(self, tmp_path, capsys, lines, code, line_no):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["check", "--space", '{"kind": "lp", "dim": 2, "p": 2}',
                     "--samples", str(path)]) == code
        err = capsys.readouterr().err
        if line_no is not None:
            assert f"t.jsonl:{line_no}: " in err
        else:
            assert "sample has shape (1,)" in err  # the x row, though an fx row fails first

    GOOD = b'{"x": [1.0, 0.0], "fx": [1.0, 0.0]}\n'
    DEEP = b'{"x": ' + b"[" * 100_000 + b"\n"
    BAD_BYTE = b'{"x": [1.0, 0.0], "fx": [\xff1.0, 0.0]}\n'
    NESTED = b'{"x": [[1.0, 0.0]], "fx": [1.0, 0.0]}\n'

    @pytest.mark.parametrize("data,line_no,reason", [
        (GOOD + DEEP, 2, "maximum recursion depth exceeded"),
        (GOOD + DEEP + NESTED, 2, "maximum recursion depth exceeded"),
        (NESTED + DEEP, 1, "x and fx must be flat arrays"),
        (GOOD + BAD_BYTE, 2, "not valid UTF-8: byte 0xff"),
        (GOOD * 3000 + BAD_BYTE + GOOD, 3001, "not valid UTF-8: byte 0xff"),
        (NESTED + BAD_BYTE, 1, "x and fx must be flat arrays"),
    ], ids=["deep", "deep-then-nested", "nested-then-deep", "bad-byte", "bad-byte-late",
            "nested-then-bad-byte"])
    def test_undecodable_line(self, tmp_path, capsys, data, line_no, reason):
        """A line nested past the recursion limit, or a byte that is not UTF-8,
        is an input error at its own line, after the lines before it are checked."""
        path = tmp_path / "t.jsonl"
        path.write_bytes(data)
        assert main(["check", "--space", '{"kind": "lp", "dim": 2, "p": 2}',
                     "--samples", str(path)]) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}:{line_no}: ")
        assert reason in err


def json_dumps_lines(X, FX):
    return "".join(json.dumps({"x": x, "fx": fx}) + "\n"
                   for x, fx in zip(np.asarray(X).tolist(), np.asarray(FX).tolist()))


class TestWriter:
    EDGE = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e22,
            0.1, -1e-300, 123456789.0]

    def test_edge_values(self, tmp_path):
        X = np.array(self.EDGE).reshape(-1, 3)
        f = PhaseMapOracle.from_callable(LINF_3, LINF_3, lambda c: -c[::-1])
        path = tmp_path / "t.jsonl"
        write_samples(str(path), f, list(X))
        assert path.read_bytes() == json_dumps_lines(X, -X[:, ::-1]).encode()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=2, max_size=2), max_size=8))
    def test_any_finite_rows(self, path, rows):
        f = PhaseMapOracle.from_callable(L2_2, L2_2, lambda c: c[::-1])
        X = np.array(rows, dtype=float).reshape(len(rows), 2)
        write_samples(path, f, list(X))
        with open(path, "rb") as fh:
            assert fh.read() == json_dumps_lines(X, X[:, ::-1]).encode()
