"""Property tests of the command-line input boundaries.

Every subcommand is fed malformed space descriptions, malformed sample lines
and out-of-range integer flags.  Each run must end with an exit code the
README documents, and never with an exception escaping ``main`` (which the
installed ``phaseiso`` command would print as a traceback).  Input that the
library itself rejects must exit 64.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from phaseiso import NormSpec, SampleFormatError, read_samples  # noqa: E402
from phaseiso.cli import main  # noqa: E402

DOCUMENTED = {0, 1, 2, 3, 4, 64, 65}
L2_2 = '{"kind": "lp", "dim": 2, "p": 2}'
GOOD_ROWS = ('{"x": [1.0, 0.0], "fx": [1.0, 0.0]}\n'
             '{"x": [0.0, 1.0], "fx": [0.0, 1.0]}\n')

# derandomized so that a run is reproducible; no example database on disk
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=list(HealthCheck))

# JSON punctuation, numerals and the letters of the keys and literals
CHARS = '{}[]":,.-+0123456789eE aNIfinytpldkmwsuhro_\\'
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.text(CHARS, max_size=4), st.lists(st.integers(-2, 2), max_size=3),
    st.lists(st.lists(st.floats(-2, 2), max_size=3), max_size=3),
    st.dictionaries(st.text(CHARS, max_size=2), st.integers(), max_size=2),
)
space_texts = st.one_of(
    st.text(CHARS, max_size=20).map(lambda t: "{" + t),
    st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["lp", "weighted_lp", "polyhedral", "l2"]) | junk,
        "dim": st.integers(-2, 3) | junk,
        "p": junk, "weights": junk, "functionals": junk,
    }).map(json.dumps),
)
sample_lines = st.one_of(
    st.text(CHARS, max_size=30),
    st.fixed_dictionaries({}, optional={"x": junk, "fx": junk}).map(json.dumps),
)


def run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in DOCUMENTED, (code, argv)
    assert "Traceback" not in err
    return code


def subcommands(space, samples, out):
    return {
        "check": ["check", "--space", space, "--samples", samples],
        "decompose": ["decompose", "--space", space, "--samples", samples,
                      "--declare-surjective"],
        "decompose-seeded": ["decompose", "--space", space, "--oracle-seed", "1",
                             "--declare-surjective"],
        "lemma": ["lemma", "--space", space, "--functional", "[1, 0]", "--normalize",
                  "--oracle-seed", "1", "--verify-points", "3"],
        "gen": ["gen", "--space", space, "--extra", "2", "--out", out],
        "fuzz": ["fuzz", "--space", space, "--trials", "1"],
        "ortho": ["ortho", "--space", space, "--x", "[1, 0]", "--y", "[0, 1]"],
    }


def _valid_space(text):
    try:
        NormSpec.from_json(text)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return False
    return True


@pytest.fixture
def files(tmp_path):
    samples = tmp_path / "good.jsonl"
    samples.write_text(GOOD_ROWS)
    return tmp_path, str(samples), str(tmp_path / "gen.jsonl")


@PROPERTY
@given(space=space_texts, command=st.sampled_from(sorted(subcommands("", "", ""))))
@example(space='{"kind": "lp", "dim": Infinity, "p": 2}', command="check")
@example(space='{"kind": "polyhedral", "dim": 2, "functionals": [[1e308, 0], [0, 1e308]]}',
         command="lemma")
def test_malformed_space(files, capsys, space, command):
    _, samples, out = files
    code = run(subcommands(space, samples, out)[command], capsys)
    if not _valid_space(space):
        assert code == 64


@PROPERTY
@given(lines=st.lists(sample_lines, min_size=1, max_size=4),
       command=st.sampled_from(["check", "decompose", "lemma"]))
def test_malformed_sample_lines(files, capsys, lines, command):
    tmp_path, _, _ = files
    path = tmp_path / "lines.jsonl"
    path.write_text("\n".join(lines) + "\n")
    argv = {"check": ["check"], "decompose": ["decompose", "--declare-surjective"],
            "lemma": ["lemma", "--functional", "[1, 0]"]}[command]
    code = run(argv + ["--space", L2_2, "--samples", str(path)], capsys)
    try:
        read_samples(str(path))
    except SampleFormatError:
        assert code == 64


@PROPERTY
@given(negative=st.integers(-2 ** 70, -1), flag=st.sampled_from(
    ["check --max-pairs", "check --seed", "decompose --seed", "decompose --oracle-seed",
     "lemma --verify-points", "lemma --seed", "lemma --oracle-seed", "gen --extra",
     "gen --seed", "fuzz --trials", "fuzz --seed"]))
def test_negative_integer_flags(files, capsys, negative, flag):
    _, samples, out = files
    command, option = flag.split()
    argv = subcommands(L2_2, samples, out)[command.replace("decompose", "decompose-seeded")]
    assert run(argv + [f"{option}={negative}"], capsys) == 64


@PROPERTY
@given(seed=st.integers(2 ** 63, 2 ** 80),
       command=st.sampled_from(["check", "decompose-seeded", "lemma", "gen", "fuzz"]))
def test_huge_seeds(files, capsys, seed, command):
    _, samples, out = files
    argv = subcommands(L2_2, samples, out)[command] + [f"--seed={seed}"]
    if command in ("decompose-seeded", "lemma"):
        argv += [f"--oracle-seed={seed}"]
    assert run(argv, capsys) == 0
