import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from phaseiso import (DimensionMismatch, NormSpec, PhaseMapOracle, is_w_star_exposed, plan_queries,
                      ray_key, read_samples)
from phaseiso import cli
from phaseiso.cli import _sample_pairs, build_parser, cmd_check, main
from phaseiso.phase_maps import key_string
from phaseiso.decomposition import ROUTES, NoStabilization, RouteUnsupported, SmoothnessFailure

L1_3 = '{"kind": "lp", "dim": 3, "p": 1}'
L2_2 = '{"kind": "lp", "dim": 2, "p": 2}'
LINF_4 = '{"kind": "lp", "dim": 4, "p": "inf"}'
POLY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
POLY3_SPACE = json.dumps({"kind": "polyhedral", "dim": 3, "functionals": POLY3})


def run(args):
    return main(args)


@pytest.fixture
def generated(tmp_path):
    samples = tmp_path / "samples.jsonl"
    hidden = tmp_path / "truth.json"
    code = run(["gen", "--space", L1_3, "--seed", "42",
                "--out", str(samples), "--hidden", str(hidden)])
    assert code == 0
    return samples, hidden


class TestGen:
    def test_writes_samples_and_truth(self, generated):
        samples, hidden = generated
        lines = samples.read_text().strip().splitlines()
        assert len(lines) > 100
        rec = json.loads(lines[0])
        assert set(rec) == {"x", "fx"}
        truth = json.loads(hidden.read_text())
        assert truth["seed"] == 42
        assert len(truth["T"]) == 3
        assert all(v in (-1, 1) for v in truth["signs"].values())

    def test_hidden_signs_are_the_signs_of_the_written_rays(self, generated):
        """Each written nonzero row's image is its ray's hidden sign times T x."""
        samples, hidden = generated
        truth = json.loads(hidden.read_text())
        space, T = NormSpec.lp(3, 1), np.array(truth["T"])
        seen = set()
        for x, fx in read_samples(str(samples)):
            if x.any():
                key = key_string(ray_key(x, space))
                seen.add(key)
                assert np.array_equal(fx, truth["signs"][key] * (T @ x))
        assert seen == set(truth["signs"])

    # SHA-256 of the exit code, the table and the hidden truth of `gen --uneven --hidden`
    # with --extra 20; an uneven oracle's signs are written as {}
    UNEVEN_GEN = {
        ("l1_n3", 0): "20911dd4862848f0ae61e8e69e7f3384c94350bb09351c1e22cb4978e037cfaf",
        ("l1_n3", 1): "f870afc0a09e55dd3b5cb9c07fbd40f5190f9f83c7e3f66a1552461e06843c86",
        ("l2_n6", 0): "51c747ae69a4599a1291d3db2804c19b348586e86627b111421bec63422995f5",
        ("l2_n6", 1): "aa8726b3ae75bbf6980da993c0825b46e567573f46f15ad0ad50069549ba0917",
        ("linf_n8", 0): "e72d48e911d5d5be93c0aac12ec1ca197461b5e938b73d9fff1fd825f4239162",
        ("linf_n8", 1): "9d7ae86dc644fa57967daf235458daa04f828e93ea8aadab2703fe800a040021",
        ("poly_n3", 0): "fbf910e930c92cd8e860a64a2e3fe13f0ddbe12206b6e8e2f8939d83ef5b2567",
        ("poly_n3", 1): "11c0d75055b821aef68b9fe28964d5c27668a2d3c9f824393963c9be735c527a",
    }
    UNEVEN_SPACES = {"l1_n3": NormSpec.lp(3, 1), "l2_n6": NormSpec.lp(6, 2),
                     "linf_n8": NormSpec.lp(8, math.inf), "poly_n3": NormSpec.polyhedral(3, POLY3)}

    @pytest.mark.parametrize("name,seed", list(UNEVEN_GEN), ids=lambda v: str(v))
    def test_uneven_hidden_bytes(self, name, seed, tmp_path):
        table, hidden = tmp_path / "s.jsonl", tmp_path / "h.json"
        code = run(["gen", "--space", json.dumps(self.UNEVEN_SPACES[name].to_json()),
                    "--seed", str(seed), "--uneven", "--out", str(table), "--extra", "20",
                    "--hidden", str(hidden)])
        data = f"exit={code}\n".encode() + table.read_bytes() + hidden.read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.UNEVEN_GEN[name, seed]
        assert json.loads(hidden.read_text())["signs"] == {}


class TestCheck:
    def test_generated_samples_pass(self, generated, tmp_path, capsys):
        samples, _ = generated
        out = tmp_path / "report.json"
        code = run(["check", "--space", L1_3, "--samples", str(samples),
                    "--max-pairs", "2000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"]
        # pool points reach magnitude 2^20, so the absolute discrepancy is
        # only meaningful relative to that scale
        assert report["max_discrepancy"] <= 1e-9 * (1 + 2.0 ** 20)

    def test_shifted_samples_fail_with_witness(self, tmp_path):
        samples = tmp_path / "bad.jsonl"
        rng = np.random.default_rng(0)
        with samples.open("w") as fh:
            for _ in range(12):
                x = rng.standard_normal(2)
                fx = x + np.array([0.5, 0.0])
                fh.write(json.dumps({"x": list(x), "fx": list(fx)}) + "\n")
        out = tmp_path / "report.json"
        code = run(["check", "--space", L2_2, "--samples", str(samples),
                    "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert not report["passed"]
        assert report["failures"]

    def test_report_equals_scalar_reference_on_repeated_rows(self, tmp_path):
        # a quarter turn, except that [1, 1] -> [2, 0] breaks the equation; x =
        # [0, 1] comes back as [-0, 1] with an fx that differs only in the sign
        # of a zero, and [1, 2] repeats exactly
        rows = [([0.0, 1.0], [-1.0, 0.0]), ([1.0, 2.0], [-2.0, 1.0]),
                ([-0.0, 1.0], [-1.0, -0.0]), ([3.0, -0.0], [0.0, 3.0]),
                ([1.0, 2.0], [-2.0, 1.0]), ([1.0, 1.0], [2.0, 0.0]),
                ([0.5, -1.5], [1.5, 0.5])]
        samples = tmp_path / "repeats.jsonl"
        samples.write_text("".join(json.dumps({"x": x, "fx": fx}) + "\n" for x, fx in rows))
        out = tmp_path / "report.json"
        assert run(["check", "--space", L2_2, "--samples", str(samples),
                    "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        space = NormSpec.lp(2, 2)
        f = PhaseMapOracle.from_table(space, space, read_samples(str(samples)))
        X = [np.array(x) for x, _ in rows]
        pairs = [(X[i], X[j]) for i in range(len(X)) for j in range(i, len(X))]
        passed, worst, failures = oracles.scalar_phase_check(f, pairs)
        want = [{"x": x, "y": y, "discrepancy": d} for x, y, d in failures]
        assert (report["pairs"], report["passed"]) == (len(pairs), passed)
        assert json.dumps([report["max_discrepancy"], report["failures"]], sort_keys=True) == \
            json.dumps([worst, want], sort_keys=True)
        assert "-0.0" in json.dumps(report["failures"])

    def test_truncated_jsonl_exit_64(self, tmp_path, capsys):
        samples = tmp_path / "trunc.jsonl"
        samples.write_text('{"x": [1.0, 0.0], "fx": [1.0, 0.0]}\n{"x": [0.5,\n')
        code = run(["check", "--space", L2_2, "--samples", str(samples)])
        assert code == 64
        assert ":2:" in capsys.readouterr().err

    def test_dimension_mismatch_exit_65(self, tmp_path):
        samples = tmp_path / "dim.jsonl"
        samples.write_text('{"x": [1.0, 0.0, 0.0], "fx": [1.0, 0.0, 0.0]}\n')
        code = run(["check", "--space", L2_2, "--samples", str(samples)])
        assert code == 65

    def test_non_finite_sample_exit_64(self, tmp_path, capsys):
        samples = tmp_path / "nan.jsonl"
        samples.write_text('{"x": [1.0, 0.0], "fx": [1.0, 0.0]}\n'
                           '{"x": [0.0, 1.0], "fx": [NaN, 1.0]}\n')
        code = run(["check", "--space", L2_2, "--samples", str(samples)])
        assert code == 64
        assert ":2:" in capsys.readouterr().err


def _materialised_pairs(n, cap, seed):
    """The pair sample drawn from the full list of n(n+1)/2 pairs."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if len(pairs) > cap:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4E]))
        pairs = [pairs[k] for k in sorted(rng.choice(len(pairs), size=cap, replace=False))]
    return pairs


class TestPairSampling:
    @pytest.mark.parametrize("n", range(65))
    def test_unranking_matches_enumeration(self, n):
        total = n * (n + 1) // 2
        for cap in sorted({0, 1, 7, max(total - 1, 0), total, total + 1}):
            for seed in (0, 5):
                i, j = _sample_pairs(n, cap, seed)
                assert list(zip(i.tolist(), j.tolist())) == _materialised_pairs(n, cap, seed)

    def test_check_peak_memory_bounded(self, tmp_path):
        space = NormSpec.lp(8, 1)
        spec = json.dumps(space.to_json())
        plan_rows = len(plan_queries(space, "l1", 3).all_points())
        samples = tmp_path / "big.jsonl"
        assert run(["gen", "--space", spec, "--seed", "3", "--out", str(samples),
                    "--extra", str(2000 - plan_rows)]) == 0
        assert len(samples.read_text().splitlines()) == 2000
        args = build_parser().parse_args(["check", "--space", spec, "--samples", str(samples),
                                          "--seed", "3", "--out", str(tmp_path / "r.json")])
        tracemalloc.start()
        try:
            assert cmd_check(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads((tmp_path / "r.json").read_text())["sampled_pairs"] == 10_000
        assert peak <= 20 * 2 ** 20


class TestDecompose:
    def test_table_mode_round_trip(self, generated, tmp_path):
        samples, truth_path = generated
        cert_path = tmp_path / "cert.json"
        code = run(["decompose", "--space", L1_3, "--samples", str(samples),
                    "--seed", "42", "--declare-surjective", "--out", str(cert_path)])
        assert code == 0
        cert = json.loads(cert_path.read_text())
        assert cert["route"] == "l1"
        assert cert["residual_max"] <= 1e-9
        assert cert["surjectivity"] == "declared"
        for key in ("T", "sign_table", "verified_pairs", "max_equation_discrepancy",
                    "tolerances"):
            assert key in cert
        assert all(v in (-1, 1) for v in cert["sign_table"].values())
        truth = json.loads(truth_path.read_text())
        t_hat = np.array(cert["T"])
        t_true = np.array(truth["T"])
        err = min(np.max(np.abs(t_hat - s * t_true)) for s in (1.0, -1.0))
        assert err <= 1e-9

    def test_oracle_seed_mode(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        code = run(["decompose", "--space", LINF_4, "--oracle-seed", "7",
                    "--seed", "7", "--out", str(cert_path)])
        assert code == 0
        assert json.loads(cert_path.read_text())["route"] == "linf"

    def test_missing_probes_exit_3(self, generated, tmp_path, capsys):
        samples, _ = generated
        lines = samples.read_text().strip().splitlines()
        # drop a basis probe: the planner must list it before running
        kept = [ln for ln in lines if json.loads(ln)["x"] != [1.0, 0.0, 0.0]]
        pruned = tmp_path / "pruned.jsonl"
        pruned.write_text("\n".join(kept) + "\n")
        code = run(["decompose", "--space", L1_3, "--samples", str(pruned),
                    "--seed", "42", "--declare-surjective"])
        assert code == 3
        assert "missing" in capsys.readouterr().err.lower()

    def test_undeclared_surjectivity_exit_3(self, generated):
        samples, _ = generated
        code = run(["decompose", "--space", L1_3, "--samples", str(samples),
                    "--seed", "42"])
        assert code == 3

    def test_adversarial_table_exit_2(self, generated, tmp_path, capsys):
        samples, _ = generated
        records = [json.loads(ln) for ln in samples.read_text().strip().splitlines()]
        for rec in records:
            if rec["x"] == [1.0, 1.0, 1.0]:
                rec["fx"] = [v * 2.0 for v in rec["fx"]]
        bad = tmp_path / "adversarial.jsonl"
        bad.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = run(["decompose", "--space", L1_3, "--samples", str(bad),
                    "--seed", "42", "--declare-surjective"])
        assert code == 2


class TestCodomainTables:
    LINE = '{"kind": "lp", "dim": 1, "p": 2}'
    PLANE = '{"kind": "lp", "dim": 2, "p": "inf"}'

    def curve_table(self, tmp_path, points):
        import math
        path = tmp_path / "curve.jsonl"
        with path.open("w") as fh:
            for t in points:
                fh.write(json.dumps({"x": [t], "fx": [t, math.sin(t)]}) + "\n")
        return path

    def test_check_into_map(self, tmp_path):
        rng = np.random.default_rng(4)
        path = self.curve_table(tmp_path, [float(v) for v in rng.uniform(-6, 6, size=40)])
        code = run(["check", "--space", self.LINE, "--codomain", self.PLANE,
                    "--samples", str(path)])
        assert code == 0

    def test_forced_decompose_exits_2(self, tmp_path):
        from phaseiso import plan_queries, NormSpec
        plan = plan_queries(NormSpec.lp(1, 2), "one_dim", 0)
        points = sorted({float(p[0]) for p in plan.all_points()})
        path = self.curve_table(tmp_path, points)
        code = run(["decompose", "--space", self.LINE, "--codomain", self.PLANE,
                    "--samples", str(path), "--seed", "0", "--route", "one_dim",
                    "--force"])
        assert code == 2

    def test_narrow_codomain_exits_2_before_reading_the_plan(self, tmp_path, capsys):
        # x -> (x_0, x_1) from l1^3 onto l2^2 on two points: the dimensions settle it
        path = tmp_path / "projection.jsonl"
        path.write_text("".join(json.dumps({"x": x, "fx": x[:2]}) + "\n"
                                for x in ([1.0, 0.0, 0.0], [0.0, 1.0, 2.0])))
        code = run(["decompose", "--space", L1_3, "--codomain", '{"kind": "lp", "dim": 2, "p": 2}',
                    "--samples", str(path), "--declare-surjective"])
        assert code == 2
        assert "codomain dimension 2 is below domain dimension 3" in capsys.readouterr().err

    def test_codomain_dimension_enforced(self, tmp_path):
        path = self.curve_table(tmp_path, [0.0, 1.0])
        code = run(["check", "--space", self.LINE, "--samples", str(path)])
        assert code == 65


class TestOrtho:
    def test_verdict_json(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run(["ortho", "--space", '{"kind": "lp", "dim": 2, "p": 1}',
                    "--x", "[1, 0]", "--y", "[1, 2]", "--out", str(out)])
        assert code == 0
        verdict = json.loads(out.read_text())
        assert verdict["orthogonal"] is True
        assert verdict["witness"] is not None

    def test_asymmetry_via_cli(self, capsys):
        code = run(["ortho", "--space", '{"kind": "lp", "dim": 2, "p": 1}',
                    "--x", "[1, 2]", "--y", "[1, 0]"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["orthogonal"] is False

    @pytest.mark.parametrize("space, x, y, slope", [
        (L2_2, "[1e-170, 1e-170]", "[0, 1]", 2 ** -0.5),
        (L2_2, "[1e200, 1e200]", "[0, 1]", 2 ** -0.5),
        (L2_2, "[3e-162, 4e-162]", "[0, 1]", 0.8),
        (POLY3_SPACE, "[1e308, 1e308, 1e308]", "[0, 1, 0]", 1.0),
    ], ids=["underflow", "overflow", "subnormal-squares", "poly-overflow"])
    def test_norm_out_of_range(self, capsys, space, x, y, slope):
        with np.errstate(over="ignore", under="ignore"):
            code = run(["ortho", "--space", space, "--x", x, "--y", y])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["forward_slope"] == pytest.approx(slope, rel=1e-12)

    @pytest.mark.parametrize("space, x, y", [
        (L2_2, "[1e200, 1e200]", "[0, 1]"),
        (POLY3_SPACE, "[1e308, 1e308, 1e308]", "[0, 1, 0]"),
    ], ids=["overflow", "poly-overflow"])
    def test_overflow_prints_no_warning(self, capsys, space, x, y):
        """A first norm that overflows leaves stderr empty, in a fresh interpreter
        whose warning filters are the defaults, and the verdict as it was."""
        argv = ["ortho", "--space", space, "--x", x, "--y", y]
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "phaseiso.cli", *argv],
                              env={"PYTHONPATH": src}, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        with np.errstate(over="ignore"):
            assert run(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("space, x", [
        (L2_2, "[1e-170, 1e-170]"),
        (L2_2, "[1e200, 1e200]"),
    ], ids=["underflow", "overflow"])
    def test_zero_y_witness_out_of_range(self, capsys, space, x):
        with np.errstate(over="ignore", under="ignore"):
            code = run(["ortho", "--space", space, "--x", x, "--y", "[0, 0]"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["witness"] == pytest.approx([2 ** -0.5] * 2, rel=1e-12)

    def test_weights_out_of_range(self, capsys):
        space = json.dumps({"kind": "weighted_lp", "dim": 3, "p": 2, "weights": [1e308] * 3})
        with np.errstate(over="ignore"):
            code = run(["ortho", "--space", space, "--x", "[0.9, 0.9, 0.9]", "--y", "[0, 1, 0]"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["forward_slope"] == pytest.approx((1e308 / 3) ** 0.5, rel=1e-12)

    def test_l1_coordinate_flushed_by_division(self, capsys):
        code = run(["ortho", "--space", '{"kind": "lp", "dim": 2, "p": 1}',
                    "--x", "[1e300, 1e-300]", "--y", "[1, 1]"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["orthogonal"] is False
        assert (verdict["forward_slope"], verdict["backward_slope"]) == (2.0, -2.0)

    def test_coordinates_beyond_float_range(self, capsys):
        with np.errstate(over="ignore"):
            code = run(["ortho", "--space", '{"kind": "lp", "dim": 3, "p": 1}',
                        "--x", "[1e308, 1e308, 1e-300]", "--y", "[1, -1, 1]"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["orthogonal"] is False
        assert (verdict["forward_slope"], verdict["backward_slope"]) == (1.0, -1.0)


class TestConflictingRows:
    """A table row that repeats an x with another fx is not a function: exit 64."""

    L2_3 = '{"kind": "lp", "dim": 3, "p": 2}'

    @pytest.fixture
    def conflicted(self, tmp_path):
        samples = tmp_path / "samples.jsonl"
        assert run(["gen", "--space", self.L2_3, "--seed", "1", "--out", str(samples)]) == 0
        lines = samples.read_text().strip().splitlines()
        rec = json.loads(lines[5])
        forged = json.dumps({"x": rec["x"], "fx": [3.0 * v for v in rec["fx"]]})
        bad = tmp_path / "conflict.jsonl"
        bad.write_text("\n".join(lines[:5] + [forged] + lines[5:]) + "\n")
        return str(bad), rec["x"]

    @pytest.mark.parametrize("argv", [
        ["check"],
        ["decompose", "--seed", "1", "--declare-surjective"],
        ["lemma", "--functional", "[1, 0, 0]"],
    ], ids=["check", "decompose", "lemma"])
    def test_exit_64(self, conflicted, capsys, argv):
        path, x = conflicted
        assert run(argv + ["--space", self.L2_3, "--samples", path]) == 64
        err = capsys.readouterr().err
        assert f"x = {x} to two different fx" in err and "Traceback" not in err

    def test_identical_repeat_allowed(self, tmp_path):
        samples = tmp_path / "samples.jsonl"
        assert run(["gen", "--space", self.L2_3, "--seed", "1", "--out", str(samples)]) == 0
        lines = samples.read_text().strip().splitlines()
        samples.write_text("\n".join(lines[:5] + [lines[5]] + lines[5:]) + "\n")
        assert run(["decompose", "--space", self.L2_3, "--samples", str(samples),
                    "--seed", "1", "--declare-surjective"]) == 0


class TestOverflowingRows:
    """The identity on l1, n=2 with a row near 1e308 is a phase-isometry, but
    x + y overflows: the table is rejected (exit 64) instead of failing the
    check with NaN discrepancies."""

    L1_2 = '{"kind": "lp", "dim": 2, "p": 1}'

    @pytest.mark.parametrize("argv", [
        ["check"],
        ["decompose", "--declare-surjective"],
        ["lemma", "--functional", "[1, 0]"],
    ], ids=["check", "decompose", "lemma"])
    def test_exit_64(self, tmp_path, capsys, argv):
        samples = tmp_path / "big.jsonl"
        samples.write_text('{"x": [1e308, 1e308], "fx": [1e308, 1e308]}\n'
                           '{"x": [1, 0], "fx": [1, 0]}\n')
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            code = run(argv + ["--space", self.L1_2, "--samples", str(samples),
                               "--out", str(out)])
        assert code == 64 and not out.exists()
        err = capsys.readouterr().err
        assert "x = [1e+308, 1e+308] is too large" in err and "Traceback" not in err

    def test_largest_finite_identity_passes(self, tmp_path):
        samples = tmp_path / "big.jsonl"
        samples.write_text('{"x": [4e307, 4e307], "fx": [4e307, 4e307]}\n'
                           '{"x": [1, 0], "fx": [1, 0]}\n')
        out = tmp_path / "report.json"
        assert run(["check", "--space", self.L1_2, "--samples", str(samples),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())  # plain JSON: no NaN token
        assert report["passed"] and report["pairs"] == 3


class TestLemma:
    def test_recovery_round_trip(self, tmp_path):
        out = tmp_path / "lemma.json"
        code = run(["lemma", "--space", L1_3, "--functional", "[1, 1, 1]",
                    "--oracle-seed", "5", "--seed", "5", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["stabilized_at"] <= 32.0
        assert rec["max_deviation"] <= 1e-8
        assert all(s in (-1, 1) for s in rec["sign_pattern"])

    def test_no_verify_points(self, tmp_path):
        out = tmp_path / "lemma.json"
        code = run(["lemma", "--space", L1_3, "--functional", "[1, 1, 1]", "--normalize",
                    "--oracle-seed", "5", "--verify-points", "0", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["sign_pattern"] == [] and rec["max_deviation"] == 0.0

    def test_not_exposed_exit_4(self):
        code = run(["lemma", "--space", L1_3, "--functional", "[1, 1, 0]",
                    "--oracle-seed", "5"])
        assert code == 4

    def test_rotated_square_facet(self, capsys):
        space = json.dumps({"kind": "polyhedral", "dim": 2, "functionals": [[1, 1], [1, -1]]})
        code = run(["lemma", "--space", space, "--functional", "[1,1]", "--normalize",
                    "--oracle-seed", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["exposing_point"] == [0.5, 0.5]

    def test_non_unit_requires_normalize(self):
        code = run(["lemma", "--space", L1_3, "--functional", "[2, 2, 2]",
                    "--oracle-seed", "5"])
        assert code == 65
        code = run(["lemma", "--space", L1_3, "--functional", "[2, 2, 2]",
                    "--normalize", "--oracle-seed", "5"])
        assert code == 0

    @pytest.mark.parametrize("space", [L1_3, POLY3_SPACE], ids=["lp", "polyhedral"])
    def test_zero_functional_cannot_be_normalized(self, space, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["lemma", "--space", space, "--functional", "[0, 0, 0]",
                        "--normalize", "--oracle-seed", "5"])
        assert code == 64
        assert capsys.readouterr().err.strip() == \
            "error: the functional is zero and cannot be normalized"

    def test_space_near_float_range_warns_nothing(self, capsys):
        """Products overflow on a spec near 1e308; the lemma judges the inf and
        nan they give without a numpy RuntimeWarning on stderr."""
        space = json.dumps({"kind": "polyhedral", "dim": 2,
                            "functionals": [[1e308, 0], [0, 1e308]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["lemma", "--space", space, "--functional", "[1, 0]", "--normalize",
                        "--oracle-seed", "0", "--verify-points", "5"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_tiny_functional_normalizes_by_positive_dual_norm(self, capsys):
        """A polyhedral functional far below 1 keeps its sign: its dual norm is positive."""
        functional = [1e-12, 0.0, 0.0]
        dn = NormSpec.polyhedral(3, POLY3).dual_norm_of(functional)
        assert dn == pytest.approx(1e-12, rel=1e-12)
        code = run(["lemma", "--space", POLY3_SPACE, "--functional", json.dumps(functional),
                    "--normalize", "--oracle-seed", "5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["x_star"] == (np.array(functional) / dn).tolist()
        assert out["x_star"][0] > 0.0

    @pytest.mark.parametrize("k", [-20, -30, 40])
    def test_scaled_polyhedral_facet(self, k, capsys):
        """Both polyhedral LPs run on the spec over its leading power of two, so
        POLY3 scaled by 2^k exposes its row at 2^-k times POLY3's point."""
        def lemma(scale):
            space = json.dumps({"kind": "polyhedral", "dim": 3,
                                "functionals": np.ldexp(POLY3, scale).tolist()})
            code = run(["lemma", "--space", space, "--normalize", "--oracle-seed", "0",
                        "--functional", json.dumps(np.ldexp([1.0, 1.0, 1.0], scale).tolist())])
            assert code == 0
            return json.loads(capsys.readouterr().out)["exposing_point"]
        assert lemma(k) == np.ldexp(lemma(0), -k).tolist()

    def test_rejected_dual_norm_lp_exit_64(self, capsys):
        """Entries that span more orders than the solver keeps: its dual-norm LP
        reads unbounded, so the functional's norm cannot be read."""
        space = json.dumps({"kind": "polyhedral", "dim": 2, "functionals": [[1, 0], [0, 1e-12]]})
        code = run(["lemma", "--space", space, "--functional", "[0, 1]", "--normalize",
                    "--oracle-seed", "0"])
        assert code == 64
        assert capsys.readouterr().err.startswith("numerical error: dual norm LP failed")

    def test_nan_deviation_exit_2(self, capsys):
        space = json.dumps({"kind": "weighted_lp", "dim": 2, "p": "inf",
                            "weights": [1e308, 1e308]})
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["lemma", "--space", space, "--functional", "[1e308, 0]",
                        "--oracle-seed", "0"])
        assert code == 2
        assert "disagree by nan" in capsys.readouterr().err

    @pytest.mark.parametrize("space, functional", [
        (POLY3_SPACE, "[1e308, 1e308, 0]"),
        (L2_2, "[1e308, 1e308]"),
    ], ids=["polyhedral", "lp"])
    def test_overflowing_dual_norm_cannot_be_normalized(self, capsys, space, functional):
        """Dividing by an infinite dual norm would give the zero functional."""
        code = run(["lemma", "--space", space, "--functional", functional,
                    "--normalize", "--oracle-seed", "5"])
        assert code == 64
        assert capsys.readouterr().err.strip() == (
            "error: the dual norm of the functional is not a positive finite number (inf); "
            "it cannot be normalized")


class TestFuzz:
    def test_small_campaign_succeeds(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = run(["fuzz", "--space", L1_3, "--trials", "10", "--seed", "42",
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["successes"] == 10
        assert report["failing_seeds"] == []
        assert report["config"]["rng"]
        assert sum(report["counts"].values()) == report["trials"] == 10
        assert report["config"]["tolerances"]["rel"] == 1e-9

    def test_deterministic_modulo_timing(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert run(["fuzz", "--space", L2_2, "--trials", "5", "--seed", "9",
                        "--out", str(path)]) == 0
            data = json.loads(path.read_text())
            data.pop("timing")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_zero_trials_rejected(self):
        assert run(["fuzz", "--space", L2_2, "--trials", "0", "--seed", "1"]) == 64

    def test_failing_seeds_replay(self, tmp_path):
        # undeclared-surjective oracles make every trial fail reproducibly
        out = tmp_path / "fail.json"
        code = run(["fuzz", "--space", L2_2, "--trials", "4", "--seed", "3",
                    "--uneven", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert len(report["failing_seeds"]) == 4
        again = tmp_path / "fail2.json"
        run(["fuzz", "--space", L2_2, "--trials", "4", "--seed", "3",
             "--uneven", "--out", str(again)])
        assert json.loads(again.read_text())["failing_seeds"] == report["failing_seeds"]


class TestTolerancePlumbing:
    def test_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PHASE_TOL", "1e-3")
        code = run(["ortho", "--space", L2_2, "--x", "[1, 0]", "--y", "[0, 1]"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["tolerances"]["rel"] == 1e-3

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("PHASE_TOL", "1e-3")
        code = run(["ortho", "--space", L2_2, "--x", "[1, 0]", "--y", "[0, 1]",
                    "--tol", "1e-6"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["tolerances"]["rel"] == 1e-6


class TestInputValidation:
    """Bad tolerances and space descriptions exit 64 with a message, no traceback."""

    @pytest.fixture
    def shifted(self, tmp_path):
        samples = tmp_path / "shift.jsonl"
        samples.write_text('{"x": [1.0, 0.0], "fx": [3.0, 0.0]}\n')
        return str(samples)

    def expect_rejected(self, argv, capsys, needle):
        assert run(argv) == 64
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
    def test_bad_tol_flag(self, shifted, capsys, tol):
        self.expect_rejected(["check", "--space", L2_2, "--samples", shifted, f"--tol={tol}"],
                             capsys, "finite and > 0")

    def test_bad_phase_tol(self, shifted, capsys, monkeypatch):
        monkeypatch.setenv("PHASE_TOL", "inf")
        self.expect_rejected(["check", "--space", L2_2, "--samples", shifted],
                             capsys, "finite and > 0")

    @pytest.mark.parametrize("space,needle", [
        ('{"kind": "lp", "dim": 2}', "exponent p"),
        ('{"kind": "lp", "dim": 2, "p": NaN}', "p must"),
        ('{"kind": "weighted_lp", "dim": 2, "p": 1, "weights": [1.0, Infinity]}', "finite"),
        ('{"kind": "weighted_lp", "dim": 2, "p": 1, "weights": [1.0, NaN]}', "finite"),
        ('{"kind": "lp", "dim": "2", "p": true}', "dim must be an integer"),
        ('{"kind": "lp", "dim": 2.7, "p": 2}', "dim must be an integer"),
        ('{"kind": "lp", "dim": 2, "p": true}', "p must be a number"),
    ], ids=["missing-p", "nan-p", "inf-weight", "nan-weight", "string-dim", "fractional-dim",
            "bool-p"])
    def test_bad_space(self, shifted, capsys, space, needle):
        self.expect_rejected(["check", "--space", space, "--samples", shifted], capsys, needle)

    def test_space_file_not_an_object(self, shifted, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text("[1, 2]")
        self.expect_rejected(["check", "--space", str(path), "--samples", shifted],
                             capsys, "JSON object")

    @pytest.mark.parametrize("argv", [
        ["check", "--space", L2_2],
        ["decompose", "--space", L2_2, "--declare-surjective"],
        ["lemma", "--space", L2_2, "--functional", "[1, 0]"],
    ], ids=["check", "decompose", "lemma"])
    def test_missing_samples_file(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "absent.jsonl")
        self.expect_rejected(argv + ["--samples", missing], capsys, "cannot read samples")

    @pytest.mark.parametrize("argv,flag", [
        (["check", "--space", L2_2, "--samples", "{samples}", "--max-pairs", "-1"],
         "--max-pairs"),
        (["lemma", "--space", L1_3, "--functional", "[1, 1, 1]", "--oracle-seed", "5",
          "--verify-points", "-2"], "--verify-points"),
    ], ids=["max-pairs", "verify-points"])
    def test_negative_counts(self, shifted, capsys, argv, flag):
        argv = [a.replace("{samples}", shifted) for a in argv]
        self.expect_rejected(argv, capsys, f"{flag} must be >= 0")

    def test_negative_extra_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "samples.jsonl"
        self.expect_rejected(["gen", "--space", L2_2, "--extra", "-3", "--out", str(out)],
                             capsys, "--extra must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ortho", "--space", L2_2, "--x", "[1, 0]", "--y"],
        ["ortho", "--space", L2_2, "--x", "[1, 0]", "--y", "[0, 1]", "--bogus"],
        ["decompose", "--space", L2_2, "--seed", "one"],
        ["no-such-command"],
        ["ortho", "--space", L2_2, "--x", "[1, 0]", "--y", "[0, 1]", "--seed", "1"],
    ], ids=["missing-value", "unknown-flag", "non-integer-seed", "unknown-command",
            "ortho-seed"])
    def test_usage_errors_exit_64(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert "usage:" in capsys.readouterr().err

    def test_gen_even_flag_removed(self, tmp_path, capsys):
        # line-constant signs are the default; --uneven is the only sign switch
        out = tmp_path / "s.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--space", L2_2, "--out", str(out), "--even"])
        assert exc.value.code == 64
        assert "--even" in capsys.readouterr().err
        assert not out.exists()

    def test_route_choices_are_the_engine_routes(self):
        choices = {}
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for name, parser in sub.choices.items():
            for action in parser._actions:
                if action.dest == "route":
                    choices[name] = tuple(action.choices)
        assert choices == {name: ROUTES for name in ("decompose", "gen", "fuzz")}

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ortho", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_bare_scalar_is_a_vector_in_dimension_1(self, capsys):
        line = '{"kind": "lp", "dim": 1, "p": 2}'
        assert run(["ortho", "--space", line, "--x=-1e-3", "--y=1"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["x"] == [-1e-3] and verdict["y"] == [1.0]

    @pytest.mark.parametrize("argv", [
        ["ortho", "--space", L2_2, "--x=-1e-3", "--y", "[0, 1]"],
        ["lemma", "--space", L2_2, "--functional", "1", "--normalize", "--oracle-seed", "1"],
    ], ids=["ortho", "lemma"])
    def test_bare_scalar_rejected_above_dimension_1(self, capsys, argv):
        self.expect_rejected(argv, capsys, "only in dimension 1")

    def test_exit_code_follows_the_error_type(self, monkeypatch, shifted):
        """Only DimensionMismatch exits 65; message text does not pick the code."""
        def raising(exc):
            def cmd(args):
                raise exc
            return cmd

        argv = ["check", "--space", L2_2, "--samples", shifted]
        monkeypatch.setattr(cli, "cmd_check", raising(ValueError("negative dimensions")))
        assert run(argv) == 64
        monkeypatch.setattr(cli, "cmd_check", raising(DimensionMismatch("shape (3,)")))
        assert run(argv) == 65


class TestWriteFailures:
    """An output under a missing directory exits 64 and names the path, with no traceback."""

    @pytest.fixture
    def unwritable(self, tmp_path):
        return str(tmp_path / "missing" / "out.json")

    def expect_64(self, argv, path, capsys):
        assert run(argv) == 64
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["ortho", "--space", L2_2, "--x", "[1, 0]", "--y", "[0, 1]"],
        ["decompose", "--space", L2_2, "--oracle-seed", "1", "--declare-surjective"],
        ["lemma", "--space", L2_2, "--functional", "[1, 0]", "--oracle-seed", "1"],
        ["gen", "--space", L2_2, "--extra", "2"],
        ["fuzz", "--space", L2_2, "--trials", "1"],
    ], ids=["ortho", "decompose", "lemma", "gen", "fuzz"])
    def test_out(self, argv, unwritable, capsys):
        self.expect_64(argv + ["--out", unwritable], unwritable, capsys)

    def test_passing_check_does_not_exit_1(self, generated, unwritable, capsys):
        samples, _ = generated
        self.expect_64(["check", "--space", L1_3, "--samples", str(samples),
                        "--max-pairs", "50", "--out", unwritable], unwritable, capsys)

    def test_gen_hidden(self, tmp_path, unwritable, capsys):
        samples = tmp_path / "s.jsonl"
        self.expect_64(["gen", "--space", L2_2, "--extra", "2", "--out", str(samples),
                        "--hidden", unwritable], unwritable, capsys)
        assert samples.exists()

    @pytest.mark.parametrize("rows,code,prefix", [
        ("plan", 2, "not decomposable"), ("two", 3, "sample table incomplete"),
    ], ids=["not-decomposable", "missing-probes"])
    def test_failure_payload_keeps_the_run_code(self, tmp_path, unwritable, capsys,
                                                rows, code, prefix):
        # the curve t -> (t, sin t) is not a phase-isometry, and two rows miss the plan
        plan = plan_queries(NormSpec.lp(1, 2), "one_dim", 0)
        ts = sorted({float(p[0]) for p in plan.all_points()}) if rows == "plan" else [0.0, 1.0]
        table = tmp_path / "curve.jsonl"
        table.write_text("".join(json.dumps({"x": [t], "fx": [t, math.sin(t)]}) + "\n"
                                 for t in ts))
        assert run(["decompose", "--space", TestCodomainTables.LINE, "--codomain",
                    TestCodomainTables.PLANE, "--samples", str(table), "--seed", "0",
                    "--force", "--out", unwritable]) == code
        err = capsys.readouterr().err
        assert f"{prefix}: " in err and "cannot write output: " in err
        assert unwritable in err and "Traceback" not in err


class TestFailureTable:
    """``cli._FAILURES`` decides how every failing run ends."""

    def test_no_row_is_shadowed(self):
        for k, (exc_type, *_) in enumerate(cli._FAILURES):
            shadows = [row[0] for row in cli._FAILURES[:k] if issubclass(exc_type, row[0])]
            assert not shadows, (exc_type, shadows)

    def test_codes_are_the_documented_ones(self):
        doc = cli.__doc__.split("Exit codes:")[1].split("\n\n")[0]
        documented = {int(part.split()[0]) for part in doc.split(";")}
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        in_readme = {int(c) for c in re.findall(
            r"`(\d+)`", readme.split("Exit codes:")[1].split("dimension\nmismatch.")[0])}
        codes = {code for _, code, _, _ in cli._FAILURES} | {cli.EXIT_OK, cli.EXIT_CHECK_FAILED}
        assert codes == documented == in_readme

    @pytest.mark.parametrize("exc", [
        RouteUnsupported("no route for this space"),
        NoStabilization("the schedule did not settle"),
        SmoothnessFailure("a kink at t = 4", 4.0),
    ], ids=lambda exc: type(exc).__name__)
    def test_route_errors_share_one_row(self, exc, monkeypatch, capsys):
        def cmd(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_decompose", cmd)
        assert run(["decompose", "--space", L2_2, "--oracle-seed", "1"]) == 3
        assert capsys.readouterr().err == f"route error: {exc}\n"


def _fresh_python(probe: str, *argv: str, cwd=None) -> str:
    """stdout of ``probe`` run by a fresh interpreter that imports phaseiso from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env={"PYTHONPATH": src},
                          cwd=cwd, capture_output=True, text=True, check=True)
    return proc.stdout


class TestScipyOnDemand:
    """``import phaseiso`` loads numpy alone; ``scipy.optimize`` is imported by the
    first polyhedral LP (dual norm or exposed-point test), which only that needs."""

    def test_startup_imports_no_scipy(self):
        probe = ("import json, sys\n"
                 "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                 "import phaseiso\n"
                 "after_package = loaded()\n"
                 "import phaseiso.cli\n"
                 "after_cli = loaded()\n"
                 "from phaseiso import NormSpec, is_w_star_exposed\n"
                 f"space = NormSpec.polyhedral(3, {POLY3})\n"
                 "dn = space.dual_norm_of([0.3, -1.2, 0.5])\n"
                 "ex = is_w_star_exposed(space.functional([1.0, 1.0, 1.0]))\n"
                 "print(json.dumps([after_package, after_cli, 'scipy.optimize' in sys.modules,\n"
                 "                  dn, ex.exposed, ex.point.coords.tolist()]))\n")
        after_package, after_cli, optimize, dn, exposed, point = json.loads(_fresh_python(probe))
        assert after_package == [] and after_cli == []
        assert optimize
        space = NormSpec.polyhedral(3, POLY3)
        assert dn == space.dual_norm_of([0.3, -1.2, 0.5])
        ex = is_w_star_exposed(space.functional([1.0, 1.0, 1.0]))
        assert exposed is ex.exposed is True
        assert point == ex.point.coords.tolist()

    @pytest.mark.parametrize("space", [
        L1_3, '{"kind": "lp", "dim": 3, "p": 2}', LINF_4,
        '{"kind": "weighted_lp", "dim": 3, "p": 1.5, "weights": [1, 2, 0.5]}',
    ], ids=["l1_n3", "l2_n3", "linf_n4", "weighted_l1.5_n3"])
    def test_theorem_routes_run_without_scipy(self, space, tmp_path, monkeypatch):
        runs = [
            ["gen", "--space", space, "--seed", "3", "--out", "s.jsonl", "--hidden", "t.json"],
            ["decompose", "--space", space, "--samples", "s.jsonl", "--seed", "3",
             "--declare-surjective", "--out", "c.json"],
            ["check", "--space", space, "--samples", "s.jsonl", "--max-pairs", "300",
             "--out", "r.json"],
        ]
        probe = ("import json, sys\n"
                 "sys.modules['scipy'] = None\n"
                 "from phaseiso.cli import main\n"
                 "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
        blocked, free = tmp_path / "blocked", tmp_path / "free"
        blocked.mkdir()
        free.mkdir()
        assert json.loads(_fresh_python(probe, json.dumps(runs), cwd=blocked)) == [0, 0, 0]
        monkeypatch.chdir(free)
        assert [main(argv) for argv in runs] == [0, 0, 0]
        names = ["s.jsonl", "t.json", "c.json", "r.json"]
        assert [(blocked / n).read_bytes() for n in names] == [(free / n).read_bytes() for n in names]


class TestCachedParser:
    """``main`` parses with one parser per process, built on its first call, and
    runs each subcommand as the ``cmd_*`` it finds in the module at that call."""

    def test_not_built_at_import(self):
        probe = ("import argparse\n"
                 "built = []\n"
                 "init = argparse.ArgumentParser.__init__\n"
                 "argparse.ArgumentParser.__init__ = "
                 "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
                 "import phaseiso.cli\n"
                 "print(len(built))\n")
        assert _fresh_python(probe).strip() == "0"

    def test_same_runs_as_a_fresh_parser(self, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        runs = [
            ["gen", "--space", L1_3, "--seed", "5", "--extra", "3", "--out", str(samples)],
            ["decompose", "--space", L1_3, "--samples", str(samples), "--seed", "5",
             "--declare-surjective"],
            ["check", "--space", L1_3, "--samples", str(samples), "--max-pairs", "40"],
            ["ortho", "--space", L2_2, "--x", "[1, 0]", "--y", "[0, 1]"],
            ["lemma", "--space", L2_2, "--functional", "[1, 0]", "--oracle-seed", "1",
             "--verify-points", "3"],
            ["check", "--space", L2_2, "--samples", str(samples)],
            ["decompose", "--space", L2_2, "--route", "nope"],
        ]

        def outcomes(fresh):
            got = []
            for argv in runs:
                if fresh:
                    cli._parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
                got.append((code, *capsys.readouterr(), samples.read_bytes()))
            return got

        cached = outcomes(fresh=False)
        assert [code for code, *_ in cached] == [0, 0, 0, 0, 0, 65, ("exit", 64)]
        assert outcomes(fresh=True) == cached
        for argv in runs[:-1]:
            assert vars(cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))

    def test_patch_after_first_call_takes_effect(self, tmp_path, monkeypatch):
        argv = ["gen", "--space", L2_2, "--extra", "1", "--out", str(tmp_path / "s.jsonl")]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_gen", lambda args: seen.append(args.out) or 7)
        assert main(argv) == 7
        assert seen == [argv[-1]]

    def test_help_then_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ortho", "--help"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            main(["ortho", "--space", L2_2, "--x", "[1, 0]"])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert "usage:" in out and "--y" in err
        assert main(["ortho", "--space", L2_2, "--x", "[1, 0]", "--y", "[0, 1]"]) == 0
