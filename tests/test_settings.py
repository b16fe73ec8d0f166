"""The tolerance record: ``rel`` is its one setting, and its report keeps
the seven keys every certificate and fuzz report embeds."""

import dataclasses
import json

import pytest

from phaseiso import DEFAULT_TOL, Tolerances

REPORTED = {"rel": 1e-9, "fd": 1e-6, "boundary": 1e-9, "collinearity": 1e-8,
            "stabilization": 1e-9, "tie": 1e-9, "functional": 1e-8}


def test_rel_is_the_only_field():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["rel"]


@pytest.mark.parametrize("name", [n for n in REPORTED if n != "rel"])
def test_fixed_thresholds_are_not_settable(name):
    with pytest.raises(TypeError):
        Tolerances(**{name: 1e-3})
    assert getattr(Tolerances(1e-3), name) == REPORTED[name]


def test_report_keeps_its_seven_keys():
    assert json.dumps(DEFAULT_TOL.to_dict()) == json.dumps(REPORTED)
    assert Tolerances(1e-7).to_dict() == {**REPORTED, "rel": 1e-7}


@pytest.mark.parametrize("rel", [0.0, -1e-9, float("nan"), float("inf")])
def test_rel_must_be_finite_and_positive(rel):
    with pytest.raises(ValueError, match=f"^tolerance 'rel' must be finite and > 0, got {rel}$"):
        Tolerances(rel)
