"""The failure paths of ``schreierkit verify``: a case whose library call is
broken must be reported as a failure with its witness, and the run goes on."""

from fractions import Fraction

import pytest

from schreierkit import interpolation, norms
from schreierkit import families as fam
from schreierkit.cli import main
from schreierkit.verify import run_suites

SEED = 12345


def _plus_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def _negated(fn):
    return lambda *args, **kwargs: -fn(*args, **kwargs)


def _fixed_bracket(prob):
    # -1 everywhere: wrong on a unit vector, not homogeneous, not subadditive
    return interpolation.GaugeBracket(Fraction(-1), Fraction(-1), prob.level)


def _field_plus_one(field):
    def wrap(fn):
        def call(*args, **kwargs):
            res = fn(*args, **kwargs)
            return res._replace(**{field: getattr(res, field) + 1})

        return call

    return wrap


# property id -> (module, name, replacement built from the original)
BREAKS = {
    "norms.f_norm_example": (norms, "f_norm", _plus_one),
    "norms.f_norm_brute": (norms, "f_norm", _plus_one),
    "norms.axioms": (norms, "f_norm", _plus_one),
    "norms.trace_sufficiency": (fam, "trace", lambda fn: lambda family, m: fam.Family([()])),
    "norms.block_dp_brute": (norms, "block_p_norm_power", _plus_one),
    "norms.block_lower_bound": (norms, "block_p_norm_power", _negated),
    "norms.eps_support_identity": (norms, "eps_support_family", lambda fn: lambda *a: fam.Family([()])),
    "norms.uniform_weak_bound": (norms, "uniform_weak_bound", _plus_one),
    "norms.spreading_lp": (norms, "spreading_constant", _field_plus_one("value")),
    "norms.cesaro_profile": (norms, "cesaro_profile", lambda fn: lambda *a: fn(*a)[::-1]),
    "interp.gauge_unit_vector": (interpolation, "dfjp_gauge", lambda fn: _fixed_bracket),
    "interp.homogeneity": (interpolation, "dfjp_gauge", lambda fn: _fixed_bracket),
    "interp.subadditivity": (interpolation, "dfjp_gauge", lambda fn: _fixed_bracket),
    "interp.inner_duality": (interpolation, "inner_distance", _field_plus_one("objective")),
}


def _cases(suite):
    return {c.property_id: c for c in run_suites(SEED, [suite]).cases}


def test_every_norms_and_interp_case_is_broken_by_one_patch():
    assert set(BREAKS) == set(_cases("norms")) | set(_cases("interp"))


def test_a_case_that_raises_fails_and_the_rest_still_run(monkeypatch):
    def boom(*args, **kwargs):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(norms, "cesaro_profile", boom)
    cases = _cases("norms")
    broken = cases.pop("norms.cesaro_profile")
    assert broken.verdict == "fail"
    assert broken.witness == "exception: ArithmeticError('broken on purpose')"
    assert len(cases) == 9 and all(c.verdict == "pass" for c in cases.values())


@pytest.mark.parametrize("property_id", sorted(BREAKS))
def test_a_broken_property_fails_with_a_witness(monkeypatch, property_id):
    module, name, replace = BREAKS[property_id]
    monkeypatch.setattr(module, name, replace(getattr(module, name)))
    case = _cases(property_id.split(".")[0])[property_id]
    assert case.verdict == "fail"
    assert case.witness and not case.witness.startswith("exception:"), case.witness


def test_cli_verify_exits_1_when_a_norms_case_fails(monkeypatch, capsys):
    assert main(["verify", "--suite", "norms"]) == 0
    monkeypatch.setattr(norms, "f_norm", _plus_one(norms.f_norm))
    assert main(["verify", "--suite", "norms"]) == 1
    assert ",norms.f_norm_example," in capsys.readouterr().out
