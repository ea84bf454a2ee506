import math

import pytest

from ivfuse.errors import ConfigError
from ivfuse.gradcheck import COMPONENTS, CheckResult, run_gradient_checks

OP_COMPONENTS = ["conv2d", "relu", "concat_channels",
                 "narrow", "elementwise", "sqrt_abs"]


def test_op_adjoints_match_finite_differences_20_seeds():
    # module invariant: every op's backward agrees with central
    # differences at 1e-4 over 20 seeds (64-bit, small tensors)
    results = run_gradient_checks(seed=0, n_seeds=20,
                                  components=OP_COMPONENTS)
    for r in results:
        assert r.passed, r.line()


def test_component_registry_covers_losses_and_pipeline():
    for name in ("pixel_loss", "ssim_loss", "avg_gradient",
                 "composite_literal", "composite_sharpness", "pipeline"):
        assert name in COMPONENTS


def test_check_result_line_format():
    line = CheckResult("conv2d", 3e-7).line()
    assert "conv2d" in line
    assert "PASS" in line
    assert CheckResult("conv2d", 3e-3).line().endswith("FAIL")


def test_checks_are_deterministic():
    a = run_gradient_checks(seed=5, n_seeds=2, components=["relu", "conv2d"])
    b = run_gradient_checks(seed=5, n_seeds=2, components=["relu", "conv2d"])
    assert [(r.name, r.worst_rel_err) for r in a] == \
        [(r.name, r.worst_rel_err) for r in b]


def test_tolerance_is_configurable():
    results = run_gradient_checks(seed=0, n_seeds=1, components=["relu"],
                                  tolerance=1e-15)
    assert not results[0].passed  # even roundoff fails a zero tolerance


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_no_seeds_is_a_config_error(n_seeds):
    # zero seeds would check nothing and report every component as passed
    with pytest.raises(ConfigError, match="n_seeds"):
        run_gradient_checks(n_seeds=n_seeds, components=["relu"])


@pytest.mark.parametrize("arg, value", [
    ("h", 0.0), ("h", -1e-5), ("h", math.nan), ("h", math.inf),
    ("tolerance", 0.0), ("tolerance", -1e-4), ("tolerance", math.nan),
    ("tolerance", math.inf)])
def test_step_and_tolerance_must_be_finite_and_positive(monkeypatch, arg,
                                                        value):
    # a NaN step read every relu and elementwise check as 0 and passed it;
    # a zero or negative step failed only once the run had started
    def no_check(rng, h):
        raise AssertionError("a check ran")

    monkeypatch.setitem(COMPONENTS, "relu", no_check)
    with pytest.raises(ConfigError, match=f"{arg} must be finite and > 0"):
        run_gradient_checks(n_seeds=1, components=["relu"], **{arg: value})


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed"):
        run_gradient_checks(seed=-1, n_seeds=1, components=["relu"])


def test_unknown_component_is_a_config_error_before_any_check(monkeypatch):
    def no_check(rng, h):
        raise AssertionError("a check ran")

    monkeypatch.setitem(COMPONENTS, "relu", no_check)
    with pytest.raises(ConfigError, match=r"\['nope'\].*known: conv2d, relu"):
        run_gradient_checks(n_seeds=1, components=["relu", "nope"])


def _stub(errors):
    def check(rng, h):
        yield from errors
    return check


def test_a_nan_error_fails_its_component(monkeypatch):
    # max(1e-12, nan) is 1e-12: the fold must not let the NaN drop out
    monkeypatch.setitem(COMPONENTS, "relu", _stub([1e-12, math.nan]))
    (result,) = run_gradient_checks(n_seeds=2, components=["relu"])
    assert math.isnan(result.worst_rel_err)
    assert not result.passed
    assert "worst rel err nan" in result.line()
    assert result.line().endswith("FAIL")


def test_the_worst_error_of_every_check_and_seed_is_reported(monkeypatch):
    monkeypatch.setitem(COMPONENTS, "relu", _stub([1e-12, 2e-12]))
    (result,) = run_gradient_checks(n_seeds=3, components=["relu"])
    assert result.worst_rel_err == 2e-12
    assert type(result.worst_rel_err) is float
    assert result.passed
