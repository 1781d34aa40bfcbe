"""Parameter derivation and domain membership."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from a1embed import (
    DegenerateParamsError,
    DomainError,
    clamp_omega,
    in_omega,
    in_omega_b,
    new_params,
    osekowski_p_max,
)
from a1embed.params import at_least

# reference values computed once with 40-digit arithmetic
EPS_10_2 = 0.056237364629206283
EPS_2_1 = 0.41503749927884382
EPS_100_3 = 0.004226378023582086
EPS_5_3 = 0.09251132517630297
PMAX_10_2 = 1.0595884627357717
PMAX_3_3 = 1.1988010356736314


def test_derived_constants_q10_d2():
    p = new_params(10.0, 2)
    assert p.N == 4
    assert p.eta == 0.925  # 1 - 3/40 rounds to the same double as the literal
    assert p.epsilon == pytest.approx(EPS_10_2, rel=1e-14)
    assert not p.degenerate


def test_derived_constants_other_params():
    assert new_params(2.0, 1).eta == 0.75
    assert new_params(2.0, 1).epsilon == pytest.approx(EPS_2_1, rel=1e-14)
    assert new_params(100.0, 3).epsilon == pytest.approx(EPS_100_3, rel=1e-14)
    p53 = new_params(5.0, 3)
    assert p53.eta == pytest.approx(0.825, rel=1e-15)
    assert p53.epsilon == pytest.approx(EPS_5_3, rel=1e-14)


def test_eta_epsilon_inverse_pair():
    for Q, d in [(10.0, 2), (2.0, 1), (5.0, 3), (100.0, 3), (1.5, 4)]:
        p = new_params(Q, d)
        assert p.N ** (-p.epsilon) == pytest.approx(p.eta, rel=1e-14)


def test_degenerate_flag():
    p = new_params(1.0, 2)
    assert p.degenerate
    assert p.eta == pytest.approx(1 / p.N)
    assert p.epsilon == pytest.approx(1.0)
    with pytest.raises(DegenerateParamsError):
        osekowski_p_max(p)


def test_param_validation():
    with pytest.raises(ValueError):
        new_params(0.5, 2)
    with pytest.raises(ValueError):
        new_params(10.0, 0)
    with pytest.raises(ValueError):
        new_params(10.0, 21)
    with pytest.raises(ValueError):
        new_params(float("inf"), 2)
    with pytest.raises(ValueError):
        new_params(10.0, 2.5)
    with pytest.raises(ValueError, match="Q must be a finite number"):
        new_params(True, 2)


def test_p_max_reference_values():
    assert osekowski_p_max(new_params(10.0, 2)) == pytest.approx(PMAX_10_2, rel=1e-14)
    assert osekowski_p_max(new_params(3.0, 3)) == pytest.approx(PMAX_3_3, rel=1e-14)


def test_p_max_identities(p102):
    # N^{1/p_max} = N*eta and 1 - 1/p_max = epsilon, both exact up to rounding
    pm = osekowski_p_max(p102)
    assert p102.N ** (1.0 / pm) == pytest.approx(p102.N * p102.eta, rel=1e-14)
    assert 1.0 - 1.0 / pm == pytest.approx(p102.epsilon, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    Q=st.floats(min_value=1.001, max_value=1e6, allow_nan=False),
    d=st.integers(min_value=1, max_value=20),
)
def test_p_max_epsilon_identity_random(Q, d):
    p = new_params(Q, d)
    assert abs(1.0 - 1.0 / osekowski_p_max(p) - p.epsilon) <= 1e-12 * max(1.0, p.epsilon)


def test_in_omega(p102):
    assert in_omega(p102, 0.5, 5.5)
    assert in_omega(p102, 0.0, 1.0)
    assert in_omega(p102, 1.0, 10.0)
    assert not in_omega(p102, 1.1, 5.0)
    assert not in_omega(p102, 0.5, 10.5)
    assert not in_omega(p102, 0.5, 0.9)
    assert not in_omega(p102, float("nan"), 5.0)


def test_clamp_omega(p102):
    assert clamp_omega(p102, 0.5, 5.5) == (0.5, 5.5)
    assert clamp_omega(p102, -1e-13, 1 - 1e-13) == (0.0, 1.0)
    assert clamp_omega(p102, 1 + 1e-13, 10 + 1e-13) == (1.0, 10.0)
    x, _ = clamp_omega(p102, -0.0, 5.0)
    assert math.copysign(1.0, x) == 1.0       # -0.0 comes back as 0.0
    for x, y in ((1.1, 5.0), (0.5, 10.5), (0.5, 0.9), (float("nan"), 5.0),
                 (-1e-11, 5.0)):
        with pytest.raises(DomainError, match="outside the domain"):
            clamp_omega(p102, x, y)


def test_in_omega_b(p102):
    assert in_omega_b(p102, 0.5, 11.0, 2.0)
    assert in_omega_b(p102, 0.5, 20.0, 2.0)
    assert not in_omega_b(p102, 0.5, 20.5, 2.0)
    assert not in_omega_b(p102, 0.5, 1.9, 2.0)
    assert not in_omega_b(p102, 0.5, 5.0, 0.0)


def test_at_least_is_absolute_below_one_and_relative_above():
    assert at_least(0.5, 0.5 + 1e-9)
    assert not at_least(0.5, 0.5 + 2e-9)
    assert at_least(1e9, 1e9 + 1.0)
    assert not at_least(1e9, 1e9 + 2.0)
    assert at_least(-1e9, 1.0 - 1e9)              # sizes, not signs
    assert at_least(3.0, 3.5, tol=0.5) and not at_least(3.0, 3.5, tol=0.0)
    assert not at_least(1.0, math.nan)
    # the caller's slack is judged, not lhs - rhs
    assert at_least(1e9, 1e9, slack=-1.0) and not at_least(1e9, 1e9, slack=-2.0)
    assert at_least(2.0, 1.0) is True and at_least(1.0, 2.0) is False
    # an infinite side makes -tol * inf, which no slack may meet
    assert at_least(10.0, math.inf) is False
    assert at_least(-math.inf, 1.0) is False
    assert at_least(1.0, 2.0, slack=-math.inf) is False
    assert at_least(math.inf, 1.0) is True and not at_least(math.inf, math.inf)


def test_at_least_judges_arrays_row_by_row():
    lhs, rhs = np.array([0.5, 1e9, 5.0]), np.array([0.5 + 1e-9, 1e9 + 1.0, 1.0])
    assert at_least(lhs, rhs).tolist() == [True, True, True]
    rhs[1] += 2.0
    assert at_least(lhs, rhs).tolist() == [True, False, True]
    slack = lhs - rhs
    assert (at_least(lhs, rhs, slack=slack) == at_least(lhs, rhs)).all()
    lhs, rhs = np.array([1.0, -math.inf, math.inf]), np.array([math.inf, 1.0, 1.0])
    assert at_least(lhs, rhs).tolist() == [False, False, True]
