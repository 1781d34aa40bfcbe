"""Closed-form evaluation of the extremal bound.

The boundary profile f is piecewise linear with breakpoints at x = N^-k:

    f(N^-k) = Q eta^k,   slope (N eta)^k on (N^-(k-1), N^-k),   f(0) = 0,

and f_smooth(x) = Q x^epsilon is its concave majorant, touching exactly at
the breakpoints.  The two-variable bound on {0 <= x <= 1, 1 <= y <= Q} is

    M(x, y) = x + y - 1                                 below y = 1 + (Q-1)x,
    M(x, y) = ((y-1)/(Q-1)) f(x (Q-1)/(y-1))            above it,

both branches agreeing (= Qx) on the dividing line, and the three-variable
version is recovered by scaling: B(x, y, m) = m M(x, y/m).

Interval classification never goes through log(): x is scaled by exact
powers of two (frexp/ldexp), so a breakpoint is never misassigned and the
evaluation of f stays exact-in-structure down to subnormal x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import (
    BOUNDARY_TOL,
    DegenerateParamsError,
    DomainError,
    Params,
    clamp_omega,
    in_omega_b,
    node_scale,
)


def _interval_index(p: Params, x: float) -> tuple[int, float]:
    """Return (k, s) with s = x N^k in (1/N, 1], i.e. x in (N^-(k+1), N^-k].

    frexp gives x = m 2^e with m in [1/2, 1), so k = max(0, floor(-e/d))
    puts s in [1/N, 1) for 0 < x < 1, and s = 1 at x = 1; only s = 1/N, a
    breakpoint, takes one step up.  The scaling is by powers of two only,
    hence exact; breakpoints land exactly at s = 1.
    """
    _, e = math.frexp(x)
    k = max(0, (-e) // p.d)
    s = math.ldexp(x, p.d * k)
    if s <= 1.0 / p.N:
        k += 1
        s = math.ldexp(x, p.d * k)
    return k, s


def eval_f(p: Params, x: float) -> float:
    """Piecewise-linear boundary profile at x in [0, 1]."""
    if p.degenerate:
        raise DegenerateParamsError("boundary profile needs Q > 1")
    if not (math.isfinite(x) and -BOUNDARY_TOL <= x <= 1 + BOUNDARY_TOL):
        raise DomainError(f"x = {x!r} outside [0, 1]")
    if x <= 0:
        return 0.0
    if x >= 1:
        return p.Q
    k, s = _interval_index(p, x)
    return math.pow(p.eta, k) * (p.Q - 1 + s)


def eval_f_smooth(p: Params, x: float) -> float:
    """Concave majorant Q x^epsilon; agrees with eval_f at every x = N^-k."""
    if p.degenerate:
        raise DegenerateParamsError("boundary profile needs Q > 1")
    if not (math.isfinite(x) and -BOUNDARY_TOL <= x <= 1 + BOUNDARY_TOL):
        raise DomainError(f"x = {x!r} outside [0, 1]")
    if x <= 0:
        return 0.0
    if x >= 1:
        return p.Q
    return p.Q * math.pow(x, p.epsilon)


@dataclass(frozen=True)
class BranchInfo:
    """Which closed-form branch applied at a point, for reporting."""

    branch: str                 # "lower" or "upper"
    k: Optional[int] = None     # interval index of x(Q-1)/(y-1) on the upper branch
    at_node: bool = False       # scaled coordinate hit a breakpoint exactly

    def describe(self) -> str:
        if self.branch == "lower":
            return "lower branch (y <= 1 + (Q-1)x)"
        tag = f"node k={self.k}" if self.at_node else f"interval k={self.k}"
        return f"upper branch, {tag}"


def _on_lower_branch(p: Params, x, y):
    """y <= 1 + (Q-1)x, up to BOUNDARY_TOL; elementwise on arrays."""
    return y <= 1 + (p.Q - 1) * x + BOUNDARY_TOL


def eval_M(p: Params, x: float, y: float) -> float:
    """Normalized bound M(x, y) on {0 <= x <= 1, 1 <= y <= Q}."""
    x, y = clamp_omega(p, x, y)
    if _on_lower_branch(p, x, y):
        return x + y - 1
    u = min(x * (p.Q - 1) / (y - 1), 1.0)
    return (y - 1) / (p.Q - 1) * eval_f(p, u)


def classify_point(p: Params, x: float, y: float) -> BranchInfo:
    """Report the branch/interval eval_M uses at (x, y); same domain clamp."""
    x, y = clamp_omega(p, x, y)
    if _on_lower_branch(p, x, y):
        return BranchInfo("lower")
    u = min(x * (p.Q - 1) / (y - 1), 1.0)
    if u <= 0:
        return BranchInfo("upper", k=None, at_node=False)
    k, s = _interval_index(p, u)
    return BranchInfo("upper", k=k, at_node=abs(s - 1.0) <= BOUNDARY_TOL)


def eval_B(p: Params, x: float, y: float, m: float) -> float:
    """Unnormalized bound B(x, y, m) = m M(x, y/m) on {0 < m <= y <= Q m}."""
    if not in_omega_b(p, x, y, m):
        raise DomainError(
            f"({x!r}, {y!r}, {m!r}) outside the domain for Q = {p.Q}"
        )
    if p.degenerate:
        # only y = m survives the constraint chain; the bound collapses
        return m * min(max(x, 0.0), 1.0)
    # in_omega_b's tolerance on y/m is relative, wider than eval_M's
    return m * eval_M(p, x, min(max(y / m, 1.0), p.Q))


# ---------------------------------------------------------------------------
# supporting wedges

@dataclass(frozen=True)
class WedgeCoeffs:
    """Coefficients of the k-th tangent plane a x + b (y - 1)."""

    k: int
    a: float        # (N eta)^k
    b: float        # eta^k


def wedge_coeffs(p: Params, k: int) -> WedgeCoeffs:
    if p.degenerate:
        raise DegenerateParamsError("wedges need Q > 1")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    try:
        a = math.pow(p.N * p.eta, k)
    except OverflowError:
        raise DomainError(f"wedge slope (N eta)^{k} overflows a float") from None
    return WedgeCoeffs(k=k, a=a, b=math.pow(p.eta, k))


def wedge_Mk(p: Params, k: int, x: float, y: float) -> float:
    """Two-plane majorant of M built from tangent planes k-1 and k.

    The planes cross on the line y = 1 + (Q-1) N^k x, so the wedge takes
    plane k-1 inside that region and plane k outside it; this keeps the
    wedge continuous and everywhere >= M.  k = 0 is the single plane
    x + (y - 1).  The checked scalar face of _wedge_vec; (x, y) is checked
    against the domain but, unlike in eval_M, not clamped.
    """
    clamp_omega(p, x, y)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return float(_wedge_vec(p, k, x, y))


# ---------------------------------------------------------------------------
# vectorized internals used by the sampling suites; no domain checks here,
# callers are trusted to supply in-domain arrays

def _f_vec(p: Params, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    e = np.frexp(x)[1]
    k = np.maximum(0, -e) // p.d       # frexp's int32 throughout
    s = np.ldexp(x, p.d * k)
    low = s <= 1.0 / p.N        # the one up-step of _interval_index
    if low.any():
        k += low
        s = np.ldexp(x, p.d * k)
    # f = eta^k (Q - 1 + s) in place, eta^k from a table of np.power(eta,
    # 0..max k): the same elementwise calls, so the bits of np.power(eta, k)
    s += p.Q - 1
    s *= np.power(p.eta, np.arange(k.max(initial=0) + 1))[k]
    s[~(x > 0)] = 0.0
    np.minimum(s, p.Q, out=s)
    return s


def _upper_vec(p: Params, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The upper branch ((y-1)/(Q-1)) f(min(x (Q-1)/(y-1), 1))."""
    u = np.minimum(x * (p.Q - 1) / (y - 1), 1.0)
    return (y - 1) / (p.Q - 1) * _f_vec(p, u)


def _M_vec(p: Params, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = x + y - 1             # the lower branch, overwritten where it fails
    up = np.nonzero(~_on_lower_branch(p, x, y))
    if up[0].size:
        out[up] = _upper_vec(p, x[up], y[up])
    return out


def _B_vec(p: Params, x: np.ndarray, y: np.ndarray, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    yy = np.clip(np.asarray(y, dtype=float) / m, 1.0, p.Q)
    return m * _M_vec(p, np.asarray(x, dtype=float), yy)


def _wedge_vec(p: Params, k: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if k == 0:
        return x + (y - 1)
    ca = wedge_coeffs(p, k - 1)
    cb = wedge_coeffs(p, k)
    inside = y <= 1 + (p.Q - 1) * node_scale(p, k) * x + BOUNDARY_TOL
    return np.where(inside, ca.a * x + ca.b * (y - 1), cb.a * x + cb.b * (y - 1))
