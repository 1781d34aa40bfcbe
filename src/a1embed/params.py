"""Problem parameters and domain predicates.

Everything downstream is driven by two numbers: the A1 bound Q >= 1 and the
dimension d >= 1.  Derived quantities:

    N       = 2^d                  (children per dyadic cube)
    eta     = 1 - (N-1)/(N*Q)      (one-step decay factor, in (1/N, 1] )
    epsilon = -log(eta)/log(N)     (sharp self-improvement exponent)

so that eta = N^(-epsilon) holds by construction.  For Q > 1 we have
0 < epsilon < 1 and N*eta > 1; Q = 1 collapses the problem (only the
constant weight remains) and is flagged degenerate rather than rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

D_MAX = 20          # N = 2^d stays a safe exact integer/float
BOUNDARY_TOL = 1e-12

# Caps on the constructions' binary-digit truncation and corner index, not on
# tree depth: nested constructions stack to roughly 2*depth + k levels of tree.
DIGITS_MAX = 32
CONCAT_DIGITS_MAX = 40
CORNER_K_MAX = 32


def at_least(lhs, rhs, tol: float = 1e-9, slack=None):
    """lhs >= rhs up to tol, the one pass rule: slack = lhs - rhs (or the
    caller's rounding of it) >= -tol * max(1, |lhs|, |rhs|), row by row."""
    s = lhs - rhs if slack is None else slack
    return (s >= -tol) | (s >= -tol * abs(lhs)) | (s >= -tol * abs(rhs))


class DomainError(ValueError):
    """A point lies outside the domain an operation is defined on."""


class DegenerateParamsError(ValueError):
    """Operation undefined for the degenerate bound Q = 1."""


class InvariantError(ValueError):
    """A constructed pair breaks a bound it is proved to satisfy."""


@dataclass(frozen=True)
class Params:
    """Immutable problem parameters; safe to share across threads."""

    Q: float
    d: int
    N: int
    eta: float
    epsilon: float
    degenerate: bool


def new_params(Q: float, d: int) -> Params:
    """Validate (Q, d) and precompute the derived constants."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 1 or d > D_MAX:
        raise ValueError(f"d must be in [1, {D_MAX}], got {d}")
    if (not isinstance(Q, (int, float)) or isinstance(Q, bool)
            or not math.isfinite(Q)):
        raise ValueError(f"Q must be a finite number, got {Q!r}")
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    Q = float(Q)
    N = 2**d
    eta = 1.0 - (N - 1) / (N * Q)
    epsilon = -math.log(eta) / math.log(N)
    return Params(Q=Q, d=d, N=N, eta=eta, epsilon=epsilon, degenerate=(Q == 1.0))


def osekowski_p_max(p: Params) -> float:
    """Endpoint exponent log(N) / log(N - (N-1)/Q).

    Satisfies 1 - 1/p_max = epsilon exactly; the weak-type estimate holds
    for every exponent up to this value and for no larger one.
    """
    if p.degenerate:
        raise DegenerateParamsError("p_max is unbounded at Q = 1")
    return endpoint_exponent(p.N, p.Q)


def endpoint_exponent(n: int, c: float) -> float:
    """log(n) / log(n - (n-1)/c) for fan-out n and characteristic c > 1."""
    return math.log(n) / math.log(n - (n - 1) / c)


def in_omega(p: Params, x: float, y: float) -> bool:
    """Membership in the normalized domain {0 <= x <= 1, 1 <= y <= Q}."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    t = BOUNDARY_TOL
    return -t <= x <= 1 + t and 1 - t <= y <= p.Q + t


def clamp_omega(p: Params, x: float, y: float) -> tuple[float, float]:
    """(x, y) moved into the box; DomainError unless in_omega(p, x, y).

    max(0.0, x) keeps 0.0 first, so x = -0.0 comes back as 0.0.
    """
    if not in_omega(p, x, y):
        raise DomainError(f"({x!r}, {y!r}) outside the domain for Q = {p.Q}")
    return min(max(0.0, x), 1.0), min(max(1.0, y), p.Q)


def node_scale(p: Params, k: int) -> float:
    """N^k as an exact float; DomainError where it overflows (d*k >= 1024)."""
    try:
        return math.ldexp(1.0, p.d * k)
    except OverflowError:
        raise DomainError(f"N^{k} = 2^{p.d * k} overflows a float") from None


def in_omega_b(p: Params, x: float, y: float, m: float) -> bool:
    """Membership in the unnormalized domain {0 <= x <= 1, 0 < m <= y <= Q m}."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(m)):
        return False
    t = BOUNDARY_TOL
    if not (-t <= x <= 1 + t) or m <= 0:
        return False
    return m * (1 - t) <= y <= p.Q * m * (1 + t)
