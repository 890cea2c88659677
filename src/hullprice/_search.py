"""Monotone-predicate bisection used to locate price-set endpoints."""

from collections.abc import Callable


def bisect_transition(
    lo: float,
    hi: float,
    pred: Callable[[float], bool],
    max_iter: int = 200,
    width: float = 1e-13,
) -> tuple[float, float]:
    """Locate the switch point of a monotone predicate on [lo, hi].

    ``pred`` must be False at ``lo``, True at ``hi`` and monotone in
    between.  Returns ``(last_false, first_true)``, a bracket around the
    transition no wider than ``width`` (or as tight as floats allow).
    """
    a, b = lo, hi
    for _ in range(max_iter):
        if b - a <= width:
            break
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # float resolution exhausted
            break
        if pred(mid):
            b = mid
        else:
            a = mid
    return a, b
