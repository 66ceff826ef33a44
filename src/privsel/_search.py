"""The monotone searches under privsel's answers, on the stdlib alone:
`countdist`, which `oracles` imports, searches without loading the bounds."""

import math
import sys

# no side of the bracket is known in advance
UNKNOWN = (-math.inf, math.inf)


def halve(pred, lo, hi, tol=0.0, steps=sys.maxsize, known=UNKNOWN):
    """(lo, hi) after halving a float bracket whose lo fails pred and whose
    hi passes it, each step moving one end to the midpoint.  Stops once
    hi - lo <= tol, once the ends are adjacent floats (the midpoint then
    rounds onto one of them and is not probed), or after `steps` halvings.

    known = (a, b) are two points the caller has seen pred fail and pass
    at: a midpoint at or below a is taken to fail and one at or above b
    to pass, without a probe, and those halvings count towards `steps`
    too.  Only midpoints strictly between a and b are probed, so the
    result is the one without `known` wherever pred is monotone outside
    (a, b)."""
    a, b = known
    for _ in range(steps):
        if not hi - lo > tol:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid >= b or (mid > a and pred(mid)):
            hi = mid
        else:
            lo = mid
    return lo, hi


def gallop(pred, lo, hi, cap=float("inf")):
    """(lo, hi) of an integer search from a lo that fails pred: while
    pred(hi) fails, lo moves up to hi and hi doubles.  A hi past `cap` is
    returned unprobed; otherwise the gap is halved until hi is the least
    integer above lo at which pred holds."""
    while hi <= cap and not pred(hi):
        lo, hi = hi, 2 * hi
    while hi <= cap and hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return lo, hi
