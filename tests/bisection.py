"""Plain bisection on a sign, the tests' own reference for the solver's
count brackets and Newton roots (the solver has no such loop to share)."""


def bisect(side, lo, hi, rtol):
    """Shrink [lo, hi] around the root of ``side`` (> 0 above it, < 0 below)
    until the width is within ``rtol`` (relative) or the midpoint stops
    moving; an exact zero returns ``(mid, mid)``."""
    for _ in range(240):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        s = side(mid)
        if s == 0.0:
            return mid, mid
        if s > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rtol * max(abs(lo), abs(hi)):
            break
    return lo, hi
