"""High-precision references, computed outside the timed passes.

The qubit PBT series are summed with mpmath at 40 significant digits. Terms
are generated from the central binomial by exact ratio recurrences and the
sums stop once the Gaussian tail falls below 1e-30 of the total, so a
reference at M = 1e6 needs about 6 sqrt(M) terms instead of M.
"""

from __future__ import annotations

import mpmath

_DPS = 40
_TAIL = mpmath.mpf("1e-30")


def xi_ref(M: int) -> float:
    """xi_M of the M-port qubit protocol, summed outward from the centre.

    xi_M = (M+2) 2^{1-M} / 3 + sum_s s(s+1)/3 C(M, k) 2^{4-M} ((M+2) - sqrt(g)) / g
    with k = (M-1)/2 - s and g = (M+2)^2 - (2s+1)^2; the last factor is
    evaluated as (2s+1)^2 / (g ((M+2) + sqrt(g))), which has no cancellation.
    """
    with mpmath.workdps(_DPS):
        two_s = 1 if M % 2 == 0 else 0  # 2s for the smallest spin
        k = (M - 1 - two_s) // 2
        binom = mpmath.binomial(M, k) / mpmath.mpf(2) ** (M - 4)
        total = mpmath.mpf(M + 2) / 3 / mpmath.mpf(2) ** (M - 1)
        while k >= 0:
            s = mpmath.mpf(two_s) / 2
            g = (M + 2) ** 2 - (two_s + 1) ** 2
            term = s * (s + 1) / 3 * binom * (two_s + 1) ** 2 / (g * ((M + 2) + mpmath.sqrt(g)))
            total += term
            if two_s > 2 and term < _TAIL * total:
                break
            binom = binom * k / (M - k + 1)  # C(M, k-1) from C(M, k)
            k -= 1
            two_s += 2
        return float(total)


def delta_ad_ref(M: int, p: float) -> float:
    """Diamond error of the M-port simulation of amplitude damping."""
    with mpmath.workdps(_DPS):
        p = mpmath.mpf(p)
        return float(mpmath.mpf(xi_ref(M)) * ((1 - p) / 2 + mpmath.sqrt(1 - p)))
