"""40-digit references shared by the test modules (mpmath only, no dynirf)."""

from mpmath import mp


def mp_scaled_bessel(z, kmax: int) -> list:
    """e^{-z} I_k(z), k = 0..kmax, in 40-digit arithmetic: Miller's backward
    recurrence on the values themselves from v_top = 1, v_{top+1} = 0,
    top = kmax + 12 sqrt(z) + 60, normalized by e^z = I_0 + 2 sum_{k>=1} I_k.
    At z = 0 the values are 1, 0, 0, ..."""
    with mp.workdps(40):
        z = mp.mpf(z)
        if z == 0:
            return [mp.mpf(k == 0) for k in range(kmax + 1)]
        top = kmax + int(12 * mp.sqrt(z)) + 60
        v = [mp.mpf(0)] * (top + 2)
        v[top] = mp.mpf(1)
        for n in range(top, 0, -1):
            v[n - 1] = v[n + 1] + (2 * n / z) * v[n]
        norm = v[0] + 2 * mp.fsum(v[1 : top + 1])
        return [x / norm for x in v[: kmax + 1]]
