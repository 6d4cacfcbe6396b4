"""Resource caps, overridable through environment variables.

One memory budget bounds every command: none plans arrays past the dense
block the dense cap allows, 8 DIM_CAP^2 bytes (3.2 GB at the default, none at
a cap of 0 or below).  The commands and scripts check their caps on (N, n)
before any work, by lgamma first; the library routes are uncapped.  The
torus count needs no cap of its own: ``partition_function_bruteforce``
refuses, before it allocates, every torus whose counts could pass int64.
"""

import math
import os

from .errors import CapExceededError

DIM_CAP = 20_000       # dense sector-block rows; 8 DIM_CAP^2 bytes is the memory budget
SPECTRUM_CAP = 4096    # sector-spectrum rows (`spectrum`, the `block` route), at most DIM_CAP


def _from_env(env_name, default):
    env = os.environ.get(env_name)
    return int(env) if env else default


def dim_cap():
    return _from_env("BETHE6V_DIM_CAP", DIM_CAP)


def spectrum_cap():  # never past the dense cap
    return min(_from_env("BETHE6V_SPECTRUM_CAP", SPECTRUM_CAP), dim_cap())


def _log_comb(N: int, n: int) -> float:
    return math.lgamma(N + 1) - math.lgamma(n + 1) - math.lgamma(N - n + 1)


def check_dim(N: int, n: int, spectrum: bool = False) -> None:
    """Refuse C(N, n) dense-block rows past the dense cap, or their spectrum past its cap.

    Past 10^18 rows it refuses, whatever the caps, unformed: C(20000, 10000) has 6018 digits.
    """
    huge, cap = _log_comb(N, n) > math.log(1e18), dim_cap()
    rows = f"C({N}, {n})" if huge else math.comb(N, n)
    if huge or rows > cap:
        raise CapExceededError(f"sector dimension {rows} exceeds dense cap {cap}")
    if spectrum and rows > (cap := spectrum_cap()):
        raise CapExceededError(f"dimension {rows} exceeds spectrum cap {cap}")


def _check_bytes(what: str, log_bytes: float) -> None:
    """Refuse a plan of about exp(log_bytes) bytes past the memory budget."""
    budget = 8 * max(cap := dim_cap(), 0) ** 2
    if not (budget and log_bytes <= math.log(budget)):
        gb = log_bytes / math.log(10) - 9  # log10 of the size in GB, which may pass any double
        size = f"{10 ** gb:.3g}" if gb < 300 else f"10^{gb:.0f}"
        raise CapExceededError(f"{what} needs about {size} GB, past the "
                               f"{budget / 1e9:.3g} GB budget of dense cap {cap}")


def check_solve(N: int, n: int) -> None:
    """Refuse a verified solve, about 80 N C(N, n) bytes (66-81 measured, (16, 8) to (24, 9))."""
    _check_bytes(f"solve at N = {N}, n = {n}", math.log(80 * N) + _log_comb(N, n))


def check_partition(N: int) -> None:
    """Refuse log Tr(V^M): the widest sector's R ~ C(N, N // 2) / N orbits, about 24 N R^2 bytes."""
    _check_bytes(f"partition at N = {N}", math.log(24 / N) + 2 * _log_comb(N, N // 2))
