"""One memory budget, 8 DIM_CAP^2 bytes, with the dense cap overridable by BETHE6V_DIM_CAP.

No command plans bytes past the dense block the cap allows (3.2 GB at the
default, none at a cap of 0 or below): each estimates, in logs from lgamma,
what it will build on (N, n) before any work, and every refusal names the
plan in GB; the library routes are uncapped.  The torus count needs no cap
of its own: ``partition_function_bruteforce`` refuses, before it
allocates, every torus whose counts could pass int64.
"""

import math
import os

from .errors import CapExceededError
from .functions import _log_sum_exp

DIM_CAP = 20_000       # the memory budget is 8 DIM_CAP^2 bytes, one dense block of DIM_CAP rows


def dim_cap() -> int:
    try:
        return int(env := os.environ.get("BETHE6V_DIM_CAP") or DIM_CAP)
    except ValueError:
        raise ValueError(f"BETHE6V_DIM_CAP must be an integer, got {env!r}") from None


def _log_comb(N: int, n: int) -> float:
    return math.lgamma(N + 1) - math.lgamma(n + 1) - math.lgamma(N - n + 1)


def _check_bytes(what: str, logs) -> None:
    """Refuse a plan of about sum exp(logs) bytes past the memory budget."""
    budget, log_bytes = 8 * max(cap := dim_cap(), 0) ** 2, _log_sum_exp(logs)
    if not (budget and log_bytes <= math.log(budget)):
        gb = log_bytes / math.log(10) - 9  # log10 of the size in GB, which may pass any double
        size = f"{10 ** gb:.3g}" if gb < 300 else f"10^{gb:.0f}"
        raise CapExceededError(f"{what} needs about {size} GB, past the "
                               f"{budget / 1e9:.3g} GB budget of dense cap {cap}")


def _log_blocks(N: int, n: int) -> float:  # R ~ C(N, n) / N orbits: 24 N R^2 bytes of blocks
    return math.log(24 / N) + 2 * _log_comb(N, n)


def check_sector(command: str, N: int, n: int, blocks: bool = False, dense: bool = False) -> None:
    """Refuse a sector's arrays, 80 N C(N, n) bytes (50-59 measured), with its momentum
    blocks if ``blocks`` and its dense block, 8 C(N, n)^2 bytes, if ``dense``."""
    log_dim = _log_comb(N, n)
    _check_bytes(f"{command} at N = {N}, n = {n}",
                 [math.log(80 * N) + log_dim] + ([_log_blocks(N, n)] if blocks else [])
                 + ([math.log(8) + 2 * log_dim] if dense else []))


def check_partition(N: int) -> None:
    """Refuse log Tr(V^M): the momentum blocks of the widest sector."""
    _check_bytes(f"partition at N = {N}", [_log_blocks(N, N // 2)])
