"""Resource caps, overridable through environment variables.

Every cap can be raised or lowered without touching code by setting the
corresponding BETHE6V_* variable.  The commands and scripts check the caps
of what they will build, before any work; the library routes are uncapped.
"""

import os

from .errors import CapExceededError

DIM_CAP = 20_000       # dense sector-block storage (rows)
SPECTRUM_CAP = 4096    # dense symmetric eigenvalues (the `dense` route)
ENUM_CAP = 14          # N*M for --bruteforce's torus count, a DP on 4^(min(N,M)+1) (N*M+1) counts
PERM_CAP = 9           # particle count for the 2^n subset sums behind psi


def _from_env(env_name, default):
    env = os.environ.get(env_name)
    return int(env) if env else default


def dim_cap():
    return _from_env("BETHE6V_DIM_CAP", DIM_CAP)


def spectrum_cap():
    return _from_env("BETHE6V_SPECTRUM_CAP", SPECTRUM_CAP)


def check_dim(dim: int) -> None:
    """Refuse a dense sector block with more rows than the dense cap."""
    if dim > (cap := dim_cap()):
        raise CapExceededError(f"sector dimension {dim} exceeds dense cap {cap}")


def check_spectrum(dim: int) -> None:
    """Refuse a dense spectrum above the spectrum cap."""
    if dim > (cap := spectrum_cap()):
        raise CapExceededError(f"dimension {dim} exceeds spectrum cap {cap}")


def check_enum(N: int, M: int) -> None:
    """Refuse an N x M torus enumeration past the enumeration cap."""
    if N * M > (cap := _from_env("BETHE6V_ENUM_CAP", ENUM_CAP)):
        raise CapExceededError(f"N*M = {N * M} exceeds enumeration cap {cap}")


def check_perm(n: int) -> None:
    """Refuse psi's 2^n subset sums past the subset-sum cap."""
    if n > (cap := _from_env("BETHE6V_PERM_CAP", PERM_CAP)):
        raise CapExceededError(f"{n} momenta exceed the subset-sum cap {cap}")
