"""Resource caps, overridable through environment variables.

Every cap can be raised or lowered without touching code by setting the
corresponding BETHE6V_* variable.
"""

import os

from .errors import CapExceededError

DIM_CAP = 20_000       # dense sector-block storage (rows)
SPECTRUM_CAP = 4096    # dense symmetric eigenvalues (the `dense` route)
ENUM_CAP = 14          # N*M for torus enumeration (4^(N*M) raw arrow states)
PERM_CAP = 9           # particle count for the 2^n subset sums behind psi


def _from_env(env_name, default):
    env = os.environ.get(env_name)
    return int(env) if env else default


def dim_cap():
    return _from_env("BETHE6V_DIM_CAP", DIM_CAP)


def spectrum_cap():
    return _from_env("BETHE6V_SPECTRUM_CAP", SPECTRUM_CAP)


def enum_cap():
    return _from_env("BETHE6V_ENUM_CAP", ENUM_CAP)


def perm_cap():
    return _from_env("BETHE6V_PERM_CAP", PERM_CAP)


def check_dim(dim: int, spectrum: bool = False) -> None:
    """Refuse a dense sector block with more rows than the dense cap.

    With ``spectrum``, also refuse a dense spectrum above the spectrum cap.
    Callers that know C(N, n) check it before they enumerate the sector.
    """
    cap = dim_cap()
    if dim > cap:
        raise CapExceededError(f"sector dimension {dim} exceeds dense cap {cap}")
    if spectrum and dim > (cap := spectrum_cap()):
        raise CapExceededError(f"dimension {dim} exceeds spectrum cap {cap}")
