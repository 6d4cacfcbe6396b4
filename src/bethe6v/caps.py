"""Resource caps, overridable per call or through environment variables.

Every cap can be raised or lowered without touching code: pass an explicit
value to the operation, or set the corresponding BETHE6V_* variable.
"""

import os

DIM_CAP = 20_000       # dense sector-block storage (rows)
SPECTRUM_CAP = 4096    # full symmetric eigendecomposition
ENUM_CAP = 14          # N*M for torus enumeration (4^(N*M) raw arrow states)
PERM_CAP = 9           # particle count for the 2^n subset sums behind psi


def _resolve(explicit, env_name, default):
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(env_name)
    if env:
        return int(env)
    return default


def dim_cap(explicit=None):
    return _resolve(explicit, "BETHE6V_DIM_CAP", DIM_CAP)


def spectrum_cap(explicit=None):
    return _resolve(explicit, "BETHE6V_SPECTRUM_CAP", SPECTRUM_CAP)


def enum_cap(explicit=None):
    return _resolve(explicit, "BETHE6V_ENUM_CAP", ENUM_CAP)


def perm_cap(explicit=None):
    return _resolve(explicit, "BETHE6V_PERM_CAP", PERM_CAP)
