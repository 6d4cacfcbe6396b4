"""Dense spectral oracle and commutation checks: predictions are checked here.

The eigensolvers are numpy's symmetric routines.  Matching a prediction
needs only the eigenvalues, so ``dense_eigenvalues`` skips the eigenvectors;
``dense_spectrum`` adds them and their self-consistency defects
(orthonormality and reconstruction) for the ``spectrum`` command, the only
caller that computes and prints those defects.

``commutator_probe`` checks [V, H] = 0 by one seeded Freivalds (1977) probe
of four matrix-vector products; ``commutator_norm`` is its dense test oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import caps
from .basis import checked_sector
from .errors import CapExceededError, DomainError
from .transfer import SectorMatrix

__all__ = [
    "SpectrumResult",
    "dense_eigenvalues",
    "dense_spectrum",
    "check_eigenpair",
    "match_eigenvalue",
    "commutator_probe",
    "commutator_norm",
]


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    eigenvalues: np.ndarray          # ascending
    orthonormality_defect: float     # max |Q^T Q - I|
    reconstruction_defect: float     # ||Q D Q^T - A||_F / max(1, ||A||_F)


def _symmetric_entries(m: SectorMatrix) -> np.ndarray:
    """The block's entries, once its dimension, finiteness and symmetry are checked."""
    cap = caps.spectrum_cap()
    if m.dim > cap:
        raise CapExceededError(f"dimension {m.dim} exceeds spectrum cap {cap}")
    A = m.entries
    if not np.all(np.isfinite(A)):
        raise DomainError("block entries overflow to inf or NaN; no dense spectrum")
    asym = float(np.max(np.abs(A - A.T)))
    if not asym <= 1e-12:
        raise ValueError(f"matrix asymmetry {asym:g} exceeds 1e-12")
    return A


def dense_eigenvalues(m: SectorMatrix) -> np.ndarray:
    """Ascending real spectrum of a symmetric sector block, without eigenvectors."""
    return np.linalg.eigvalsh(_symmetric_entries(m))


def dense_spectrum(m: SectorMatrix) -> SpectrumResult:
    """Full real spectrum of a symmetric sector block, with its defects."""
    A = _symmetric_entries(m)
    vals, vecs = np.linalg.eigh(A)
    ortho = float(np.max(np.abs(vecs.T @ vecs - np.eye(m.dim))))
    recon = (vecs * vals) @ vecs.T
    rec = float(np.linalg.norm(recon - A) / max(1.0, np.linalg.norm(A)))
    return SpectrumResult(vals, ortho, rec)


def check_eigenpair(m: SectorMatrix, vector, lam) -> float:
    """Relative residual ||A v - lam v|| / ||v||."""
    v = np.asarray(vector)
    if v.shape != (m.dim,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {m.dim}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("zero vector")
    A = m.entries
    # A @ complex(v) would first copy A to complex; apply it to each part
    Av = A @ v.real + 1j * (A @ v.imag) if np.iscomplexobj(v) else A @ v
    return float(np.linalg.norm(Av - lam * v) / norm)


def match_eigenvalue(lam, eigenvalues: np.ndarray, tol: float) -> list[int]:
    """Indices of all eigenvalues within tol * max(1, |lam|), in ascending order.

    Degenerate levels come back as a cluster led by its lowest index, which
    does not depend on how rounding orders the cluster's members; an empty
    list means no match.
    """
    bound = tol * max(1.0, abs(lam))
    return np.nonzero(np.abs(eigenvalues - lam) <= bound)[0].tolist()


def commutator_probe(v: SectorMatrix, h: SectorMatrix) -> float:
    """Relative size of [V, H] x: ||V(Hx) - H(Vx)|| / (||V||_F ||H||_F ||x||).

    x is uniform on [-1/2, 1/2] from the standard library's generator at
    seed 0 (importing numpy.random alone costs 6.5 MB of memory).  Frobenius
    norms make the value scale-free with no dim^2 temporary.
    """
    checked_sector(v.N, v.n, h.basis)
    V, H = v.entries, h.entries
    x = np.frombuffer(random.Random(0).randbytes(8 * v.dim), np.uint64) / 2.0**64 - 0.5
    defect = float(np.linalg.norm(V @ (H @ x) - H @ (V @ x)))
    scale = float(np.linalg.norm(V) * np.linalg.norm(H) * np.linalg.norm(x))
    return defect / scale if defect else 0.0  # H is zero at n = 0, delta = 0


def commutator_norm(v: SectorMatrix, h: SectorMatrix) -> float:
    """Max absolute entry of VH - HV from two dense products (test oracle)."""
    checked_sector(v.N, v.n, h.basis)
    return float(np.max(np.abs(v.entries @ h.entries - h.entries @ v.entries)))
