"""Dense spectral oracle: every prediction is checked against it.

The eigensolvers are numpy's symmetric routines.  Matching a prediction
needs only the eigenvalues, so ``dense_eigenvalues`` skips the eigenvectors;
``dense_spectrum`` adds them and their self-consistency defects
(orthonormality and reconstruction) for the ``spectrum`` command, the only
caller that computes and prints those defects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import caps
from .errors import CapExceededError
from .transfer import SectorMatrix

__all__ = [
    "SpectrumResult",
    "dense_eigenvalues",
    "dense_spectrum",
    "check_eigenpair",
    "match_eigenvalue",
]


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    eigenvalues: np.ndarray          # ascending
    orthonormality_defect: float     # max |Q^T Q - I|
    reconstruction_defect: float     # ||Q D Q^T - A||_F / max(1, ||A||_F)


def _symmetric_entries(m: SectorMatrix) -> np.ndarray:
    """The block's entries, once its dimension and symmetry are checked."""
    cap = caps.spectrum_cap()
    if m.dim > cap:
        raise CapExceededError(f"dimension {m.dim} exceeds spectrum cap {cap}")
    A = m.entries
    asym = float(np.max(np.abs(A - A.T)))
    if asym > 1e-12:
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
