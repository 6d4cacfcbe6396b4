"""Eigenpair residuals and certificates, momentum-block spectra, commutation probe.

``check_eigenpair`` also returns the vector's Collatz–Wielandt bracket.  For
a symmetric operator with nonnegative off-diagonal entries (V's c^P, H's +1
hops) it holds the top eigenvalue (Collatz 1942; Wielandt 1950), so a narrow
bracket names the level without an eigensolve; other levels are matched
against the spectrum ``momentum_spectra`` folds from the operator's rows at
the translation-orbit representatives, read through a row function (the
bound ``rows`` of V or H) one chunk of rows at a time.  ``commutator_probe``
checks [V, H] = 0 by one seeded Freivalds (1977) probe of four
matrix-vector products.

The residual and the probe read an operator only through ``N``, ``n``,
``dim``, ``op @ x`` for a real or complex vector x and ``op.frobenius()``,
an overflow-safe Frobenius norm, which the sector operators of ``transfer``
and ``xxz`` provide.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import DomainError, SectorMismatchError

__all__ = [
    "momentum_spectra",
    "check_eigenpair",
    "match_eigenvalue",
    "commutator_probe",
]

_CHUNK_ELEMENTS = 1 << 13  # entries per norm chunk, below the size at which BLAS starts threads
_ROW_ELEMENTS = 1 << 18  # entries per chunk of operator rows, and per chunk of sweep columns


def _row_chunks(count: int, dim: int) -> list[np.ndarray]:
    """range(count) in consecutive runs of at most ceil(``_ROW_ELEMENTS`` / dim) each."""
    return np.array_split(np.arange(count), -(-count * dim // _ROW_ELEMENTS))


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of a vector, or Frobenius norm of a matrix, with no overflow.

    The entries are taken in chunks of ``_CHUNK_ELEMENTS`` whose
    ``np.linalg.norm``s combine by ``math.hypot``, and an array of one chunk
    gets ``np.linalg.norm`` as it stands.  No chunk is long enough for BLAS to
    split its sum over threads, so the result repeats at any thread count;
    ``np.linalg.norm`` of 20,000 entries can move in the last bit from one
    OpenBLAS thread to two.  Where a square overflows the entries are first
    scaled by the power of two at the largest magnitude, which is exact (inf
    and NaN stay), chunk by chunk, so no dim^2 temporary is formed.
    """
    flat = np.ravel(a)
    chunks = [flat[lo:lo + _CHUNK_ELEMENTS] for lo in range(0, flat.size, _CHUNK_ELEMENTS)]
    with np.errstate(over="ignore"):
        norm = math.hypot(*(float(np.linalg.norm(chunk)) for chunk in chunks))
    if math.isfinite(norm):
        return norm
    top = max(float(np.max(np.abs(chunk))) for chunk in chunks)
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    return math.hypot(*(float(np.linalg.norm(chunk * scale)) for chunk in chunks)) / scale


def momentum_spectra(sector, rows_of):
    """Spectrum of a symmetric operator that commutes with the translation T, block by block.

    ``rows_of(states)`` gives the operator's rows at the given states of the
    sector, (k, dim).  Each chunk of the R orbit representatives' rows is
    scattered by column into ``by_shift[t, r, s]``, the entry from the r-th
    representative to T^t of the s-th.  Block q is the real FFT over t times
    sqrt(p_r / p_s), p the orbits' periods (Sandvik, AIP Conf. Proc. 1297,
    135, 2010, section 4), on the orbits with q p = 0 mod N; the others keep
    only a diagonal below the largest absolute row sum, so one batched
    ``eigvalsh`` puts them first, weighted 0; the rest weigh 2 for
    0 < q < N/2 (block N - q shares the spectrum), else 1.  Returns the
    (N // 2 + 1, R) ascending eigenvalues in units of 2^exponent, their
    weights and the exponent; the entries are scaled by 2^-exponent,
    exactly, so no sum overflows.
    """
    reps, orbit, shift, period = sector.orbits()
    N, R, period = sector.N, reps.size, period[reps]
    by_shift = np.zeros((N, R, R))
    for rows in _row_chunks(R, sector.dim):
        by_shift[shift, rows[:, None], orbit] = rows_of(reps[rows])
    top = max(float(by_shift.max()), -float(by_shift.min()))
    if not math.isfinite(top):
        raise DomainError("operator entries overflow to inf or NaN; no spectrum")
    exponent = math.frexp(top)[1]
    np.ldexp(by_shift, -exponent, out=by_shift)
    bound = float(np.abs(by_shift).sum(axis=(0, 2)).max())
    blocks = np.fft.rfft(by_shift, axis=0)
    q = np.arange(N // 2 + 1)[:, None]
    kept, root = q * period % N == 0, np.sqrt(period)
    blocks *= (kept * root)[:, :, None] * (kept / root)[:, None, :]
    outside, orbit = np.nonzero(~kept)
    blocks[outside, orbit, orbit] = -1.0 - bound
    # sorted, a block's mask lists its kept orbits last, as eigvalsh does their eigenvalues
    weights = (np.sign(q) + (2 * q < N)) * np.sort(kept, axis=1)
    return np.linalg.eigvalsh(blocks), weights, exponent


def check_eigenpair(m, vector, lam) -> tuple[float, tuple[float, float] | None]:
    """Relative residual ||A v - lam v|| / ||v|| and v's Collatz–Wielandt bracket.

    With theta the phase of v's largest entry, x = Re(exp(-i theta) v).  The
    bracket (min_i (Ax)_i / x_i, max_i (Ax)_i / x_i) is None unless every
    x_i > 0.  Ax is read off the product A v that the residual takes, so the
    bracket adds no pass over A.
    """
    v = np.asarray(vector)
    if v.shape != (m.dim,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {m.dim}")
    norm = _norm(v)
    if norm == 0.0:
        raise ValueError("zero vector")
    av = m @ v
    residual = _norm(av - lam * v) / norm

    theta = float(np.angle(v[np.argmax(np.abs(v))]))
    cos, sin = math.cos(theta), math.sin(theta)
    x = cos * v.real + sin * v.imag
    if not np.all(x > 0.0):  # false on NaN
        return residual, None
    ratios = (cos * av.real + sin * av.imag) / x
    return residual, (float(np.min(ratios)), float(np.max(ratios)))


def match_eigenvalue(lam, eigenvalues: np.ndarray, tol: float) -> list[int]:
    """Indices of all eigenvalues within tol * max(1, |lam|), in ascending order.

    Degenerate levels come back as a cluster led by its lowest index, which
    does not depend on how rounding orders the cluster's members; an empty
    list means no match.
    """
    bound = tol * max(1.0, abs(lam))
    return np.nonzero(np.abs(eigenvalues - lam) <= bound)[0].tolist()


def commutator_probe(v, h) -> float:
    """Relative size of [V, H] x: ||V(Hx) - H(Vx)|| / (||V||_F ||H||_F ||x||).

    x is uniform on [-1/2, 1/2] from the standard library's generator at
    seed 0 (importing numpy.random alone costs 6.5 MB of memory).  Frobenius
    norms make the value scale-free with no dim^2 temporary.  x, and each
    product by an operator, are scaled by the power of two at that norm, so
    no product overflows where both operators are finite; the scaling is
    exact.
    """
    if (v.N, v.n) != (h.N, h.n):
        raise SectorMismatchError(f"blocks of sectors ({v.N},{v.n}) and ({h.N},{h.n})")
    x = np.frombuffer(random.Random(0).randbytes(8 * v.dim), np.uint64) / 2.0**64 - 0.5
    (mv, ev), (mh, eh), (mx, ex) = map(math.frexp, (v.frobenius(), h.frobenius(), _norm(x)))
    x = np.ldexp(x, -ex)
    vhx = np.ldexp(v @ np.ldexp(h @ x, -eh), -ev)
    hvx = np.ldexp(h @ np.ldexp(v @ x, -ev), -eh)
    defect = _norm(vhx - hvx)
    return defect / (mv * mh * mx) if defect else 0.0  # H is zero at n = 0, delta = 0
