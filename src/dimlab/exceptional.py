"""Membership test for directions with persistently aligned phases.

A direction beta is flagged when some single scale tau makes nearly every
term b tau r^{q - qk(N-n)} cos(beta + gamma - nqk theta) land within
r^{2qk}/15 of an integer.  The test scans a geometric tau grid over one
multiplicative period and takes the best alignment fraction.

Distance to the nearest integer is only meaningful while the value itself
is exactly representable; beyond 2^53 every float is an integer and the
distance degenerates to 0.  Terms that large are therefore counted as not
aligned rather than trivially aligned.

Only the columns that can be decided are evaluated.  The value at (tau, n)
is (b tau) c_n with c_n = r^{q-qk(N-n)} cos(beta + gamma - nqk theta) and
b >= 0.  Rounding is monotone, so |(b tau) c_n| lies between its values at
the first and the largest tau of the grid.  A column whose first value is
2^53 or more, infinite or NaN is not aligned at any tau and adds 0 to every
fraction; such columns are dropped.  A column whose largest value is below
2^53 is representable at every tau, so only the columns between the two
bounds (one or two at the catalog defaults) get the per-value 2^53 test.

The rest form term-major (terms, taus) blocks of at most 255 columns, held
in scratch that every block and direction reuses.  Each value costs five
elementwise passes: the product (b tau) c_n, its rounding, the difference,
its absolute value and the threshold test.  A block's bool rows are then
added per tau as bytes, which cannot wrap below 256 rows, into an integer
count; that is far cheaper than a per-tau count_nonzero.  Every value is
the product a dense matrix would hold, so the fractions are bit for bit
those of the dense scan.  At the catalog defaults only the last ~13-16 of
the N terms survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "AlignmentParams",
    "MembershipResult",
    "membership_fraction",
    "ScanResult",
    "scan_directions",
]

_REPRESENTABLE = float(2 ** 53)
# the most bool rows a uint8 per-tau sum can add without wrapping
_BYTE_ROWS = 255


@dataclass(frozen=True)
class AlignmentParams:
    """Geometry of the phase sequence.

    r, theta: contraction ratio and rotation angle of the base system;
    b, gamma: modulus and argument of the displacement being tested;
    q, k:     block size and sparsification stride;
    delta:    tolerated fraction of misaligned terms;
    big_n:    number of terms in the sequence;
    tau_grid: size of the geometric scale grid on [1, r^-qk].
    """

    r: float
    theta: float
    b: float
    gamma: float
    q: int
    k: int
    delta: float
    big_n: int
    tau_grid: int = 4096

    def __post_init__(self):
        for name in ("r", "theta", "b", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if not 0.0 < self.r < 1.0:
            raise ParameterError("r must lie in (0, 1)")
        if self.b < 0.0:
            raise ParameterError("b must be >= 0")
        if self.q < 1 or self.k < 1:
            raise ParameterError("q and k must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ParameterError("delta must lie in (0, 1)")
        if self.big_n < 1:
            raise ParameterError("big_n must be >= 1")
        if self.tau_grid < 1:
            raise ParameterError("tau_grid must be >= 1")
        try:
            self.r ** (-self.q * self.k)
        except OverflowError:
            raise ParameterError("r^-qk must be finite") from None

    @property
    def threshold(self) -> float:
        return self.r ** (2 * self.q * self.k) / 15.0

    def taus(self) -> np.ndarray:
        hi = self.r ** (-self.q * self.k)
        return np.geomspace(1.0, hi, self.tau_grid)


@dataclass(eq=False)
class MembershipResult:
    beta: float
    max_fraction: float
    witness_tau: float
    member: bool
    fractions: np.ndarray  # per tau grid point


def _decidable_columns(bt: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Indices n whose value (b tau_0) c_n is finite and below 2^53.

    bt holds b tau over the grid, smallest tau first; any other column fails
    the representability test at every tau (see the module docstring).
    """
    return np.flatnonzero(np.abs(bt[0] * c) < _REPRESENTABLE)


def _crossing_rows(top: float, c: np.ndarray) -> np.ndarray:
    """Indices i whose value (b tau_max) c_i is not below 2^53, top being
    b tau_max; only there can some tau's value fail the representability
    test (see the module docstring)."""
    return np.flatnonzero(~(np.abs(top * c) < _REPRESENTABLE))


def _alignment_fractions(params: AlignmentParams, bt: np.ndarray, betas):
    """Per beta, the aligned fraction of the N terms at each tau of the grid
    (bt is b tau over the grid, smallest tau first)."""
    n = np.arange(1, params.big_n + 1, dtype=np.float64)
    qk = params.q * params.k
    exponents = params.q - qk * (params.big_n - n)
    with np.errstate(over="ignore"):
        scales = params.r ** exponents
    phase = params.gamma - n * qk * params.theta
    threshold = params.threshold
    top = bt.max()
    # one block's values, distances and tests, reused by every block and
    # direction and grown only when a block has more rows, so a scan does
    # not return its block to the allocator per direction; whether that
    # memory went back to the OS, to fault in again, depended on the heap's
    # layout left by unrelated code and moved the scan's time by up to 28%
    vals = dist = ok = np.empty((0, len(bt)))
    for beta in betas:
        count = np.zeros(len(bt), dtype=np.intp)
        with np.errstate(over="ignore", invalid="ignore"):
            c = scales * np.cos(beta + phase)
            cols = _decidable_columns(bt, c)
            for start in range(0, len(cols), _BYTE_ROWS):
                cb = c[cols[start : start + _BYTE_ROWS]]
                if len(vals) < len(cb):
                    vals, dist = np.empty((2, len(cb), len(bt)))
                    ok = np.empty((len(cb), len(bt)), dtype=bool)
                v, d, o = vals[: len(cb)], dist[: len(cb)], ok[: len(cb)]
                np.multiply(cb[:, None], bt, out=v)
                np.subtract(v, np.rint(v, out=d), out=d)
                np.less_equal(np.abs(d, out=d), threshold, out=o)
                for i in _crossing_rows(top, cb):
                    o[i] &= np.abs(v[i]) < _REPRESENTABLE
                count += np.add.reduce(o.view(np.uint8), axis=0, dtype=np.uint8)
        yield count / params.big_n


def membership_fraction(params: AlignmentParams, beta: float) -> MembershipResult:
    """Best alignment fraction over the tau grid for one direction."""
    taus = params.taus()
    (fractions,) = _alignment_fractions(params, params.b * taus, [beta])
    best = int(np.argmax(fractions))
    max_fraction = float(fractions[best])
    return MembershipResult(
        beta=float(beta),
        max_fraction=max_fraction,
        witness_tau=float(taus[best]),
        member=max_fraction > 1.0 - params.delta,
        fractions=fractions,
    )


@dataclass(eq=False)
class ScanResult:
    params: AlignmentParams
    betas: np.ndarray
    max_fractions: np.ndarray
    witness_taus: np.ndarray
    members: np.ndarray

    @property
    def member_fraction(self) -> float:
        return float(self.members.mean())

    def members_at(self, delta: float) -> np.ndarray:
        """Re-threshold the stored fractions; monotone in delta by construction."""
        return self.max_fractions > 1.0 - delta


def scan_directions(params: AlignmentParams, betas) -> ScanResult:
    betas = np.asarray(betas, dtype=np.float64)
    if betas.ndim != 1 or len(betas) == 0:
        raise ParameterError("betas must be a non-empty 1-d array")
    taus = params.taus()
    max_fractions = np.zeros(len(betas))
    witness_taus = np.zeros(len(betas))
    for i, fractions in enumerate(_alignment_fractions(params, params.b * taus, betas)):
        best = int(np.argmax(fractions))
        max_fractions[i] = fractions[best]
        witness_taus[i] = taus[best]
    members = max_fractions > 1.0 - params.delta
    return ScanResult(
        params=params,
        betas=betas,
        max_fractions=max_fractions,
        witness_taus=witness_taus,
        members=members,
    )
