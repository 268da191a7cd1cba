"""Random self-similar measures and their Fourier transforms.

A measure sample is a stack of i.i.d. level weight vectors; the mass of a
cylinder [i1..ik] is the product of the level entries along the word.  The
Fourier transform of the projected measure factors into an infinite product
of level polynomials; everything here works with finite truncations of that
product plus an explicit tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (
    BudgetExceededError,
    DepthMismatchError,
    ParameterError,
    UnsupportedLawError,
)
from .geometry import DEFAULT_BUDGET, IFS
from .sections import Direction, _line_fit

__all__ = [
    "RandomWeightLaw",
    "fixed_vector_law",
    "forced_pair_law",
    "ForcedPairSelection",
    "MeasureSample",
    "sample_measure",
    "cylinder_mass",
    "measure_dimension",
    "fourier_psi",
    "FourierPoint",
    "fourier_mu",
    "SplitProduct",
    "convolution_split",
    "DecayEstimate",
    "fourier_decay",
]


def _compensate(w: np.ndarray) -> np.ndarray:
    """Nudge the largest entry until the exactly-rounded sum is 1.0.

    Summing with fsum makes the fixed point well defined; a couple of
    iterations always suffice because the correction is within an ulp.
    """
    for _ in range(8):
        err = 1.0 - math.fsum(w)
        if err == 0.0:
            break
        w[int(np.argmax(w))] += err
    return w


@dataclass(eq=False)
class RandomWeightLaw:
    """Law of one level's random probability vector.

    kinds:
      - "fixed-vector":        the same vector every level (a point mass)
      - "forced-pair-uniform": pick two distinct symbols, retain each other
                               symbol independently with probability p, then
                               weight the retained set uniformly
    """

    kind: str
    arity: int
    vector: np.ndarray | None = None
    retain_prob: float | None = None
    meta: dict = field(default_factory=dict)


def fixed_vector_law(vector) -> RandomWeightLaw:
    v = np.asarray(vector, dtype=np.float64).copy()
    if v.ndim != 1 or len(v) < 2:
        raise ParameterError("weight vector must have at least two entries")
    if not (np.all(v >= 0.0) and abs(v.sum() - 1.0) <= 1e-12):
        raise ParameterError("weights must be finite, >= 0 and sum to 1")
    return RandomWeightLaw(kind="fixed-vector", arity=len(v), vector=_compensate(v))


@dataclass(eq=False)
class ForcedPairSelection:
    law: RandomWeightLaw
    q: int
    p_q: float
    per_symbol_retention: float
    dim_proxy: float
    dim_proxy_se: float


# the largest block length the automatic choice of q tries, and the
# binomial draws behind its dimension proxy
_Q_MAX = 24
_PROXY_TRIALS = 4096


def forced_pair_law(ifs: IFS, epsilon: float, q: int | None = None) -> ForcedPairSelection:
    """The random-subset level law on blocks of length q.

    The alphabet is the m^q words of length q.  Each draw keeps two distinct
    blocks unconditionally plus every other block independently with
    probability p_q, chosen so the per-block retention is exactly
    r^{q(s - 1 - epsilon)}; retained blocks share uniform weight.  With
    q = None the smallest admissible q is selected: p_q must lie in (0, 1),
    r^{-q} must exceed 2, and a Monte Carlo dimension proxy must reach
    1 + epsilon/2.
    """
    if not ifs.equal_ratio or not ifs.equal_angle:
        raise ParameterError("law needs a common contraction ratio and angle")
    r = float(ifs.ratios[0])
    m = ifs.m
    s = math.log(m) / -math.log(r)
    if s <= 1.0:
        raise ParameterError(f"similarity dimension {s:.4g} must exceed 1")
    if not 0.0 < epsilon < s - 1.0:
        raise ParameterError(f"epsilon must lie in (0, {s - 1.0:.4g})")

    def build(qq: int):
        mq = m ** qq
        target = r ** (qq * (s - 1.0 - epsilon))
        p = (target - 2.0 / mq) * mq / (mq - 2.0)
        return mq, target, p

    if q is not None:
        if q < 1:
            raise ParameterError("q must be >= 1")
        if m ** q > DEFAULT_BUDGET:
            raise BudgetExceededError(m ** q, DEFAULT_BUDGET)
        mq, target, p = build(q)
        if r ** (-q) <= 2.0:
            raise ParameterError(f"need r^-q > 2, got {r ** (-q):.4g}")
        if not 0.0 < p < 1.0:
            raise ParameterError(f"p_q = {p:.4g} outside (0, 1) at q = {q}")
        dim, se = _binomial_dimension(mq, p, q, r, _PROXY_TRIALS, 123456789 + q)
    else:
        for q in range(1, _Q_MAX + 1):
            if r ** (-q) <= 2.0:
                continue
            mq, target, p = build(q)
            if not 0.0 < p < 1.0:
                continue
            dim, se = _binomial_dimension(mq, p, q, r, _PROXY_TRIALS, 123456789 + q)
            if dim >= 1.0 + epsilon / 2.0:
                break
        else:
            raise ParameterError(f"no admissible q up to {_Q_MAX}")
    law = RandomWeightLaw(
        kind="forced-pair-uniform",
        arity=mq,
        retain_prob=p,
        meta={"r": r, "q": q, "epsilon": epsilon, "base_m": m, "target": target},
    )
    return ForcedPairSelection(
        law=law,
        q=q,
        p_q=p,
        per_symbol_retention=target,
        dim_proxy=dim,
        dim_proxy_se=se,
    )


@dataclass(eq=False)
class MeasureSample:
    """Independent level weight vectors; levels[k] drives tree level k+1."""

    law: RandomWeightLaw
    seed: int
    depth: int
    levels: np.ndarray  # (depth, arity)


def sample_measure(law: RandomWeightLaw, depth: int, seed: int) -> MeasureSample:
    """Draw `depth` independent level vectors, keyed by (seed, level)."""
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    arity = law.arity
    levels = np.zeros((depth, arity))
    if law.kind == "fixed-vector":
        levels[:] = law.vector
    elif law.kind == "forced-pair-uniform":
        p = law.retain_prob
        for n in range(depth):
            u = rng.level_uniforms(np.uint64(seed), n, arity + 2)
            first = min(int(u[arity] * arity), arity - 1)
            second = min(int(u[arity + 1] * (arity - 1)), arity - 2)
            if second >= first:
                second += 1
            mask = u[:arity] < p
            mask[first] = True
            mask[second] = True
            count = int(mask.sum())
            vec = np.where(mask, 1.0 / count, 0.0)
            levels[n] = _compensate(vec)
    else:
        raise UnsupportedLawError(f"cannot sample law kind {law.kind!r}")
    return MeasureSample(law=law, seed=seed, depth=depth, levels=levels)


def cylinder_mass(sample: MeasureSample, word) -> float:
    """Product of level weights along the word."""
    mass = 1.0
    for j, s in enumerate(word):
        if not 1 <= int(s) <= sample.law.arity:
            raise ParameterError(f"symbol {s} outside 1..{sample.law.arity}")
        if j >= sample.depth:
            raise DepthMismatchError(f"word longer than sample depth {sample.depth}")
        mass *= sample.levels[j, int(s) - 1]
    return mass


def measure_dimension(law: RandomWeightLaw, trials: int, seed: int):
    """Monte Carlo E(log #retained) / (-q log r) with standard error.

    Uses the exact distribution #retained = 2 + Binomial(arity - 2, p_q):
    two blocks are forced and the rest are independent coin flips.  The
    standard error needs at least two draws.
    """
    if trials < 2:
        raise ParameterError(f"trials must be >= 2, got {trials}")
    if law.kind != "forced-pair-uniform":
        raise UnsupportedLawError("dimension estimate needs the forced-pair law")
    return _binomial_dimension(
        law.arity, law.retain_prob, law.meta["q"], law.meta["r"], int(trials), int(seed)
    )


def _binomial_dimension(arity, p, q, r, trials, key):
    """Mean and standard error of log(2 + Binomial(arity - 2, p)) / (-q log r),
    over `trials` draws from a Philox stream keyed by `key`."""
    gen = np.random.Generator(np.random.Philox(key=key))
    logs = np.log(2 + gen.binomial(arity - 2, p, size=trials))
    denom = -q * math.log(r)
    return float(logs.mean() / denom), float(
        logs.std(ddof=1) / math.sqrt(trials) / denom
    )


# ---------------------------------------------------------------------------
# Fourier products
#
# A factor works on one level of the system it is given.  A block of q base
# maps is one map of `iterate_system(base, q)`, sampled at arity m^q.


def _check_fourier_system(sample: MeasureSample, ifs: IFS):
    if not ifs.equal_ratio or not ifs.equal_angle:
        raise ParameterError("Fourier factors need equal ratio and angle")
    if ifs.ambient_dim != 2:
        raise ParameterError("Fourier machinery is planar")
    if sample.law.arity != ifs.m:
        raise ParameterError("sample arity must match the system arity")


def fourier_psi(sample: MeasureSample, ifs: IFS, n: int, xi) -> complex:
    """Level polynomial Psi_n(xi) = sum_i W_i exp(i pi <T^n a_i, xi>).

    T = r R(angle), a_i the system's translations, W the weights of level
    n+1 (`sample.levels[n]`), their sum compensated to exactly 1.
    |Psi_n| <= 1 with equality at xi = 0.
    """
    _check_fourier_system(sample, ifs)
    if not 0 <= n < sample.depth:
        raise DepthMismatchError(f"factor {n} needs 0 <= n < sample depth {sample.depth}")
    xi = np.asarray(xi, dtype=np.float64)
    w = _compensate(sample.levels[n].copy())
    a = ifs.translations
    ang = n * float(ifs.angles[0])
    c, s = math.cos(ang), math.sin(ang)
    scale = float(ifs.ratios[0]) ** n
    rx = scale * (c * a[:, 0] - s * a[:, 1])
    ry = scale * (s * a[:, 0] + c * a[:, 1])
    phases = math.pi * (rx * xi[0] + ry * xi[1])
    # fsum keeps |Psi| <= 1 honest and makes Psi(0) exactly 1
    return complex(math.fsum(w * np.cos(phases)), math.fsum(w * np.sin(phases)))


def _psi_product(sample: MeasureSample, ifs: IFS, indices, xi) -> complex:
    """Product of the factors Psi_n(xi), n in `indices`, multiplied into 1
    in that order."""
    value = complex(1.0, 0.0)
    for n in indices:
        value *= fourier_psi(sample, ifs, n, xi)
    return value


@dataclass(eq=False)
class FourierPoint:
    xi: np.ndarray
    truncation: int
    value: complex
    tail_bound: float


def fourier_mu(sample: MeasureSample, ifs: IFS, xi, truncation: int) -> FourierPoint:
    """Truncated product of level polynomials with an explicit tail bound.

    |full - truncated| <= sum_{n >= N} pi r^n |xi| max_i |a_i| because
    each omitted factor differs from 1 by at most its largest phase.
    """
    _check_fourier_system(sample, ifs)
    if truncation < 1:
        raise ParameterError("truncation must be >= 1")
    xi = np.asarray(xi, dtype=np.float64)
    value = _psi_product(sample, ifs, range(truncation), xi)
    amax = float(np.max(np.linalg.norm(ifs.translations, axis=1)))
    r = float(ifs.ratios[0])
    tail = math.pi * float(np.linalg.norm(xi)) * amax * r ** truncation / (1.0 - r)
    return FourierPoint(xi=xi, truncation=truncation, value=value, tail_bound=tail)


@dataclass(eq=False)
class SplitProduct:
    """Partition of the truncated product into a sparse and a dense part.

    The sparse part keeps factors n with k | n+1 (every k-th level);
    the dense part keeps the rest.  Their product equals the whole product
    factor for factor.
    """

    sample: MeasureSample
    ifs: IFS
    k: int
    truncation: int
    sparse_indices: tuple
    dense_indices: tuple

    def sparse_hat(self, xi) -> complex:
        return _psi_product(self.sample, self.ifs, self.sparse_indices, xi)

    def dense_hat(self, xi) -> complex:
        return _psi_product(self.sample, self.ifs, self.dense_indices, xi)

    def whole_hat(self, xi) -> complex:
        return _psi_product(self.sample, self.ifs, range(self.truncation), xi)


def convolution_split(sample: MeasureSample, ifs: IFS, k: int, truncation: int) -> SplitProduct:
    if k < 2:
        raise ParameterError("k must be >= 2")
    _check_fourier_system(sample, ifs)
    if truncation > sample.depth:
        raise DepthMismatchError(f"truncation {truncation} exceeds sample depth {sample.depth}")
    sparse = tuple(n for n in range(truncation) if (n + 1) % k == 0)
    dense = tuple(n for n in range(truncation) if (n + 1) % k != 0)
    return SplitProduct(
        sample=sample,
        ifs=ifs,
        k=k,
        truncation=truncation,
        sparse_indices=sparse,
        dense_indices=dense,
    )


@dataclass(eq=False)
class DecayEstimate:
    ns: np.ndarray
    ts: np.ndarray
    values: np.ndarray        # complex truncated sparse products
    moduli: np.ndarray
    tail_bounds: np.ndarray   # bound on the omitted sparse factors
    slope: float
    r2: float
    exact_zeros: int


def fourier_decay(
    sample: MeasureSample,
    ifs: IFS,
    k: int,
    beta: float,
    n_ladder,
    tau: float = 1.0,
    pad: int = 2,
) -> DecayEstimate:
    """Modulus of the sparse factor product along the ladder t = tau r^{-kN}.

    For each N the product keeps factors Psi_{jk-1} for j = 1..N+pad (later
    factors have phases O(r^{k pad}) and contribute nothing measurable).
    The fitted slope of -log|product| against log t is the decay-rate
    readout: positive means power decay along the ladder.
    """
    _check_fourier_system(sample, ifs)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not 0.0 < tau < math.inf:
        raise ParameterError(f"tau must be positive and finite, got {tau}")
    ns = np.asarray(sorted(int(n) for n in n_ladder))
    if len(ns) < 2 or ns[0] < 1:
        raise ParameterError("need at least two ladder points with N >= 1")
    r = float(ifs.ratios[0])
    need = k * (int(ns[-1]) + pad)
    if need > sample.depth:
        raise DepthMismatchError(f"ladder needs sample depth {need}, have {sample.depth}")
    w = Direction.from_angle(beta).vector
    with np.errstate(over="ignore"):
        ts = tau * r ** (-k * ns.astype(np.float64))
    if not np.all(np.isfinite(ts)):
        raise ParameterError("ladder scales t = tau r^-kN must be finite")
    amax = float(np.max(np.linalg.norm(ifs.translations, axis=1)))
    values = np.zeros(len(ns), dtype=np.complex128)
    tail_bounds = np.zeros(len(ns))
    for i, n_top in enumerate(ns):
        top = int(n_top) + pad
        values[i] = _psi_product(sample, ifs, range(k - 1, top * k, k), ts[i] * w)
        tail_bounds[i] = math.pi * ts[i] * amax * r ** ((top + 1) * k - 1) / (1.0 - r ** k)
    moduli = np.abs(values)
    exact_zeros = int(np.count_nonzero(moduli == 0.0))
    keep = moduli > 0.0
    if keep.sum() >= 2:
        slope, _, r2 = _line_fit(np.log(ts[keep]), -np.log(moduli[keep])[None])
        slope, r2 = float(slope[0]), float(r2[0])
    else:
        slope, r2 = float("nan"), float("nan")
    return DecayEstimate(
        ns=ns,
        ts=ts,
        values=values,
        moduli=moduli,
        tail_bounds=tail_bounds,
        slope=slope,
        r2=r2,
        exact_zeros=exact_zeros,
    )
