"""Exact sampling of fields conditioned on <T|phi>.

An unconditional draw is phi = L g with g i.i.d. standard, one coefficient per
column of the factor L (`covariance.sqrt_factor`): the Karhunen-Loeve series over
the P modes with eigenvalue above eps * lam_max, or the N columns of a circulant
embedding.
A conditional draw adds a rank-one update along the profile (Matheron's rule):
with p = C T, q = p/||p||_2, B and <T|C|T> the sample's `k` (`functionals.constants`),
l = w L^T T (so <T|L g> = <l|g>), v = l/||l||, t_1 = <v|g>, alpha = u/sqrt(<T|C|T>),
|t_u| = hypot(sqrt(rho), alpha) (neither is squared; on a real field in random mode
t_u is drawn and rho = (t_u - alpha)(t_u + alpha)) and phi_u = L g + ((t_u - t_1)/B) q.
As L v = q/B, this is the adapted-basis split L(t_u v + g_perp), with the same law, and
<T|phi_u> = t_u sqrt(<T|C|T>) to roundoff: the event is |<T|phi>| >= u on a complex
field and <T|phi> >= u on a real one (t_u >= 0; the symmetric event's law is this
one times a fair random sign).  The factor supplies only L g and v.
`condition_blocks` forms k once, draws NOISE_BLOCK samples at a time and applies
the factor once to the rows it drew; a row of `Factor.apply` does not depend on its
block, so a one-sample call gives bitwise the draw of a sweep.  It yields per block the
columns phi = L g, t_1 and r^2 (row sums), the (n, |U|) arrays t_u, rho and
theta, and k: all a record is scored from; `FieldSample.values` (phi_u) is formed
only where read.  A block's noise is dropped before the block is scored, and t_1,
r^2 and `Factor.apply` take a few rows at a time: a sweep's peak is one noise
block and under two n x M arrays (M = 65,536, 100 samples: 246 MB real, 400 MB complex).

Reproducibility: streams are counter-based (Philox) and splittable, keyed by numpy's
SeedSequence(seed, spawn_key=path): one stream by numpy itself (`substream`), a batch
in one array pass (`stream_keys`).  A conditioned sample is one stream read in one
order: g, then (t_u, rho, theta) for each threshold; complex coefficient n is the
normals (2n, 2n+1), so a stream's leading coefficients do not depend on the rank.
Sweeps and conditional draws give sample i its own substream(seed, path..., i),
so they are order-independent; a sweep reads them through one re-keyed Philox
(`keyed_streams`), each fully before the next.  `verify prop1` draws its
unconditional noise from one stream, substream(seed, 0), read in fixed-size
blocks whose size does not change the draws.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import _CHUNK_ROWS, Factor
from .errors import DegenerateFunctional, NegativeU, ThresholdOverflow
from .functionals import LinearFunctional, TheoryConstants, constants

REAL = "real"
COMPLEX = "complex"

FIXED_RHO = "fixed-rho"
RANDOM = "random"

# Rows of noise drawn and multiplied at once: a block, the one a sweep holds at its peak, is
# at most NOISE_BLOCK x rank, with rank N ~ 2M by embedding (134 MB real at M = 65,536).
NOISE_BLOCK = 128


# numpy's SeedSequence constants (bit_generator.pyx); none depends on the entropy
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (init, mult) of the entropy hash,
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # of generate_state's hash
_MIX = (0xCA01F9DD, 0x4973F715)  # and the pool mixer's pair


def stream_keys(seed: int, *path: int, n: int) -> np.ndarray:
    """numpy's SeedSequence(seed, spawn_key=(*path, i)).generate_state(2, np.uint64)
    for i < n as an (n, 2) array, in one array pass: the words common to all i are
    hashed as ints, the word i as one uint32 array.  Raises ValueError on a negative
    seed or path entry, and unless 0 <= n < 2**32 (so that i is one word)."""
    if not 0 <= n < 2 ** 32:
        raise ValueError(f"need 0 <= n < 2**32 streams, got {n}")
    ints = [int(x) for x in (seed, *path)]
    if min(ints) < 0:
        raise ValueError(f"expected non-negative integers, got {ints}")
    mask = 0xFFFFFFFF
    words = [[(x >> s) & mask for s in range(0, max(x.bit_length(), 1), 32)] for x in ints]
    words[0] += [0] * (4 - len(words[0]))  # as numpy >= 1.19, spawned entropy is padded to the pool
    entropy = [w for x in words for w in x] + [np.arange(n, dtype=np.uint32)]
    h, mult = _HASH_A

    def hashmix(value):  # value ^ h, then h *= mult, then value * h: mod 2**32
        nonlocal h
        value = (value ^ h) * (h := h * mult & mask) & mask
        return value ^ value >> 16

    def mix_in(dst, value):  # pool[dst] = mix(pool[dst], hashmix(value))
        x = ((_MIX[0] * pool[dst] & mask) - (_MIX[1] * hashmix(value) & mask)) & mask
        pool[dst] = x ^ x >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        mix_in(dst, pool[src])
    for word, dst in itertools.product(entropy[4:], range(4)):
        mix_in(dst, word)
    h, mult = _HASH_B
    lo0, hi0, lo1, hi1 = [np.asarray(hashmix(word), np.uint64) for word in pool]
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=-1)


def keyed_streams(keys):
    """One Generator over one Philox, re-keyed (counter 0, empty buffer) to each row
    of `keys` in turn: the streams of Philox(key=row), each read before the next."""
    bitgen = np.random.Philox(key=0)
    state, rng = bitgen.state, np.random.Generator(bitgen)  # a fresh generator's
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield rng


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent, order-free stream for a (seed, path) pair: numpy's
    Generator(Philox(SeedSequence(seed, spawn_key=path))).  Raises ValueError on a
    negative seed or path entry."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


@dataclass(frozen=True)
class ConditionSpec:
    """Threshold, scalar field, and how the conditional coefficient is drawn: a
    complex field is conditioned on |<T|phi>| >= u, a real one on <T|phi> >= u."""

    u: float
    scalar: str = COMPLEX
    mode: str = FIXED_RHO
    rho: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.u < math.inf:
            raise NegativeU(f"threshold u must be finite and >= 0, got {self.u}")
        if self.scalar not in (REAL, COMPLEX):
            raise ValueError(f"scalar must be {REAL!r} or {COMPLEX!r}")
        if self.mode not in (FIXED_RHO, RANDOM):
            raise ValueError(f"mode must be {FIXED_RHO!r} or {RANDOM!r}")
        if self.mode == FIXED_RHO and not (0 <= self.rho < math.inf and math.isfinite(self.theta)):
            raise ValueError(f"need finite rho >= 0 and theta, got {self.rho}, {self.theta}")
        if self.scalar == REAL and self.mode == FIXED_RHO and self.theta != 0.0:
            raise ValueError("real scalar field requires theta = 0")


@dataclass(frozen=True)
class FieldSample:
    """A realization phi_u = phi + ((t_u - t_1)/B) q and its conditioning record;
    in a block (`condition_blocks`), phi, t1 and r2 have a sample axis and t_u,
    rho and theta are (n, |U|), with u per column."""

    phi: np.ndarray = field(repr=False)  # the unconditional draw L g
    scalar: str
    t_u: complex | float
    r2: float  # residual noise energy sum_{n>=2} |t_n|^2
    u: float
    rho: float
    theta: float
    t1: complex | float  # <v|g>
    k: TheoryConstants = field(repr=False)  # q, B, <T|C|T> and the grid

    @functools.cached_property
    def values(self) -> np.ndarray:
        """phi_u, formed on first read, read-only; of a block, (n, |U|, M)."""
        q = self.k.profile / self.k.profile_norm
        shift = (self.t_u - np.asarray(self.t1)[..., None]) / self.k.b_const
        values = np.expand_dims(self.phi, -2) + shift[..., None] * q
        values = values.reshape(np.shape(self.t_u) + (-1,))
        values.setflags(write=False)
        return values


def white_noise(m: int, scalar: str, rng: np.random.Generator,
                n: int | None = None) -> np.ndarray:
    """m i.i.d. standard coefficients (complex: independent re/im parts of
    variance 1/2, from one read of 2m normals; coefficient j is the pair
    (2j, 2j+1), so it does not depend on m).

    With a count `n`, an (n, m) block whose row k is bitwise the k-th of n
    successive single draws from the same `rng`."""
    lead = () if n is None else (n,)
    if scalar == REAL:
        return rng.standard_normal(lead + (m,))
    g = rng.standard_normal(lead + (2 * m,))
    # as complex / real does, times the reciprocal: bitwise (re + 1j im) / sqrt(2)
    g *= 1.0 / np.sqrt(2.0)
    return g.view(complex)


def _lower_tail(alpha: float):
    """A standard normal conditioned on z >= alpha, as rng -> z with its rate formed once:
    plain rejection for alpha <= 0 (acceptance >= 1/2), else a shifted-exponential proposal
    of the optimal rate lam = (alpha + sqrt(alpha^2 + 4)) / 2, formed as
    alpha/2 + hypot(alpha/2, 1) so that no alpha is squared."""
    if alpha <= 0.0:
        def draw(rng):
            while True:
                z = rng.standard_normal()
                if z >= alpha:
                    return float(z)
        return draw
    lam = alpha / 2.0 + math.hypot(alpha / 2.0, 1.0)
    scale = 1.0 / lam

    def draw(rng):
        while True:
            z = alpha + scale * rng.standard_exponential()  # rng.exponential(scale), bitwise
            if rng.random() <= math.exp(-((z - lam) ** 2) / 2.0):
                return z
    return draw


def _t_u_drawer(spec: ConditionSpec, tct: float):
    """`sample_t_u` for one spec as rng -> (t_u, rho, theta), with alpha = u/sqrt(<T|C|T>)
    and the lower tail's proposal rate formed once; raises ThresholdOverflow where alpha
    is not a finite double."""
    if not tct > 0.0:
        raise DegenerateFunctional(f"<T|C|T> = {tct} must be positive")
    alpha = spec.u / math.sqrt(tct)
    if not alpha < math.inf:
        raise ThresholdOverflow(f"u/sqrt(<T|C|T>) is not a finite double at u = {spec.u}")
    tail = _lower_tail(alpha) if spec.mode == RANDOM and spec.scalar == REAL else None

    def draw(rng):
        if tail is not None:
            t_u = tail(rng)  # rho = (t_u - alpha)(t_u + alpha), with the sum halved to fit
            return t_u, 2.0 * ((t_u - alpha) * (t_u / 2.0 + alpha / 2.0)), 0.0
        if spec.mode == FIXED_RHO:
            rho, theta = spec.rho, spec.theta
        else:
            # rng.exponential(1.0) and rng.uniform(0.0, 2 pi), bitwise, without their checks
            rho = float(rng.standard_exponential())
            theta = float(2.0 * math.pi * rng.random())
        t_u = math.hypot(math.sqrt(rho), alpha)
        if spec.scalar == COMPLEX:
            t_u *= complex(math.cos(theta), math.sin(theta))
        return t_u, rho, theta
    return draw


def sample_t_u(spec: ConditionSpec, tct: float, rng: np.random.Generator):
    """Draw (t_u, rho, theta) for the conditional first coefficient, with
    |t_u| = hypot(sqrt(rho), alpha) and alpha = u/sqrt(<T|C|T>), squaring neither
    (on a real field in random mode, t_u is drawn and rho = (t_u - alpha)(t_u + alpha));
    raises ThresholdOverflow where alpha is not a finite double."""
    return _t_u_drawer(spec, tct)(rng)


def condition_blocks(factor: Factor, t: LinearFunctional, specs, rngs):
    """Condition one sample per stream in `rngs`, NOISE_BLOCK streams at a time,
    each read fully before the next is requested (so `keyed_streams` can serve
    them), on every spec in the list `specs`, with k = constants(t, factor.cov)
    formed once before any stream is read; yields per block of streams one
    FieldSample block (module docstring) of that k whose column j is specs[j].
    A stream is read as g (`white_noise`, of the specs' one scalar type), then
    (t_u, rho, theta) per spec in order (`sample_t_u` with k.tct), and r^2 is
    ||g - t_1 v||^2.  Raises ValueError unless the specs share one scalar type,
    then what `constants` raises (GridMismatch for t off the factor's grid)."""
    scalars = {spec.scalar for spec in specs}
    if len(scalars) != 1:
        raise ValueError(f"need specs of exactly one scalar type, got {sorted(scalars)}")
    (scalar,) = scalars
    k = constants(t, factor.cov)
    l_t = factor.adjoint(t.coeff)
    l2 = float(np.vdot(l_t, l_t).real)
    if not l2 > 0.0:  # guards the division by ||l||; `constants` gates roundoff
        raise DegenerateFunctional("L^T T is zero")
    v = l_t / math.sqrt(l2)
    draws = [_t_u_drawer(spec, k.tct) for spec in specs]
    u = np.array([spec.u for spec in specs])
    dtype = complex if scalar == COMPLEX else float
    rngs = iter(rngs)
    for first in rngs:  # the block's next streams are taken one at a time, as read
        block = itertools.chain([first], itertools.islice(rngs, NOISE_BLOCK - 1))
        g = np.empty((1, factor.rank), dtype)  # a buffer per block; drops the last phi
        drawn = []  # flat: (t_u, rho, theta) per stream and spec
        for n, rng in enumerate(block, 1):
            if n > len(g):  # a second stream: room for a full block, row 0 kept
                g, g[0] = np.empty((NOISE_BLOCK, factor.rank), dtype), g[0]
            g[n - 1] = white_noise(factor.rank, scalar, rng)
            for draw in draws:
                drawn += draw(rng)
        t_u, rho, theta = np.array(drawn, dtype).reshape(n, len(specs), 3).transpose(2, 0, 1)
        # row sums, not GEMV, in chunks: a row's t_1 and r^2 do not depend on the block
        t1, r2 = np.empty(n, dtype), np.empty(n)
        for lo in range(0, n, _CHUNK_ROWS):
            c = slice(lo, min(lo + _CHUNK_ROWS, n))
            t1[c] = (g[c] * v.conj()).sum(axis=1)
            r2[c] = (np.abs(g[c] - t1[c, None] * v) ** 2).sum(axis=1)
        g = factor.apply(g[:n])  # phi: the block is scored without its noise
        yield FieldSample(phi=g, scalar=scalar, t_u=t_u, r2=r2, u=u, rho=rho.real,
                          theta=theta.real, t1=t1, k=k)


def sample_conditional(factor: Factor, t: LinearFunctional, spec: ConditionSpec,
                       rng: np.random.Generator) -> FieldSample:
    """Draw phi_u = L g + ((t_u - t_1)/B) q: row 0 of the one-spec, one-stream call of
    `condition_blocks`, so `rng` gives g and then (t_u, rho, theta), and the sample's `k`
    is constants(t, factor.cov)."""
    (s,) = condition_blocks(factor, t, [spec], [rng])
    return FieldSample(phi=s.phi[0], scalar=s.scalar, t_u=s.t_u[0, 0].item(), r2=float(s.r2[0]),
                       u=s.u[0].item(), rho=float(s.rho[0, 0]), theta=float(s.theta[0, 0]),
                       t1=s.t1[0].item(), k=s.k)
