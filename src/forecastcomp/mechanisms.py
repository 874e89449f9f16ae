"""Winner-selection mechanisms for forecasting competitions.

All mechanisms map a report matrix R (n forecasters x m events) and an
outcome vector y to either a selection distribution over forecasters or a
sampled winner.  Stochastic selections take an explicit integer seed and
return a :class:`WinnerDraw` carrying the seed and the number of uniform
draws consumed, so every selection replays bit-for-bit.  Parallel callers
must pass independent seeds; nothing here touches global RNG state.

Every mechanism is one frozen dataclass with the same interface:

- ``law(reports, outcomes)``: the exact selection law given (R, y):
  ``totals_law`` of the (..., n) score totals (below), or the tally DP over
  per-event point tables.  It takes an (n, m) report matrix or a (..., n, m)
  stack of them, and (m,) outcomes or a (..., m) stack; the batch axes of
  the two broadcast, as numpy broadcasts, and the result is (batch..., n).
  (n, m) reports against (B, m) outcomes give (B, n); a (G, 1, n, m) stack
  against (B, m) outcomes gives (G, B, n).  Each row is bit for bit the law
  of its report matrix and outcome vector alone, whatever chunks of the
  batch the family's working size per row, ``law_elements(n, m)``, sets
  (noisy max chunks its own quadrature further, in ``noisy_max_law``);
- ``sampler(reports)``: for one (n, m) report matrix (every sampling entry
  point refuses a stack of them), with the work that depends only on the
  reports done once, a function of a (B, m) outcome stack and the trials'
  :class:`_Streams`, giving the (B,) sampled winners as one array, with
  their laws and draw counts.  Trial k draws only from its stream, which is
  ``np.random.default_rng(seed)`` bit for bit, so a trial draws the same
  alone as in any stack.  ``_Streams.of(seeds)`` seeds a whole batch in one
  vectorized pass (SeedSequence's mixing and PCG64's seeding in array
  arithmetic) and reads each stream through one generator, setting its
  state.  ``sample(reports, outcomes, seed)`` is the one-row case, as a
  :class:`WinnerDraw` with its law and :class:`RngTrace`;
- ``utility_kernel(opponent_reports, bits)``: the pair ``(win_probs,
  line)``.  ``win_probs`` maps row 0's report to P(row 0 wins) under each
  outcome row of ``bits``, column 0 of ``law``: (B,) for an (m,) report.
  Simple Max and the lotteries make one ``law`` call on the stacked reports
  and also take the best-response grid's (G, m) stack of candidates, giving
  (G, B); their ``line`` is None.  FTRL and noisy max score the opponents
  once per kernel (negative-entropy FTRL keeps their log-sum-exp and takes a
  sigmoid) and give ``line(own, t, weights)``, on which each point v costs
  one ``totals_law`` call, or one sigmoid, over every outcome row (see
  :func:`_line_rest`).  A kernel has a line exactly
  where the expected win probability is unimodal in each coordinate of one's
  own report: the best-response solver's certificate;
- ``truthfulness_band()``: the approximate-truthfulness radius, or None, and
  notes on its provenance.

Every score total has one formula, sum_t S(r_t, y_t) = sum_t (1 - r_t^2) + y . (2r - 1):
``_score_terms`` makes the pair once per report matrix, kernel or line, and ``_totals`` adds
y . (2r - 1) by ``np.einsum``, in numpy's own loops and not the BLAS, for ``law``, the samplers,
``score_totals``, the kernels and their lines.  A row's totals have the same bits alone as in a
stack, identical forecasters tie exactly, and a trial holds O(n + m) working elements.

Mechanisms:

- Simple Max: argmax of total quadratic score, uniform tie-breaking.
- Event lotteries (ELF): one point per event awarded by a wagering-style
  lottery, winner is the point leader.
- Generalized point-per-round: same tally structure with any bounded proper
  scoring rule whose range fits in an interval of length 1/n.  ELF is the
  point-per-round lottery with the quadratic rule; both share one per-event
  point table, which feeds the tally sampler and the exact tally DP.  The
  sampler builds the cumulative tables for outcome 0 and 1 once per report
  matrix and finds each event's point winner by binary search in them.
- FTRL: selection distribution equals the conjugate gradient of a strictly
  convex regularizer at the scaled score totals.
- Multiplicative Weights: FTRL with negative entropy (a subclass of
  :class:`Ftrl` with the regularizer fixed); the distribution is a softmax of
  the scaled totals.
- Report Noisy Max: add independent Laplace noise to the totals and take
  the argmax.

The module-level functions (``select``, ``selection_law``, ``elf_select``,
``noisy_max_win_prob``, ...) are thin delegates kept for callers that name a
mechanism by function; ``elf_point_prob`` shows one ELF event's point
probabilities.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from forecastcomp.regularizers import NEG_ENTROPY, Regularizer
from forecastcomp.scoring import as_outcomes, as_probabilities

__all__ = [
    "RngTrace",
    "WinnerDraw",
    "SimpleMax",
    "Elf",
    "PointPerRound",
    "Ftrl",
    "MultWeights",
    "ReportNoisyMax",
    "MechanismConfig",
    "derive_seed",
    "simple_max_select",
    "elf_point_prob",
    "elf_select",
    "elf_winner_law",
    "ftrl_select",
    "mw_select",
    "report_noisy_max_select",
    "noisy_max_win_prob",
    "noisy_max_law",
    "laplace_from_uniform",
    "sample_winner",
    "selection_law",
    "select",
]

DISTRIBUTION_TOL = 1e-10
DEFAULT_ENUMERATION_BUDGET = 2**20  # largest tally-DP operation count an exact point-lottery law runs
GL_ORDER = 24  # Gauss-Legendre nodes per noisy-max panel between two sorted totals
# working-array elements per chunk of rows: ``law`` runs _LAW_ELEMENTS // law_elements(n, m) rows per
# ``_law`` call, and ``noisy_max_law`` sizes its quadrature chunks by their nodes, for any caller
_LAW_ELEMENTS = 2**16


def derive_seed(master: int, *key: int) -> int:
    """Stable per-trial seed derived from a master seed and an index path."""
    return int(np.random.SeedSequence(entropy=master, spawn_key=key).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Seeds and streams of a batch of trials, in one vectorized pass
# ---------------------------------------------------------------------------

# np.random.SeedSequence's hash constants (O'Neill's seed_seq_fe) and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HIGH, _PCG64_MULT_LOW = divmod(0x2360ED051FC65DA44385DF649FCCF645, 2**64)
_WORD = 0xFFFFFFFF


def _derive_seeds(master, *key) -> np.ndarray:
    """``derive_seed(master, *key)`` over a batch, as uint32: ``master`` and
    each key an int or an array of nonnegative ints, broadcast together."""
    return _seed_words(master, key, 1)[..., 0]


def _seed_words(master, key: tuple, n_words: int) -> np.ndarray:
    """(..., n_words) uint32: ``SeedSequence(master, spawn_key=key).generate_state(n_words)``
    over a broadcast batch.  The entropy of a seed is its words zero-padded to
    the 4-word pool, then each key's words; rows whose ints have other word
    counts hash more words, so they go through the mixing as groups."""
    parts = [_int_words(master, 4)] + [_int_words(k, 1) for k in key]
    shape = np.broadcast_shapes(*(count.shape for _, count in parts))
    words = [np.broadcast_to(w.reshape(len(w), *(1,) * (len(shape) - c.ndim), *c.shape), w.shape[:1] + shape)
             .reshape(len(w), -1) for w, c in parts]
    counts = np.stack([np.broadcast_to(count, shape).ravel() for _, count in parts])
    out = np.empty((n_words, counts.shape[1]), np.uint32)
    layouts = (counts[:, :1] if (counts == counts[:, :1]).all() else np.unique(counts, axis=1)).T
    for layout in layouts:
        rows = slice(None) if len(layouts) == 1 else (counts == layout[:, None]).all(axis=0)
        out[:, rows] = _mix_entropy(np.concatenate([w[:c, rows] for w, c in zip(words, layout)]), n_words)
    return out.T.reshape(shape + (n_words,))


def _int_words(values, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """The little-endian uint32 words of nonnegative ints, (W, ...) with zeros
    past each int's own words, and their counts, (...): one word for 0, and at
    least ``pad``.  A numpy integer array takes at most two words an entry;
    Python ints take as many as they need."""
    a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if a.dtype.kind in "ui":
        if a.size and a.min() < 0:
            raise ValueError("expected non-negative integer")
        a = a.astype(np.uint64)
        words = np.stack([a & _WORD, a >> 32]).astype(np.uint32)
        counts = np.where(words[1] > 0, 2, 1)
    elif a.dtype == object and all(isinstance(x, (int, np.integer)) for x in a.flat):
        ints = [int(x) for x in a.flat]
        if any(x < 0 for x in ints):
            raise ValueError("expected non-negative integer")
        counts = np.array([max(1, -(-x.bit_length() // 32)) for x in ints], dtype=int).reshape(a.shape)
        words = np.array([[x >> 32 * i & _WORD for x in ints] for i in range(counts.max(initial=1))], np.uint32)
        words = words.reshape((len(words),) + a.shape)
    else:
        raise TypeError(f"seeds and keys must be integers, got {a.dtype}")
    if len(words) < pad:
        words = np.concatenate([words, np.zeros((pad - len(words),) + words.shape[1:], np.uint32)])
    return words, np.maximum(counts, pad)


@functools.lru_cache(maxsize=16)
def _hash_constants(start: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``count`` successive hashes from ``start``: each xors by
    h, steps h *= mult, then multiplies by the new h; (count, 1) uint32 each."""
    h = [start]
    for _ in range(count):
        h.append(h[-1] * mult & _WORD)
    return np.array(h[:-1], np.uint32)[:, None], np.array(h[1:], np.uint32)[:, None]


_SHIFT = np.uint32(16)
_MIX = np.array([_MIX_L, _MIX_R], np.uint32)
_MIX_DST = [np.array([dst for dst in range(4) if dst != src]) for src in range(4)] + [np.arange(4)]


def _hash(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = v ^ xor
    v *= mult
    v ^= v >> _SHIFT
    return v


def _mix_entropy(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """(n_words, B) uint32 ``generate_state(n_words)`` of SeedSequences with
    the (w, B) entropy words, w >= 4, in uint32 arithmetic.  The hash constant
    steps once per hash, whatever the data, so the constants are computed
    ahead; the hashes that read the same pool word run as one array."""
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 4 * (len(entropy) - 4))
    pool = _hash(entropy[:4], xor[:4], mult[:4])
    # the pool words mixed with each hash of a word: three words for each pool word, then all four
    sources = [(_MIX_DST[src], pool[src]) for src in range(4)] + [(_MIX_DST[4], word) for word in entropy[4:]]
    at = 4
    for dst, word in sources:
        r = pool[dst] * _MIX[0]
        r -= _hash(word, xor[at:at + len(dst)], mult[at:at + len(dst)]) * _MIX[1]
        r ^= r >> _SHIFT
        pool[dst] = r
        at += len(dst)
    xor, mult = _hash_constants(_INIT_B, _MULT_B, n_words)
    return _hash(pool[np.arange(n_words) % 4], xor, mult)


def _mul64(x: np.ndarray, y: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low uint64 words of x * y, for uint64 x and a 64-bit int y, by 32-bit halves."""
    x0, x1, y0, y1 = x & _WORD, x >> 32, y & _WORD, y >> 32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> 32) + (p01 & _WORD) + (p10 & _WORD)
    return x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), mid << 32 | p00 & _WORD


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2^128, each a (high, low) pair of uint64 words."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """(..., 4) uint64 (state high, low, increment high, low) of ``np.random.PCG64``
    seeded by each row of (..., 8) uint32 SeedSequence words, read as uint64
    w0..w3: the increment is 2 (w2:w3) + 1, and the state one LCG step from 0,
    plus (w0:w1), then one more step, all mod 2^128."""
    w = np.moveaxis(np.ascontiguousarray(words, "<u4").view("<u8").astype(np.uint64), -1, 0)
    inc = (w[2] << 1 | w[3] >> 63, w[3] << 1 | 1)
    high, low = _add128(inc, (w[0], w[1]))
    product = _mul64(low, _PCG64_MULT_LOW)
    state = _add128((product[0] + low * _PCG64_MULT_HIGH + high * _PCG64_MULT_LOW, product[1]), inc)
    return np.stack(state + inc, axis=-1)


@dataclass(frozen=True)
class _Streams:
    """The streams ``np.random.default_rng(seed)`` of a batch of seeds, bit for
    bit: their PCG64 states, (..., 4) uint64 from :func:`_pcg64_states`, read
    through one generator whose state each stream sets in turn."""

    states: np.ndarray
    generator: np.random.Generator

    @classmethod
    def of(cls, seeds) -> _Streams:
        """The streams of an int array, or nested sequence, of seeds, each seeded in one vectorized pass."""
        return cls(_pcg64_states(_seed_words(seeds, (), 8)), np.random.Generator(np.random.PCG64(0)))

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, rows) -> _Streams:
        return _Streams(self.states[rows], self.generator)

    def uniforms(self, k: int) -> np.ndarray:
        """(..., k): each stream's first k doubles, as ``random(k)`` draws them."""
        out = np.empty(self.states.shape[:-1] + (k,))
        bits, states = self.generator.bit_generator, self.states.reshape(-1, 4)
        for row, (hi, lo, inc_hi, inc_lo) in zip(out.reshape(len(states), k), states.tolist()):
            bits.state = {"bit_generator": "PCG64", "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
                          "has_uint32": 0, "uinteger": 0}
            self.generator.random(k, out=row)
        return out


@dataclass(frozen=True)
class RngTrace:
    """Seed and draw count of one stochastic selection, for exact replay."""

    seed: int
    draws: int


@dataclass(frozen=True)
class WinnerDraw:
    """A sampled winner plus the selection law it was drawn from.

    ``distribution`` is the conditional law of the winner given everything
    realized before the final sampling step: for Simple Max that is the
    uniform law on the argmax set given (R, y); for event-lottery mechanisms
    it is the tie-break law given the realized point tallies (the exact
    unconditional winner law is available from :func:`elf_winner_law`); for
    Report Noisy Max it is the point mass given the realized noise.
    """

    winner: int
    distribution: np.ndarray
    rng_trace: RngTrace

    def __post_init__(self) -> None:
        dist = np.asarray(self.distribution, dtype=float)
        if dist.min() < -DISTRIBUTION_TOL or abs(dist.sum() - 1.0) > DISTRIBUTION_TOL:
            raise ValueError("distribution must be a point in the simplex")
        if not 0 <= self.winner < dist.size:
            raise ValueError(f"winner index {self.winner} out of range for n={dist.size}")


# a sampler's (B,) winners, (B, n) laws they were drawn from (as a WinnerDraw's distribution) and (B,) draw counts
_Drawn = tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _validate_reports(reports) -> np.ndarray:
    r = np.asarray(reports, dtype=float)
    if r.ndim != 2:
        raise ValueError(f"reports must be a 2-D (n, m) matrix, got shape {r.shape}")
    return _validate_stack(r)


def _validate_stack(reports) -> np.ndarray:
    r = np.asarray(reports, dtype=float)
    if r.ndim < 2:
        raise ValueError(f"reports must be an (n, m) matrix or a (..., n, m) stack, got shape {r.shape}")
    if r.shape[-1] > 0:
        as_probabilities(r, "reports")
    return r


def _outcomes(r: np.ndarray, outcomes) -> np.ndarray:
    """(..., m) binary outcomes checked against (..., n, m) reports; with no events there are no values to check."""
    y = as_outcomes(outcomes) if r.shape[-1] else np.asarray(outcomes, dtype=float)
    if y.shape[-1:] != r.shape[-1:]:
        raise ValueError(f"shape mismatch: reports {r.shape} vs outcomes {y.shape}")
    return y


def _scores(r: np.ndarray, outcomes) -> np.ndarray:
    """(..., n, m) quadratic scores of validated (..., n, m) reports against (..., m) outcomes."""
    s = _outcomes(r, outcomes)[..., None, :] - r
    np.square(s, out=s)
    return np.subtract(1.0, s, out=s)


def score_totals(reports, outcomes) -> np.ndarray:
    """Total quadratic score per forecaster, (..., n) for (..., m) outcomes; zeros when m = 0."""
    r = _validate_reports(reports)
    return _totals(_score_terms(r), _outcomes(r, outcomes))


def _score_terms(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(base, slope) of (..., n, m) reports: base = sum_t (1 - r_t^2), (..., n), and slope = 2r - 1."""
    return np.sum(1.0 - r * r, axis=-1), 2.0 * r - 1.0


def _totals(terms: tuple[np.ndarray, np.ndarray], y: np.ndarray) -> np.ndarray:
    """(..., n) totals base + y . slope against (..., m) outcomes, batch axes broadcast; zeros when m = 0.
    A total is one einsum inner loop over the m events, the same in any stack while numpy runs it
    whole: at any m with one batch axis longer than 1, and up to m = 8,192 (its buffer) with more."""
    base, slope = terms
    return base + np.einsum("...m,...nm->...n", y, slope)


def _line_rest(own: np.ndarray, bits: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Q_rest and y_t of the line through an (m,) own report along coordinate t:
    under outcome row y of ``bits``, the total at own[t] = v is
    Q_rest(y) + (1 - v^2) + y_t (2v - 1), Q_rest the totals of its terms with coordinate t's set to 0.0."""
    square, slope = 1.0 - own * own, 2.0 * own - 1.0
    square[t] = slope[t] = 0.0
    return _totals((np.sum(square), slope[None]), bits)[:, 0], bits[:, t]


def _row_chunks(rows: int, row_elements: int) -> list[slice]:
    """Consecutive slices of a batch of ``rows`` rows, each of at most
    ``_LAW_ELEMENTS // row_elements`` rows (one at least): the chunks of one
    law evaluation, ``row_elements`` the working elements a row adds to it."""
    step = max(1, _LAW_ELEMENTS // max(1, row_elements))
    return [slice(k, min(k + step, rows)) for k in range(0, rows, step)]


def _batch_rows(a: np.ndarray, index: tuple[np.ndarray, ...], core: int) -> np.ndarray:
    """The rows at the unravelled ``index`` of ``a``'s broadcast over a batch
    of ``len(index)`` axes, its last ``core`` axes kept, copying only those rows."""
    a = a.reshape((1,) * (len(index) + core - a.ndim) + a.shape)
    return a[tuple(i if size > 1 else 0 for i, size in zip(index, a.shape))]


def _categorical_draws(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row k's draw from (B, n) probabilities by its uniform u[k]: the count of
    cumulative sums c <= u[k] c[-1], at most n - 1."""
    cum = np.cumsum(probs, axis=1)
    return np.minimum(np.sum(cum <= (u * cum[:, -1])[:, None], axis=1), probs.shape[1] - 1)


def sample_winner(distribution, seed: int) -> WinnerDraw:
    """Sample a winner from an explicit selection distribution."""
    dist = np.asarray(distribution, dtype=float)
    winner = int(_categorical_draws(dist[None], np.random.default_rng(seed).random(1))[0])
    return WinnerDraw(winner=winner, distribution=dist, rng_trace=RngTrace(seed, 1))


def _argmax_tie_law(totals: np.ndarray) -> np.ndarray:
    ties = totals == totals.max(axis=-1, keepdims=True)
    return ties / ties.sum(axis=-1, keepdims=True)


def _argmax_draws(values: np.ndarray, draws: int, tie_uniforms: Callable[[np.ndarray], np.ndarray]) -> _Drawn:
    """Each row's argmax of (B, n) values with uniform tie-breaking: on a tie
    of t, one more draw, the tied rows' uniforms u from ``tie_uniforms(rows)``,
    picks the min(floor(u t), t - 1)-th tied entry.  The laws are the uniform
    laws on the argmax sets."""
    laws = _argmax_tie_law(values)
    ties = laws > 0.0
    count = np.sum(ties, axis=1)
    winners = np.argmax(ties, axis=1)
    tied = np.flatnonzero(count > 1)
    if tied.size:
        pick = np.minimum(np.floor(tie_uniforms(tied) * count[tied]), count[tied] - 1)
        winners[tied] = np.argmax(np.cumsum(ties[tied], axis=1) > pick[:, None], axis=1)
    return winners, laws, draws + (count > 1)


def _outcome_stack(outcomes, rows: int, m: int) -> np.ndarray:
    """Validated (B, m) binary outcomes, one row per stream."""
    y = np.asarray(outcomes, dtype=float)
    if y.shape != (rows, m):
        raise ValueError(f"need ({rows}, {m}) outcomes, one row per stream and a column per event; got {y.shape}")
    return as_outcomes(y) if y.size else y


def _one_draw(drawn: _Drawn, seed: int) -> WinnerDraw:
    """The :class:`WinnerDraw` of a one-row sampler result drawn from ``seed``'s stream."""
    winners, laws, draws = drawn
    return WinnerDraw(int(winners[0]), laws[0], RngTrace(seed, int(draws[0])))


def _sample_tallies(tables: tuple[np.ndarray, np.ndarray], outcomes: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """(B, n) point tallies of (B, m) outcomes over lottery ``tables``.  Event
    t of row k draws u, the (B, m) ``uniforms``' entry (k, t) times the total
    of its cumulative point row c, and its point goes to forecaster
    min(count(c <= u), n - 1): a binary search, as c is sorted."""
    cum, totals = tables
    _, m, n = cum.shape
    y = outcomes.astype(np.intp)
    t = np.arange(m)
    u = uniforms * totals[y, t]
    rows, last = cum.ravel(), (y * m + t) * n - 1
    count = np.zeros_like(y)
    step = 1 << (n.bit_length() - 1)
    while step:
        probe = np.minimum(count + step, n)
        count = np.where(rows[last + probe] <= u, probe, count)
        step >>= 1
    winners = np.minimum(count, n - 1) + n * np.arange(len(y))[:, None]
    return np.bincount(winners.ravel(), minlength=len(y) * n).reshape(len(y), n)


# ---------------------------------------------------------------------------
# The mechanism interface
# ---------------------------------------------------------------------------

class _Mechanism:
    """What every mechanism provides; see the module docstring."""

    def law(self, reports, outcomes) -> np.ndarray:
        """The (..., n) law of (..., n, m) reports against (..., m) outcomes,
        batch axes broadcast, by the family's ``_law`` on chunks of the
        broadcast batch of at most ``_LAW_ELEMENTS`` working elements."""
        r = _validate_stack(reports)
        y = np.asarray(outcomes, dtype=float)
        batch = np.broadcast_shapes(r.shape[:-2], y.shape[:-1])
        rows = math.prod(batch)
        chunks = _row_chunks(rows, self.law_elements(*r.shape[-2:]))
        if len(chunks) <= 1:
            return self._law(r, y)
        laws = []
        for chunk in chunks:
            index = np.unravel_index(np.arange(chunk.start, chunk.stop), batch)
            laws.append(self._law(_batch_rows(r, index, 2), _batch_rows(y, index, 1)))
        return np.concatenate(laws).reshape(batch + r.shape[-2:-1])

    def law_elements(self, n: int, m: int) -> int:
        """Working-array elements one row of the batch adds to a ``_law`` call: its (n, m) report copy."""
        return n * m

    def sample(self, reports, outcomes, seed: int) -> WinnerDraw:
        """One sampled winner for outcomes (m,): the one-row case of ``sampler``."""
        return _one_draw(self.sampler(reports)(np.asarray(outcomes, dtype=float)[None], _Streams.of([seed])), seed)

    def sampler(self, reports) -> Callable[[np.ndarray, _Streams], _Drawn]:
        """One sampled winner per row of a (B, m) outcome stack, as a function
        of (outcomes, streams) that has done once the work depending only on
        the reports, returning (B,) winners, their (B, n) laws and (B,) draw
        counts.  Trial k's randomness comes from its stream ``streams[k]``
        alone, so it draws the same alone as in any stack."""
        raise NotImplementedError

    def utility_kernel(self, opponent_reports: np.ndarray, bits: np.ndarray) -> tuple[Callable, Callable | None]:
        """``(win_probs, None)``: the own report to P(row 0 wins) under each row
        of (B, m) ``bits``, the opponents' (n - 1, m) reports below it, (B,)
        for an (m,) report and (G, B) for a (G, m) stack of candidate reports,
        one ``law`` call each; and no line (see the module docstring)."""
        def win_probs(own: np.ndarray) -> np.ndarray:
            # (..., m) own reports atop the opponents: one (..., 1, n, m) stack against every outcome row
            own = own[..., None, :]
            others = np.broadcast_to(opponent_reports, own.shape[:-2] + opponent_reports.shape)
            return self.law(np.concatenate([own, others], axis=-2)[..., None, :, :], bits)[..., 0]

        return win_probs, None

    def truthfulness_band(self) -> tuple[float | None, dict]:
        return None, {}


class _TotalsMechanism(_Mechanism):
    """A mechanism whose law depends on the reports only through score totals."""

    def _law(self, reports, outcomes):
        return self.totals_law(_totals(_score_terms(reports), _outcomes(reports, outcomes)))

    def totals_law(self, totals: np.ndarray) -> np.ndarray:
        """Map (..., n) score totals to (..., n) selection laws."""
        raise NotImplementedError

    def utility_kernel(self, opponent_reports, bits):
        """``totals_law`` of an (m,) own report's totals beside the opponents', which are scored
        once, under every outcome row.  A line writes its own totals into a column it keeps."""
        others = _totals(_score_terms(opponent_reports), bits)

        def win_probs(own: np.ndarray) -> np.ndarray:
            return self.totals_law(np.concatenate([_totals(_score_terms(own[None]), bits), others], axis=1))[..., 0]

        def line(own: np.ndarray, t: int, weights: np.ndarray) -> Callable[[float], float]:
            rest, y = _line_rest(own, bits, t)
            totals = np.concatenate([rest[:, None], others], axis=1)

            def at(v: float) -> float:
                totals[:, 0] = rest + (1.0 - v * v) + y * (2.0 * v - 1.0)
                return float(np.dot(weights, self.totals_law(totals)[..., 0]))

            return at

        return win_probs, line

    def sampler(self, reports):
        r = _validate_reports(reports)
        terms = _score_terms(r)

        def draw(outcomes, streams):
            return self._draw(_totals(terms, _outcome_stack(outcomes, len(streams), r.shape[1])), streams)

        return draw

    def _draw(self, totals: np.ndarray, streams: _Streams) -> _Drawn:
        """One sampled winner per row of (B, n) score totals."""
        raise NotImplementedError


class _PointLottery(_Mechanism):
    """One point per event by lottery; the point leader wins, ties uniform.

    Subclasses give ``_point_probs(r, outcomes)``, the (..., m, n) table of
    per-event point probabilities for validated (..., n, m) reports and
    (..., m) outcomes, batch axes broadcast.
    """

    def _point_probs(self, r: np.ndarray, outcomes) -> np.ndarray:
        raise NotImplementedError

    def _law(self, reports, outcomes):
        return _tally_dp_law(self._point_probs(reports, outcomes))

    def law_elements(self, n, m):
        """A row's (m, n) point table and the tally DP's states."""
        return n * m + math.comb(m + n - 1, n - 1)

    def sampler(self, reports):
        """One uniform draw per event plus one more on a tie.  Each returned
        law is the tie-break law over the realized point argmax.  A trial
        reads m + 1 uniforms, the last its tie draw: the bits of ``random(m)``
        then ``random()``."""
        tables = self._point_tables(reports)
        m = tables[1].shape[1]

        def draw(outcomes, streams):
            y = _outcome_stack(outcomes, len(streams), m)
            u = streams.uniforms(m + 1)
            return _argmax_draws(_sample_tallies(tables, y, u[:, :m]), m, lambda rows: u[rows, m])

        return draw

    def _point_tables(self, reports) -> tuple[np.ndarray, np.ndarray]:
        """The cumulative point tables for every event under outcome 0 and 1,
        each row sorted, (2, m, n), and their row totals, (2, m).  A table row
        depends only on its own event and outcome, so these hold every row a
        trial uses; one ``_point_probs`` call over the two outcome rows makes
        each row as a call on a trial's outcomes would."""
        r = _validate_reports(reports)
        cum = np.ascontiguousarray(self._point_probs(r, np.repeat([[0.0], [1.0]], r.shape[1], axis=1)))
        np.cumsum(cum, axis=-1, out=cum)
        totals = cum[..., -1].copy()
        # a row is already sorted unless rounding leaves a point probability just below zero
        cum.sort(axis=-1)
        return cum, totals


# ---------------------------------------------------------------------------
# Simple Max
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleMax(_TotalsMechanism):
    """Select the forecaster with the highest total quadratic score."""

    def totals_law(self, totals):
        return _argmax_tie_law(totals)

    # the law of the stacked reports: the best-response grid passes (G, m) candidate stacks, and no line
    utility_kernel = _Mechanism.utility_kernel

    def _draw(self, totals, streams):
        """Ties are broken uniformly at random, by one uniform of a tied row's
        stream; each returned law is the exact winner law (point mass, or
        uniform over the argmax set)."""
        return _argmax_draws(totals, 0, lambda rows: streams[rows].uniforms(1)[:, 0])


def simple_max_select(reports, outcomes, seed: int) -> WinnerDraw:
    """Pick the forecaster with the highest cumulative quadratic score."""
    return SimpleMax().sample(reports, outcomes, seed)


# ---------------------------------------------------------------------------
# Event-lottery mechanisms
# ---------------------------------------------------------------------------

def _check_lottery_shape(r: np.ndarray) -> None:
    if r.shape[-2] < 2:
        raise ValueError(f"event lotteries need n >= 2 forecasters, got {r.shape[-2]}")
    if r.shape[-1] < 1:
        raise ValueError("event lotteries need m >= 1 events")


def _rule_point_probs(g: Callable, r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(..., m, n) table f_ti = 1/n + g(r_it, y_t) - mean over j != i of
    g(r_jt, y_t) for (..., n, m) reports and checked (..., m) outcomes, batch axes
    broadcast, with one call of ``g`` on (..., n, m) arrays.  A result outside
    [0, 1] is a hard error carrying the offending entry.
    """
    n, m = r.shape[-2:]
    shape = np.broadcast_shapes(y.shape[:-1], r.shape[:-2]) + (n, m)
    ys = np.broadcast_to(y[..., None, :], shape)
    gs = np.broadcast_to(g(np.broadcast_to(r, shape), ys), shape)
    gs = np.ascontiguousarray(np.swapaxes(gs, -1, -2), dtype=float)
    f = 1.0 / n + gs - (gs.sum(axis=-1, keepdims=True) - gs) / (n - 1)
    if not (f.min() >= -1e-12 and f.max() <= 1.0 + 1e-12):
        *row, t, bad = np.unravel_index(int(np.argmax(np.abs(f - 0.5))), f.shape)
        raise ValueError(
            f"scoring rule g violates its range budget: event {t}, outcome {int(ys[(*row, bad, t)])}, "
            f"forecaster {bad} gets point probability {f[(*row, t, bad)]}"
        )
    return np.clip(f, 0.0, 1.0)


@dataclass(frozen=True)
class Elf(_PointLottery):
    """One point per event via the wagering lottery; winner is the leader."""

    def _point_probs(self, r, outcomes):
        """Forecaster i receives the point on event t with probability
        1/n + (1/n) * (S(r_it, y_t) - mean of the other forecasters' scores);
        entries lie in [0, 2/n] and each row sums to 1."""
        _check_lottery_shape(r)
        s = _scores(r, outcomes)
        # in place, to hold two (..., n, m) arrays at a time
        mean_others = s.sum(axis=-2, keepdims=True) - s
        mean_others /= r.shape[-2] - 1
        s += 1.0
        s -= mean_others
        s /= r.shape[-2]
        return np.swapaxes(s, -1, -2)


@dataclass(frozen=True)
class PointPerRound(_PointLottery):
    """Point-per-event mechanism driven by a bounded proper scoring rule.

    ``g(r, y)`` maps (..., n, m) arrays of reports and outcomes to scores (a scalar
    applies everywhere).  Its values must lie in an interval of length
    ``range_length``, sampled once at construction, and ``range_length`` must
    be at most 1/n at call time; any per-event probability escaping [0, 1] is
    a hard error with a witness.
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray | float]
    range_length: float

    def __post_init__(self) -> None:
        if not self.range_length > 0.0:
            raise ValueError(f"range_length must be positive, got {self.range_length}")
        grid = np.linspace(0.0, 1.0, 101)
        vals = np.concatenate([np.broadcast_to(self.g(grid, np.full(grid.size, y)), grid.shape) for y in (0.0, 1.0)])
        observed = float(vals.max() - vals.min())
        if not observed <= self.range_length + 1e-9:
            raise ValueError(
                f"sampled range of g has length {observed}, exceeding range_length = {self.range_length}"
            )

    def _point_probs(self, r, outcomes):
        _check_lottery_shape(r)
        n = r.shape[-2]
        if self.range_length > 1.0 / n + 1e-12:
            raise ValueError(f"declared range length {self.range_length} exceeds 1/n = {1.0 / n} for n={n}")
        return _rule_point_probs(self.g, r, _outcomes(r, outcomes))


@functools.lru_cache(maxsize=16)
def _tally_graph(m: int, n: int) -> tuple[list[tuple[int, list[np.ndarray]]], np.ndarray]:
    """Per event, the tally count after it and, per forecaster, where each tally moves when that
    forecaster takes the point, tallies in descending lexicographic order; and the final tallies."""
    level = [(0,) * n]
    steps = []
    for _ in range(m):
        moves = [[s[:i] + (s[i] + 1,) + s[i + 1:] for s in level] for i in range(n)]
        level = sorted(set().union(*moves), reverse=True)
        index = {s: k for k, s in enumerate(level)}
        steps.append((len(level), [np.array([index[s] for s in move]) for move in moves]))
    return steps, np.array(level)


def _tally_dp_law(point_probs: np.ndarray) -> np.ndarray:
    """Exact winner law of a tally-and-argmax mechanism by dynamic programming,
    for an (m, n) point table or each table of a (..., m, n) stack.

    Tracks the joint distribution of the point-tally vector across events.
    The state space has at most C(m + n - 1, n - 1) tallies, far below the
    n^m cost of enumerating point-winner paths.  Sums run as in a DP over
    tallies in the order first reached: by descending forecaster, then by tally.
    """
    *batch, m, n = point_probs.shape
    est_ops = math.comb(m + n - 1, n - 1) * n * m
    if est_ops > DEFAULT_ENUMERATION_BUDGET:
        raise ValueError(
            f"exact winner law needs ~{est_ops} operations, over budget {DEFAULT_ENUMERATION_BUDGET}; "
            "estimate it from the mechanism's draw instead"
        )
    tables = point_probs.reshape(-1, m, n)
    steps, tallies = _tally_graph(m, n)
    probs = np.ones((len(tables), 1))
    for t, (size, moves) in enumerate(steps):
        nxt = np.zeros((len(tables), size))
        for i in reversed(range(n)):
            nxt[:, moves[i]] += probs * tables[:, t, i, None]
        probs = nxt
    ties = tallies == tallies.max(axis=1, keepdims=True)
    shares = probs / ties.sum(axis=1)
    law = [np.cumsum(np.where(ties[:, i], shares, 0.0), axis=1)[:, -1] for i in range(n)]
    return np.stack(law, axis=-1).reshape(*batch, n)


def elf_point_prob(reports, y_t: int, t: int) -> np.ndarray:
    """ELF's lottery probabilities for the point on event ``t``."""
    return Elf()._point_probs(_validate_reports(reports)[:, [t]], [y_t])[0]


def elf_select(reports, outcomes, seed: int) -> WinnerDraw:
    """Run the event lotteries, tally points, and pick the point leader."""
    return Elf().sample(reports, outcomes, seed)


def elf_winner_law(reports, outcomes) -> np.ndarray:
    """Exact winner law of the event-lottery mechanism (budget permitting)."""
    return Elf().law(reports, outcomes)


# ---------------------------------------------------------------------------
# Regularized leaders
# ---------------------------------------------------------------------------

def _warn_if_eta_outside_truthful_range(eta: float, reg: Regularizer) -> None:
    if reg.declared is None:
        return
    limit = reg.declared.eta_ceiling
    if eta >= limit:
        warnings.warn(
            f"eta={eta} is outside the approximate-truthfulness range "
            f"eta < min(alpha/2, 1/beta) = {limit} for {reg.name}",
            stacklevel=4,
        )


@dataclass(frozen=True)
class Ftrl(_TotalsMechanism):
    """Distribution-valued selection: gradient of the conjugate at eta * totals."""

    regularizer: Regularizer
    eta: float

    # Published learning-rate ceilings recorded beside the truthfulness band.
    eta_ceilings: ClassVar[dict] = {}

    def __post_init__(self) -> None:
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be > 0 and finite, got {self.eta}")
        _warn_if_eta_outside_truthful_range(self.eta, self.regularizer)

    def totals_law(self, totals):
        return self.regularizer.conjugate_grad(self.eta * totals)

    def _draw(self, totals, streams):
        """One uniform per trial, drawn from its law as :func:`sample_winner` draws."""
        laws = self.totals_law(totals)
        return _categorical_draws(laws, streams.uniforms(1)[:, 0]), laws, np.ones(len(laws), dtype=int)

    def utility_kernel(self, opponent_reports, bits):
        if self.regularizer is not NEG_ENTROPY:
            return super().utility_kernel(opponent_reports, bits)
        # law_0 = sigmoid(eta q_0 - logsumexp(eta q)), the opponents' part once: 3x the law's MW sweep rate
        eta, z = self.eta, self.eta * _totals(_score_terms(opponent_reports), bits)
        zmax = z.max(axis=1)
        log_a = zmax + np.log(np.sum(np.exp(z - zmax[:, None]), axis=1))

        def win_probs(own: np.ndarray) -> np.ndarray:
            return 1.0 / (1.0 + np.exp(log_a - eta * _totals(_score_terms(own[None]), bits)[:, 0]))

        def line(own: np.ndarray, t: int, weights: np.ndarray) -> Callable[[float], float]:
            # one sigmoid per point: L = log_a - eta Q_rest, less eta times the coordinate's own score
            rest, y = _line_rest(own, bits, t)
            lead, slope = log_a - eta * rest, eta * y

            def at(v: float) -> float:
                x = lead - (eta * (1.0 - v * v) + slope * (2.0 * v - 1.0))
                return float(np.dot(weights, 1.0 / (1.0 + np.exp(x))))

            return at

        return win_probs, line

    def truthfulness_band(self):
        declared = self.regularizer.declared
        if declared is None:
            return None, {}
        return (declared.beta + 1.0) * self.eta, {"eta": self.eta, **self.eta_ceilings}


@dataclass(frozen=True)
class MultWeights(Ftrl):
    """FTRL with negative entropy: softmax of eta-scaled total quadratic scores."""

    regularizer: Regularizer = field(default=NEG_ENTROPY, init=False, repr=False)

    # Two learning-rate ceilings circulate for this guarantee: the strict 1/4
    # and the curvature-level min(alpha/2, 1/beta).
    eta_ceilings: ClassVar[dict] = {
        "eta_threshold_strict": 0.25,
        "eta_threshold_curvature": NEG_ENTROPY.declared.eta_ceiling,
    }


def ftrl_select(reports, outcomes, regularizer: Regularizer, eta: float) -> np.ndarray:
    """Selection distribution of the regularized leader: grad C(eta * totals).

    Deterministic; sample the winner separately with :func:`sample_winner`
    so experiments can work with exact expectations.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return regularizer.conjugate_grad(eta * score_totals(reports, outcomes))


def mw_select(reports, outcomes, eta: float) -> np.ndarray:
    """Multiplicative-weights distribution: softmax of eta-scaled totals."""
    return ftrl_select(reports, outcomes, NEG_ENTROPY, eta)


# ---------------------------------------------------------------------------
# Report Noisy Max
# ---------------------------------------------------------------------------

def laplace_from_uniform(u: float, b: float) -> float:
    """Inverse-CDF map from u in (-1/2, 1/2) to a Laplace(0, b) sample."""
    if not 0.0 < b < math.inf:
        raise ValueError(f"scale b must be finite and positive, got {b}")
    return -b * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u)) if u != 0.0 else 0.0


@dataclass(frozen=True)
class ReportNoisyMax(_TotalsMechanism):
    """Argmax of Laplace-perturbed totals; the scale b must be at least 4."""

    b: float

    def __post_init__(self) -> None:
        if not (self.b >= 4.0 and math.isfinite(self.b)):
            raise ValueError(f"ReportNoisyMax requires a finite b >= 4, got {self.b}")

    def totals_law(self, totals):
        return noisy_max_law(totals, self.b)

    def _draw(self, totals, streams):
        return _noisy_max_draws(totals, self.b, streams.uniforms(totals.shape[1]))

    def truthfulness_band(self):
        return 4.0 / self.b, {"b": self.b}


def report_noisy_max_select(reports, outcomes, b: float, seed: int) -> WinnerDraw:
    """Argmax of totals perturbed by independent Laplace(0, b) noise.

    Ties are measure-zero and broken by lowest index.  The returned
    distribution is the point mass on the realized winner.
    """
    if not 0.0 < b < math.inf:
        raise ValueError(f"scale b must be finite and positive, got {b}")
    totals = score_totals(reports, outcomes)[None]
    return _one_draw(_noisy_max_draws(totals, b, _Streams.of([seed]).uniforms(totals.shape[1])), seed)


def _noisy_max_draws(totals: np.ndarray, b: float, uniforms: np.ndarray) -> _Drawn:
    """Argmax of each row of (B, n) totals plus n Laplace(0, b) draws, the
    row's n ``uniforms`` u mapped one at a time by ``laplace_from_uniform(u - 0.5, b)``:
    np.log1p differs from math.log1p in the last bits."""
    noise = np.array([[laplace_from_uniform(u - 0.5, b) for u in row] for row in uniforms.tolist()])
    winners = np.argmax(totals + noise.reshape(totals.shape), axis=1)
    return winners, np.eye(totals.shape[1])[winners], np.full(len(winners), totals.shape[1])


@functools.cache
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)  # imports numpy.polynomial on first use


def noisy_max_win_prob(totals, b: float, index: int) -> float:
    """Exact probability that one forecaster wins under Report Noisy Max."""
    return float(noisy_max_law(totals, b)[index])


def noisy_max_law(totals, b: float) -> np.ndarray:
    """Exact selection law of Report Noisy Max given (..., n) score totals.

    Over the winner's noisy total x, P(i wins) is the integral of f(x - q_i) prod_{j != i} F(x - q_j),
    f and F the Laplace(0, b) density and CDF: the sum of :func:`_noisy_max_terms` in node order, so
    each row's law is the same alone or in a stack.  The rows go through the quadrature in chunks
    of consecutive rows whose terms hold at most ``_LAW_ELEMENTS`` elements (one row at least):
    n times the chunk's nodes per row, its widest row's panels (one per 4b of each gap between
    the totals) padding the others, and the tails.
    """
    if not 0.0 < b < math.inf:
        raise ValueError(f"scale b must be finite and positive, got {b}")
    q = np.asarray(totals, dtype=float)
    n, rows = q.shape[-1], q.reshape(-1, q.shape[-1])
    law = np.empty(rows.shape)
    for chunk in _noisy_max_chunks(rows, b):
        law[chunk] = np.cumsum(_noisy_max_terms(rows[chunk], b), axis=-1)[..., -1].T
    law = law.reshape(q.shape)
    total = law.sum(axis=-1, keepdims=True)
    if np.any(np.abs(total - 1.0) > 1e-8):
        raise RuntimeError(f"noisy-max quadrature lost mass: sum={total.ravel()[np.argmax(np.abs(total - 1.0))]}")
    return law / total


def _noisy_max_chunks(rows: np.ndarray, b: float) -> list[slice]:
    """Consecutive slices of (B, n) totals whose :func:`_noisy_max_terms` hold at most ``_LAW_ELEMENTS``
    elements (one row at least): n times the slice's rows times the nodes of its widest row."""
    if not len(rows):
        return []
    n = rows.shape[1]
    tails = 1 + (n + 1) // 2
    # a row has fewer than n - 1 + spread / 4b panels: a stack that fits by its whole spread is one chunk
    if n * len(rows) * (GL_ORDER * (n + (rows.max() - rows.min()) / (4.0 * b)) + tails) <= _LAW_ELEMENTS:
        return [slice(0, len(rows))]
    nodes = GL_ORDER * _gap_panels(np.sort(rows, axis=1), b).sum(axis=1).astype(int) + tails
    chunks, start = [], 0
    while start < len(rows):
        # the terms of rows start..start + k hold (k + 1) n times the most nodes among them
        widest = np.maximum.accumulate(nodes[start:start + max(1, _LAW_ELEMENTS // (n * nodes[start]))])
        stop = start + max(1, int(np.sum(n * widest * np.arange(1, len(widest) + 1) <= _LAW_ELEMENTS)))
        chunks.append(slice(start, stop))
        start = stop
    return chunks


def _gap_panels(s: np.ndarray, b: float) -> np.ndarray:
    """(B, n - 1) quadrature panels of each gap between (B, n) sorted totals: one per 4b of width, one at least."""
    return np.maximum(1.0, np.ceil((s[:, 1:] - s[:, :-1]) / (4.0 * b)))


def _noisy_max_terms(rows: np.ndarray, b: float) -> np.ndarray:
    """(n, B, nodes) terms of each forecaster's win probability for (B, n) totals, in node order.

    With s a row's sorted totals, the integral has three parts, each a weight times
    b f(x - q_i) prod_{j != i} F(x - q_j) at its nodes:

    - node 0, left of s_min: every factor is exponential in x, and every forecaster gets
      prod_j (d_j / 2) / n, d = exp((s_min - q) / b);
    - then the gaps between the totals, where the integrand is smooth: Gauss-Legendre panels at
      most 4b wide (a panel resolves only a few decay lengths), exact to near machine precision;
    - the last ceil(n/2) nodes, right of s_max: w = exp(-(x - s_max) / b) and
      c = exp(-(s_max - q) / b) make the integral over w in [0, 1] of
      (1/2) c_i prod_{j != i} (1 - c_j w / 2), a polynomial of degree n - 1 that they integrate
      exactly.

    A row's forecasters share its nodes; shorter rows are padded with zero-width panels.
    """
    n = rows.shape[1]
    s = np.sort(rows, axis=1)
    width = s[:, 1:] - s[:, :-1]
    pieces = _gap_panels(s, b)
    starts = np.cumsum(pieces, axis=1) - pieces
    count = pieces.sum(axis=1, keepdims=True)
    # panel boundary p lies at fraction t of the one gap with t in [0, 1), or at s_max past the last
    p = np.arange(count.max() + 1)[:, None]
    t = (p - starts[:, None, :]) / pieces[:, None, :]
    x = np.where((t >= 0.0) & (t < 1.0), s[:, None, :-1] + width[:, None, :] * t, 0.0).sum(axis=2)
    x = np.where(p.T >= count, s[:, -1:], x)
    nodes, weights = _gl_nodes(GL_ORDER)
    half = 0.5 * (x[:, 1:] - x[:, :-1])
    # (n, B, nodes): forecaster j's offset x - q_j at every panel node of each row
    z = ((0.5 * (x[:, 1:] + x[:, :-1]))[..., None] + half[..., None] * nodes).reshape(len(rows), -1) - rows.T[..., None]
    gaps = 0.5 * np.exp(-np.abs(z) / b)  # b f(z), and F(z) for z < 0 or 1 - F(z) for z >= 0
    w, omega = _gl_nodes((n + 1) // 2)
    w = 0.5 * (w + 1.0)  # on [0, 1], where the weights halve
    left = 0.5 * np.exp((s[:, :1] - rows) / b).T[..., None]  # d_j / 2: b f and F alike
    right = 0.5 * np.exp((rows - s[:, -1:]) / b).T[..., None] * w  # c_j w / 2: b f and 1 - F
    cdf = np.concatenate([left, np.where(z < 0.0, gaps, 1.0 - gaps), 1.0 - right], axis=-1)
    # each node's weight times b f(x - q_i)
    dens = np.concatenate([
        left / n, gaps * (half[..., None] * (weights / b)).reshape(len(rows), -1), right * (0.5 * omega / w),
    ], axis=-1)
    # prod_{j != i} F_j as the product of the CDFs before i times those after i
    others, after = np.ones_like(cdf), np.ones_like(cdf[0])
    for j in range(1, n):
        others[j] = others[j - 1] * cdf[j - 1]
    for j in range(n - 2, -1, -1):
        after = after * cdf[j + 1]
        others[j] *= after
    others *= dens
    return others


MechanismConfig = SimpleMax | Elf | PointPerRound | Ftrl | MultWeights | ReportNoisyMax


# ---------------------------------------------------------------------------
# Dispatchers
# ---------------------------------------------------------------------------

def selection_law(config: MechanismConfig, reports, outcomes) -> np.ndarray:
    """Exact selection distribution of any mechanism given (R, y)."""
    return config.law(reports, outcomes)


def select(config: MechanismConfig, reports, outcomes, seed: int) -> WinnerDraw:
    """Sample a winner under any mechanism configuration."""
    return config.sample(reports, outcomes, seed)

