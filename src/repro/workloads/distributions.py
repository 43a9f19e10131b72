"""Object-size and key-popularity distributions for application studies.

The paper's key-value store evaluation uses two production object-size
distributions from Google (published in the CliqueMap paper): *Ads*,
skewed toward small objects (61% under 100B), and *Geo*, skewed larger
(13% under 100B). The exact traces are proprietary, so we synthesise
log-normal-ish mixtures matching the published small-object fractions
and the 9600B MTU cap (the paper truncates the largest 0.01% of Ads).
Key popularity follows a Zipf distribution with coefficient 0.75 over
1M objects, exactly as in the paper.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import struct
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import WorkloadError


#: Keys per ``getrandbits`` draw in :class:`SizeTable`. Bounds the
#: temporaries (a few hundred KB) of a million-key table.
SAMPLE_BLOCK = 4096
#: The four 32-bit Mersenne Twister words one size consumes, first word lowest.
_WORDS = struct.Struct("<4I")
#: ``random.random()`` scale: a 53-bit integer times 2**-53.
_RANDOM_SCALE = 1.0 / 9007199254740992.0


class ObjectSizeDistribution:
    """Piecewise-defined object size sampler.

    Defined by (cumulative_probability, size_upper_bound) breakpoints;
    within a segment sizes are sampled log-uniformly. This gives smooth,
    heavy-tailed distributions whose published percentiles we can pin
    exactly. Segment 0 starts at 16B, and the size bounds must strictly
    increase from there, so every segment has a positive width.
    """

    def __init__(
        self,
        name: str,
        breakpoints: Sequence[tuple],
        max_size: int,
    ) -> None:
        if not breakpoints:
            raise WorkloadError("need at least one breakpoint")
        previous = 0.0
        low = 16
        for cum, size in breakpoints:
            if not 0.0 < cum <= 1.0 or cum < previous:
                raise WorkloadError(f"bad cumulative probability {cum}")
            if not low < size <= max_size:
                raise WorkloadError(
                    f"bad size bound {size}: bounds must strictly increase "
                    f"from 16 and stay <= {max_size}"
                )
            previous = cum
            low = size
        if abs(breakpoints[-1][0] - 1.0) > 1e-9:
            raise WorkloadError("last breakpoint must have cumulative probability 1")
        self.name = name
        self.max_size = max_size
        self._cums = [cum for cum, _size in breakpoints]
        logs = [math.log(b) for b in [16] + [s for _c, s in breakpoints]]
        self._log_low = logs[:-1]
        self._log_span = [high - low for low, high in zip(logs, logs[1:])]

    def sample_many(self, rng: random.Random, n: int) -> List[int]:
        """Draw ``n`` object sizes in bytes.

        Equal to ``n`` sequential scalar draws — per size, one
        ``rng.random()`` picks the segment (``bisect_left`` over the
        cumulative probabilities) and a second places the size
        log-uniformly inside it — and leaves ``rng`` in the same state.
        """
        return list(SizeTable(self, rng, n))

    def _decode_one(self, words, offset: int) -> int:
        """The size whose four words start at ``offset`` in ``words``.

        ``random()`` is built from two 32-bit Mersenne Twister words,
        ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``, so the two uniforms
        a scalar draw would use are rebuilt exactly: the first picks the
        segment, the second places the size log-uniformly inside it.
        """
        a, b, c, d = _WORDS.unpack_from(words, offset)
        cums = self._cums
        seg = bisect.bisect_left(cums, ((a >> 5) * 67108864.0 + (b >> 6)) * _RANDOM_SCALE)
        if seg == len(cums):
            seg -= 1
        u_pos = ((c >> 5) * 67108864.0 + (d >> 6)) * _RANDOM_SCALE
        size = int(math.exp(self._log_low[seg] + self._log_span[seg] * u_pos))
        return max(1, min(size, self.max_size))

    def sample(self, rng: random.Random) -> int:
        """Draw one object size in bytes."""
        return self.sample_many(rng, 1)[0]

    def fraction_below(self, threshold: int, rng: random.Random, n: int = 20000) -> float:
        """Empirical fraction of sampled objects smaller than ``threshold``."""
        hits = sum(1 for size in self.sample_many(rng, n) if size < threshold)
        return hits / n


class SizeTable:
    """Object sizes of keys ``0..n-1``, drawn up front, decoded on first read.

    Construction draws all ``4 * n`` Mersenne Twister words the ``n``
    scalar draws would consume, so the generator is left exactly where
    they would leave it; ``getrandbits(128 * m)`` returns the words of
    ``m`` sizes, first word lowest. The words are kept (16 B per key)
    and a key's size is decoded from its four words when it is first
    read, then memoised: a KV shard reads a few hundred of its tens of
    thousands of keys. Whole-table reads (iteration, :meth:`mean`)
    decode every key the same way.
    """

    def __init__(self, dist: ObjectSizeDistribution, rng: random.Random, n: int) -> None:
        words = bytearray()
        for start in range(0, n, SAMPLE_BLOCK):
            m = min(SAMPLE_BLOCK, n - start)
            words += rng.getrandbits(128 * m).to_bytes(16 * m, "little")
        self._dist = dist
        self._words = words
        self._n = n
        self._memo: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, key: int) -> int:
        size = self._memo.get(key)
        if size is None:
            if not 0 <= key < self._n:
                raise WorkloadError(f"key {key} outside a table of {self._n} sizes")
            size = self._dist._decode_one(self._words, 16 * key)
            self._memo[key] = size
        return size

    def __iter__(self) -> Iterator[int]:
        decode, words = self._dist._decode_one, self._words
        for offset in range(0, 16 * self._n, 16):
            yield decode(words, offset)

    def mean(self) -> float:
        """Mean object size over the whole table, in bytes."""
        if not self._n:
            raise WorkloadError("mean of an empty size table")
        return sum(self) / self._n


def AdsObjectSizes() -> ObjectSizeDistribution:
    """Ads distribution: 61% of objects below 100B; capped at 9600B MTU."""
    return ObjectSizeDistribution(
        name="ads",
        breakpoints=[
            (0.61, 100),     # 61% < 100B (paper, CliqueMap)
            (0.85, 512),
            (0.96, 2048),
            (1.00, 9600),
        ],
        max_size=9600,
    )


def GeoObjectSizes() -> ObjectSizeDistribution:
    """Geo distribution: only 13% of objects below 100B; larger payloads."""
    return ObjectSizeDistribution(
        name="geo",
        breakpoints=[
            (0.13, 100),     # 13% < 100B (paper, CliqueMap)
            (0.45, 512),
            (0.80, 2048),
            (0.95, 4096),
            (1.00, 9600),
        ],
        max_size=9600,
    )


@functools.lru_cache(maxsize=4)
def _zipf_table(n_keys: int, coefficient: float) -> Tuple[float, ...]:
    """Cumulative Zipf probabilities of keys ``1..n_keys``, built once per shape.

    The weights are normalised by their left-to-right float sum, not by
    ``sum()``: Python 3.12 made ``sum`` of floats compensated, which
    would move the table (and every drawn key) with the interpreter.
    """
    weights = [1.0 / (k ** coefficient) for k in range(1, n_keys + 1)]
    total = 0.0
    for w in weights:
        total += w
    cumulative = list(itertools.accumulate(w / total for w in weights))
    cumulative[-1] = 1.0
    return tuple(cumulative)


class ZipfKeys:
    """Zipf-distributed key sampler over ``n_keys`` items.

    Uses the standard rejection-free inverse-CDF over precomputed
    cumulative weights, shared by every sampler of the same shape. The
    paper's KV workloads use coefficient 0.75 over 1M objects; we
    default to a smaller key space for simulation speed (the skew, not
    the cardinality, drives interface behaviour).
    """

    def __init__(self, n_keys: int, coefficient: float = 0.75) -> None:
        if n_keys <= 0:
            raise WorkloadError("n_keys must be positive")
        if coefficient < 0:
            raise WorkloadError("zipf coefficient must be non-negative")
        self.n_keys = n_keys
        self.coefficient = coefficient
        self._cumulative = _zipf_table(n_keys, coefficient)

    def sample(self, rng: random.Random) -> int:
        """Draw a key index in [0, n_keys)."""
        return bisect.bisect_left(self._cumulative, rng.random())

    def hottest_fraction(self, top: int) -> float:
        """Probability mass of the ``top`` most popular keys."""
        if top <= 0:
            return 0.0
        top = min(top, self.n_keys)
        return self._cumulative[top - 1]
