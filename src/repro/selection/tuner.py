"""Empirical algorithm tuning — the ``cudnnFindConvolutionForwardAlgorithm``
analogue.

Where :mod:`repro.selection.heuristic` predicts the best algorithm from the
cost model, the tuner *measures*: it runs every capable algorithm on the
actual problem a few times and caches the fastest per shape.  Useful when
the host machine's behaviour diverges from the model (as any real machine's
will), and as the ground truth the heuristic can be evaluated against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.registry import (
    ConvAlgorithm,
    convolve,
    list_algorithms,
    supports,
)
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

#: Algorithms the tuner tries by default: everything except the O(K^2 E)
#: reference, which exists for correctness only.
DEFAULT_CANDIDATES: tuple[ConvAlgorithm, ...] = tuple(
    a for a in list_algorithms() if a is not ConvAlgorithm.NAIVE
)


@dataclass(frozen=True)
class TuningResult:
    """Measured wall-clock ranking for one shape on this machine."""

    shape: ConvShape
    timings_s: dict[ConvAlgorithm, float]

    @property
    def best(self) -> ConvAlgorithm:
        return min(self.timings_s, key=self.timings_s.get)

    @property
    def best_seconds(self) -> float:
        return self.timings_s[self.best]

    def ranking(self) -> list[tuple[ConvAlgorithm, float]]:
        return sorted(self.timings_s.items(), key=lambda kv: kv[1])


class ConvTuner:
    """Measure-and-cache algorithm selection.

    >>> tuner = ConvTuner(repeats=1)
    >>> shape = ConvShape((16, 16), (3, 3), n=2, c=2, f=2)
    >>> algo = tuner.best_algorithm(shape)     # measured on this machine
    >>> tuner.best_algorithm(shape) is algo    # second call hits the cache
    True
    """

    def __init__(self, candidates: tuple[ConvAlgorithm, ...] =
                 DEFAULT_CANDIDATES, repeats: int = 3,
                 warmup: bool = True):
        if repeats < 1:
            raise ValueError("repeats must be positive")
        self.candidates = candidates
        self.repeats = repeats
        self.warmup = warmup
        self._cache: dict[ConvShape, TuningResult] = {}

    def tune(self, shape: ConvShape, x: np.ndarray | None = None,
             weight: np.ndarray | None = None) -> TuningResult:
        """Measure every capable candidate on *shape* (cached)."""
        cached = self._cache.get(shape)
        if cached is not None:
            return cached
        if x is None or weight is None:
            x, weight = random_problem(shape)
        timings: dict[ConvAlgorithm, float] = {}
        for algo in self.candidates:
            if not supports(algo, shape):
                continue
            if self.warmup:
                convolve(x, weight, algorithm=algo, padding=shape.padding,
                         stride=shape.stride)
            best = np.inf
            for _ in range(self.repeats):
                start = time.perf_counter()
                convolve(x, weight, algorithm=algo, padding=shape.padding,
                         stride=shape.stride)
                best = min(best, time.perf_counter() - start)
            timings[algo] = best
        if not timings:
            raise ValueError(f"no capable algorithm for shape {shape}")
        result = TuningResult(shape, timings)
        self._cache[shape] = result
        return result

    def best_algorithm(self, shape: ConvShape) -> ConvAlgorithm:
        """The measured-fastest algorithm for *shape* on this machine."""
        return self.tune(shape).best

    def clear(self) -> None:
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        return len(self._cache)
