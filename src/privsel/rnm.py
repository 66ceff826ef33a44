"""Bounds for reporting the index of the largest noised query.

Each query gets independent Gaussian noise and only the argmax index is
released.  The guarantees here come from a union-style reduction: the
divergence of the released index is at most the number of candidates
times the divergence of one noised score at doubled sensitivity (or at
the original sensitivity when all scores move the same way between
neighboring inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import gaussian_profile
from .profiles import Scaled, _check_positive


@dataclass(frozen=True)
class RnmSpec:
    """Candidate count, whether all scores shift monotonically between
    neighbors, and the noise scale."""

    candidates: int
    monotone: bool
    sigma: float

    def __post_init__(self):
        if self.candidates < 1:
            raise ValueError(f"candidates must be >= 1, got {self.candidates}")
        _check_positive(sigma=self.sigma)

    def noise_profile(self, scale=1.0):
        """Profile of one noised score at the relevant sensitivity (1 when
        monotone, else 2) times scale: the scores' own sensitivity, and
        sqrt(rounds) for a composition over rounds."""
        sens = 1.0 if self.monotone else 2.0
        return gaussian_profile(self.sigma, sens * scale)


def rnm_profile(base, candidates):
    """Index-release profile min(1, candidates * base(eps)).

    base must be the profile of a single noised score at doubled
    sensitivity, or at unit sensitivity in the monotone case.
    """
    return rnm_composition_profile(base, candidates, 1)


def rnm_composition_profile(base_comp, candidates, rounds):
    """Profile for rounds adaptive argmax releases.

    base_comp must already be the rounds-fold composed single-score
    profile (for Gaussian noise: gaussian_profile(sigma, sens*sqrt(rounds)));
    the candidate factor then enters once per round, as
    min(1, candidates**rounds * base_comp(eps)).  A factor past float
    range is refused: no delta below 1 is certifiable there.
    """
    if candidates < 1:
        raise ValueError(f"candidates must be >= 1, got {candidates}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    try:
        factor = float(candidates) ** rounds
    except OverflowError:
        raise ValueError(f"candidates**rounds = {candidates}**{rounds} "
                         f"overflows float64") from None
    return Scaled(base_comp, factor)


def rnm_gaussian_eps(sigma, candidates, delta):
    """Closed-form eps(delta) for the non-monotone Gaussian mechanism:
    2/sigma^2 + (2/sigma) sqrt(2 log(candidates/delta))."""
    _check_positive(sigma=sigma)
    if candidates < 1:
        raise ValueError(f"candidates must be >= 1, got {candidates}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if candidates <= delta:
        raise ValueError("requires candidates/delta > 1")
    return 2.0 / sigma**2 + (2.0 / sigma) * math.sqrt(
        2.0 * math.log(candidates / delta)
    )
