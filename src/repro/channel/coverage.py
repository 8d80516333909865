"""Sequencing-coverage models.

The paper (Sections 4.1 and 6.1.2) stresses that per-cluster coverage is
never the fixed average: cluster sizes follow a Gamma distribution, so some
clusters receive many reads and some receive few or none (strand dropout,
which surfaces as an erasure). Both a fixed and a Gamma model are provided;
experiments that sweep coverage use :class:`GammaCoverage` unless they are
isolating consensus behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive


class CoverageModel:
    """Interface: sample per-cluster read counts for ``n_clusters``."""

    mean_coverage: float

    def sample(self, n_clusters: int, rng: RngLike = None) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedCoverage(CoverageModel):
    """Every cluster receives exactly ``mean_coverage`` reads."""

    mean_coverage: float

    def __post_init__(self) -> None:
        check_positive(self.mean_coverage, "mean_coverage")

    def sample(self, n_clusters: int, rng: RngLike = None) -> np.ndarray:
        return np.full(n_clusters, int(round(self.mean_coverage)), dtype=np.int64)


@dataclass(frozen=True)
class GammaCoverage(CoverageModel):
    """Gamma-distributed cluster sizes with the given mean coverage.

    Attributes:
        mean_coverage: target average reads per cluster.
        shape: Gamma shape parameter k; smaller k means more dispersion
            (more tiny clusters and dropouts). The scale is derived as
            ``mean_coverage / shape``.
    """

    mean_coverage: float
    shape: float = 6.0

    def __post_init__(self) -> None:
        check_positive(self.mean_coverage, "mean_coverage")
        check_positive(self.shape, "shape")

    def sample(self, n_clusters: int, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        scale = self.mean_coverage / self.shape
        sizes = generator.gamma(self.shape, scale, size=n_clusters)
        return np.maximum(np.round(sizes), 0).astype(np.int64)
