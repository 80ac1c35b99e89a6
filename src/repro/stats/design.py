"""Two-level full-factorial experiment design (the paper's Table III).

The attribution methodology measures every permutation of the factor
levels ("2-level full factorial experiment design with the 4 factors"),
randomizing the order of experiments to preserve independence, and then
fits a quantile-regression model whose terms are the factors *and all
their interactions* (Equation 1).

This module provides:

* :class:`Factor` / :class:`FactorialDesign` — the design itself:
  enumerate the 2^k configurations, code levels as 0/1 dummies, and
  produce a randomized experiment schedule with replications.
* :func:`model_matrix` — expand coded runs into the regression design
  matrix with intercept, main effects, and interaction columns named
  exactly like the paper's Table IV rows (``numa``, ``numa:turbo``,
  ``numa:turbo:dvfs:nic``, ...).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Factor", "FactorialDesign", "model_matrix", "interaction_names"]


@dataclass(frozen=True)
class Factor:
    """One two-level factor: a name plus its low/high level labels.

    The paper's Table III, e.g.
    ``Factor("numa", low="same-node", high="interleave")``.
    """

    name: str
    low: str
    high: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("factor name must be non-empty")
        if self.low == self.high:
            raise ValueError(f"factor {self.name!r} has identical levels")

    def label(self, coded: int) -> str:
        """Level label for a coded value (0 = low, 1 = high)."""
        if coded not in (0, 1):
            raise ValueError(f"coded level must be 0 or 1, got {coded!r}")
        return self.high if coded else self.low

    def code(self, label: str) -> int:
        """Coded value for a level label."""
        if label == self.low:
            return 0
        if label == self.high:
            return 1
        raise ValueError(
            f"{label!r} is not a level of factor {self.name!r} "
            f"(levels: {self.low!r}, {self.high!r})"
        )


class FactorialDesign:
    """A 2^k full-factorial design over the given factors."""

    def __init__(self, factors: Sequence[Factor]):
        if not factors:
            raise ValueError("need at least one factor")
        names = [f.name for f in factors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate factor names in {names}")
        self.factors: List[Factor] = list(factors)

    @property
    def names(self) -> List[str]:
        return [f.name for f in self.factors]

    def configs(self) -> List[Tuple[int, ...]]:
        """All 2^k coded configurations, lexicographic in factor order."""
        return list(itertools.product((0, 1), repeat=len(self.factors)))

    def config_dict(self, coded: Sequence[int]) -> Dict[str, str]:
        """Translate a coded configuration into level labels."""
        if len(coded) != len(self.factors):
            raise ValueError(
                f"config length {len(coded)} != {len(self.factors)} factors"
            )
        return {f.name: f.label(c) for f, c in zip(self.factors, coded)}

    def config_label(self, coded: Sequence[int]) -> str:
        """Compact label like ``numa-low,turbo-high,...`` (Figs. 7/9)."""
        return ",".join(
            f"{f.name}-{'high' if c else 'low'}"
            for f, c in zip(self.factors, coded)
        )

    def schedule(
        self,
        replications: int,
        rng: np.random.Generator,
    ) -> List[Tuple[int, ...]]:
        """Randomized run order with ``replications`` per configuration.

        The paper: "We randomly choose one permutation of the
        configurations for each experiment to preserve independence
        among experiments, until we have at least 30 experiments for
        each permutation."  A shuffled replicated list realizes the
        same marginal design while guaranteeing balance.
        """
        if replications < 1:
            raise ValueError("replications must be >= 1")
        runs = [cfg for cfg in self.configs() for _ in range(replications)]
        perm = rng.permutation(len(runs))
        return [runs[i] for i in perm]


def interaction_names(names: Sequence[str], max_order: Optional[int] = None) -> List[str]:
    """All model term names: main effects then interactions by order.

    Matches the row order of the paper's Table IV: ``numa``, ...,
    ``numa:turbo``, ..., ``numa:turbo:dvfs:nic``.
    """
    k = len(names)
    if max_order is None:
        max_order = k
    if not 1 <= max_order <= k:
        raise ValueError(f"max_order must be in [1, {k}]")
    terms: List[str] = []
    for order in range(1, max_order + 1):
        for combo in itertools.combinations(range(k), order):
            terms.append(":".join(names[i] for i in combo))
    return terms


def model_matrix(
    coded_runs: Sequence[Sequence[int]],
    names: Sequence[str],
    max_order: Optional[int] = None,
) -> Tuple[np.ndarray, List[str]]:
    """Expand coded 0/1 runs into the regression design matrix.

    Returns ``(X, columns)`` where ``X`` has an intercept column of
    ones followed by one column per term of :func:`interaction_names`
    (interaction columns are products of the member factors, exactly
    Equation 1's ``x1*x2`` terms), and ``columns`` lists
    ``["(Intercept)", "numa", ..., "numa:turbo:dvfs:nic"]``.
    """
    runs = np.asarray(coded_runs, dtype=float)
    if runs.ndim != 2 or runs.shape[1] != len(names):
        raise ValueError(
            f"coded_runs must be (n, {len(names)}), got {runs.shape}"
        )
    if runs.size and not np.isin(runs, (0.0, 1.0)).all():
        raise ValueError("coded runs must contain only 0/1 levels")
    terms = interaction_names(names, max_order)
    cols = [np.ones(runs.shape[0])]
    index = {n: i for i, n in enumerate(names)}
    for term in terms:
        members = term.split(":")
        col = np.ones(runs.shape[0])
        for m in members:
            col = col * runs[:, index[m]]
        cols.append(col)
    X = np.column_stack(cols) if cols else np.empty((0, 0))
    return X, ["(Intercept)"] + terms
