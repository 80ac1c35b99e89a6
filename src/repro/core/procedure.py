"""The paper's robust tail-latency measurement procedure.

Section III-B assembles the methodology from the pieces the pitfalls
demand:

1. **Multiple Treadmill instances** (client machines) split the
   offered load so every client stays lightly utilized — no
   client-side queueing bias.
2. **Per-instance metric extraction, then aggregation** of metrics
   across instances (mean/median) — no pooled-distribution bias.
3. **Repeat the whole experiment** (fresh server boot, fresh seeds)
   and aggregate per-run results *until the mean converges* — the only
   defense against performance hysteresis, since no amount of extra
   samples within one run helps.

:class:`MeasurementProcedure` expresses that loop on top of the
unified execution layer (:mod:`repro.exec`): each independent run is a
:class:`~repro.exec.spec.RunSpec`, the first ``min_runs`` are
submitted as one batch (they are needed unconditionally, so a parallel
executor overlaps them), and convergence is then probed incrementally.
Results are bit-identical to serial execution regardless of the
executor, because every run is a pure function of its spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exec.executors import _ExecutorBase, default_executor
from ..exec.progress import ProgressHook
from ..exec.spec import RunResult, RunSpec
from ..measure.api import measure_spec
from ..sim.machine import HardwareSpec
from ..stats.convergence import MeanConvergence
from ..workloads.base import Workload

__all__ = ["ProcedureConfig", "RunResult", "ProcedureResult", "MeasurementProcedure"]


@dataclass
class ProcedureConfig:
    """Configuration of the full measurement procedure."""

    workload: Workload
    hardware: HardwareSpec = field(default_factory=HardwareSpec)
    #: Either an absolute offered load or a target server utilization
    #: (exactly one must be set).
    total_rate_rps: Optional[float] = None
    target_utilization: Optional[float] = None
    num_instances: int = 4
    connections_per_instance: int = 16
    warmup_samples: int = 300
    measurement_samples_per_instance: int = 5_000
    quantiles: Sequence[float] = (0.5, 0.95, 0.99)
    #: Metric combiner across instances within one run.
    combine: str = "mean"
    #: The quantile whose across-run mean drives the stopping rule.
    primary_quantile: float = 0.99
    min_runs: int = 3
    max_runs: int = 12
    convergence_rel_tol: float = 0.05
    keep_raw: bool = False
    seed: int = 0
    #: Measurement backend executing each independent run ("sim" — the
    #: virtual-time simulator — or "live" for a real endpoint; any name
    #: from the :mod:`repro.measure` registry).  The procedure itself
    #: is backend-agnostic: phases, convergence, and aggregation do not
    #: change.
    backend: str = "sim"

    def __post_init__(self) -> None:
        if (self.total_rate_rps is None) == (self.target_utilization is None):
            raise ValueError(
                "set exactly one of total_rate_rps / target_utilization"
            )
        if self.num_instances < 1:
            raise ValueError("num_instances must be >= 1")
        if self.primary_quantile not in tuple(self.quantiles):
            raise ValueError("primary_quantile must be one of quantiles")


@dataclass
class ProcedureResult:
    """Outcome of the repeat-until-converged procedure."""

    runs: List[RunResult]
    #: Across-run mean of each per-run metric.
    estimates: Dict[float, float]
    #: Across-run standard deviation of each metric.
    dispersion: Dict[float, float]
    converged: bool

    def per_run(self, q: float) -> List[float]:
        return [r.metrics[q] for r in self.runs]

    def mean_server_utilization(self) -> float:
        return float(np.mean([r.server_utilization for r in self.runs]))

    def max_client_utilization(self) -> float:
        return max(
            max(r.client_utilizations.values()) for r in self.runs
        )

    @property
    def guards_status(self) -> str:
        """Worst validity-guard status across all runs (``"pass"``
        when every audited run is clean; un-audited runs — e.g. loaded
        from a pre-guard cache — count as ``pass``)."""
        order = {"pass": 0, "skip": 0, "warn": 1, "fail": 2}
        worst = "pass"
        for r in self.runs:
            report = getattr(r, "guards", None)
            status = report.status if report is not None else "pass"
            if order.get(status, 0) > order[worst]:
                worst = status
        return worst

    def guard_findings(self) -> List["object"]:
        """Every warn/fail verdict across all runs, tagged with the
        run index: ``[(run_index, GuardVerdict), ...]``."""
        findings = []
        for r in self.runs:
            report = getattr(r, "guards", None)
            if report is None:
                continue
            for v in (*report.failures(), *report.warnings()):
                findings.append((r.run_index, v))
        return findings


class MeasurementProcedure:
    """Runs the full multi-instance, multi-run procedure.

    ``executor`` (any :mod:`repro.exec` executor) controls how the
    independent runs are scheduled; when omitted, the process-wide
    execution defaults (CLI ``--jobs`` / ``--cache-dir``) apply.
    """

    def __init__(
        self,
        config: ProcedureConfig,
        executor: Optional[_ExecutorBase] = None,
    ):
        self.config = config
        self.executor = executor

    # ------------------------------------------------------------------
    def spec_for(self, run_index: int) -> RunSpec:
        """The :class:`RunSpec` describing independent run ``run_index``."""
        cfg = self.config
        load = (
            f"{cfg.total_rate_rps:.0f}rps"
            if cfg.total_rate_rps is not None
            else f"util={cfg.target_utilization:.2f}"
        )
        return RunSpec(
            workload=cfg.workload,
            hardware=cfg.hardware,
            total_rate_rps=cfg.total_rate_rps,
            target_utilization=cfg.target_utilization,
            num_instances=cfg.num_instances,
            connections_per_instance=cfg.connections_per_instance,
            warmup_samples=cfg.warmup_samples,
            measurement_samples_per_instance=cfg.measurement_samples_per_instance,
            quantiles=tuple(cfg.quantiles),
            combine=cfg.combine,
            keep_raw=cfg.keep_raw,
            seed=cfg.seed,
            run_index=run_index,
            tag=f"{cfg.workload.name} {load} run={run_index}",
            backend=cfg.backend,
        )

    def run_once(self, run_index: int) -> RunResult:
        """One independent experiment: boot, load, measure, report."""
        return measure_spec(self.spec_for(run_index))

    def run_batch(
        self,
        run_indices: Sequence[int],
        progress: Optional[ProgressHook] = None,
    ) -> List[RunResult]:
        """Execute a fixed set of independent runs through the
        execution layer (ordered by ``run_indices``)."""
        specs = [self.spec_for(i) for i in run_indices]
        if self.executor is not None:
            return self.executor.run(specs, progress=progress)
        with default_executor() as ex:
            return ex.run(specs, progress=progress)

    def run(self, progress: Optional[ProgressHook] = None) -> ProcedureResult:
        """Repeat independent runs until the primary metric's mean
        converges (or ``max_runs`` is hit).

        The unconditional first ``min_runs`` are submitted as one batch
        (parallelizable); further runs are probed one at a time, since
        each depends on the convergence state after the last.
        """
        cfg = self.config
        rule = MeanConvergence(
            rel_tol=cfg.convergence_rel_tol,
            min_runs=cfg.min_runs,
            max_runs=cfg.max_runs,
        )
        owned = self.executor is None
        executor = self.executor if not owned else default_executor()
        try:
            runs: List[RunResult] = executor.run(
                [self.spec_for(i) for i in range(cfg.min_runs)], progress=progress
            )
            for result in runs:
                rule.add(result.metrics[cfg.primary_quantile])
            while not rule.should_stop():
                result = executor.run(
                    [self.spec_for(len(runs))], progress=progress
                )[0]
                runs.append(result)
                rule.add(result.metrics[cfg.primary_quantile])
        finally:
            if owned:
                executor.close()
        estimates = {
            q: float(np.mean([r.metrics[q] for r in runs])) for q in cfg.quantiles
        }
        dispersion = {
            q: float(np.std([r.metrics[q] for r in runs], ddof=1)) if len(runs) > 1 else 0.0
            for q in cfg.quantiles
        }
        return ProcedureResult(
            runs=runs,
            estimates=estimates,
            dispersion=dispersion,
            converged=rule.is_converged(),
        )
