"""Drift detection for the online learner's refit-vs-incremental decision.

Every :meth:`~repro.stream.OnlineSGLearner.update` has to answer one
question: is the incoming batch still explained by the graph we already
learned (cheap warm-started incremental pass) or has the measurement
distribution moved enough that only a full refit restores quality?

:class:`DriftDetector` answers it with per-batch statistics that cost one
sparse matrix product — negligible next to even a warm embedding refresh —
each judged *relative to a baseline calibrated at the last full refit*
(absolute thresholds do not transfer between a 256-node mesh and a
4900-node circuit):

* **model residual** — the learned Laplacian ``L`` should reproduce the
  measured excitations: ``||L x - y|| / ||y||`` per batch column.  The
  baseline is the same residual over the reference window; a batch measured
  on a drifted network raises the ratio (an abrupt conductance shift is a
  1.3-2x jump, fresh excitations of the unchanged network stay within a
  few percent).  This is the primary, *objective-degradation* trigger —
  it needs current excitations in the stream;
* **subspace novelty** — the fraction of batch-column energy outside the
  reference window's top left-singular subspace, compared against the
  held-out half of the window itself (basis from the first half, baseline
  novelty from the second).  The voltage-only fallback;
* **energy ratio** — mean squared column norm against the reference
  window's, catching global conductance re-scaling (voltages scale as the
  inverse conductance) that leaves both shapes above unchanged.

Two triggers live outside the statistics: ``max_updates_between_refits``
forces a periodic refit so slow drift below every threshold cannot
accumulate forever, and the learner reports incremental-pass degradation
(residual edge sensitivity it failed to drive down) through
:meth:`flag_degradation`, which forces a refit on the next update.

Examples
--------
>>> import numpy as np
>>> from repro.stream import DriftDetector
>>> rng = np.random.default_rng(0)
>>> reference = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 30))
>>> detector = DriftDetector(subspace_rank=5)
>>> detector.reset(reference)
>>> detector.assess(reference[:, :8]).refit   # same subspace: no refit
False
>>> detector.assess(rng.standard_normal((40, 8))).refit   # new energy
True
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DriftDecision", "DriftDetector"]


@dataclass(frozen=True)
class DriftDecision:
    """Outcome of one :meth:`DriftDetector.assess` call.

    Attributes
    ----------
    refit:
        Whether the learner should run a full refit for this batch.
    reason:
        Which trigger fired: ``"residual"``, ``"novelty"``, ``"energy"``,
        ``"cadence"``, ``"degradation"`` or ``"stable"`` (no refit).
    residual_ratio:
        Mean learned-Laplacian residual of the batch over the reference
        window's (``nan`` when the stream carries no currents).
    novelty:
        Mean fraction of batch-column energy outside the reference subspace.
    energy_ratio:
        Mean batch column energy over the reference window's.
    updates_since_refit:
        Incremental updates accepted since the detector was last reset.
    """

    refit: bool
    reason: str
    residual_ratio: float
    novelty: float
    energy_ratio: float
    updates_since_refit: int

    def as_dict(self) -> dict:
        """JSON-ready form (stored in snapshot metadata)."""
        return {
            "refit": self.refit,
            "reason": self.reason,
            "residual_ratio": self.residual_ratio,
            "novelty": self.novelty,
            "energy_ratio": self.energy_ratio,
            "updates_since_refit": self.updates_since_refit,
        }


class DriftDetector:
    """Measurement-distribution drift detector (see module docstring).

    Parameters
    ----------
    residual_threshold:
        Refit when the batch's learned-Laplacian residual exceeds the
        reference window's by this factor.
    novelty_margin:
        Refit when the batch's out-of-subspace energy fraction exceeds the
        window's own held-out baseline by more than this margin.
    energy_threshold:
        Refit when the mean column-energy ratio leaves
        ``[1/energy_threshold, energy_threshold]``.
    subspace_rank:
        Rank of the reference left-singular basis (clipped to the window).
    max_updates_between_refits:
        Force a refit after this many consecutive incremental updates
        (``0`` disables the cadence trigger).
    """

    def __init__(
        self,
        *,
        residual_threshold: float = 1.25,
        novelty_margin: float = 0.15,
        energy_threshold: float = 4.0,
        subspace_rank: int = 8,
        max_updates_between_refits: int = 0,
    ) -> None:
        if residual_threshold <= 1.0:
            raise ValueError("residual_threshold must exceed 1")
        if not 0.0 < novelty_margin <= 1.0:
            raise ValueError("novelty_margin must be in (0, 1]")
        if energy_threshold <= 1.0:
            raise ValueError("energy_threshold must exceed 1")
        if subspace_rank < 1:
            raise ValueError("subspace_rank must be positive")
        if max_updates_between_refits < 0:
            raise ValueError("max_updates_between_refits must be >= 0")
        self.residual_threshold = float(residual_threshold)
        self.novelty_margin = float(novelty_margin)
        self.energy_threshold = float(energy_threshold)
        self.subspace_rank = int(subspace_rank)
        self.max_updates_between_refits = int(max_updates_between_refits)
        self._basis: np.ndarray | None = None
        self._baseline_novelty = 0.0
        self._reference_energy = 1.0
        self._laplacian = None
        self._baseline_residual: float | None = None
        self._updates_since_refit = 0
        self._degraded = False

    # ------------------------------------------------------------------
    @property
    def updates_since_refit(self) -> int:
        """Incremental updates accepted since the last :meth:`reset`."""
        return self._updates_since_refit

    @staticmethod
    def _split(measurements) -> tuple[np.ndarray, np.ndarray | None]:
        """``(voltages, currents_or_None)`` from a MeasurementSet or array."""
        if hasattr(measurements, "voltages"):
            return measurements.voltages, measurements.currents
        return np.asarray(measurements, dtype=np.float64), None

    def reset(self, measurements, graph=None) -> None:
        """Recalibrate the baselines after a full refit.

        ``measurements`` is the reference window (a
        :class:`~repro.measurements.MeasurementSet` or a bare voltage
        matrix); ``graph`` the freshly learned (scaled) graph.  The model
        residual baseline needs both the graph and current excitations —
        without them the detector falls back to the novelty / energy
        statistics alone.
        """
        voltages, currents = self._split(measurements)
        if voltages.ndim != 2 or voltages.shape[1] < 1:
            raise ValueError("reference voltages must be a non-empty (N, M) matrix")
        # Basis from the first half, baseline novelty from the held-out
        # second half: an in-sample baseline would understate what a fresh
        # batch of the *unchanged* network scores.
        half = max(1, voltages.shape[1] // 2)
        rank = min(self.subspace_rank, voltages.shape[0], half)
        basis, _, _ = np.linalg.svd(voltages[:, :half], full_matrices=False)
        self._basis = basis[:, :rank]
        holdout = voltages[:, half:] if voltages.shape[1] > half else voltages
        self._baseline_novelty = self._novelty(holdout)
        energy = float(np.mean(np.sum(voltages**2, axis=0)))
        self._reference_energy = energy if energy > 0 else 1.0
        self._laplacian = None
        self._baseline_residual = None
        if graph is not None and currents is not None:
            self._laplacian = graph.laplacian()
            self._baseline_residual = self._residual(voltages, currents)
        self._updates_since_refit = 0
        self._degraded = False

    _STATE = (
        "_basis", "_baseline_novelty", "_reference_energy", "_laplacian",
        "_baseline_residual", "_updates_since_refit", "_degraded",
    )

    def snapshot(self) -> tuple:
        """The calibration and counters, for :meth:`restore`.

        :meth:`reset` and :meth:`assess` replace these fields and never
        change one in place (the basis and Laplacian are rebuilt, not
        updated), so holding the references is a complete snapshot.
        """
        return tuple(getattr(self, name) for name in self._STATE)

    def restore(self, state: tuple) -> None:
        """Put back the state of a :meth:`snapshot` (a failed update's undo)."""
        for name, value in zip(self._STATE, state, strict=True):
            setattr(self, name, value)

    def flag_degradation(self) -> None:
        """Force a refit on the next :meth:`assess` (objective degradation)."""
        self._degraded = True

    def _novelty(self, voltages: np.ndarray) -> float:
        energies = np.sum(voltages**2, axis=0)
        safe = np.where(energies > 0, energies, 1.0)
        captured = np.sum((self._basis.T @ voltages) ** 2, axis=0)
        return float(np.mean(np.clip(1.0 - captured / safe, 0.0, 1.0)))

    def _residual(self, voltages: np.ndarray, currents: np.ndarray) -> float:
        predicted = self._laplacian @ voltages
        norms = np.linalg.norm(currents, axis=0)
        norms = np.where(norms > 0, norms, 1.0)
        return float(np.mean(np.linalg.norm(predicted - currents, axis=0) / norms))

    def assess(self, measurements) -> DriftDecision:
        """Score a batch and decide refit vs incremental.

        The caller owns the follow-through: on ``refit`` it should run the
        full refit and :meth:`reset` with the new window and graph;
        otherwise the incremental-update counter advances.
        """
        if self._basis is None:
            raise RuntimeError("DriftDetector.assess called before reset()")
        voltages, currents = self._split(measurements)
        novelty = self._novelty(voltages)
        energies = np.sum(voltages**2, axis=0)
        energy_ratio = float(np.mean(energies) / self._reference_energy)
        residual_ratio = float("nan")
        if (
            self._laplacian is not None
            and currents is not None
            and self._baseline_residual
        ):
            residual_ratio = (
                self._residual(voltages, currents) / self._baseline_residual
            )
        reason = "stable"
        if self._degraded:
            reason = "degradation"
        elif residual_ratio == residual_ratio and (
            residual_ratio > self.residual_threshold
        ):
            reason = "residual"
        elif novelty > self._baseline_novelty + self.novelty_margin:
            reason = "novelty"
        elif not (1.0 / self.energy_threshold <= energy_ratio <= self.energy_threshold):
            reason = "energy"
        elif (
            self.max_updates_between_refits
            and self._updates_since_refit >= self.max_updates_between_refits
        ):
            reason = "cadence"
        refit = reason != "stable"
        decision = DriftDecision(
            refit=refit,
            reason=reason,
            residual_ratio=residual_ratio,
            novelty=novelty,
            energy_ratio=energy_ratio,
            updates_since_refit=self._updates_since_refit,
        )
        if not refit:
            self._updates_since_refit += 1
        return decision
