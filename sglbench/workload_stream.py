"""``stream``: drifting batches feed ``OnlineSGLearner``; a follower reads each new version.

One op: a batch arrives, the learner updates and publishes version v+1,
the follower calls ``GraphService.warm("circuit@latest")``, takes one
resistance query (the op's latency ends at its answer), then answers a
fixed mixed read burst on the new version.  Freshness is measured in line,
without ``follow()`` polling, so it counts work and not poll phase.
"""

from __future__ import annotations

import asyncio
import shutil
import time
import traceback

import numpy as np

from repro.artifacts import ModelRegistry
from repro.measurements import MeasurementSet
from repro.serve import GraphService
from repro.stream import OnlineSGLearner

import inputs
import reference
from layers import Op, Request
from phase import Phase, tail
from provenance import cpu_ticks, steal_share
from workload_fit import N_PAIRS, config_for

REF = "circuit@latest"
#: Measurement pairs per batch and the learner's bounded window.
BATCH_PAIRS = 10
WINDOW = 100
#: Log-normal step of every conductance per batch: slow drift, no refit by itself.
DRIFT_RATE = 0.01
#: Every op at index 25 mod 50 measures a regime shift (a 0.5 log-normal step),
#: which fires one refit; a run is whole rounds of 50 ops, so refits are
#: always 1 in 50.
ROUND = 50
SHIFT_AT = 25
SHIFT_RATE = 0.5
#: The timings come from the ``QUIET_OPS`` ops during which other tenants of
#: the host took the least CPU time from this machine (``cpu steal``); a run
#: has at least three rounds to choose them from.  Over ten runs in which
#: the steal share reached 13% in some, p90 over every op had a spread of
#: 0.33 of its median and followed the steal share.
QUIET_OPS = 100
MIN_ROUNDS = 3
#: Untimed updates in set-up: the window fills to ``WINDOW`` after five.
WARMUP_OPS = 6
#: The read burst after each first answer: 16 resistance, 8 neighbours, 8 labels.
BURST = ("resistance",) * 16 + ("neighbors",) * 8 + ("labels",) * 8
RESISTANCE_RTOL = 1e-8
N_CLUSTERS = 8


class StreamWorkload:
    name = "stream"

    def __init__(self, seed: int, workdir) -> None:
        self.rng = np.random.default_rng([seed, 2])
        self.workdir = workdir
        self.service = None
        self.loop = None
        self._setups = 0

    def setup(self) -> None:
        """Fit the initial window, publish v1, start a follower, run the warm-up ops."""
        self.close()
        truth = inputs.circuit_truth()
        self.n_nodes = truth.n_nodes
        self.drift = inputs.DriftingCircuit(truth, DRIFT_RATE, np.random.default_rng([inputs.DRAW_SEED, 3]))
        voltages, currents = inputs.measure(truth, N_PAIRS, np.random.default_rng(inputs.DRAW_SEED))
        root = self.workdir / f"stream-{self._setups}"
        self._setups += 1
        self.learner = OnlineSGLearner(
            config_for(truth.n_nodes),
            registry=ModelRegistry(root),
            model_name="circuit",
            max_window=WINDOW,
        )
        self.learner.fit(MeasurementSet(voltages, currents))
        # The follower reads the registry through its own index, as another process would.
        self.service = GraphService(registry=ModelRegistry(root))
        self.service.warm(REF)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._ops(Phase(), WARMUP_OPS, None, shift=False))

    async def _ops(self, phase: Phase, n_ops: int, tracer, *, shift: bool = True) -> None:
        for _ in range(n_ops):
            index = len(phase.ops)
            self.drift.rate = SHIFT_RATE if shift and index % ROUND == SHIFT_AT else DRIFT_RATE
            voltages, currents = self.drift.next_batch(BATCH_PAIRS)
            probe = tuple(int(node) for node in self.rng.choice(self.n_nodes, size=2, replace=False))
            burst = [(kind, self._payload(kind)) for kind in BURST]
            parent = self.learner.last_version
            before = self.learner.graph
            if tracer is not None:
                tracer.op = index
            ticks = cpu_ticks()
            start = time.perf_counter()
            try:
                update = self.learner.update(MeasurementSet(voltages, currents))
                session = self.service.warm(REF)
                submitted = time.perf_counter()
                answer = await self.service.query(REF, "resistance", probe)
                answered = time.perf_counter()
                futures = [self.service.query(REF, kind, payload) for kind, payload in burst]
                results = await asyncio.gather(*futures)
            except Exception:  # a failed op; the run goes on and counts it
                end = time.perf_counter()
                traceback.print_exc()
                phase.add(end - start, False, Op(start, end, {"steal": steal_share(ticks)}), busy_s=end - start)
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            end = time.perf_counter()
            version = update.version
            ok = (
                version.version == parent.version + 1
                and version.parent == parent.version
                and session.checksum == version.checksum
                and abs(float(answer) - self._resistance(update.graph, probe)) <= RESISTANCE_RTOL * float(answer)
                and all(0 <= int(label) < N_CLUSTERS for (kind, _), label in zip(burst, results) if kind == "labels")
            )
            counts = {
                "steal": steal_share(ticks),
                "mode": update.mode,
                update.mode: 1,
                "edges_added": update.n_edges_added,
                "topology_changed": not np.array_equal(before.edges, update.graph.edges),
                "read_burst_s": end - answered,
            }
            phase.add(answered - start, ok, Op(start, end, counts), busy_s=end - start)
            phase.requests.append(Request("resistance", probe, submitted, answered))

    def _payload(self, kind: str):
        if kind == "resistance":
            return tuple(int(node) for node in self.rng.choice(self.n_nodes, size=2, replace=False))
        return int(self.rng.integers(self.n_nodes))

    @staticmethod
    def _resistance(graph, pair) -> float:
        return float(reference.PseudoInverse(graph).resistances(np.array([pair]))[0])

    def run(self, seconds: float, tracer=None) -> Phase:
        """Whole rounds of ``ROUND`` ops until the ops took ``seconds``, and at
        least ``MIN_ROUNDS`` rounds."""
        phase = Phase()
        while phase.busy_s < seconds or len(phase.ops) < MIN_ROUNDS * ROUND:
            self.loop.run_until_complete(self._ops(phase, ROUND, tracer))
            if len(phase.ops) == MIN_ROUNDS * ROUND:
                # Quality is scored here, so that it does not depend on how
                # many rounds the machine's speed allows.
                self.scored = (self.learner.graph, self.drift.truth)
        return phase

    def timing(self, phase: Phase) -> tuple[float, float, float, str]:
        """p50, p90 (ten ops beyond it) and rate over the ``QUIET_OPS`` quietest ops."""
        shares = np.array([op.counts["steal"] for op in phase.ops])
        quiet = np.sort(np.argsort(shares, kind="stable")[:QUIET_OPS])
        latencies = np.frombuffer(phase.latencies)[quiet]
        busy = sum(phase.ops[i].end - phase.ops[i].start for i in quiet)
        how = (
            f"p50, p90 and rate over the {quiet.size} of {phase.attempted} ops with the least cpu steal"
            f" ({shares[quiet].max():.3f} at most; all ops {shares.min():.3f}-{shares.max():.3f})"
        )
        return 1e3 * float(np.median(latencies)), 1e3 * tail(latencies, 90), quiet.size / busy, how

    def quality(self, phase: Phase) -> dict:
        """The graph after ``MIN_ROUNDS`` rounds against the truth it was last measured on."""
        graph, truth = self.scored
        return {
            "resistance_corr": (reference.resistance_corr(truth, graph), None),
            "spectral_err": (reference.spectral_err(reference.smallest_eigenvalues(truth), graph), None),
            "density": (graph.n_edges / graph.n_nodes, None),
        }

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.aclose())
            self.loop.close()
            self.service = self.loop = None
        for old in self.workdir.glob("stream-*"):
            shutil.rmtree(old, ignore_errors=True)
