"""``serve``: a closed loop keeps 8 requests outstanding against one in-process ``GraphService``."""

from __future__ import annotations

import asyncio
import shutil
import time
import traceback
from array import array

import numpy as np

from repro.artifacts import ModelRegistry
from repro.core import SGLearner
from repro.serve import GraphService

import inputs
import reference
from layers import Request
from phase import Phase, tail
from workload_fit import N_PAIRS, config_for

REF = "circuit@latest"
#: Requests kept outstanding: each caller waits for its answer before the next.
CONCURRENCY = 8
#: Distinct requests in the seeded table the callers walk through, in order.
TABLE_SIZE = 4096
#: Requests each caller sends between looks at the clock.
ROUND = 64
#: Table entries whose answers are checked against a reference after the phase.
CHECK_SAMPLE = 256
#: Answered resistances must match a scipy solve to this relative error.
RESISTANCE_RTOL = 1e-8
#: Untimed requests in set-up; they build the neighbour index and the label clustering.
WARMUP_REQUESTS = 2048
NEIGHBORS_K = 5  # the service's default
N_CLUSTERS = 8  # the service's default


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int, workdir) -> None:
        self.workdir = workdir
        self.table = self._table(np.random.default_rng(seed))
        self.service = None
        self.loop = None
        self._setups = 0

    def _table(self, rng: np.random.Generator) -> list[tuple[str, object]]:
        """50% resistance, 25% neighbours, 25% labels, in a seeded order."""
        n_nodes = inputs.circuit_truth().n_nodes
        kinds = np.array(["resistance"] * 2 + ["neighbors", "labels"])[rng.permutation(TABLE_SIZE) % 4]
        table = []
        for kind in kinds:
            if kind == "resistance":
                s, t = rng.choice(n_nodes, size=2, replace=False)
                table.append(("resistance", (int(s), int(t))))
            else:
                table.append((str(kind), int(rng.integers(n_nodes))))
        return table

    def setup(self) -> None:
        """Learn the circuit model, publish it, load it into a fresh service, warm it up."""
        self.close()
        self.truth = inputs.circuit_truth()
        voltages, currents = inputs.measure(self.truth, N_PAIRS, np.random.default_rng(inputs.DRAW_SEED))
        result = SGLearner(config_for(self.truth.n_nodes)).fit(voltages, currents)
        root = self.workdir / f"serve-{self._setups}"
        self._setups += 1
        self.version = ModelRegistry(root).publish(result, "circuit")
        self.service = GraphService(registry=ModelRegistry(root))
        self.service.warm(REF)
        self.loop = asyncio.new_event_loop()
        self.labels = np.full(self.truth.n_nodes, -1)
        self.sampled: dict[int, object] = {}
        self.loop.run_until_complete(self._closed_loop(None, WARMUP_REQUESTS))

    async def _closed_loop(self, phase: Phase | None, budget: float, traced: bool = False) -> None:
        """``CONCURRENCY`` callers, each sending whole rounds of ``ROUND`` requests.

        With a phase, callers stop at the first round end after ``budget``
        seconds and record every request's latency and table index (and,
        ``traced``, the request itself); without one, they stop once
        ``budget`` requests were sent.
        """
        cursor = 0
        deadline = time.perf_counter() + budget

        def done() -> bool:
            return time.perf_counter() >= deadline if phase is not None else cursor >= budget

        async def caller() -> None:
            nonlocal cursor
            while not done():
                for _ in range(ROUND):
                    index = cursor % TABLE_SIZE
                    cursor += 1
                    kind, payload = self.table[index]
                    start = time.perf_counter()
                    try:
                        answer = await self.service.query(REF, kind, payload)
                        ok = self._check_answer(index, kind, payload, answer)
                    except Exception:  # a failed request; the callers go on and count it
                        traceback.print_exc()
                        ok = False
                    end = time.perf_counter()
                    if phase is not None:
                        phase.add(end - start, ok, busy_s=0.0)
                        self.asked.append(index)
                        if traced:
                            phase.requests.append(Request(kind, payload, start, end))

        await asyncio.gather(*(caller() for _ in range(CONCURRENCY)))

    def _check_answer(self, index: int, kind: str, payload, answer) -> bool:
        """Labels: in range and the same every time; sampled answers are kept for :meth:`quality`."""
        if index < CHECK_SAMPLE and index not in self.sampled:
            self.sampled[index] = np.array(answer)
        if kind != "labels":
            return True
        label = int(answer)
        if self.labels[payload] < 0:
            self.labels[payload] = label
        return 0 <= label < N_CLUSTERS and self.labels[payload] == label

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        self.asked = array("l")
        if tracer is not None:
            tracer.op = "phase"
        start = time.perf_counter()
        self.loop.run_until_complete(self._closed_loop(phase, seconds, tracer is not None))
        phase.busy_s = time.perf_counter() - start
        return phase

    def timing(self, phase: Phase) -> tuple[float, float, float, str]:
        """p50, p99 and rate over every request of the phase."""
        latencies = np.frombuffer(phase.latencies)
        p50, p99 = float(np.median(latencies)), tail(latencies, 99)
        return 1e3 * p50, 1e3 * p99, phase.ops_per_s, f"p99 over {phase.attempted} requests"

    def quality(self, phase: Phase) -> dict:
        """Check the sampled answers against the stored artifact, then score the served graph."""
        graph, embedding = reference.read_artifact(self.version.path)
        solver = reference.PseudoInverse(graph)
        wrong = set()
        for index, answer in self.sampled.items():
            kind, payload = self.table[index]
            if kind == "resistance":
                expected = solver.resistances(np.array([payload]))[0]
                ok = abs(float(answer) - expected) <= RESISTANCE_RTOL * abs(expected)
            elif kind == "neighbors":
                expected = reference.brute_force_neighbors(embedding, payload, NEIGHBORS_K)
                got = np.sort(np.sum((embedding[answer] - embedding[payload]) ** 2, axis=1))
                ok = payload not in answer and np.allclose(got, expected, rtol=1e-9, atol=1e-300)
            else:
                continue
            if not ok:
                wrong.add(index)
        phase.fail(i for i, index in enumerate(self.asked) if index in wrong)
        return {
            "resistance_corr": (reference.resistance_corr(self.truth, graph), None),
            "spectral_err": (reference.spectral_err(reference.smallest_eigenvalues(self.truth), graph), None),
            "density": (graph.rows.size / graph.n_nodes, None),
        }

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.aclose())
            self.loop.close()
            self.service = self.loop = None
        for old in self.workdir.glob("serve-*"):
            shutil.rmtree(old, ignore_errors=True)
