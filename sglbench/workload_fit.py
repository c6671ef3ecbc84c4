"""``fit``: ``SGLearner.fit`` with the default config on three ~10k-node inputs in turn."""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.core import SGLConfig, SGLearner

import inputs
import reference
from layers import Op
from phase import Phase

#: Measurement pairs per input (the paper's and ``simulate_measurements``' default).
N_PAIRS = 50
#: Log-resistance correlation each learned graph must reach.  The method
#: reaches 0.63 (circuit), 0.82 (mesh) and 0.92 (FEM) on these inputs; a
#: graph below 0.5 has lost the structure the paper claims SGL keeps.
CORR_FLOOR = 0.5
#: Step 5 makes the mean energy ratio exactly one; allow rounding only.
STEP5_TOL = 1e-6


def config_for(n_nodes: int) -> SGLConfig:
    """The default config with the paper's beta = 10 / N (ten edges per iteration)."""
    return SGLConfig(beta=10.0 / n_nodes)


@dataclass
class Input:
    name: str
    truth: object
    voltages: np.ndarray
    currents: np.ndarray
    edges: np.ndarray | None = None  # edge set of the first fit, for repeat checks
    graph: object = None  # learned graph of the first fit, for quality


class FitWorkload:
    name = "fit"

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.inputs: list[Input] = []

    def setup(self) -> None:
        draw = np.random.default_rng(inputs.DRAW_SEED)
        self.inputs = []
        for name, truth in inputs.fit_truths():
            voltages, currents = inputs.measure(truth, N_PAIRS, draw)
            self.inputs.append(Input(name, truth, voltages, currents))
        warmup = inputs.warmup_truth()
        voltages, currents = inputs.measure(warmup, N_PAIRS, draw)
        SGLearner(config_for(warmup.n_nodes)).fit(voltages, currents)

    def _check(self, item: Input, result) -> str | None:
        """Connected over all N, finite positive weights, Step 5, same edge set as
        before.  Returns what failed, or None."""
        graph = result.graph
        edges = np.column_stack([graph.rows, graph.cols])
        if item.edges is None:
            item.edges, item.graph = edges, graph
        ratio = reference.step5_ratio(graph, item.voltages, item.currents)
        if graph.n_nodes != item.truth.n_nodes or reference.n_components(graph) != 1:
            return "learned graph is not connected over all nodes"
        if not (np.all(np.isfinite(graph.weights)) and np.all(graph.weights > 0)):
            return "learned weights are not finite and positive"
        if abs(ratio - 1.0) > STEP5_TOL:
            return f"Step 5 energy ratio is {ratio!r}, not 1"
        if not np.array_equal(edges, item.edges):
            return "a repeated fit returned another edge set"
        return None

    def run(self, seconds: float, tracer=None) -> Phase:
        """Whole rounds (each input once, in a seeded order) until ``seconds`` of fitting."""
        phase = Phase()
        while phase.busy_s < seconds:
            for index in self.rng.permutation(len(self.inputs)):
                item = self.inputs[index]
                if tracer is not None:
                    tracer.op = len(phase.ops)
                start = time.perf_counter()
                try:
                    result = SGLearner(config_for(item.truth.n_nodes)).fit(item.voltages, item.currents)
                except Exception:  # a failed op; the run goes on and counts it
                    end = time.perf_counter()
                    traceback.print_exc()
                    phase.add(end - start, False, Op(start, end, {"input": item.name}))
                    continue
                end = time.perf_counter()
                failure = self._check(item, result)
                if failure is not None:
                    print(f"# check failed on {item.name}: {failure}", file=sys.stderr)
                counts = {"edges_added": result.graph.n_edges - result.initial_graph.n_edges, "input": item.name}
                phase.add(end - start, failure is None, Op(start, end, counts))
        return phase

    def timing(self, phase: Phase) -> tuple[float, float, float, str]:
        """p50 and rate over every fit; a handful of fits has no tail, so the median is repeated."""
        p50 = 1e3 * statistics.median(phase.latencies)
        return p50, p50, phase.ops_per_s, f"{phase.attempted} ops are fewer than 40, so the tail repeats the median"

    def quality(self, phase: Phase) -> dict:
        """Quality of each input's learned graph against its truth; a graph
        under the correlation floor fails every fit of that input."""
        corrs, errs, densities = {}, {}, {}
        for item in self.inputs:
            if item.graph is None:
                continue  # every fit of this input raised, and failed
            corrs[item.name] = reference.resistance_corr(item.truth, item.graph)
            errs[item.name] = reference.spectral_err(reference.smallest_eigenvalues(item.truth), item.graph)
            densities[item.name] = item.graph.n_edges / item.graph.n_nodes
            if corrs[item.name] < CORR_FLOOR:
                print(f"# check failed on {item.name}: resistance_corr {corrs[item.name]!r} < {CORR_FLOOR}", file=sys.stderr)
                phase.fail(i for i, op in enumerate(phase.ops) if op.counts["input"] == item.name)
        return {
            "resistance_corr": (float(np.mean(list(corrs.values()))), corrs),
            "spectral_err": (float(np.mean(list(errs.values()))), errs),
            "density": (float(np.mean(list(densities.values()))), densities),
        }

    def close(self) -> None:
        pass
