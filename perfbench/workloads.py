"""The three workloads and the loop that times them.

Each workload builds its inputs through rodgp (timed as set-up), makes
untimed warm-up calls, then runs whole rounds of timed calls into one
public entry point until the timed calls add up to the run length.
Checks on each call's output run between calls, outside the timer, and
keep only what the final checks need: a few numbers per simulated shape,
the last frame of each tracked configuration.

Inputs:
- simulate: sample_dataset batches of SIM_BATCH shapes, half of them
  tip-loaded, each on a fresh dataset seed drawn from --seed;
- study and track: the reference dataset sample_dataset(props, 8,
  seed=11), four tip-loaded and four unloaded shapes. study runs the
  three scenarios on it with study seed 5, which is what keeps its one
  known failure (run 0 under strain_at_disks) the same in every round;
  track draws every frame's sensor noise from --seed.
"""

from __future__ import annotations

import time

import numpy as np

from rodgp import rodsim, study

import checks

SIM_BATCH = 8
REFERENCE_DATASET = {"count": 8, "seed": 11, "loaded_fraction": 0.5}
STUDY_SEED = 5
TRACK_SCENARIO = rodsim.Scenario.STRAIN_PLUS_TIP_POSE


class CallTimer:
    """Times calls into the entry point; tracing is on only inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.durations = []
        self.busy_s = 0.0

    def call(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.enabled = False
            self.durations.append(duration)
            self.busy_s += duration


class Simulate:
    """Repeated sample_dataset batches: only the rod simulator works."""

    name = "simulate"

    def __init__(self, seed: int):
        self.seed_stream = np.random.default_rng(seed)
        self.summaries = []

    def build(self):
        return rodsim.RodProperties.default()

    def _next_seed(self) -> int:
        return int(self.seed_stream.integers(0, 2**31))

    def warm_up(self, props) -> None:
        rodsim.sample_dataset(props, 2, seed=self._next_seed())

    def run_round(self, props, timer) -> tuple:
        dataset = timer.call(rodsim.sample_dataset, props, SIM_BATCH, 0.5, self._next_seed())
        self.summaries.extend(checks.summarize_shape(a, s) for a, s in dataset)
        return SIM_BATCH, 0, []

    def finish(self, props) -> list:
        return checks.check_shapes(props, self.summaries)


def reference_dataset(props):
    return rodsim.sample_dataset(
        props,
        REFERENCE_DATASET["count"],
        loaded_fraction=REFERENCE_DATASET["loaded_fraction"],
        seed=REFERENCE_DATASET["seed"],
    )


class Study:
    """run_study over the three scenarios at the reference settings."""

    name = "study"

    def __init__(self, seed: int):
        # The inputs do not depend on the seed; see the module docstring.
        self.configs = [study.ScenarioConfig(s, seed=STUDY_SEED) for s in rodsim.Scenario]
        self.envelope = [0, 0]
        self.problems = []

    def build(self):
        props = rodsim.RodProperties.default()
        return props, reference_dataset(props)

    def warm_up(self, inputs) -> None:
        props, dataset = inputs
        for config in self.configs:
            study.run_study(props, dataset[1:2], config)

    def run_round(self, inputs, timer) -> tuple:
        props, dataset = inputs
        shapes = [shape for _, shape in dataset]
        attempted = failed = 0
        iterations, tips = [], {}
        for config in self.configs:
            result = timer.call(study.run_study, props, dataset, config)
            attempted += len(dataset)
            failed += len(result.failures)
            iterations.extend(r.solution.iterations for r in result.records)
            self.problems.extend(checks.check_study_records(result))
            tips[config.scenario.value] = checks.tip_error_mean(result, shapes)
            hits, count = checks.envelope_counts(result, shapes)
            self.envelope[0] += hits
            self.envelope[1] += count
        self.problems.extend(checks.check_tip_errors(tips))
        return attempted, failed, iterations

    def finish(self, inputs) -> list:
        return self.problems + checks.check_envelope(*self.envelope)


class Track:
    """One closed-loop caller: a warm-started run_single per sensor frame."""

    name = "track"

    def __init__(self, seed: int):
        self.seed = seed
        self.config = study.ScenarioConfig(TRACK_SCENARIO, states_per_interval=0)
        self.frame = 0
        self.previous = []
        self.last = {}
        self.problems = []

    def build(self):
        props = rodsim.RodProperties.default()
        return props, reference_dataset(props)

    def _measurements(self, props, shape, index):
        rng = np.random.default_rng([self.seed, index, self.frame])
        return rodsim.extract_measurements(shape, TRACK_SCENARIO, props, self.config.noise, rng)

    def warm_up(self, inputs) -> None:
        """Frame 0 of every configuration, solved cold, seeds the warm starts."""
        props, dataset = inputs
        self.previous = [
            study.run_single(props, shape, self._measurements(props, shape, i), self.config).solution.nodes
            for i, (_, shape) in enumerate(dataset)
        ]

    def run_round(self, inputs, timer) -> tuple:
        props, dataset = inputs
        self.frame += 1
        failed = 0
        iterations = []
        for i, (_, shape) in enumerate(dataset):
            measurements = self._measurements(props, shape, i)
            record = timer.call(
                study.run_single, props, shape, measurements, self.config, initial_guess=self.previous[i]
            )
            solution = record.solution
            failed += not solution.converged
            iterations.append(solution.iterations)
            self.problems.extend(checks.check_covariances(record.covs))
            self.previous[i] = solution.nodes
            self.last[i] = (measurements, solution)
        return len(dataset), failed, iterations

    def finish(self, inputs) -> list:
        props, dataset = inputs
        problems = list(self.problems)
        for i, (measurements, warm) in sorted(self.last.items()):
            cold = study.run_single(props, dataset[i][1], measurements, self.config).solution
            problems.extend(f"config {i}: {p}" for p in checks.check_warm_equals_cold(warm, cold))
        return problems


WORKLOADS = {w.name: w for w in (Simulate, Study, Track)}


def tail(samples) -> tuple:
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by nearest rank.

    Below 40 samples that percentile would sit under the 75th and be no
    tail, so the median is reported alone, as percentile 50.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("no samples")
    if n < 40:
        return 50, float(np.median(x))
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # ceil(p * n / 100), 1-based
    return p, float(x[rank - 1])


def measure(workload, inputs, seconds: float, tracer=None) -> dict:
    """Whole rounds of timed calls until they add up to `seconds`."""
    timer = CallTimer(tracer)
    attempted = failed = rounds = 0
    iterations = []
    while timer.busy_s < seconds:
        a, f, its = workload.run_round(inputs, timer)
        attempted += a
        failed += f
        iterations.extend(its)
        rounds += 1
    return {
        "durations": timer.durations,
        "busy_s": timer.busy_s,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "iterations": iterations,
    }
