"""The fuzz driver behind ``python -m repro.qa fuzz``.

Each iteration is fully determined by ``(config.seed, iteration)``: pick
an instance (a named corpus entry, a seeded mutation of one, or a fresh
random graph), sweep the differential oracle over every configured
algorithm, run the metamorphic relations for one algorithm (rotating),
and periodically replay a service workload against the full-recompute
oracle.

On a divergence the failing graph is shrunk with
:func:`repro.qa.minimize.minimize_graph` under a predicate that replays
exactly the failed check, and a JSON repro artifact (original graph,
minimized graph, seeds, command line) is written to ``results/qa/``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..graph import Graph
from .corpus import mutate, named_corpus, random_graph
from .metamorphic import RELATIONS, metamorphic_check
from .minimize import minimize_graph
from .oracle import (
    Divergence,
    check_graph,
    default_runner,
    differential_check,
    service_replay_check,
)

__all__ = ["FuzzConfig", "FuzzReport", "run_fuzz"]


def _default_algorithms() -> tuple:
    from ..api import list_algorithms

    return tuple(a for a in list_algorithms() if a != "sequential")


@dataclass
class FuzzConfig:
    """Knobs for one fuzz run; ``None`` fields resolve to "all registered"."""

    seconds: float = 60.0
    seed: int = 0
    algorithms: tuple | None = None
    max_iterations: int | None = None
    max_failures: int = 5
    service_every: int = 5
    service_ops: int = 40
    max_n: int = 64
    minimize: bool = True
    minimize_budget: int = 300
    out_dir: str = "results/qa"

    def __post_init__(self):
        if self.algorithms is None:
            self.algorithms = _default_algorithms()
        else:
            self.algorithms = tuple(self.algorithms)


@dataclass
class FuzzReport:
    """What a fuzz run did and what it found."""

    seed: int
    iterations: int = 0
    checks: int = 0
    elapsed_s: float = 0.0
    divergences: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        return (
            f"fuzz seed={self.seed}: {self.iterations} iterations, "
            f"{self.checks} checks in {self.elapsed_s:.1f}s — {verdict}"
        )


def _pick_instance(rng: np.random.Generator, corpus, max_n: int):
    roll = rng.random()
    if roll < 0.25:
        name, g = corpus[int(rng.integers(0, len(corpus)))]
        return f"corpus:{name}", g
    if roll < 0.55:
        name, g = corpus[int(rng.integers(0, len(corpus)))]
        return f"mutated:{name}", mutate(g, rng, rounds=int(rng.integers(1, 4)))
    family, g = random_graph(rng, max_n=max_n)
    return f"random:{family}", g


def _graph_json(g: Graph | None):
    if g is None:
        return None
    return {"n": g.n, "m": g.m, "edges": [[int(a), int(b)] for a, b in zip(g.u, g.v)]}


def _predicate_for(div: Divergence, config: FuzzConfig, runner):
    """A deterministic 'still failing?' replay of exactly the failed check."""
    if div.check == "differential":
        return lambda h: differential_check(h, div.algorithm, runner=runner) is not None
    if div.check == "service":
        seed = div.extra.get("seed", 0)
        num_ops = div.extra.get("num_ops", config.service_ops)
        return lambda h: service_replay_check(
            h, num_ops=num_ops, seed=seed, algorithm=div.algorithm
        ) is not None
    mm_seed = div.extra.get("mm_seed", [0])
    return lambda h: bool(
        metamorphic_check(
            h, div.algorithm, runner=runner, seed=mm_seed, relations=[div.check]
        )
    )


def _write_artifact(config: FuzzConfig, iteration: int, source: str,
                    div: Divergence, minimized: Graph | None) -> str:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "check": div.check,
        "algorithm": div.algorithm,
        "message": div.message,
        "source": source,
        "fuzz_seed": config.seed,
        "iteration": iteration,
        "graph": _graph_json(div.graph),
        "minimized": _graph_json(minimized),
        "repro": (
            f"python -m repro.qa fuzz --seed {config.seed} "
            f"--max-iterations {iteration + 1} --seconds {config.seconds}"
        ),
        "extra": div.extra,
    }
    path = out / f"qa-fail-{iteration:05d}-{div.check}.json"
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return str(path)


def run_fuzz(config: FuzzConfig, runner=None, progress=None) -> FuzzReport:
    """Run the fuzz loop; never raises on findings, returns a report.

    ``runner`` overrides how (graph, algorithm) is executed — the seam
    the planted-mutant tests use.  ``progress`` is an optional
    ``callable(str)`` for live status lines.
    """
    report = FuzzReport(seed=config.seed)
    corpus = named_corpus()
    runner = runner or default_runner
    start = time.monotonic()
    it = 0
    while True:
        report.elapsed_s = time.monotonic() - start
        if config.max_iterations is not None and it >= config.max_iterations:
            break
        if config.max_iterations is None and report.elapsed_s >= config.seconds:
            break
        if len(report.divergences) >= config.max_failures:
            break
        rng = np.random.default_rng((config.seed, it))
        source, g = _pick_instance(rng, corpus, config.max_n)

        divs = check_graph(g, config.algorithms, runner=runner)
        report.checks += len(config.algorithms)

        algorithm = config.algorithms[it % len(config.algorithms)]
        divs += metamorphic_check(
            g, algorithm, runner=runner, seed=(config.seed, it, 1)
        )
        report.checks += len(RELATIONS)

        if config.service_every and it % config.service_every == 0:
            d = service_replay_check(
                g, num_ops=config.service_ops, seed=config.seed + it
            )
            report.checks += 1
            if d is not None:
                divs.append(d)

        for div in divs:
            report.divergences.append(div)
            minimized = None
            if config.minimize and div.graph is not None:
                try:
                    minimized = minimize_graph(
                        div.graph,
                        _predicate_for(div, config, runner),
                        max_checks=config.minimize_budget,
                    )
                except ValueError:
                    minimized = None  # flaky finding: keep the original
            path = _write_artifact(config, it, source, div, minimized)
            report.artifacts.append(path)
            if progress:
                size = f", minimized to m={minimized.m}" if minimized else ""
                progress(f"FAIL {div.describe()}{size} -> {path}")

        it += 1
        report.iterations = it
        if progress and it % 10 == 0:
            progress(
                f"... {it} iterations, {report.checks} checks, "
                f"{len(report.divergences)} divergences, "
                f"{time.monotonic() - start:.0f}s"
            )
    report.elapsed_s = time.monotonic() - start
    return report
