"""Correctness tooling: fuzzing, differential/metamorphic oracles, faults.

The repo computes the same answer several ways — registry-driven TV
pipelines (:mod:`repro.core.pipeline`), the incremental query service
(:mod:`repro.service`), and three execution backends including real forked
processes (:mod:`repro.runtime`).  This package is the standing harness
that cross-checks all of them:

:mod:`repro.qa.corpus`
    Adversarial graph generators (bridge chains, glued cliques, messy
    duplicate/self-loop edge lists, disconnected unions, ...) plus seeded
    random instance selection and mutation.
:mod:`repro.qa.oracle`
    The differential oracle: every algorithm × backend × p against
    sequential Tarjan under canonical label normalization, and service
    workload replay against a full-recompute oracle.
:mod:`repro.qa.metamorphic`
    Oracle-free invariants: relabeling/permutation invariance, intra-block
    insertion, bridge subdivision, disjoint-union composition.
:mod:`repro.qa.faults`
    Runtime fault injection: a :class:`~repro.qa.faults.FaultyTeam`
    wrapper and process-backend kill hooks with seeded probabilities.
:mod:`repro.qa.minimize`
    Greedy edge/vertex deletion shrinking a failing graph to a small repro.
:mod:`repro.qa.fuzz`
    The fuzz driver behind ``python -m repro.qa fuzz``.
"""

from .corpus import mutate, named_corpus, random_graph
from .faults import FaultInjected, FaultPlan, FaultyTeam
from .fuzz import FuzzConfig, FuzzReport, run_fuzz
from .metamorphic import RELATIONS, metamorphic_check
from .minimize import minimize_graph
from .oracle import Divergence, differential_check, service_replay_check

__all__ = [
    "named_corpus",
    "random_graph",
    "mutate",
    "Divergence",
    "differential_check",
    "service_replay_check",
    "RELATIONS",
    "metamorphic_check",
    "FaultInjected",
    "FaultPlan",
    "FaultyTeam",
    "minimize_graph",
    "FuzzConfig",
    "FuzzReport",
    "run_fuzz",
]
