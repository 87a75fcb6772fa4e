"""Shared infrastructure for the GFlink reproduction.

This package provides the discrete-event simulation kernel
(:mod:`repro.common.simclock`), resource primitives
(:mod:`repro.common.resources`), unit helpers (:mod:`repro.common.units`),
the one percentile rule (:mod:`repro.common.stats`), deterministic RNG
utilities (:mod:`repro.common.rng`), and the exception hierarchy
(:mod:`repro.common.errors`) used by every other subsystem.

The simulation kernel follows the classic process-interaction style: model
components are Python generators that ``yield`` events (timeouts, resource
requests, store gets/puts); the :class:`~repro.common.simclock.Environment`
advances a virtual clock from event to event.  All timing results produced by
the reproduction (benchmark tables and figures) are measured on this virtual
clock, while the *functional* results (cluster outputs) are computed for real
so tests can assert correctness.
"""

from repro.common.errors import (
    ReproError,
    SimulationError,
    InterruptError,
    ResourceError,
    ConfigError,
)
from repro.common.simclock import (
    Environment,
    Event,
    Timeout,
    Process,
    AllOf,
)
from repro.common.resources import Resource, Store
from repro.common import units

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Resource",
    "Store",
    "ReproError",
    "SimulationError",
    "InterruptError",
    "ResourceError",
    "ConfigError",
    "units",
]
