"""Run configuration shared by the CLI and the verification suite."""

from __future__ import annotations

from dataclasses import dataclass

from .coset import DEFAULT_MAX_COSETS
from .permgroups import DEFAULT_SUBGROUP_BOUND

STRETCH_MAX_COSETS = 6 * 10**6


@dataclass
class RunConfig:
    """Resource bounds, validated once when built.

    A max_cosets of None takes STRETCH_MAX_COSETS for a stretch run and
    DEFAULT_MAX_COSETS otherwise.  The budget is decided here alone and
    bounds every enumeration of the run, the stretch run's included: a given
    budget is kept even when it is below STRETCH_MAX_COSETS, so that a
    bounded stretch run reports exceeded-limit.
    """

    max_cosets: int | None = None
    subgroup_order_bound: int = DEFAULT_SUBGROUP_BOUND
    stretch: bool = False

    def __post_init__(self):
        if self.max_cosets is None:
            self.max_cosets = STRETCH_MAX_COSETS if self.stretch else DEFAULT_MAX_COSETS
        if self.max_cosets < 1 or self.subgroup_order_bound < 1:
            raise ValueError("resource bounds must be positive")
