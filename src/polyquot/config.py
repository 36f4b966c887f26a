"""Run configuration shared by the CLI and the verification suite."""

from __future__ import annotations

import os
from dataclasses import dataclass

STRETCH_MAX_COSETS = 6 * 10**6


@dataclass
class RunConfig:
    """Resource bounds and output settings, validated once when built.

    A max_cosets of None takes POLYQUOT_MAX_COSETS if it is set, else 10**6;
    a stretch run raises the coset budget to at least STRETCH_MAX_COSETS.
    """

    max_cosets: int | None = None
    subgroup_order_bound: int = 10**4
    stretch: bool = False
    output_format: str = "text"  # text | json | dot
    output_path: str | None = None

    def __post_init__(self):
        if self.max_cosets is None:
            env = os.environ.get("POLYQUOT_MAX_COSETS")
            try:
                self.max_cosets = int(env) if env else 10**6
            except ValueError:
                raise ValueError(f"POLYQUOT_MAX_COSETS is not an integer: {env!r}") from None
        if self.max_cosets < 1 or self.subgroup_order_bound < 1:
            raise ValueError("resource bounds must be positive")
        if self.stretch:
            self.max_cosets = max(self.max_cosets, STRETCH_MAX_COSETS)
