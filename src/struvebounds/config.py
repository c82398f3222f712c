"""Evaluation configuration for the series engines."""

from __future__ import annotations

import os
from dataclasses import dataclass

MAX_TERMS_ENV = "STRUVE_MAX_TERMS"


@dataclass(frozen=True)
class EvalConfig:
    """The one evaluation setting: max_terms, the hard cap on series terms.

    STRUVE_MAX_TERMS overrides it through config_from_env.  The truncation
    target and the overflow guard are fixed (special_core.REL_TOL, X_MAX),
    and the series memo is keyed on max_terms alone, not on this object.
    """

    max_terms: int = 500

    def __post_init__(self):
        if self.max_terms < 50:
            raise ValueError(f"max_terms must be >= 50, got {self.max_terms}")


DEFAULT_CONFIG = EvalConfig()


def config_from_env() -> EvalConfig:
    """Default configuration, with the series cap overridable via STRUVE_MAX_TERMS."""
    raw = os.environ.get(MAX_TERMS_ENV)
    if raw is None:
        return DEFAULT_CONFIG
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_TERMS_ENV} must be an integer, got {raw!r}") from exc
    return EvalConfig(max_terms=cap)
