"""Analysis tools: route-cache staleness audits and rcast-lint.

``python -m repro.analysis`` runs the rcast-lint static checker (see
:mod:`repro.analysis.lint`).
"""

from repro.analysis.lint import Diagnostic, lint_paths, lint_source
from repro.analysis.staleness import StalenessReport, audit_staleness

__all__ = [
    "Diagnostic",
    "StalenessReport",
    "audit_staleness",
    "lint_paths",
    "lint_source",
]
