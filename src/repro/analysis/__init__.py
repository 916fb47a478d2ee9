"""Static analysis: the AST invariant checker behind ``repro lint``.

A rule-driven linter for the conventions no test can cheaply enforce:
capability-hook integrity, determinism, ULP hygiene, hot-path
vectorization and async hygiene (see README "Static analysis" for the
rule table).  Pure stdlib — one ``ast.parse`` per file,
a shared repo index, per-line suppression pragmas and a committed
baseline for grandfathered findings.

Rows (CHANGES-style):
    index.py     - one-parse-per-file module/repo indexes + pragmas
    rules.py     - rule registry + the five repo-specific invariant rules
    engine.py    - LintConfig scoping, rule driving, suppression/baseline
    baseline.py  - grandfathered-finding fingerprints (load/match/write)
    reporting.py - text and JSON reporters shared by the CLI and CI
"""

from .baseline import apply_baseline, fingerprint, load_baseline, write_baseline
from .engine import LintConfig, LintResult, run_lint, select_rules
from .index import ModuleIndex, RepoIndex, parse_suppressions
from .reporting import format_json, format_text
from .rules import RULES, Finding, Rule

__all__ = [
    "LintConfig",
    "LintResult",
    "run_lint",
    "select_rules",
    "Finding",
    "Rule",
    "RULES",
    "ModuleIndex",
    "RepoIndex",
    "parse_suppressions",
    "fingerprint",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
    "format_text",
    "format_json",
]
