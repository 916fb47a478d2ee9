"""Lint driver: scoping config, rule execution, suppression/baseline folds.

``run_lint`` builds the shared :class:`~repro.analysis.index.RepoIndex`
(one ``ast.parse`` per file), runs every selected rule against every
module, then folds out per-line ``# reprolint: disable=...`` suppressions
and the committed baseline.  The whole pass is O(repo) and fast enough
for CI and pre-commit.

Rows (CHANGES-style):
    LintConfig - repo root + per-rule path scopes (defaults = this repo)
    LintResult - active / suppressed / baselined findings + stale entries
    run_lint   - index once, run rules, fold suppressions and baseline
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .baseline import apply_baseline, load_baseline
from .index import RepoIndex
from .rules import RULES, Finding

__all__ = ["LintConfig", "LintResult", "run_lint"]


@dataclass(frozen=True)
class LintConfig:
    """Where to look and which paths each rule treats as in-scope.

    All scope entries are ``/``-separated paths relative to ``root``; an
    entry matches itself and everything beneath it.  The defaults encode
    this repository's layout, so ``LintConfig(root=repo_root)`` is the
    CI configuration.
    """

    root: Path = field(default_factory=Path.cwd)
    #: trees indexed and linted
    paths: tuple[str, ...] = ("src/repro",)
    #: where getattr capability probes are checked (REP001)
    capability_scope: tuple[str, ...] = ("src/repro/core",)
    #: declared hot modules: no scalar sensor-axis loops (REP005)
    hot_scope: tuple[str, ...] = (
        "src/repro/core",
        "src/repro/spatial",
        "src/repro/sensors/state.py",
    )
    #: iterable names treated as sensor-indexed by REP005
    hot_iterables: tuple[str, ...] = (
        "sensors",
        "snapshots",
        "candidates",
        "announcements",
    )
    #: async service code: no blocking calls in coroutines (REP006)
    async_scope: tuple[str, ...] = ("src/repro/service",)
    #: entry points exempt from the determinism rule (REP003)
    determinism_exempt: tuple[str, ...] = (
        "src/repro/cli.py",
        "src/repro/__main__.py",
    )
    #: extra attribute names REP001 accepts beyond the indexed tree
    extra_capabilities: tuple[str, ...] = ()
    #: committed baseline of grandfathered findings (None = no baseline)
    baseline_path: Path | None = None
    #: rule-id subset to run (None = all registered rules)
    rules: tuple[str, ...] | None = None


@dataclass
class LintResult:
    """What the pass produced, already folded and deterministically sorted."""

    findings: list[Finding]
    suppressed: list[tuple[Finding, str | None]]
    baselined: list[Finding]
    stale_baseline: Counter
    modules: int

    @property
    def ok(self) -> bool:
        return not self.findings


def select_rules(config: LintConfig):
    if config.rules is None:
        return list(RULES.values())
    unknown = [r for r in config.rules if r not in RULES]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(RULES))})"
        )
    return [RULES[r] for r in config.rules]


def run_lint(config: LintConfig) -> LintResult:
    repo = RepoIndex.build(Path(config.root), config.paths)
    rules = select_rules(config)
    raw: list[Finding] = []
    for module in repo.modules:
        for rule in rules:
            raw.extend(rule.check(module, repo, config))
    raw.sort()

    by_path = {module.relpath: module for module in repo.modules}
    active: list[Finding] = []
    suppressed: list[tuple[Finding, str | None]] = []
    for finding in raw:
        pragmas = by_path[finding.path].suppressions.get(finding.line, {})
        if finding.rule in pragmas or "all" in pragmas:
            suppressed.append(
                (finding, pragmas.get(finding.rule, pragmas.get("all")))
            )
        else:
            active.append(finding)

    baseline = (
        load_baseline(config.baseline_path)
        if config.baseline_path is not None
        else Counter()
    )
    new, grandfathered, stale = apply_baseline(active, baseline)
    return LintResult(
        findings=new,
        suppressed=suppressed,
        baselined=grandfathered,
        stale_baseline=stale,
        modules=len(repo.modules),
    )
