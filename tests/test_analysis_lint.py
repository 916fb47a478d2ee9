"""Tests for the ``repro lint`` AST invariant checker.

Every rule gets fixture snippets that MUST fire and near-miss snippets
that must NOT, plus suppression-pragma and baseline round-trip coverage
and a repo-clean gate: the checked-out tree itself lints clean against
the committed baseline.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    LintConfig,
    format_json,
    format_text,
    load_baseline,
    parse_suppressions,
    run_lint,
    select_rules,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path: Path, files: dict[str, str], **overrides):
    """Write a fixture tree under ``tmp_path`` and lint it.

    Asserts every fixture module was actually indexed — a fixture with a
    syntax error would otherwise be skipped and pass "clean" vacuously.
    """
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    result = run_lint(LintConfig(root=tmp_path, **overrides))
    assert result.modules == len(files), "fixture module failed to parse"
    return result


def rules_fired(result) -> set[str]:
    return {f.rule for f in result.findings}


# ----------------------------------------------------------------------
# REP001 capability-hook
# ----------------------------------------------------------------------
PROVIDER = """
    class Kernel:
        def sparse_single_values(self, queries):
            return []
"""


class TestCapabilityHook:
    def test_typoed_probe_fires_with_suggestion(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/kernel.py": PROVIDER,
            "src/repro/core/alloc.py": """
                fn = getattr(kernel, "sparse_single_valuez", None)
            """,
        })
        assert rules_fired(result) == {"capability-hook"}
        assert "sparse_single_values" in result.findings[0].message

    def test_defined_probe_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/kernel.py": PROVIDER,
            "src/repro/core/alloc.py": """
                fn = getattr(kernel, "sparse_single_values", None)
            """,
        })
        assert result.ok

    def test_hasattr_probe_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/alloc.py": "ok = hasattr(kernel, 'candidate_vieww')\n",
        })
        assert rules_fired(result) == {"capability-hook"}

    def test_self_assign_setattr_and_slots_count_as_defined(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/holder.py": """
                class Holder:
                    __slots__ = ("slot_attr",)
                    def __init__(self):
                        self.dyn_attr = 1
                def stash(obj):
                    setattr(obj, "_stashed_attr", 2)
            """,
            "src/repro/core/alloc.py": """
                a = getattr(x, "dyn_attr", None)
                b = getattr(x, "_stashed_attr", None)
                c = getattr(x, "slot_attr", None)
            """,
        })
        assert result.ok

    def test_probe_outside_capability_scope_is_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/cli_helpers.py": "v = getattr(args, 'not_an_attr_anywhere', None)\n",
        })
        assert result.ok

    def test_dunder_and_nonliteral_probes_are_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/alloc.py": """
                a = getattr(x, "__missing_dunder__", None)
                b = getattr(x, name, None)
            """,
        })
        assert result.ok


# ----------------------------------------------------------------------
# REP003 determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_global_and_unseeded_rng_and_wall_clock_fire(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/sim.py": """
                import random
                import time
                import numpy as np
                a = np.random.rand(3)
                rng = np.random.default_rng()
                r = random.Random()
                b = random.random()
                t = time.time()
            """,
        })
        determinism = [f for f in result.findings if f.rule == "determinism"]
        assert len(determinism) == 5

    def test_seeded_and_local_rng_and_perf_counter_are_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/sim.py": """
                import random
                import time
                import numpy as np
                rng = np.random.default_rng(7)
                r = random.Random(3)
                x = rng.random()
                t0 = time.perf_counter()
            """,
        })
        assert result.ok

    def test_cli_is_exempt(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/cli.py": "import time\nt = time.time()\n",
        })
        assert result.ok

    def test_from_import_datetime_now_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/sim.py": """
                from datetime import datetime
                stamp = datetime.now()
            """,
        })
        assert rules_fired(result) == {"determinism"}


# ----------------------------------------------------------------------
# REP004 ulp-mixed-math
# ----------------------------------------------------------------------
class TestUlpMixedMath:
    def test_mixed_hypot_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/spatial/geo.py": """
                import math
                import numpy as np
                def batch(px, py):
                    return np.hypot(px, py)
                def scalar(x, y):
                    return math.hypot(x, y)
            """,
        })
        assert rules_fired(result) == {"ulp-mixed-math"}

    def test_unmixed_math_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/spatial/geo.py": """
                import math
                def scalar(x, y):
                    return math.hypot(x, y)
            """,
        })
        assert result.ok

    def test_different_functions_do_not_fire(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/spatial/geo.py": """
                import math
                import numpy as np
                def batch(d):
                    return np.sqrt(d)
                def scalar(x, y):
                    return math.hypot(x, y)
            """,
        })
        assert result.ok


# ----------------------------------------------------------------------
# REP005 hot-loop
# ----------------------------------------------------------------------
class TestHotLoop:
    @pytest.mark.parametrize("header", [
        "for s in sensors:",
        "for j, s in enumerate(sensors):",
        "for j in range(len(sensors)):",
        "for s in snapshots:",
    ])
    def test_sensor_axis_loops_fire(self, tmp_path, header):
        result = lint_tree(tmp_path, {
            "src/repro/core/hot.py": f"def f(sensors, snapshots):\n    {header}\n        pass\n",
        })
        assert rules_fired(result) == {"hot-loop"}

    def test_query_loop_and_comprehension_are_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/hot.py": """
                def f(queries, sensors):
                    for q in queries:
                        pass
                    return [s.cost for s in sensors]
            """,
        })
        assert result.ok

    def test_non_hot_module_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/experiments/cold.py": "def f(sensors):\n    for s in sensors:\n        pass\n",
        })
        assert result.ok


# ----------------------------------------------------------------------
# REP006 async-blocking
# ----------------------------------------------------------------------
class TestAsyncBlocking:
    def test_time_sleep_in_coroutine_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/service/tick.py": """
                import time
                async def serve():
                    time.sleep(1.0)
            """,
        })
        assert rules_fired(result) == {"async-blocking"}

    def test_sync_queue_get_in_coroutine_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/service/tick.py": """
                import queue
                class Service:
                    def __init__(self):
                        self.inbox = queue.Queue()
                    async def drain(self):
                        return self.inbox.get()
            """,
        })
        assert rules_fired(result) == {"async-blocking"}

    def test_asyncio_sleep_and_sync_def_are_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/service/tick.py": """
                import asyncio
                import time
                def pace():
                    time.sleep(0.1)
                async def serve():
                    await asyncio.sleep(1.0)
            """,
        })
        assert result.ok

    def test_nested_sync_helper_inside_coroutine_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/service/tick.py": """
                import time
                async def serve(loop):
                    def blocking_helper():
                        time.sleep(1.0)
                    await loop.run_in_executor(None, blocking_helper)
            """,
        })
        assert result.ok

    def test_outside_service_scope_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/experiments/x.py": """
                import time
                async def probe():
                    time.sleep(1.0)
            """,
        })
        assert result.ok


# ----------------------------------------------------------------------
# suppression pragmas
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_pragma_suppresses_and_keeps_reason(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "def f(sensors):\n"
                "    for s in sensors:  # reprolint: disable=hot-loop(parity oracle)\n"
                "        pass\n"
            ),
        })
        assert result.ok
        assert len(result.suppressed) == 1
        finding, reason = result.suppressed[0]
        assert finding.rule == "hot-loop"
        assert reason == "parity oracle"

    def test_standalone_pragma_applies_to_next_line(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "def f(sensors):\n"
                "    # reprolint: disable=hot-loop(documented fallback)\n"
                "    for s in sensors:\n"
                "        pass\n"
            ),
        })
        assert result.ok and len(result.suppressed) == 1

    def test_wrong_rule_pragma_does_not_suppress(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "def f(sensors):\n"
                "    for s in sensors:  # reprolint: disable=determinism(nope)\n"
                "        pass\n"
            ),
        })
        assert rules_fired(result) == {"hot-loop"}

    def test_disable_all_suppresses_everything_on_the_line(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "def f(sensors):\n"
                "    for s in sensors:  # reprolint: disable=all\n"
                "        pass\n"
            ),
        })
        assert result.ok and len(result.suppressed) == 1

    def test_pragma_parser_handles_reasons_with_commas(self):
        sup = parse_suppressions(
            "x = 1  # reprolint: disable=hot-loop(a, b, c),determinism\n"
        )
        assert sup[1] == {"hot-loop": "a, b, c", "determinism": None}


# ----------------------------------------------------------------------
# baseline round-trip
# ----------------------------------------------------------------------
VIOLATION = "def f(sensors):\n    for s in sensors:\n        pass\n"


class TestBaseline:
    def test_round_trip_grandfathers_findings(self, tmp_path):
        files = {"src/repro/core/hot.py": VIOLATION}
        first = lint_tree(tmp_path, files)
        assert len(first.findings) == 1
        baseline = tmp_path / "lint-baseline.json"
        assert write_baseline(baseline, first.findings) == 1
        second = run_lint(LintConfig(root=tmp_path, baseline_path=baseline))
        assert second.ok
        assert len(second.baselined) == 1
        assert not second.stale_baseline

    def test_new_finding_beyond_baseline_still_fires(self, tmp_path):
        files = {"src/repro/core/hot.py": VIOLATION}
        first = lint_tree(tmp_path, files)
        baseline = tmp_path / "lint-baseline.json"
        write_baseline(baseline, first.findings)
        # same hazard appears a second time in the same file: only one is
        # grandfathered, the new occurrence fails the pass
        (tmp_path / "src/repro/core/hot.py").write_text(
            VIOLATION + "def g(sensors):\n    for s in sensors:\n        pass\n"
        )
        second = run_lint(LintConfig(root=tmp_path, baseline_path=baseline))
        assert len(second.findings) == 1 and len(second.baselined) == 1

    def test_stale_baseline_entry_is_reported(self, tmp_path):
        files = {"src/repro/core/hot.py": VIOLATION}
        first = lint_tree(tmp_path, files)
        baseline = tmp_path / "lint-baseline.json"
        write_baseline(baseline, first.findings)
        (tmp_path / "src/repro/core/hot.py").write_text("def f(sensors):\n    pass\n")
        second = run_lint(LintConfig(root=tmp_path, baseline_path=baseline))
        assert second.ok
        assert sum(second.stale_baseline.values()) == 1
        assert "regenerate" in format_text(second)

    def test_baseline_version_guard(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "findings": []}')
        with pytest.raises(ValueError, match="version"):
            load_baseline(bad)


# ----------------------------------------------------------------------
# engine / reporting / repo gate
# ----------------------------------------------------------------------
class TestEngineAndReporting:
    def test_rule_subset_runs_only_selected(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"src/repro/core/hot.py": VIOLATION + "import time\nt = time.time()\n"},
            rules=("determinism",),
        )
        assert rules_fired(result) == {"determinism"}

    def test_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown lint rule"):
            select_rules(LintConfig(root=tmp_path, rules=("nope",)))

    def test_registry_has_the_five_contract_rules(self):
        assert set(RULES) >= {
            "capability-hook",
            "determinism",
            "ulp-mixed-math",
            "hot-loop",
            "async-blocking",
        }
        codes = [rule.code for rule in RULES.values()]
        assert len(codes) == len(set(codes))

    def test_json_report_shape(self, tmp_path):
        result = lint_tree(tmp_path, {"src/repro/core/hot.py": VIOLATION})
        payload = json.loads(format_json(result))
        assert payload["ok"] is False
        assert payload["counts"]["findings"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "hot-loop" and finding["code"] == "REP005"
        assert "hot-loop" in payload["rules"]

    def test_text_report_pins_path_and_line(self, tmp_path):
        result = lint_tree(tmp_path, {"src/repro/core/hot.py": VIOLATION})
        text = format_text(result)
        assert "src/repro/core/hot.py:2:" in text and "REP005" in text

    def test_repo_lints_clean_against_committed_baseline(self):
        baseline = REPO_ROOT / "lint-baseline.json"
        config = LintConfig(
            root=REPO_ROOT,
            baseline_path=baseline if baseline.exists() else None,
        )
        result = run_lint(config)
        assert result.modules > 50
        assert result.findings == [], format_text(result)
        assert not result.stale_baseline

    def test_repo_suppressions_all_carry_reasons(self):
        """Grandfathered scalar paths must pin their parity reason."""
        result = run_lint(LintConfig(root=REPO_ROOT))
        assert result.suppressed, "expected the documented scalar parity pragmas"
        for finding, reason in result.suppressed:
            assert reason, f"pragma without a reason at {finding.path}:{finding.line}"
