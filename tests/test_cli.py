"""Tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import CI
from repro.experiments.reporting import ascii_chart
from repro.experiments.runner import FigureResult


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.command == "figures"
        assert args.figure is None
        assert not args.all

    def test_figures_repeatable(self):
        args = build_parser().parse_args(
            ["figures", "--figure", "fig2", "--figure", "fig3"]
        )
        assert args.figure == ["fig2", "fig3"]

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--scale", "giant"])


SPEC_PAYLOAD = {
    "name": "cli-svc",
    "dataset": "rwm",
    "seed": 5,
    "n_sensors": 250,
    "n_slots": 4,
    "allocator": "greedy",
    "service": {
        "max_queue_depth": 64,
        "max_admitted_per_tick": 16,
        "arrivals": {"profile": "poisson", "rate": 5, "seed": 2},
    },
    "streams": [
        {"kind": "point", "params": {"n_queries": 3, "budget": 12.0}}
    ],
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "svc.json"
    path.write_text(json.dumps(SPEC_PAYLOAD))
    return path


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "repro" in out

    def test_info_enumerates_every_subcommand(self, capsys):
        """``repro info`` introspects the parser: every registered
        subcommand appears, including ones added after it."""
        main(["info"])
        out = capsys.readouterr().out
        sub = next(
            a for a in build_parser()._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        listed = {
            line.split()[0]
            for line in out.splitlines()
            if line.startswith("  ") and line.strip()
        }
        assert set(sub.choices) <= listed
        assert {"serve", "loadgen", "scenario", "lint"} <= listed

    def test_unknown_figure_exits_2(self, capsys):
        assert main(["figures", "--figure", "fig99"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_figures_runs_and_dumps_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ci")
        # Shrink further via a micro scale injected through the registry.
        import repro.cli as cli_module
        from repro.experiments import fig2

        micro = dataclasses.replace(
            CI, n_slots=2, point_queries_per_slot=20, rwm_sensors=30, budgets=(7, 35)
        )
        monkeypatch.setattr(
            cli_module, "ALL_FIGURES", {"fig2": lambda scale, seed: fig2(micro, seed)}
        )
        code = main(["figures", "--figure", "fig2", "--out", str(tmp_path), "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg_utility" in out
        payload = json.loads((tmp_path / "fig2_ci.json").read_text())
        assert payload["figure_id"] == "fig2"
        assert "Optimal" in payload["series"]

    def test_figure_json_is_byte_identical_across_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        monkeypatch.setenv("REPRO_SCALE", "ci")
        calls = iter([0.4, 2.7])

        def stub(scale, seed):
            result = FigureResult("figX", "stub", "x", x_values=[1.0, 2.0])
            result.add("Greedy", "avg_utility", seed + 0.5)
            result.add("Greedy", "avg_utility", seed + 1.5)
            result.elapsed_seconds = next(calls)  # wall clock differs per run
            return result

        monkeypatch.setattr(cli_module, "ALL_FIGURES", {"figX": stub})
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert main(["figures", "--figure", "figX", "--out", str(out)]) == 0
        out = capsys.readouterr().out
        assert "(0.4s)" in out and "(2.7s)" in out  # the text report keeps it
        a = (first / "figX_ci.json").read_bytes()
        assert a == (second / "figX_ci.json").read_bytes()
        assert "elapsed_seconds" not in json.loads(a)


class TestScenarioJson:
    def test_scenario_json_emits_shared_payload(self, spec_file, capsys):
        assert main(["scenario", str(spec_file), "--slots", "2", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["name"] == "cli-svc"
        assert payload["n_slots"] == 2
        assert set(payload["phase_timings"]) == {
            "announce", "kernel", "allocate", "settle"
        }
        assert len(payload["slots"]) == 2
        for key in ("average_utility", "satisfaction_ratio", "quality"):
            assert key in payload

    def test_scenario_json_multiple_specs_is_an_array(
        self, spec_file, tmp_path, capsys
    ):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**SPEC_PAYLOAD, "name": "cli-svc-2"}))
        assert (
            main(["scenario", str(spec_file), str(other), "--slots", "2", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in payload] == ["cli-svc", "cli-svc-2"]


class TestRemovedKnobs:
    """Specs and flags from before the greedy and the slot kernel each had
    one code path.

    A spec still setting ``fused``/``backend``/``workspace`` fails through
    the ordinary unknown-field path; the matching flags are gone.  A spec's
    ``sharding`` field still loads when it asks for what every kernel now
    does (``true``/``"auto"``) and fails with one line otherwise.  Its
    ``incremental`` field loads with any value it used to take (the fleet
    now picks patch or rebuild itself) and fails with one line otherwise;
    ``--incremental`` and the ``replay`` command are gone."""

    OLD_FIELDS = {"fused": "auto", "backend": "numpy", "workspace": "auto"}

    @pytest.mark.parametrize("field", sorted(OLD_FIELDS))
    def test_old_spec_field_is_an_unknown_field(self, tmp_path, capsys, field):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**SPEC_PAYLOAD, field: self.OLD_FIELDS[field]}))
        assert main(["scenario", str(path), "--slots", "1"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            f"error loading {path}: unknown ScenarioSpec fields: [{field!r}]"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "x.json", "--fused", "off"],
            ["scenario", "x.json", "--backend", "numpy"],
            ["scenario", "x.json", "--workspace", "off"],
            ["scenario", "x.json", "--sharding", "4"],
            ["scenario", "x.json", "--incremental", "auto"],
            ["serve", "--spec", "x.json", "--backend", "numpy"],
        ],
        ids=" ".join,
    )
    def test_old_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_replay_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["replay", "x.json"])
        assert exc.value.code == 2
        assert "invalid choice: 'replay'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [False, 2.5], ids=["false", "cell-size"])
    def test_dense_or_cell_size_sharding_fails_with_one_line(
        self, tmp_path, capsys, value
    ):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**SPEC_PAYLOAD, "sharding": value}))
        assert main(["scenario", str(path), "--slots", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error loading {path}: 'sharding'")
        assert "no longer supported" in err

    @pytest.mark.parametrize("value", [True, "auto"], ids=["true", "auto"])
    def test_enabled_sharding_still_runs(self, tmp_path, capsys, value):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**SPEC_PAYLOAD, "sharding": value}))
        assert main(["scenario", str(path), "--slots", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "sharding" not in payload["spec"]

    @pytest.mark.parametrize(
        "value", ["auto", True, False, None], ids=["auto", "true", "false", "null"]
    )
    def test_legacy_incremental_still_runs(self, tmp_path, capsys, value):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**SPEC_PAYLOAD, "incremental": value}))
        assert main(["scenario", str(path), "--slots", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "incremental" not in payload["spec"]

    def test_unknown_incremental_fails_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**SPEC_PAYLOAD, "incremental": "bogus"}))
        assert main(["scenario", str(path), "--slots", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error loading {path}: 'incremental': 'bogus'")


class TestServe:
    def test_serve_exit_after_with_metrics(self, spec_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(
            ["serve", "--spec", str(spec_file), "--slots", "3", "--exit-after",
             "--metrics", str(metrics)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ticks" in out and "slot latency" in out
        data = json.loads(metrics.read_text())
        assert data["n_slots"] == 3
        assert data["service"]["counters"]["submitted"] > 0
        assert len(data["service"]["slots"]) == 3

    def test_serve_rejects_continuous_stream_specs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {**SPEC_PAYLOAD, "streams": [{"kind": "event", "params": {}}]}
            )
        )
        assert main(["serve", "--spec", str(bad), "--slots", "1",
                     "--exit-after"]) == 2
        assert "one-shot" in capsys.readouterr().err


class TestLoadgen:
    def test_loadgen_parity_check_passes(self, spec_file, tmp_path, capsys):
        csv_path = tmp_path / "slots.csv"
        code = main(
            ["loadgen", str(spec_file), "--slots", "3", "--check-parity",
             "--metrics-csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parity OK" in out
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_loadgen_bursty_flags_saturate_the_queue(self, spec_file, capsys):
        code = main(
            ["loadgen", str(spec_file), "--slots", "4", "--profile", "bursty",
             "--rate", "2", "--burst-rate", "120", "--period", "4",
             "--burst-length", "1", "--queue-depth", "16", "--admit-cap", "8",
             "--check-parity"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parity OK" in out
        assert "queue_full" in out

    @pytest.mark.parametrize(
        "flags,reason",
        [
            (["--rate", "-1"], "rate must be finite and >= 0, got -1.0"),
            (["--rate", "nan"], "rate must be finite and >= 0, got nan"),
            (["--rate", "inf"], "rate must be finite and >= 0, got inf"),
            (["--profile", "bursty", "--period", "0"],
             "need period >= 1 and 0 < burst_length <= period"),
        ],
        ids=["negative-rate", "nan-rate", "inf-rate", "zero-period"],
    )
    def test_bad_arrival_flags_exit_with_one_line(self, spec_file, capsys, flags, reason):
        assert main(["loadgen", str(spec_file), "--slots", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error building arrivals for cli-svc: {reason}\n"

    def test_negative_seed_flag_exits_with_one_line(self, spec_file, capsys):
        assert main(["loadgen", str(spec_file), "--slots", "1", "--seed", "-3"]) == 2
        assert capsys.readouterr().err == NEGATIVE_SEED_ERROR

    @pytest.mark.parametrize(
        "argv",
        [["loadgen", "{spec}", "--slots", "1"],
         ["serve", "--spec", "{spec}", "--slots", "1", "--exit-after"]],
        ids=["loadgen", "serve"],
    )
    def test_negative_spec_arrival_seed_exits_with_one_line(self, tmp_path, capsys, argv):
        service = {**SPEC_PAYLOAD["service"]}
        service["arrivals"] = {**service["arrivals"], "seed": -3}
        path = tmp_path / "negative-seed.json"
        path.write_text(json.dumps({**SPEC_PAYLOAD, "service": service}))
        assert main([arg.format(spec=path) for arg in argv]) == 2
        assert capsys.readouterr().err == NEGATIVE_SEED_ERROR


NEGATIVE_SEED_ERROR = (
    "error building arrivals for cli-svc: seed must be a non-negative integer, got -3\n"
)


#: the three commands that load one spec file
SPEC_COMMANDS = pytest.mark.parametrize(
    "argv",
    [["scenario", "{spec}"],
     ["serve", "--spec", "{spec}", "--exit-after"],
     ["loadgen", "{spec}"]],
    ids=["scenario", "serve", "loadgen"],
)


@pytest.mark.parametrize("slots", ["0", "-1"])
@SPEC_COMMANDS
def test_slots_below_one_exit_with_one_line(spec_file, capsys, argv, slots):
    """A ``--slots`` override is refused below 1, as a spec's own
    ``n_slots`` is, instead of running nothing and reporting zeros."""
    assert main([arg.format(spec=spec_file) for arg in argv] + ["--slots", slots]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --slots must be >= 1, got {slots}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "field,value,reason",
    [
        ("seed", -2, "seed must be a non-negative integer, got -2"),
        ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
        ("seed", True, "seed must be a non-negative integer, got True"),
        ("workload_seed", -5, "workload_seed must be a non-negative integer, got -5"),
        ("n_sensors", 2.5, "n_sensors must be an integer >= 1, got 2.5"),
        ("n_sensors", 0, "n_sensors must be an integer >= 1, got 0"),
        ("n_slots", 0, "n_slots must be an integer >= 1, got 0"),
    ],
    ids=[
        "negative-seed", "float-seed", "bool-seed", "negative-workload-seed",
        "float-sensors", "no-sensors", "no-slots",
    ],
)
@SPEC_COMMANDS
def test_bad_spec_integer_exits_with_one_line(tmp_path, capsys, argv, field, value, reason):
    """A seed or count that numpy would refuse deep inside the run is
    refused when the spec loads, naming the field."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SPEC_PAYLOAD, field: value}))
    assert main([arg.format(spec=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error loading {path}: {reason}\n"
    assert captured.out == ""


CHURN_FRACTION = "mobility.fraction must be a finite number in [0, 1], got "


@pytest.mark.parametrize(
    "overrides,reason",
    [
        ({"mobility": {"kind": "churn", "fraction": "abc"}}, CHURN_FRACTION + "'abc'"),
        ({"mobility": {"kind": "churn", "fraction": True}}, CHURN_FRACTION + "True"),
        ({"mobility": {"kind": "churn", "fraction": math.nan}}, CHURN_FRACTION + "nan"),
        ({"mobility": {"kind": "churn", "fraction": 1.5}}, CHURN_FRACTION + "1.5"),
        (
            {"streams": [{"kind": "point", "params": {"n_queries": 2.5}}]},
            "streams[0].params.n_queries must be a non-negative integer, got 2.5",
        ),
        (
            {"streams": [{"kind": "point", "params": {"budget": "x"}}]},
            "streams[0].params.budget must be a finite number >= 0, got 'x'",
        ),
        (
            {"streams": [
                {"kind": "aggregate"},
                {"kind": "point", "params": {"budget_spread": math.inf}},
            ]},
            "streams[1].params.budget_spread must be a finite number >= 0, got inf",
        ),
    ],
    ids=[
        "string-fraction", "bool-fraction", "nan-fraction", "fraction-above-one",
        "float-n-queries", "string-budget", "infinite-budget-spread",
    ],
)
def test_bad_spec_value_exits_with_one_line(tmp_path, capsys, overrides, reason):
    """A churn fraction or a stream count/budget that used to fail at build
    (or deep in the first slot) without naming its field is refused when
    the spec loads."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SPEC_PAYLOAD, **overrides}))
    assert main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error loading {path}: {reason}\n"
    assert captured.out == ""


def _stream(kind, **params):
    return {"streams": [{"kind": kind, "params": params}]}


POSITIVE = " must be a finite number > 0, got "


@pytest.mark.parametrize(
    "overrides,reason",
    [
        (_stream("point", dmax=0.0), "streams[0].params.dmax" + POSITIVE + "0.0"),
        (_stream("point", dmax=-1.0), "streams[0].params.dmax" + POSITIVE + "-1.0"),
        (
            _stream("aggregate", sensing_range=-3.0),
            "streams[0].params.sensing_range" + POSITIVE + "-3.0",
        ),
        (
            _stream("aggregate", coverage_radius=math.inf),
            "streams[0].params.coverage_radius" + POSITIVE + "inf",
        ),
        (_stream("aggregate", min_side=-5), "streams[0].params.min_side" + POSITIVE + "-5"),
        (_stream("aggregate", max_side="8"), "streams[0].params.max_side" + POSITIVE + "'8'"),
        (
            _stream("aggregate", min_side=12.0, max_side=8.0),
            "streams[0].params.min_side must be <= max_side, got 12.0 > 8.0",
        ),
        (
            _stream("aggregate", min_side=40.0),
            "streams[0].params.min_side must be <= max_side, got 40.0 > 16.0",
        ),
        (
            _stream("point", theta_min=1.5),
            "streams[0].params.theta_min must be a finite number in [0, 1], got 1.5",
        ),
        (
            _stream("event", theta_min=-0.1),
            "streams[0].params.theta_min must be a finite number in [0, 1], got -0.1",
        ),
        (
            _stream("aggregate", budget_factor=-2),
            "streams[0].params.budget_factor must be a finite number >= 0, got -2",
        ),
        (
            _stream("event", budget_factor=math.nan),
            "streams[0].params.budget_factor must be a finite number >= 0, got nan",
        ),
    ],
    ids=[
        "zero-dmax", "negative-dmax", "negative-sensing-range", "infinite-coverage-radius",
        "negative-min-side", "string-max-side", "sides-swapped", "min-side-above-default",
        "theta-min-above-one", "negative-theta-min", "negative-budget-factor",
        "nan-budget-factor",
    ],
)
def test_bad_stream_geometry_exits_with_one_line(tmp_path, capsys, overrides, reason):
    """Stream geometry that used to fail at build — naming a NaN budget or
    a degenerate region instead of the key — is refused when the spec
    loads."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SPEC_PAYLOAD, **overrides}))
    assert main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error loading {path}: {reason}\n"
    assert captured.out == ""


class TestAsciiChart:
    def _result(self):
        result = FigureResult("figX", "demo", "budget", x_values=[1, 2, 3])
        for v in (1.0, 2.0, 3.0):
            result.add("A", "m", v)
        for v in (3.0, 2.0, 1.0):
            result.add("B", "m", v)
        return result

    def test_chart_contains_symbols_and_ranges(self):
        chart = ascii_chart(self._result(), "m", width=20, height=6)
        assert "o=A" in chart and "x=B" in chart
        assert "y: 1 .. 3" in chart
        assert "x: 1 .. 3" in chart

    def test_chart_missing_metric(self):
        assert "no series" in ascii_chart(self._result(), "missing")

    def test_chart_flat_series(self):
        result = FigureResult("f", "t", "x", x_values=[1])
        result.add("A", "m", 5.0)
        chart = ascii_chart(result, "m")
        assert "o=A" in chart


class TestLint:
    """The ``repro lint`` subcommand end to end (the CI gate)."""

    REPO_ROOT = str(Path(__file__).resolve().parents[1])

    @staticmethod
    def _violating_tree(tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n"
            "import numpy as np\n"
            "fn = getattr(kernel, 'definitely_not_a_capability', None)\n"
            "noise = np.random.rand(3)\n"
            "stamp = time.time()\n"
        )
        return tmp_path

    def test_repo_lints_clean(self, capsys):
        assert main(["lint", "--root", self.REPO_ROOT]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        codes = [line.split()[0] for line in lines]
        assert codes == ["REP001", "REP003", "REP004", "REP005", "REP006"]

    def test_injected_violations_fail_with_json_report(self, tmp_path, capsys):
        root = self._violating_tree(tmp_path)
        assert main(["lint", "--root", str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        fired = {f["rule"] for f in payload["findings"]}
        assert {"capability-hook", "determinism"} <= fired

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = self._violating_tree(tmp_path)
        baseline = root / "lint-baseline.json"
        assert main([
            "lint", "--root", str(root),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main([
            "lint", "--root", str(root), "--baseline", str(baseline)
        ]) == 0
        assert "3 baselined" in capsys.readouterr().out

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--root", self.REPO_ROOT, "--rules", "nope"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_rule_subset_on_single_path(self, capsys):
        assert main([
            "lint", "--root", self.REPO_ROOT,
            "--rules", "determinism", "src/repro/core",
        ]) == 0
