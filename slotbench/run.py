"""Slot-engine benchmark: end-to-end slot/sojourn metrics and a traced layer split.

Run from the repository root::

    python3 slotbench/run.py --workload points_metro --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it once traced (spans around every layer's
entry points, see tracing.py) and once untraced, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it repeat every metric with its unit and the run's
checks, counters and host diagnostics.  README.md documents the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

#: The seed whose per-slot allocation digests are recorded in expected.json.
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
#: Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 5
#: Drift guard: last-window / first-window ratio of offered load and of the
#: answered fraction must stay within [1/DRIFT_LIMIT, DRIFT_LIMIT].
DRIFT_LIMIT = 1.2

def tail_percentile(n: int) -> float:
    """The highest percentile of a fixed ladder with >= 10 of ``n`` beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 100.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def steal_ticks() -> int | None:
    """CPU steal ticks of the host so far (``/proc/stat``), if readable."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def slot_digest(result) -> str:
    """Order-independent digest of one slot's ``allocation_signature``."""
    from repro.experiments.replay import allocation_signature

    signature = allocation_signature(result)
    if signature is not None:
        selected, assignments, values, payments = signature
        signature = (selected, sorted(assignments.items()), sorted(values.items()),
                     sorted(payments.items()))
    return hashlib.blake2b(repr(signature).encode(), digest_size=6).hexdigest()


class Pass:
    """Everything one pass over a workload measured and checked."""

    def __init__(self, workload, n_slots: int) -> None:
        self.workload = workload
        self.n_slots = n_slots
        self.setup_s: list[float] = []
        self.slot_s: list[float] = []
        self.cpu_s: list[float] = []
        self.offered: list[int] = []
        self.answered: list[int] = []
        self.sojourn_s: list[float] = []
        self.wait_ticks: list[int] = []
        self.digests: list[str] = []
        self.attempted = 0
        #: (slot or "run", what failed)
        self.errors: list[tuple] = []
        self.counters: dict[str, int] = {"rounds": 0, "offered": 0, "answered": 0}
        self.peak_rss_mb = 0.0
        self.host: dict[str, float | None] = {}

    def fail(self, slot, what: str) -> None:
        self.errors.append((slot, what))

    def check(self, slot: int, result) -> None:
        """The output check, outside the timed span: Theorem-1 invariants."""
        if result is None:
            self.fail(slot, "no allocation result")
            self.digests.append("-")
            return
        try:
            result.verify()
        except Exception as exc:  # any violation is counted, never raised
            self.fail(slot, f"verify: {exc}")
        self.digests.append(slot_digest(result))
        if slot >= self.workload.warmup:
            self.counters["rounds"] += len(result.selected)

    def record(self, slot: int, wall: float, cpu: float, record) -> None:
        if slot < self.workload.warmup:
            return
        self.slot_s.append(wall)
        self.cpu_s.append(cpu)
        self.offered.append(record.issued)
        self.answered.append(record.answered)
        self.counters["offered"] += record.issued
        self.counters["answered"] += record.answered

    def start_host(self) -> None:
        self.host["steal0"] = steal_ticks()
        self.host["load_start"] = os.getloadavg()[0]

    def end_host(self) -> None:
        steal = steal_ticks()
        start = self.host.pop("steal0")
        self.host["steal_ticks"] = None if steal is None or start is None else steal - start
        self.host["load_end"] = os.getloadavg()[0]
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def drift_guard(self) -> None:
        """Fail the run if its work drifts between its first and last window."""
        period = self.workload.period
        n = len(self.offered)
        window = max(period, (n // 5) // period * period)
        if n < 2 * window:
            self.fail("run", f"too few measured slots ({n}) for the drift guard")
            return
        first, last = slice(0, window), slice(n - window, n)
        for label, a, b in (
            ("offered load", sum(self.offered[first]), sum(self.offered[last])),
            ("answered fraction",
             sum(self.answered[first]) / max(1, sum(self.offered[first])),
             sum(self.answered[last]) / max(1, sum(self.offered[last]))),
        ):
            if a <= 0 or b <= 0 or not 1 / DRIFT_LIMIT <= b / a <= DRIFT_LIMIT:
                self.fail("run", f"drift: {label} first window {a:.4g}, last {b:.4g}")


def build_spec(workload, seed: int, n_slots: int):
    from repro.datasets import ScenarioSpec

    return ScenarioSpec.from_dict(workload.spec(seed, n_slots))


def timed_setup(p: Pass, make, spec, tracer):
    """One set-up, timed (and traced, in the traced pass)."""
    gc.collect()
    if tracer is not None:
        tracer.slot, tracer.active = "setup", True
    t0 = time.perf_counter()
    try:
        return make(spec)
    finally:
        p.setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False


def setup_reps(p: Pass, make, seed: int, total: int, tracer) -> None:
    """Time SETUP_REPS - 1 more set-ups on sibling seeds (cold world caches)."""
    for rep in range(1, SETUP_REPS):
        spec = build_spec(p.workload, seed + 1_000_003 * rep, total)
        timed_setup(p, make, spec, tracer)


def engine_pass(workload, seed: int, n_slots: int, tracer) -> Pass:
    from repro.core.metrics import SimulationSummary

    p = Pass(workload, n_slots)
    total = workload.warmup + n_slots
    spec = build_spec(workload, seed, total + 1)
    engine = timed_setup(p, lambda s: s.build(), spec, tracer)
    summary = SimulationSummary()
    p.start_host()
    for k in range(total):
        if tracer is not None:
            tracer.slot, tracer.active = k, True
        p.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            record = engine.step(summary)
        except Exception:
            p.fail(k, "step raised\n" + traceback.format_exc())
            p.digests.append("raised")
            continue
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.active = False
        p.check(k, engine.last_result)
        p.record(k, wall, cpu, record)
        if k >= workload.warmup:
            p.sojourn_s.extend([wall] * record.issued)
    p.end_host()
    p.counters["exhausted"] = engine.fleet.exhausted_count()
    del engine, summary
    setup_reps(p, lambda s: s.build(), seed, total + 1, tracer)
    return p


def arrival_schedule(service, seed: int, total: int) -> list[list]:
    """Per tick, the queries due then: an open loop on the slot clock."""
    import numpy as np

    from workloads import BASE_TICK_DRAWS, BURST_PERIOD, BURST_TICK_DRAWS

    rng = np.random.default_rng([seed, 977])
    templates = [workload for _, workload in service.workloads]
    schedule = []
    for tick in range(total):
        draws = BURST_TICK_DRAWS if tick % BURST_PERIOD == 0 else BASE_TICK_DRAWS
        batches = [template.generate(tick, rng) for _ in range(draws) for template in templates]
        schedule.append([q for batch in batches for q in batch])
    return schedule


def service_pass(workload, seed: int, n_slots: int, tracer) -> Pass:
    from repro.service import MarketplaceService, replay_admission_trace

    p = Pass(workload, n_slots)
    total = workload.warmup + n_slots
    spec = build_spec(workload, seed, total + 1)
    service = timed_setup(p, MarketplaceService.from_spec, spec, tracer)
    schedule = arrival_schedule(service, seed, total)
    pending: dict[int, tuple[float, int]] = {}
    submitted = rejected = admitted = depth_max = 0
    p.start_host()
    for k in range(total):
        timed = k >= workload.warmup
        if tracer is not None:
            tracer.slot, tracer.active = k, True
        for query in schedule[k]:
            due = time.perf_counter()
            ticket = service.submit(query)
            submitted += timed
            if ticket.accepted:
                pending[ticket.seq] = (due, k)
            else:
                rejected += timed
        depth_max = max(depth_max, service.queue_depth)
        p.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            record = service.tick_once()
        except Exception:
            p.fail(k, "tick raised\n" + traceback.format_exc())
            p.digests.append("raised")
            continue
        finally:
            end = time.perf_counter()
            wall, cpu = end - t0, time.process_time() - c0
            if tracer is not None:
                tracer.active = False
        p.check(k, service.engine.last_result)
        p.record(k, wall, cpu, record)
        for seq in service.trace.slots[-1].seqs:
            due, tick = pending.pop(seq)
            if tick >= workload.warmup:
                p.sojourn_s.append(end - due)
                p.wait_ticks.append(k - tick)
                admitted += 1
    p.end_host()
    if pending:
        p.fail("run", f"drift: {len(pending)} admitted queries unsettled at the end")
    p.counters.update(submitted=submitted, admitted=admitted, rejected=rejected,
                      wait_ticks=sum(p.wait_ticks), queue_depth_max=depth_max,
                      exhausted=service.engine.fleet.exhausted_count())
    # The service is a scheduling layer exactly when an offline batch replay
    # of its admission trace allocates identically, slot by slot.
    try:
        replayed = replay_admission_trace(spec, service.trace)
    except Exception:
        p.fail("run", "replay_admission_trace raised\n" + traceback.format_exc())
        replayed = []
    live = service.slot_signatures
    if len(replayed) != len(live):
        p.fail("run", f"replay ran {len(replayed)} slots, service {len(live)}")
    for k, (a, b) in enumerate(zip(live, replayed)):
        if a != b:
            p.fail(k, "live allocation differs from replay_admission_trace")
    del service, schedule, replayed, live
    setup_reps(p, MarketplaceService.from_spec, seed, total + 1, tracer)
    return p


def run_pass(workload, seed: int, n_slots: int, tracer=None) -> Pass:
    runner = service_pass if workload.name == "service_burst" else engine_pass
    p = runner(workload, seed, n_slots, tracer)
    p.drift_guard()
    if p.counters["exhausted"]:
        p.fail("run", f"drift: {p.counters['exhausted']} sensors exhausted")
    return p


def end_to_end(p: Pass) -> dict[str, float]:
    slot_ms = [s * 1e3 for s in p.slot_s]
    sojourn_ms = [s * 1e3 for s in p.sojourn_s]
    pct = tail_percentile(len(slot_ms))
    submitted = p.counters.get("submitted", p.counters["offered"])
    admitted = submitted - p.counters.get("rejected", 0)
    return {
        "slot_p50_ms": statistics.median(slot_ms),
        "slot_tail_ms": percentile(slot_ms, pct),
        "queries_per_s": p.counters["offered"] / sum(p.slot_s),
        "sojourn_p50_ms": statistics.median(sojourn_ms),
        "sojourn_tail_ms": percentile(sojourn_ms, pct),
        "admit_frac": admitted / submitted,
        "peak_rss_mb": p.peak_rss_mb,
        "setup_s": statistics.median(p.setup_s),
    }


def check_expected(p: Pass, seed: int, traced_counts: dict | None) -> str:
    """Compare with the digests recorded for the default seed, if any."""
    expected = json.loads(EXPECTED.read_text()).get(p.workload.name) if EXPECTED.exists() else None
    if seed != DEFAULT_SEED or expected is None or expected["n_slots"] != p.n_slots:
        return "only verify ran (no digests recorded for this seed and length)"
    want = expected["slot_digests"]
    for k, (a, b) in enumerate(zip(p.digests, want)):
        if a != b:
            p.fail(k, "allocation digest differs from the recorded one")
    if len(p.digests) != len(want):
        p.fail("run", f"{len(p.digests)} slot digests, {len(want)} recorded")
    for name, value in expected["counters"].items():
        if p.counters.get(name) != value:
            p.fail("run", f"counter {name} = {p.counters.get(name)}, recorded {value}")
    if traced_counts is not None:
        for name, value in expected.get("traced_counters", {}).items():
            if traced_counts.get(name) != value:
                p.fail("run", f"traced counter {name} = {traced_counts.get(name)}, "
                              f"recorded {value}")
    return "verify ran and the slot digests were compared with the recorded default-seed run"


def record_expected(p: Pass, traced_counts: dict | None) -> None:
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data[p.workload.name] = {
        "seed": DEFAULT_SEED, "n_slots": p.n_slots, "counters": p.counters,
        "traced_counters": traced_counts or {}, "slot_digests": p.digests,
    }
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def describe(p: Pass) -> None:
    n = len(p.slot_s)
    pct = tail_percentile(n)
    print(f"slots: {n} measured after {p.workload.warmup} warm-up; the tails are "
          f"p{pct:g}, with {n - math.ceil(pct / 100.0 * n)} slots beyond it; "
          f"sojourn samples: {len(p.sojourn_s)} queries")
    cpu_share = sum(p.cpu_s) / sum(p.slot_s) if p.slot_s else float("nan")
    print(f"host: cpu/wall {cpu_share:.3f}, steal ticks {p.host.get('steal_ticks')}, "
          f"load {p.host.get('load_start'):.2f} -> {p.host.get('load_end'):.2f}")
    print("counters: " + json.dumps(p.counters, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="store this run's digests and counters as the "
                             "default-seed reference in expected.json")
    args = parser.parse_args(argv)

    # One process, one thread: BLAS pools would otherwise add threads whose
    # scheduling shows up as slot-time noise.  Set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import WORKLOADS

    bench = json.loads(BENCHMARK.read_text())

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.record_expected and args.seed != DEFAULT_SEED:
        print("error: --record-expected needs the default seed", file=sys.stderr)
        return 2
    seed = args.seed % (2**31 - 1)
    n_slots = workload.n_slots(args.seconds)
    print(f"workload {workload.name}, seed {args.seed}, {n_slots} slots, "
          f"trace {args.trace}")

    traced = traced_counts = None
    if args.trace:
        tracer = Tracer(set(range(workload.warmup, workload.warmup + n_slots)))
        tracer.install()
        try:
            traced = run_pass(workload, seed, n_slots, tracer)
        finally:
            tracer.uninstall()
        traced_counts = dict(tracer.counts)
    p = run_pass(workload, seed, n_slots)
    if not p.slot_s or (traced is not None and not traced.slot_s):
        for error in p.errors + (traced.errors if traced is not None else []):
            print("FAILED " + " ".join(map(str, error)), file=sys.stderr)
        print("error: no slot completed, so there is nothing to report", file=sys.stderr)
        return 1
    describe(p)

    if traced is not None:
        for name in sorted(set(p.counters) | set(traced.counters)):
            if p.counters.get(name) != traced.counters.get(name):
                p.fail("run", f"nondeterministic: counter {name} read "
                              f"{traced.counters.get(name)} traced, {p.counters.get(name)} untraced")
        for k, (a, b) in enumerate(zip(p.digests, traced.digests)):
            if a != b:
                p.fail(k, "nondeterministic: traced and untraced allocations differ")
        p.errors.extend(("traced", slot, what) for slot, what in traced.errors)
        p.attempted += traced.attempted
    if args.record_expected:
        record_expected(p, traced_counts)
    print(check_expected(p, args.seed, traced_counts))

    if args.trace:
        untraced_p50 = statistics.median(p.slot_s)
        metrics, absent = tracer.layer_metrics()
        waits = traced.wait_ticks
        metrics["service.wait_ticks_p50"] = statistics.median(waits) if waits else 0.0
        metrics["service.queue_depth_max"] = traced.counters.get("queue_depth_max", 0)
        metrics["trace.overhead_ratio"] = statistics.median(traced.slot_s) / untraced_p50
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in bench["per_layer"]}
        print("traced counters: " + json.dumps(traced_counts, sort_keys=True))
        if tracer.absent:
            print("entry points absent from the program: " + ", ".join(tracer.absent))
        if absent:
            print("metrics absent on this workload (reported as 0): " + ", ".join(absent))
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(p)
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in bench["end_to_end"]}

    failed_slots = {error[:-1] for error in p.errors}
    for error in p.errors:
        print("FAILED " + " ".join(map(str, error)))
    print(f"error_frac {len(failed_slots) / max(1, p.attempted):.6g} "
          f"({len(failed_slots)} of {p.attempted} slots or run checks failed)")
    for name, entry in out.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not p.errors, "attempted": p.attempted,
                      "failed": len(failed_slots), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
