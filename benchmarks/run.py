"""Benchmark for knotforge: one workload per run, checked, closed loop.

    python3 benchmarks/run.py --workload twist_family --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports knotforge from its ``src``
tree.  Set-up (import, table load, input generation) is repeated
SETUP_REPEATS times and its median reported.  Then whole passes over the
workload's items run in one thread until ``--seconds`` have elapsed; every
item's output is checked against an independent answer, and a mismatch or
an exception counts as a failed item (never retried).  Each pass runs the
items in its own fixed shuffled order, so that every item, and every size
class of items, is timed at moments spread over the whole run.

With ``--trace 0`` the run reports the end-to-end metrics, each pooled over
every timed sample of the run, with times scaled to a reference machine
speed that is probed while the run goes on (see speed.py); the same
statistics as measured are reported with a ``wall_`` prefix.  With
``--trace 1`` it makes the same untraced passes, then repeats set-up and
two passes with layer spans recorded (see tracing.py).  It reports the
per-layer metrics of that set-up plus the first traced pass, and the
tracing overhead: the mean item time of a traced pass minus that of an
untraced one, both at the reference speed.

Output: one line per metric, a JSON ``report`` line with sample counts,
run environment and the first failing input, and as the last line a JSON
object with keys correct, attempted, failed and metrics.  ``--out FILE``
also writes the report there.  Exit status: 0 when every item was
verified, 1 when some failed, 2 when knotforge cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from speed import SpeedMeter  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, largest  # noqa: E402

PACKAGE = "knotforge"
MODULES = ("diagram", "skein", "laurent", "invariants", "family", "fourmanifold")
SETUP_REPEATS = 9
P90_MIN_SAMPLES = 100


class Library:
    """The knotforge modules of one import, by short name."""

    def __init__(self):
        package = importlib.import_module(PACKAGE)
        origin = Path(package.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))

    @staticmethod
    def loaded_modules() -> list:
        return [mod for name, mod in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]


def import_library() -> Library:
    """Import knotforge afresh from the checkout, as a new process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return Library()


# -- passes --------------------------------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0
    spans: dict = field(default_factory=dict)     # item index -> (start, end), verified only
    latency: dict = field(default_factory=dict)   # item index -> seconds, verified only
    scaled: dict = field(default_factory=dict)    # the same at the reference speed
    failures: list = field(default_factory=list)  # (item, problem)

    def apply(self, meter: SpeedMeter) -> None:
        """Take the probes out of the latencies and scale them (see speed.py)."""
        for index, (t0, t1) in self.spans.items():
            self.latency[index], self.scaled[index] = meter.measure(t0, t1)


def run_pass(workload, lib, items, tracer: Tracer | None = None, order=None) -> Pass:
    """Run and check every item once, in ``order`` (item indices) if given."""
    clock = time.perf_counter
    result = Pass()
    start = clock()
    for index in (range(len(items)) if order is None else order):
        item = items[index]
        t0 = clock()
        try:
            problem = workload.check_item(item, workload.run_item(lib, item))
        except Exception as exc:  # noqa: BLE001 - a failed item, reported below
            problem = f"{item.label}: {type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.harvest_memos()
        if problem is None:
            result.spans[index] = (t0, t1)
            result.latency[index] = t1 - t0
        else:
            result.failures.append((item, problem))
    result.wall = clock() - start
    return result


def pass_order(n_items: int, number: int) -> list:
    """The item order of timed pass ``number``: a fixed shuffle of the indices."""
    order = list(range(n_items))
    random.Random(number).shuffle(order)
    return order


def set_up(workload, seed: int):
    """Repeat import + input generation; return the last library, the inputs
    and each repeat's (start, end)."""
    spans, fingerprints = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_library()
        items = workload.make_inputs(lib, seed)
        spans.append((t0, time.perf_counter()))
        fingerprints.add(tuple(item.fingerprint() for item in items))
    if len(fingerprints) != 1:
        raise RuntimeError("the same seed produced different inputs")
    return lib, items, spans


def timed_passes(workload, lib, items, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, lib, items,
                               order=pass_order(len(items), len(passes))))
    return passes


# -- metrics -------------------------------------------------------------------


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pooled_latencies(passes, indices=None, scaled: bool = False) -> list:
    """Every verified latency of the passes, optionally of some items only.

    Each pass visits the items in another order, so a pool of samples
    spreads over the whole run rather than over one spell of it.
    """
    return [t for p in passes for i, t in (p.scaled if scaled else p.latency).items()
            if indices is None or i in indices]


def mean_pass_item_s(passes) -> float:
    """Item time per pass at the reference speed, summed over a pass's
    verified items, averaged over the passes."""
    return sum(pooled_latencies(passes, scaled=True)) / len(passes)


def latency_metrics(samples, top, prefix: str) -> dict:
    p90 = (statistics.quantiles(samples, n=10)[-1]
           if len(samples) >= P90_MIN_SAMPLES else None)
    return {
        f"{prefix}items_per_s": (len(samples) / sum(samples) if samples else None,
                                 "1/s", len(samples)),
        f"{prefix}item_p50_s": (statistics.median(samples) if samples else None, "s",
                                len(samples)),
        f"{prefix}item_p90_s": (p90, "s", len(samples)),
        f"{prefix}largest_item_s": (statistics.median(top) if top else None, "s",
                                    len(top)),
    }


def end_to_end(setup_times, scaled_setup_times, passes, items) -> dict:
    """name -> (value, unit, sample count); absent values are None.

    The unprefixed times are at the reference speed (see speed.py); the
    ``wall_`` ones are as measured.
    """
    top = set(largest(items))
    return {
        "setup_s": (statistics.median(scaled_setup_times), "s", len(setup_times)),
        **latency_metrics(pooled_latencies(passes, scaled=True),
                          pooled_latencies(passes, top, scaled=True), ""),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "wall_setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        **latency_metrics(pooled_latencies(passes), pooled_latencies(passes, top),
                          "wall_"),
    }


# The metrics of BENCHMARK.json's end_to_end list, printed on the last line
# of an untraced run: the times at the reference speed.  item_p90_s exists
# only with enough samples, fail_ratio is zero on a correct run, and the
# wall_ times spread with the host's load, so they are in the report line only.
CONTRACT_METRICS = ("setup_s", "items_per_s", "item_p50_s", "largest_item_s",
                    "peak_rss_mb")
# BENCHMARK.json's per_layer list, printed on the last line of a traced run:
# the exact counts and the tracing cost.  Layer times read exactly 0 on the
# workloads that never call the layer, so they are in the report line only.
TRACE_CONTRACT_METRICS = (
    "diagram.validate.calls", "diagram.parse.calls", "skein.key.calls",
    "skein.nodes", "skein.memo.hits", "skein.memo.misses", "skein.memo.hit_ratio",
    "skein.memo.entries", "skein.oracle.calls", "skein.oracle.states",
    "laurent.ops", "fourmanifold.signature.calls", "trace.pass_s",
    "trace.overhead_s")


def environment(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": nproc,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the report here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        with SpeedMeter() as meter:
            lib, items, setup_spans = set_up(workload, args.seed)
            passes = timed_passes(workload, lib, items, args.seconds)
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_times, scaled_setup_times = zip(*(meter.measure(*span) for span in setup_spans))
    for p in passes:
        p.apply(meter)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "items_per_pass": len(items),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "setup_repeats": SETUP_REPEATS,
    }
    if args.trace:
        # probed like the untraced passes, so that the overhead compares
        # times at one speed; spans are timed on the meter's own clock
        with SpeedMeter() as trace_meter:
            tracer = Tracer(clock=trace_meter.clock)
            tracer.install(lib)
            try:
                traced_items = workload.make_inputs(lib, args.seed)
                tracer.harvest_memos()
                traced = [run_pass(workload, lib, traced_items, tracer)]
                metrics = {name: (value, unit, 1)
                           for name, (value, unit) in tracer.metrics().items()}
                # a second traced pass only for the overhead's mean item time
                traced.append(run_pass(workload, lib, traced_items, tracer))
            finally:
                tracer.uninstall()
        for p in traced:
            p.apply(trace_meter)
        if [i.fingerprint() for i in traced_items] != [i.fingerprint() for i in items]:
            raise RuntimeError("traced set-up produced different inputs")
        # the pass the layer times cover, on the same clock
        metrics["trace.pass_s"] = (sum(traced[0].latency.values()), "s", 1)
        metrics["trace.overhead_s"] = (
            mean_pass_item_s(traced) - mean_pass_item_s(passes), "s", len(passes))
        report["missing_trace_targets"] = tracer.missing
        passes.extend(traced)
        contract = TRACE_CONTRACT_METRICS
    else:
        metrics = end_to_end(setup_times, scaled_setup_times, passes, items)
        contract = CONTRACT_METRICS

    attempted = len(items) * len(passes)
    failures = [f for p in passes for f in p.failures]
    metrics["fail_ratio"] = (len(failures) / attempted, "ratio", attempted)
    report["metrics"] = {name: {"value": v, "unit": u, "samples": n}
                         for name, (v, u, n) in metrics.items()}
    if failures:
        item, problem = failures[0]
        report["first_failure"] = {"problem": problem, "input": item.fingerprint()}
        print(f"FAILED {len(failures)}/{attempted}; first: {problem}", file=sys.stderr)

    for name, (value, unit, n) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit} (n={n})")
    print(json.dumps({"report": report}))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in contract},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
