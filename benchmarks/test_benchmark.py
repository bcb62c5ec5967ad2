"""Tests of the benchmark itself: input determinism, checks, tracer, speed meter,
contract.

    python3 -m pytest benchmarks
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import PROBE_REF_S, SpeedMeter  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def fingerprints(items):
    return [item.fingerprint() for item in items]


@pytest.mark.parametrize("name", ["random_links", "forms"])
def test_same_seed_same_inputs(lib, name):
    make = workloads.WORKLOADS[name].make_inputs
    first = fingerprints(make(lib, 5))
    assert first == fingerprints(make(lib, 5))
    assert first != fingerprints(make(lib, 6))


def test_twist_family_ignores_seed(lib):
    make = workloads.twist_inputs
    items = make(lib, 1)
    assert fingerprints(items) == fingerprints(make(lib, 2))
    assert [item.size for item in items] == ([17, 15, 13, 15, 17, 19, 21]
                                             + [23] * workloads.LARGEST_REPEATS)


def test_random_links_meet_the_schedule(lib):
    items = workloads.link_inputs(lib, 3)
    sizes = [item.size for item in items]
    assert sizes == ([size for size, count in workloads.LINK_SCHEDULE
                      for _ in range(count)]
                     + [11, 12, 13, 14] + [15] * workloads.LARGEST_REPEATS)
    for item in items:
        d = item.data
        assert workloads.is_planar(d)
        assert 1 <= d.component_count() <= workloads.MAX_COMPONENTS


def test_is_planar_rejects_a_slot_swapped_code():
    # is_planar reads only the crossing tuples, so plain stand-ins serve; a
    # library that rejects non-planar codes could not build the second one
    def code(*crossings):
        return SimpleNamespace(n_crossings=len(crossings), crossings=crossings)

    five_two = code((1, 4, 2, 5), (3, 8, 4, 9), (5, 10, 6, 1), (9, 6, 10, 7),
                    (7, 2, 8, 3))
    assert workloads.is_planar(five_two)
    # the third crossing's slots rotated: consistent labels, no planar embedding
    swapped = code((1, 4, 2, 5), (3, 8, 4, 9), (5, 1, 6, 10), (9, 6, 10, 7),
                   (7, 2, 8, 3))
    assert not workloads.is_planar(swapped)


def _one_coefficient_off(poly, lib):
    terms = poly.doubled_terms()
    key = max(terms)
    terms[key] += 1
    return lib.laurent.LaurentPoly(terms)


def test_random_links_check_catches_a_wrong_jones_coefficient(lib):
    item = next(i for i in workloads.link_inputs(lib, 2) if i.size >= 5)
    result = workloads.link_run(lib, item)
    assert workloads.check_link(item, result) is None
    d, nabla, vee, oracle = result
    wrong = _one_coefficient_off(vee, lib)
    assert "oracle" in workloads.check_link(item, (d, nabla, wrong, oracle))


def test_twist_family_check_catches_a_wrong_jones_coefficient(lib):
    item = workloads.twist_inputs(lib, 0)[2]        # L_2, 13 crossings
    inv, nabla, vee = workloads.twist_run(lib, item)
    assert workloads.check_twist(item, (inv, nabla, vee)) is None
    # a reference Jones polynomial with one coefficient changed moves v2/v3
    problem = workloads.check_twist(item, (inv, nabla, _one_coefficient_off(vee, lib)))
    assert problem is not None and problem.startswith("L_2: v")


def test_forms_check_catches_a_signature_off_by_one(lib):
    item = workloads.random_form(lib, random.Random(4), 14, "form")
    result = workloads.form_run(lib, item)
    assert workloads.check_form(item, result) is None
    result["signature"] += 1
    assert "signature" in workloads.check_form(item, result)


def test_scramble_preserves_the_invariants(lib):
    fm = lib.fourmanifold
    cls, form, _ = fm.build_sigma_class(3, 4, 0)
    matrix, new_cls = workloads.scramble(random.Random(9), form.matrix, cls, 60)
    f = fm.IntersectionForm(matrix)
    assert matrix != [list(row) for row in form.matrix]
    assert fm.signature(f) == fm.signature(form)
    assert fm.self_intersection(new_cls, f) == fm.self_intersection(cls, form)
    assert fm.is_characteristic(new_cls, f)


def test_failed_items_are_counted_not_retried(lib):
    calls = []

    def run_item(lib_, item):
        calls.append(item.label)
        if item.label == "b":
            raise ValueError("boom")
        return item.expected

    def check_item(item, result):
        return None if result == 0 else f"{item.label}: wrong"

    wl = workloads.Workload(None, run_item, check_item)
    items = [workloads.Item(name, 1, None, value)
             for name, value in (("a", 0), ("b", 0), ("c", 1))]
    result = run.run_pass(wl, lib, items)
    assert calls == ["a", "b", "c"]
    assert sorted(result.latency) == [0]
    assert [problem for _, problem in result.failures] == [
        "b: ValueError: boom", "c: wrong"]


def test_tracer_counts_layers_and_restores_them(lib):
    d = workloads.twist_inputs(lib, 0)[2]
    originals = (lib.skein.jones, lib.diagram.parse_pd, lib.diagram.PDDiagram.__init__)
    tracer = Tracer()
    tracer.install(lib)
    try:
        lib.skein.jones(d.data)
        tracer.harvest_memos()
    finally:
        tracer.uninstall()
    assert (lib.skein.jones, lib.diagram.parse_pd,
            lib.diagram.PDDiagram.__init__) == originals
    m = tracer.metrics()
    assert m["skein.key.calls"][0] > 0 or "skein.canonical_code" in tracer.missing
    assert m["skein.memo.misses"][0] == m["skein.memo.entries"][0] > 0
    assert m["skein.nodes"][0] == m["skein.memo.hits"][0] + m["skein.memo.misses"][0]
    assert m["diagram.validate.calls"][0] > 0
    # the walk's self time excludes the key and every other nested span
    assert tracer.total["skein.walk"] >= (tracer.self_time["skein.walk"]
                                          + tracer.total["skein.key"])
    assert not tracer.missing


def test_tracer_tolerates_a_removed_function(lib, monkeypatch):
    monkeypatch.delattr(lib.skein, "canonical_code", raising=False)
    tracer = Tracer()
    tracer.install(lib)
    try:
        lib.skein.conway(lib.family.load_table().diagram("trefoil"))
    except NameError:
        pass  # the library itself still calls the removed name
    finally:
        tracer.uninstall()
    assert "skein.canonical_code" in tracer.missing
    assert tracer.metrics()["skein.key.calls"] == (0, "count")


def test_oracle_states_are_counted(lib):
    d = lib.family.load_table().diagram("5_2")
    tracer = Tracer()
    tracer.install(lib)
    try:
        lib.skein.jones_bracket_oracle(d)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["skein.oracle.states"] == (2 ** 5, "count")


def test_laurent_ops_fold_nested_operators(lib):
    lp = lib.laurent.LaurentPoly
    a, b = lp.monomial(1, 1), lp.monomial(2, Fraction(1, 2))
    tracer = Tracer()
    tracer.install(lib)
    try:
        a - b            # implemented as a + (-b): one operation requested
        a ** 3
    finally:
        tracer.uninstall()
    assert tracer.metrics()["laurent.ops"][0] == 2


def test_git_commit_reads_head_and_refs(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "refs" / "heads" / "main").write_text("abc123\n")
    assert run.git_commit(tmp_path) == "abc123"
    (git / "refs" / "heads" / "main").unlink()
    (git / "packed-refs").write_text("# pack-refs\ndef456 refs/heads/main\n")
    assert run.git_commit(tmp_path) == "def456"
    assert run.git_commit(tmp_path / "nowhere") == "unknown"


def test_contract_line_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run.main(["--workload", "twist_family", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--out", str(out)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 9
    assert set(last["metrics"]) == set(run.CONTRACT_METRICS)
    report = json.loads(out.read_text())
    assert report["environment"]["seed"] == 3
    assert {"python", "nproc", "commit"} <= set(report["environment"])
    assert report["metrics"]["item_p90_s"]["value"] is None      # only 9 samples


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.CONTRACT_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.TRACE_CONTRACT_METRICS)
    layer_metrics = set(Tracer().metrics()) | {"trace.pass_s", "trace.overhead_s"}
    assert set(run.TRACE_CONTRACT_METRICS) <= layer_metrics


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "forms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pass_orders_are_fixed_shuffles():
    orders = [run.pass_order(20, k) for k in range(3)]
    assert all(sorted(order) == list(range(20)) for order in orders)
    assert orders == [run.pass_order(20, k) for k in range(3)]
    assert orders[0] != orders[1] != orders[2]


def test_speed_meter_scales_by_the_probes_in_and_around_a_step():
    meter = SpeedMeter()
    meter.starts = [0.0, 1.0, 1.5, 3.0]
    meter.probes = [0.004, 0.002, 0.006, 0.004]
    meter.spent = [0.005, 0.003, 0.007, 0.005]
    own, scaled = meter.measure(0.9, 2.0)     # interrupted by the probes at 1.0 and 1.5
    assert own == pytest.approx(1.1 - 0.010)
    assert scaled == pytest.approx(own * PROBE_REF_S / 0.004)
    own, scaled = meter.measure(2.0, 2.5)     # too short: the probes at 1.5 and 3.0
    assert own == pytest.approx(0.5)
    assert scaled == pytest.approx(0.5 * PROBE_REF_S / 0.005)


def test_speed_meter_probes_while_active_and_then_stops():
    handler = signal.getsignal(signal.SIGALRM)
    with SpeedMeter(interval=0.02) as meter:
        t0, c0 = time.perf_counter(), meter.clock()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1, c1 = time.perf_counter(), meter.clock()
    assert len(meter.probes) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    own, _ = meter.measure(t0, t1)
    assert 0 < own < t1 - t0
    assert c1 - c0 == pytest.approx(own, abs=1e-3)   # the clock skips the probes
