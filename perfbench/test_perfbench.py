"""Tests of the benchmark itself: deterministic inputs, counters that must
repeat exactly, checks that reject wrong answers, and the refusal to run
outside a checkout.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gsbmaps  # noqa: E402
import gsbmaps.cli  # noqa: E402

import gen  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BIQUATERNION = str(ROOT / "src" / "gsbmaps" / "fixtures" / "biquaternion.json")


def _inputs(seed: int) -> bytes:
    docs = gen.cli_instance_docs(seed)
    parts = [docs, gen.cli_cycle(seed, 0, docs)]
    for c in range(3):
        parts += [gen.reduce_cycle(seed, c), gen.families_cycle(seed, c), gen.subgroups_cycle(seed, c)]
    return json.dumps(parts, ensure_ascii=False, sort_keys=True).encode("utf-8")


def test_same_seed_gives_byte_identical_inputs():
    assert _inputs(7) == _inputs(7)


def test_different_seed_gives_different_inputs():
    assert _inputs(7) != _inputs(8)


def _traced_cli(*argv):
    tracer = Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            code = gsbmaps.cli.main(list(argv))
    finally:
        tracer.uninstall()
    return code, tracer.derive()


def test_biquaternion_reduced_index_scans_16_tuples():
    code, m = _traced_cli("-i", BIQUATERNION, "reduced-index", "--target", "Δ3", "--base", "left")
    assert code == 0
    assert m["reduction.reduced_index_calls"] == 1
    assert m["reduction.tuples"] == 16
    assert m["brauer.combine_calls"] == 16
    assert m["instance.load_calls"] == 1
    assert m["cli.calls"] == 1
    assert m["cli.output_bytes"] == len(
        "reduced index of Δ3 over F(X(2;Δ1) x X(2;Δ2)): 4\nminimizing tuple: (1, 1)\n".encode()
    )


def test_biquaternion_compare_families_counts():
    code, m = _traced_cli(
        "-i", BIQUATERNION, "compare-families", "--left", "Δ1,Δ2", "--right", "Δ1,Δ3"
    )
    assert code == 0
    assert m["reduction.reduced_index_calls"] == 160
    assert m["reduction.reduced_index_distinct"] == 30
    assert m["motives.descriptors"] == 16
    assert m["motives.pair_checks"] == 64
    assert m["motives.fast_path_pairs"] == 16


def test_biquaternion_compare_families_shares_four_pairs():
    inst = gsbmaps.parse_instance(BIQUATERNION)
    d1, d2, d3 = (inst.algebra(n) for n in ("Δ1", "Δ2", "Δ3"))
    comp = gsbmaps.compare_families([d1, d2], [d1, d3])
    assert comp.verdict.value == "PARTIAL"
    assert len(comp.shared) == 4


def _traced_cycle(name, seed, cycle):
    workload = WORKLOADS[name](gsbmaps, seed, Oracle(), ROOT)
    workload.setup()
    queries = [workload.build(q) for q in workload.cycle(cycle)]
    tracer = Tracer()
    tracer.install()
    try:
        results = [run() for run, _ in queries]
    finally:
        tracer.uninstall()
    assert all(check(r) for r, (_, check) in zip(results, queries))
    return {k: v for k, v in tracer.derive().items() if not k.endswith(("_s", "ratio"))}


@pytest.mark.parametrize("name", ["cli", "subgroups"])
def test_trace_counts_repeat_exactly(name):
    first = _traced_cycle(name, 5, 1)
    assert first == _traced_cycle(name, 5, 1)
    assert any(first.values())


def test_checks_reject_wrong_answers():
    workload = WORKLOADS["reduce"](gsbmaps, 3, Oracle(), ROOT)
    specs = workload.cycle(0)
    run, check = workload.build(specs[0])  # a reduced_index cell
    right = run()
    assert check(right)
    assert not check(right._replace(value=right.value * 2))
    assert not check(right._replace(witness=tuple(i + 1 for i in right.witness)))


def test_cli_checks_reject_wrong_bytes():
    workload = WORKLOADS["cli"](gsbmaps, 3, Oracle(), ROOT)
    workload.setup()
    for call in workload.cycle(0):
        if call["cell"] == "index":
            run, check = workload.build(call)
            code, out = run()
            assert check((code, out))
            assert not check((code, out + " "))
            assert not check((4, out))
            return
    pytest.fail("no index call in the cycle")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
