"""Tests of the benchmark itself: oracles, generators, failure counting.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import gen
import worker
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


# -- oracles against hand-worked cases ------------------------------------------


def test_qbinom_small_grassmannians():
    assert gen.qbinom(4, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert gen.qbinom(5, 2) == {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}
    assert gen.qbinom(3, 1) == gen.ladder(0, 2)


@pytest.mark.parametrize("k", range(1, 9))
def test_grassmannian_euler_is_central_binomial(k):
    assert sum(gen.qbinom(2 * k, k).values()) == comb(2 * k, k)


def test_hilbert_squares():
    assert gen.hilb2_betti(gen.K3_BETTI) == [1, 0, 23, 0, 276, 0, 23, 0, 1]
    assert gen.hilb2_betti([1, 0, 1, 0, 1]) == [1, 0, 2, 0, 3, 0, 2, 0, 1]  # Hilb^2 P^2


def test_two_term_program():
    tree = ("Sum", (("Tw", ("P", 1), {2: 1}), ("Bl", ("P", 3), ("P", 1), 2)))
    assert gen.render(tree) == "P(1) * L^2 + Bl(P(3), P(1), 2)"
    exp = gen.expectation(tree)
    assert exp["nf"] == {"P1": {1: 1, 2: 1}, "P3": {0: 1}}
    assert exp["dim"] == 3
    assert exp["betti"] == [1, 0, 2, 0, 3, 0, 2]
    assert exp["euler"] == 8


def test_product_takes_cells_of_the_cellular_factor():
    assert gen.normal_form(("Prod", ("K3",), ("P", 1))) == {"K3": {0: 1, 1: 1}}
    assert gen.normal_form(("Prod", ("P", 1), ("Hilb2K3",))) == {"Hilb2K3": {0: 1, 1: 1}}


def test_gm_numbers_are_consistent():
    assert gen.betti_euler(gen.GM_BETTI) == gen.GM_EULER
    assert sum(gen.GM_MIDDLE_ROW) == gen.GM_BETTI[6]


def test_text_parsers():
    p = {0: 1, 1: 2, 3: 1}
    assert gen.poly_text(p) == "1 + 2L + L^3"
    assert gen.parse_poly(gen.poly_text(p)) == p
    assert gen.parse_nf_text("{Gr(2,5): L + L^2, K3: 1}") == {
        "Gr(2,5)": {1: 1, 2: 1}, "K3": {0: 1}
    }
    assert gen.parse_nf_text("{}") == {}


# -- generators -------------------------------------------------------------------


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    assert gen.dsl_program(3, 60) == gen.dsl_program(3, 60)
    assert gen.dsl_program(3, 60)["text"] != gen.dsl_program(4, 60)["text"]
    assert gen.cellular_instance(3, 4) == gen.cellular_instance(3, 4)
    assert gen.cellular_instance(3, 4)["quotient"] != gen.cellular_instance(4, 4)["quotient"]
    assert gen.cli_ops(3) == gen.cli_ops(3)
    assert gen.cli_ops(3) != gen.cli_ops(4)
    assert gen.gm_order(3, 30) == gen.gm_order(3, 30) != gen.gm_order(4, 30)


def test_program_length_does_not_depend_on_the_seed():
    assert len({len(gen.dsl_program(s, 120)["text"]) for s in range(5)}) == 1


# -- the program agrees with the oracles; a wrong expectation fails -----------------


@pytest.fixture(scope="module")
def loaded():
    worker.load()
    return Tracer(enabled=False)


def test_small_ops_match_the_oracles(loaded):
    dsl = gen.dsl_program(1, 48)
    assert worker.timed(worker.dsl_op, worker.check_dsl, dsl, loaded)[1] is None
    cell = worker.inputs("cellular-wide", 1)["n"]
    assert worker.timed(worker.cellular_op, worker.check_cellular, cell, loaded)[1] is None
    gm = worker.inputs("gm-inproc", 1)["n"]
    assert worker.timed(worker.gm_op, worker.check_gm, gm, loaded)[1] is None
    for op in gen.cli_ops(1):
        assert worker.timed(worker.cli_inproc_op, worker.check_cli_inproc, op, loaded)[1] is None


def test_wrong_expected_value_is_counted_as_failed(loaded, monkeypatch):
    dsl = gen.dsl_program(1, 48)
    assert worker.timed(worker.dsl_op, worker.check_dsl, {**dsl, "euler": dsl["euler"] + 1},
                        loaded)[1]
    op = next(o for o in gen.cli_ops(1) if o["check"] == "text")
    assert worker.timed(worker.cli_inproc_op, worker.check_cli_inproc,
                        {**op, "want": op["want"] + "0"}, loaded)[1]
    monkeypatch.setattr(gen, "GM_EULER", gen.GM_EULER + 1)
    res = worker.run("gm-inproc", 1, 0.05)
    attempted = len(res["latencies"]["n"])
    assert attempted > 0 and res["failed"] == attempted


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "gm-inproc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_probe_times_every_import_of_the_package():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(ROOT / "perfbench" / "probe.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    scaled, raw = map(float, proc.stdout.split())
    assert scaled > 0 and raw > 0
    names = [line.split("|")[-1].strip() for line in proc.stderr.splitlines() if "|" in line]
    # the standard modules motivecalc needs load inside the timed import
    for name in ("dataclasses", "json", "__future__"):
        assert names.index("calib") < names.index(name) < names.index("motivecalc")


def test_spawned_child_reports_its_own_peak_rss():
    import run

    ballast = bytearray(64 * 2**20)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # touch every page
    with run.Spawner() as sp:
        res = sp.run(["-c", "print('hi')"])
    assert res["code"] == 0 and res["out"] == "hi\n"
    assert res["rss_kb"] < 48 * 1024  # not the 64 MB of this process
