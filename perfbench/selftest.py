"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's test suite (the file name does not match
``test_*.py``) because a pass runs every workload, about three minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _bench(cmd_args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *cmd_args], capture_output=True, text=True, cwd=cwd,
                          timeout=300)


# ---------------------------------------------------------------------------
# a tiny pass of each workload


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_pass_prints_every_metric(workload, tmp_path):
    proc = _bench(["--workload", workload, "--seed", "7", "--seconds", "0.01",
                   "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(wl.generate(workload, 7, tmp_path))
    assert "fail_ratio = 0.0 ratio" in lines
    for name, unit in run.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit and metric["value"] > 0
        assert any(l.startswith(f"{name} = ") and l.endswith(f" {unit}")
                   for l in lines)
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "grid_eigen", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# every oracle checker fails a deliberately wrong value


def test_spectrum_checks_refuse_wrong_values():
    oracle = {0: np.array([10.0, 40.0]), 1: np.array([20.0])}
    good = {0: oracle[0] * (1 + 2e-4), 1: oracle[1] * (1 - 2e-4)}
    assert wl.check_spectrum_frozen(good, oracle, 50.0).ok
    assert not wl.check_spectrum_frozen({0: oracle[0] * (1 + 2e-3), 1: oracle[1]},
                                        oracle, 50.0).ok
    assert not wl.check_spectrum_frozen({0: oracle[0][:1], 1: oracle[1]},
                                        oracle, 50.0).ok
    assert wl.check_spectrum_perturbed({0: [1.0, 2.0], 1: [3.0]}).ok
    for bad in ({0: [2.0, 1.0]}, {0: [-1.0, 2.0]}, {0: [1.0, math.nan]}, {0: []}):
        assert not wl.check_spectrum_perturbed(bad).ok


def test_trace_checks_refuse_wrong_values():
    assert wl.check_heat(-0.995).ok and not wl.check_heat(-0.97).ok
    assert wl.check_resolvent(-0.99).ok and not wl.check_resolvent(-0.9).ok
    poles = [(complex(-1.0), 1), (complex(-0.5), 1)]
    assert wl.check_zeta(poles, 0.1 + 1e-9, 0.1).ok
    assert not wl.check_zeta(poles, 0.1 + 1e-5, 0.1).ok
    assert not wl.check_zeta([(complex(-0.9), 1)], 0.1, 0.1).ok
    assert not wl.check_zeta([(complex(-1.0), 2)], 0.1, 0.1).ok
    assert wl.check_weighted(1.0 + 1e-6, 1.0, {0: [1.0]}, {0: [1.0]}).ok
    assert not wl.check_weighted(1.01, 1.0, {0: [1.0]}, {0: [1.0]}).ok


def test_index_and_verify_checks_refuse_wrong_values():
    assert wl.check_index(-1.0, 1.0, 1).ok
    assert not wl.check_index(-0.9, 1.0, 1).ok
    assert not wl.check_index(-1.0, 1.0, 0).ok
    rows = [(c, "pass", "-") for c in wl.VERIFY_CHECKS]
    assert wl.check_verify(rows).ok
    assert not wl.check_verify(rows[:-1]).ok
    assert not wl.check_verify(rows[:-1] + [(rows[-1][0], "fail", "-")]).ok


def test_tampered_output_counts_as_a_failure(tmp_path):
    study = next(s for s in wl.generate("grid_eigen", 3, tmp_path / "in")
                 if s.params["frozen"])
    outcome = wl.run_study(study, tmp_path / "out")
    oracles = wl.Oracles()
    assert wl.check_study(study, outcome, oracles).ok
    path = outcome.out / "spectral.csv"
    lines = path.read_text().splitlines()
    m, k, lam, prov = lines[2].split(",")
    lines[2] = ",".join((m, k, repr(float(lam) * 1.01), prov))
    path.write_text("\n".join(lines) + "\n")
    verdict = wl.check_study(study, outcome, oracles)
    assert not verdict.ok
    records = [(study, 0.1, wl.check_study(study, outcome, oracles))]
    assert run.summarize(records)["failed"] == 1
    assert not wl.check_study(study, wl.Outcome(3, outcome.out), oracles).ok


def test_earlier_output_is_removed_before_a_study(tmp_path, monkeypatch):
    bench = run.Bench(wl, "grid_eigen", 3, tmp_path)
    study = next(s for s in bench.cycle if s.params["frozen"])
    assert bench.run_one(study)[1].ok
    # a study that exits 0 but writes nothing is not judged on old files
    monkeypatch.setattr(wl, "run_study",
                        lambda st, out: wl.Outcome(0, Path(out) / st.name))
    assert not bench.run_one(study)[1].ok


def test_cycle_count_depends_only_on_the_arguments():
    assert run.cycles("grid_eigen", 20) == 5
    assert run.cycles("grid_eigen", 20, share=2) == 2
    assert run.cycles("oracle_checks", 0.01) == 1


def test_tail_has_ten_samples_beyond():
    times = list(range(1, 41))
    value, pct, n = run.tail(times)
    assert value == 30 and pct == 75 and n == 40
    assert sum(t > value for t in times) == 10


# ---------------------------------------------------------------------------
# traced counts repeat exactly


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path):
    bench = run.Bench(wl, workload, 5, tmp_path)
    originals = [getattr(owner, attr) for owner, attr, _ in tracer.SPANS]
    svd = np.linalg.svd
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            records = bench.run_cycles(1, tracer=tr)
        finally:
            tr.uninstall()
        assert all(v.ok for _, _, v in records)
        assert not set(tracer.EXPECTED[workload]) - tr.fired()
        counts.append({k: v for k, (v, unit) in tr.metrics().items()
                       if unit != "s"})
    assert counts[0] == counts[1]
    # uninstall restored every patched name
    assert np.linalg.svd is svd
    assert all(getattr(owner, attr) is orig
               for (owner, attr, _), orig in zip(tracer.SPANS, originals))
