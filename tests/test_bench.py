"""The paired-run summary of ``tools/bench.py --against``, on synthetic
records: no subprocess and no copy of another revision."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("tools_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    flag = sys.dont_write_bytecode
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


END_TO_END = [{"name": "studies_per_min", "better": "higher"},
              {"name": "study_s.p50", "better": "lower"},
              {"name": "oracle_rel_err.max", "better": "lower"}]


def _pairs(base, this):
    names = [e["name"] for e in END_TO_END]
    return [(dict(zip(names, b)), dict(zip(names, t)))
            for b, t in zip(base, this)]


def test_paired_summary_takes_ratios_wins_medians_and_spread(bench):
    pairs = _pairs(base=[(100.0, 0.02, 0.0), (120.0, 0.04, 1e-9),
                         (80.0, 0.01, 1e-9), (100.0, 0.02, 1e-9)],
                   this=[(150.0, 0.01, 0.0), (120.0, 0.05, 1e-9),
                         (100.0, 0.01, 2e-9), (90.0, 0.01, 1e-9)])
    out = bench.summarize_pairs(pairs, END_TO_END)
    spm, p50, err = (out[e["name"]] for e in END_TO_END)
    assert spm["ratios"] == [1.5, 1.0, 1.25, 0.9]
    assert spm["ratio_median"] == 1.125
    # a tie is not a win
    assert spm["wins"] == 2 and spm["pairs"] == 4
    # inclusive quartiles of 80, 100, 100, 120: 95, 100 and 105
    assert spm["base_median"] == 100.0
    assert spm["base_iqr_over_median"] == pytest.approx(0.1)
    assert spm["median"] == 110.0
    # lower is better: 0.01 < 0.02 twice, 0.05 > 0.04, 0.01 == 0.01
    assert p50["ratios"] == pytest.approx([0.5, 1.25, 1.0, 0.5])
    assert p50["ratio_median"] == pytest.approx(0.75)
    assert p50["wins"] == 2 and p50["better"] == "lower"
    # a zero base value has no ratio, and the median skips it
    assert err["ratios"][0] is None
    assert err["ratio_median"] == pytest.approx(1.0)
    assert err["wins"] == 0


def test_paired_summary_of_one_pair_has_no_spread(bench):
    out = bench.summarize_pairs(_pairs([(100.0, 0.02, 1e-9)],
                                       [(50.0, 0.02, 1e-9)]), END_TO_END)
    assert out["studies_per_min"]["ratio_median"] == 0.5
    assert out["studies_per_min"]["wins"] == 0
    assert out["studies_per_min"]["base_iqr_over_median"] == 0.0
