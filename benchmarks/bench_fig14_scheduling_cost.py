"""Fig. 14 bench — time cost of scheduling optimization.

Also checks the incremental evaluation engine's headline claim: the
``hios-lp`` scheduler itself runs >= 2x faster than on the from-scratch
reference components of ``tests/oracles`` on the largest
inception/nasnet workloads (same schedules bit for bit — see
``tests/core/test_fasteval.py``), and stays within the committed
``BENCH_scheduling_cost.json`` budget.
"""

import json
import pathlib
import sys

import pytest

from conftest import RESULTS_DIR, run_once
from repro.experiments import EXPERIMENTS, default_config
from repro.experiments.sched_cost_bench import measure

BASELINE = pathlib.Path(RESULTS_DIR) / "BENCH_scheduling_cost.json"
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("model", ["inception", "nasnet"])
def test_fig14(benchmark, record_series, model):
    result = run_once(benchmark, EXPERIMENTS[f"fig14_{model}"], default_config())
    record_series(result, filename=f"fig14_{model}")
    # IOS's profiling bill grows faster with input size than HIOS-LP's
    ios_growth = result.series["ios"][-1] / result.series["ios"][0]
    lp_growth = result.series["hios-lp"][-1] / result.series["hios-lp"][0]
    assert result.series["ios"][-1] > result.series["hios-lp"][-1]
    assert ios_growth > lp_growth * 0.9


def test_scheduling_speedup_vs_baseline(benchmark, capsys):
    sys.path.insert(0, str(ROOT))
    from tests.oracles import reference_components

    current = run_once(benchmark, measure, reference=reference_components)
    baseline = json.loads(BASELINE.read_text())
    scale = current["calibration_s"] / baseline["calibration_s"]
    with capsys.disabled():
        print()
        for name, cur in current["workloads"].items():
            speedup = cur["reference_min_s"] / cur["fast_min_s"]
            print(
                f"{name}: fast={cur['fast_min_s'] * 1000:.1f}ms "
                f"reference={cur['reference_min_s'] * 1000:.1f}ms "
                f"speedup={speedup:.2f}x"
            )
    for name, cur in current["workloads"].items():
        # >= 2x vs the from-scratch reference loops (machine-independent)
        assert cur["reference_min_s"] / cur["fast_min_s"] >= 2.0, name
        # and no regression beyond 25% vs the committed, rescaled baseline
        base = baseline["workloads"][name]
        assert cur["fast_min_s"] <= base["fast_min_s"] * scale * 1.25, name
