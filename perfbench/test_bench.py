"""Self-test of the benchmark harness: ``python -m pytest perfbench -q``.

Runs every workload on its first two jobs, untraced and traced, and
checks that the reported metrics match ``BENCHMARK.json`` and that the
output-correctness gate fails a run whose pinned outputs disagree.
"""

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

workloads = run.import_program()

from spans import per_layer_units  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)
with open(run.EXPECTED, encoding="utf-8") as handle:
    EXPECTED = json.load(handle)

NAMES = list(workloads.WORKLOADS)


def _units(metrics):
    return {metric["name"]: metric["unit"] for metric in metrics}


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    assert _units(BENCHMARK["per_layer"]) == per_layer_units()
    assert set(_units(BENCHMARK["end_to_end"])) == {
        "units_per_s", "setup_s", "peak_rss_mb"
    }


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_end_to_end_metrics(name):
    result = run.measure(name, 11, 0, False, EXPECTED, max_jobs=2, probes=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    reported = {key: m["unit"] for key, m in result["metrics"].items()}
    assert reported == _units(BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_attributes_wall_time_to_layers(name):
    result = run.measure(name, 11, 0, True, EXPECTED, max_jobs=2)
    assert result["correct"]
    reported = {key: m["unit"] for key, m in result["metrics"].items()}
    assert reported == per_layer_units()
    assert result["metrics"]["trace.attributed"]["value"] >= 0.95
    assert os.path.isfile(os.path.join(run.OUT, f"trace-{name}.jsonl"))


@pytest.mark.parametrize("name", ["fuzz-clean", "refute-sweep"])
def test_tampered_pin_fails_the_run(name):
    tampered = copy.deepcopy(EXPECTED)
    workload = workloads.WORKLOADS[name]
    pin = tampered[workload.pins][workloads.pin_key(workload, 11)]
    first = sorted(pin)[0]
    pin[first] = {"tampered": pin[first]}
    result = run.measure(name, 11, 0, False, tampered, max_jobs=2, probes=1)
    assert not result["correct"]
    assert result["failed"] > 0


def test_exit_code_is_nonzero_when_an_output_is_wrong(tmp_path, monkeypatch, capsys):
    tampered = copy.deepcopy(EXPECTED)
    tampered["verify-zoo"]["sweep"]["abp-4/3/1"]["states"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(tampered))
    monkeypatch.setattr(run, "EXPECTED", str(path))
    code = run.main(["--workload", "verify-zoo", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["failed"] == result["attempted"] > 0
