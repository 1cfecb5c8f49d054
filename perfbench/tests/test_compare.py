"""The result comparator catches a single perturbed figure."""

import copy

from repro.flow.serialize import result_from_dict

from perfbench.compare import fingerprint, mismatches


def _design(kind, device, speedup):
    return {"app": "kmeans", "kind": kind, "kernel": "kernel",
            "device": device, "synthesizable": True,
            "failure_reason": None, "predicted_time_s": 0.5 / speedup,
            "speedup": speedup, "loc": 40, "reference_loc": 30,
            "loc_delta_pct": 33.3, "metadata": {"device_label": device},
            "buffers": []}


def _record():
    return {"app": "kmeans", "mode": "informed",
            "reference_time_s": 0.5,
            "designs": [_design("cpu-omp", "omp", 29.0),
                        _design("gpu-hip", "hip-2080ti", 120.5)],
            "decisions": {"psa:A": {"branch": "A", "selected": ["omp"],
                                    "reasons": ["compute bound"]}},
            "kernel_profile": None, "trace": []}


def test_identical_records_match():
    want = fingerprint(result_from_dict(_record()))
    assert mismatches(fingerprint(result_from_dict(_record())), want) == []


def test_one_perturbed_speedup_is_rejected():
    want = fingerprint(result_from_dict(_record()))
    data = copy.deepcopy(_record())
    data["designs"][1]["speedup"] *= 1.0000001
    diff = mismatches(fingerprint(result_from_dict(data)), want)
    assert len(diff) == 1 and "speedup" in diff[0]


def test_selected_target_and_synthesizable_are_compared():
    want = fingerprint(result_from_dict(_record()))
    data = copy.deepcopy(_record())
    data["decisions"]["psa:A"]["selected"] = ["gpu"]
    data["designs"][0]["synthesizable"] = False
    diff = mismatches(fingerprint(result_from_dict(data)), want)
    assert any("selected_target" in d for d in diff)
    assert any("synthesizable" in d for d in diff)
