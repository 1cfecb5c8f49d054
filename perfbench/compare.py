"""Result comparison: is a returned flow result the one expected?

A result's fingerprint holds what a user reads from it: which designs
were generated, whether each is synthesizable, its predicted time and
speedup, and the target the PSA selected.  It reads only attributes
both a live ``FlowResult`` and a ``FlowResultRecord`` carry, without
calling into the program, so it adds no spans to a traced run.
"""

from __future__ import annotations

from typing import Any, List, Tuple


def _app_name(result: Any) -> str:
    name = getattr(result, "app_name", None)
    return name if name is not None else result.app.name


def fingerprint(result: Any) -> Tuple:
    designs = tuple(
        (d.label, d.kind, d.kernel_name, d.device, d.synthesizable,
         d.failure_reason, d.predicted_time_s, d.speedup)
        for d in result.designs)
    return (_app_name(result), result.mode, result.selected_target,
            result.reference_time_s, designs)


_DESIGN_FIELDS = ("label", "kind", "kernel", "device", "synthesizable",
                  "failure_reason", "predicted_time_s", "speedup")


def mismatches(got: Tuple, want: Tuple) -> List[str]:
    """Human-readable differences between two fingerprints ([] = same)."""
    out = []
    for name, g, w in zip(("app", "mode", "selected_target",
                           "reference_time_s"), got[:4], want[:4]):
        if g != w:
            out.append(f"{name}: {g!r} != {w!r}")
    if len(got[4]) != len(want[4]):
        out.append(f"designs: {len(got[4])} != {len(want[4])}")
        return out
    for gd, wd in zip(got[4], want[4]):
        for name, g, w in zip(_DESIGN_FIELDS, gd, wd):
            if g != w:
                out.append(f"{wd[0]} {name}: {g!r} != {w!r}")
    return out
