"""Seeded job lists for the three workloads.

Every list is a pure function of the seed: the same seed gives the same
job specs in the same order, and a different seed gives different
content-hash keys.  The program only ever sees the generated specs.

Job specs are plain dicts accepted by both ``repro.service.FlowJob(**spec)``
and ``ReproClient.submit(**spec)``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

#: the five paper applications, in paper order
APPS = ("rush_larsen", "nbody", "bezier", "adpredictor", "kmeans")
MODES = ("informed", "uninformed")

#: workload-scale strata of cold flows
COLD_STRATA = (0.4, 0.7, 1.0)
#: cheaper strata for the fleet's open-loop cold jobs: more jobs in a
#: run at the same load on the runners.  No round's scale lies within
#: the jitter of a warm stratum, so no cold job is one already served.
FLEET_STRATA = (0.1, 0.16, 0.2)
#: each round of cold jobs scales every stratum by ``1 + offset``, so no
#: two rounds give an app the same scale and every scale stays positive.
#: The bases do not depend on the seed: every seed runs the same mix of
#: cheap and costly flows.
ROUND_OFFSETS = (0.0, 0.09, -0.09, 0.18, -0.18, 0.27)
#: strata of the already-generated (served) job sets; small scales,
#: because a served result costs the same to return at any scale
WARM_STRATA = (0.15, 0.25)
#: the seed's mark on a scale: ``JITTER_STEP * randint(1, 9)`` added to
#: each base.  It changes the content-hash key and barely the work.
JITTER_STEP = 0.0001

#: what the uninformed mode adds to a fleet cold job's scale: more than
#: any jitter, so the two modes of an app never share a profile
MODE_STEP = 0.001

#: warm-up flows the design_cold process runs before timing starts;
#: their scale lies below every round of ``COLD_STRATA``, so no timed
#: job reuses them
WARMUP_SCALE = 0.2


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def spec(app: str, mode: str, scale: float) -> Dict[str, object]:
    return {"app": app, "mode": mode, "scale": round(scale, 4)}


def warmup_jobs() -> List[Dict[str, object]]:
    """One flow per (app, mode): fills compile and lazy-import caches."""
    return [spec(app, mode, WARMUP_SCALE) for app in APPS for mode in MODES]


def cold_jobs(seed: int, stream: str = "cold",
              strata: Sequence[float] = COLD_STRATA
              ) -> Iterator[Dict[str, object]]:
    """Distinct cold jobs in balanced blocks.

    A block gives every app one ``(app, scale)`` pair, the strata
    assigned to apps by a seeded rotation, so every prefix of whole
    blocks holds a like mix of cheap and costly flows; three blocks make
    a round in which every app meets every stratum.  Each pair runs in
    both modes back to back (informed first, as fig5 runs them), so the
    second flow of a pair reuses the kernel profile the first computed.
    """
    rng = _rng(seed, stream)
    rotation = rng.randrange(len(strata))
    for offset in ROUND_OFFSETS:
        for block in range(len(strata)):
            pairs = [(app, strata[(i + block + rotation) % len(strata)]
                      * (1 + offset)) for i, app in enumerate(APPS)]
            rng.shuffle(pairs)
            for app, base in pairs:
                scale = base + JITTER_STEP * rng.randint(1, 9)
                for mode in MODES:
                    yield spec(app, mode, scale)


def fleet_cold_jobs(seed: int, stream: str = "fleet-cold"
                    ) -> Iterator[Dict[str, object]]:
    """The fleet's open-loop cold jobs, in balanced blocks.

    A block gives every ``(app, mode)`` one job, at a stratum of
    ``FLEET_STRATA`` rotated by app and block; three blocks make a
    round in which every ``(app, mode)`` meets every stratum.  Unlike
    :func:`cold_jobs`, the two modes of an app never share a scale, so
    no job reuses a profile another computed, and the order is the same
    for every seed.  Open-loop jobs overlap: when two modes shared a
    profile, whichever finished first decided how much work the other
    did, and the order decided which jobs slowed each other.  The seed
    marks every scale, so it changes the keys, and with them where the
    router places each job.
    """
    rng = _rng(seed, stream)
    order = _rng(0, stream + ":order")
    strata = FLEET_STRATA
    for offset in ROUND_OFFSETS:
        for block in range(len(strata)):
            block_jobs = [
                (app, mode, strata[(i + m + block) % len(strata)]
                 * (1 + offset) + MODE_STEP * m)
                for i, app in enumerate(APPS)
                for m, mode in enumerate(MODES)]
            order.shuffle(block_jobs)
            for app, mode, base in block_jobs:
                yield spec(app, mode, base + JITTER_STEP * rng.randint(1, 9))


def warm_set(seed: int, stream: str = "warm") -> List[Dict[str, object]]:
    """The already-generated jobs a serving workload reads: every app at
    every warm stratum, in both modes (20 jobs)."""
    rng = _rng(seed, stream)
    out = []
    for app in APPS:
        for stratum in WARM_STRATA:
            scale = stratum + JITTER_STEP * rng.randint(1, 9)
            for mode in MODES:
                out.append(spec(app, mode, scale))
    return out


#: exponent of the Zipf skew of served-result reads: the hottest of 20
#: results takes about 14% of reads, the coldest about 3%
ZIPF_S = 0.5


def skewed_weights(n: int, stream: str) -> List[float]:
    """Zipf(``ZIPF_S``) weights over ``n`` items.

    The rank order depends on the stream, not on the seed: the served
    results differ in size by up to ten times, so a seeded rank order
    made one seed's reads cost more than another's.
    """
    ranks = list(range(n))
    _rng(0, stream).shuffle(ranks)
    return [(rank + 1) ** -ZIPF_S for rank in ranks]


def skewed_draw(items: Sequence, seed: int, stream: str,
                count: int) -> List:
    """``count`` seeded draws from ``items`` under :func:`skewed_weights`."""
    weights = skewed_weights(len(items), stream + ":w")
    return _rng(seed, stream).choices(list(items), weights=weights, k=count)


def cold_count(rate_per_s: float, seconds: float) -> int:
    """How many fleet cold jobs an open-loop phase of ``seconds`` at
    about ``rate_per_s`` gets: whole blocks of :func:`fleet_cold_jobs`
    (at least one), so every seed runs the same jobs."""
    block = len(APPS) * len(MODES)
    return max(1, int(rate_per_s * seconds // block)) * block


def arrival_offsets(seed: int, count: int, seconds: float,
                    jitter: float = 0.2) -> List[float]:
    """Open-loop due times (seconds after start): ``count`` arrivals
    evenly spaced over ``seconds``, each moved by a seeded
    +-``jitter`` of a gap."""
    rng = _rng(seed, "arrivals")
    gap = seconds / count
    return [(i + 0.5 + rng.uniform(-jitter, jitter)) * gap
            for i in range(count)]


def oracle_sample(seed: int, count: int, limit: int) -> List[int]:
    """Seeded indices (ascending) of the cold jobs checked against the
    numpy oracle; at most ``count`` of the first ``limit``."""
    return sorted(_rng(seed, "oracle").sample(range(limit),
                                              min(count, limit)))

