"""Seeded job generation: same seed, same inputs; other seed, other keys."""

import itertools

from repro.service import FlowJob

from perfbench import jobs


def _keys(specs):
    return [FlowJob(**s).key() for s in specs]


def _cold(seed, n=60):
    return list(itertools.islice(jobs.cold_jobs(seed), n))


def test_same_seed_gives_identical_job_lists_and_keys():
    assert _cold(7) == _cold(7)
    assert jobs.warm_set(7) == jobs.warm_set(7)
    assert jobs.arrival_offsets(7, 30, 22.5) == jobs.arrival_offsets(7, 30, 22.5)
    assert jobs.skewed_draw(jobs.warm_set(7), 7, "lane0", 500) == \
        jobs.skewed_draw(jobs.warm_set(7), 7, "lane0", 500)
    assert set(_keys(_cold(7))) == set(_keys(_cold(7)))


def test_different_seed_gives_different_keys():
    for other in (8, 9, 1234):
        assert set(_keys(_cold(7))) != set(
            _keys(_cold(other)))
        assert set(_keys(jobs.warm_set(7))) != set(
            _keys(jobs.warm_set(other)))


def test_cold_jobs_are_distinct_and_pair_both_modes():
    specs = list(jobs.cold_jobs(3))
    keys = _keys(specs)
    assert len(set(keys)) == len(keys)
    for informed, uninformed in zip(specs[::2], specs[1::2]):
        assert informed["mode"] == "informed"
        assert uninformed["mode"] == "uninformed"
        assert (informed["app"], informed["scale"]) == \
            (uninformed["app"], uninformed["scale"])


def test_every_block_gives_each_app_one_pair_and_rounds_cover_strata():
    specs = list(itertools.islice(jobs.cold_jobs(5), 30))
    pairs = [(s["app"], round(s["scale"], 2)) for s in specs[::2]]
    for block in range(3):
        apps = [app for app, _ in pairs[block * 5:(block + 1) * 5]]
        assert sorted(apps) == sorted(jobs.APPS)
    for app in jobs.APPS:
        strata = sorted(scale for a, scale in pairs if a == app)
        assert strata == sorted(jobs.COLD_STRATA)


def test_fleet_cold_jobs_stay_valid_distinct_and_unserved():
    for seed in (1, 2, 3, 42):
        specs = list(jobs.fleet_cold_jobs(seed))
        assert all(s["scale"] > 0 for s in specs)
        keys = _keys(specs)          # FlowJob refuses a scale <= 0
        assert len(set(keys)) == len(keys)
        assert not set(keys) & set(_keys(jobs.warm_set(seed, "fleet-read")))
        # no two jobs share an (app, scale), so none reuses a profile
        shared = [(s["app"], s["scale"]) for s in specs]
        assert len(set(shared)) == len(shared)


def test_fleet_phases_get_whole_blocks():
    assert jobs.cold_count(1.6, 22.5) == 30
    assert jobs.cold_count(0.9, 22.5) == 20
    assert jobs.cold_count(0.1, 10) == 10
    offsets = jobs.arrival_offsets(3, 20, 22.5)
    assert len(offsets) == 20
    assert offsets == sorted(offsets) and 0 < offsets[0] < offsets[-1] < 22.5


def test_fleet_blocks_are_balanced_and_ordered_alike_for_every_seed():
    def first_round(seed):
        return list(itertools.islice(jobs.fleet_cold_jobs(seed), 30))

    def shape(specs):
        return [(s["app"], s["mode"], round(s["scale"], 2)) for s in specs]

    assert shape(first_round(1)) == shape(first_round(2)) == \
        shape(first_round(99))
    assert set(_keys(first_round(1))) != set(_keys(first_round(2)))
    specs = first_round(5)
    for block in range(3):
        cells = [(s["app"], s["mode"]) for s in specs[block * 10:
                                                      (block + 1) * 10]]
        assert sorted(cells) == sorted(
            (a, m) for a in jobs.APPS for m in jobs.MODES)
    for app in jobs.APPS:
        for mode in jobs.MODES:
            strata = sorted(round(s["scale"], 2) for s in specs
                            if (s["app"], s["mode"]) == (app, mode))
            assert strata == sorted(jobs.FLEET_STRATA)
