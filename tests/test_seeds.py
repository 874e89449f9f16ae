"""Seeds and trial streams: the vectorized SeedSequence and PCG64 seeding
against numpy's own, and the seed contract's recorded values.

The recorded values were computed with one ``np.random.SeedSequence`` per
derived seed and one ``np.random.default_rng`` per trial stream, before the
trial engine seeded all of a call's streams in one pass.  They are integers,
digests of integers, or the digest of a CSV whose numbers are exact
functions of integer counts, so they hold on any host.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forecastcomp import cli, experiments, mechanisms
from forecastcomp.agents import Truthful, build_reports
from forecastcomp.mechanisms import _derive_seeds, _seed_words, _Streams, derive_seed

# the edges of one, two and four words, and a seed past the 4-word pool
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 3]
SEEDS = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1) | st.integers(0, 2**140)
KEYS = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(master=SEEDS, prefix=st.lists(KEYS, max_size=3), last=st.lists(KEYS, min_size=1, max_size=8),
       n_words=st.integers(1, 9))
def test_seed_words_are_seed_sequence_states(master, prefix, last, n_words):
    # key ints of 2^32 and above take two words, so the rows of one batch hash
    # different numbers of words
    keys = np.array(last, dtype=np.uint64)
    words = _seed_words(master, (*prefix, keys), n_words)
    for k, row in zip(last, words):
        expected = np.random.SeedSequence(master, spawn_key=(*prefix, k)).generate_state(n_words)
        assert row.dtype == np.uint32 and row.tolist() == expected.tolist()
    assert _derive_seeds(master, *prefix, keys).tolist() == [derive_seed(master, *prefix, k) for k in last]


@settings(max_examples=40, deadline=None)
@given(masters=st.lists(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1), min_size=1, max_size=6))
def test_derived_seeds_over_an_array_of_masters(masters):
    # the run command's derive_seed(derive_seed(seed, 5, k), 1 | 2)
    got = _derive_seeds(np.array(masters, dtype=np.uint64)[:, None], [1, 2])
    assert got.tolist() == [[derive_seed(m, 1), derive_seed(m, 2)] for m in masters]


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=5), m=st.integers(0, 40))
def test_streams_are_default_rng_streams(seeds, m):
    streams = _Streams.of(seeds)
    for (hi, lo, inc_hi, inc_lo), seed in zip(streams.states.tolist(), seeds):
        state = np.random.PCG64(seed).state["state"]
        assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (state["state"], state["inc"])
    for k in (0, 1, m + 1):
        u = streams.uniforms(k)
        assert u.shape == (len(seeds), k)
        assert u.tolist() == [np.random.default_rng(seed).random(k).tolist() for seed in seeds]
    # a lottery's m + 1 doubles: its m event draws, then its tie draw
    for seed, row in zip(seeds, streams.uniforms(m + 1)):
        rng = np.random.default_rng(seed)
        assert row[:m].tolist() == rng.random(m).tolist() and row[m] == rng.random()


def test_streams_of_a_seed_array_keep_its_shape():
    seeds = _derive_seeds(3, [1, 2], np.arange(4)[:, None])
    streams = _Streams.of(seeds)
    assert streams.states.shape == (4, 2, 4) and len(streams) == 4
    u = streams[1:3, 1].uniforms(2)
    assert u.tolist() == [np.random.default_rng(int(s)).random(2).tolist() for s in seeds[1:3, 1]]


@pytest.mark.parametrize("seeds, error", [([-1], ValueError), ([3, -2**70], ValueError), ([1.5], TypeError),
                                          (np.array([-4]), ValueError), (np.array([0.5]), TypeError)])
def test_streams_refuse_what_default_rng_refuses(seeds, error):
    with pytest.raises(error):
        np.random.default_rng(seeds[-1])
    with pytest.raises(error):
        _Streams.of(seeds)


# derive_seed at keys with one-, two- and five-word masters and keys
DERIVED = {
    (0,): 2968811710,
    (1,): 1835504127,
    (7, 1, 2): 2032283795,
    (2**32 - 1, 5, 3): 2887675766,
    (2**64 - 1, 2, 2**32): 1895068071,
    (2**130 + 3, 1, 0): 1204822451,
    (123456789, 20, 1): 3531550820,
}

# per-trial winners of the engine at master 2024 (trial k's seeds
# derive_seed(2024, 1, k) and derive_seed(2024, 2, k)): the sha256 of the
# comma-joined winners and each forecaster's win count, the first ten
WINNERS = {
    "elf_lower_bound": (
        "21b3e7cf7f8b1ae092aea769d30485a5dbcebe440205281a91e8735797c2ddbf",
        [195, 22, 12, 23, 21, 18, 13, 18, 17, 19],
    ),
    "simple_max_lower_bound": (
        "bbf8f46fc0849fc64ca5f314c853ed5e3892ef2ad656619116694715953ba8cc",
        [2000, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    "simple_max_tied": ("77787f8b4137c06f77090118dd6179905749b462561e325f43d208afd6f1be74", [97, 88, 119, 100, 96]),
    "mw": ("97d61af1fa87a79100c5df0b7a7e46dd2f02907227b8e38998e0be04b2199f27", [78, 85, 85, 104, 72, 76]),
    "noisy_max": ("7426f236008608e0216ceb13fd8397080c09be878c6b80834783b85d691f1828", [93, 93, 89, 89, 67, 69]),
}
CASES = {
    "elf_lower_bound": (lambda: experiments.perfect_vs_terrible_setting(100, 116), mechanisms.Elf(), 2000),
    "simple_max_lower_bound": (lambda: experiments.perfect_vs_terrible_setting(100, 116), mechanisms.SimpleMax(), 2000),
    "simple_max_tied": (lambda: experiments.identical_beliefs_setting(5, 8, seed=3), mechanisms.SimpleMax(), 500),
    "mw": (lambda: experiments.random_setting(6, 9, seed=4), mechanisms.MultWeights(eta=0.3), 500),
    "noisy_max": (lambda: experiments.random_setting(6, 9, seed=5), mechanisms.ReportNoisyMax(b=4.0), 500),
}

# results.csv of two small CLI runs: sha256 and length
RESULTS = {
    "lower-bound-demo": (
        {"command": "lower-bound-demo", "params": {"n": 20}, "seed": 5, "trials": 300},
        "62291327d33fe13c486872128914612e0851daca75dde8ba0cb5c6a427c478bf",
        197,
    ),
    "run": (
        {"command": "run", "mechanism": {"type": "elf"}, "setting": {"generator": "random", "n": 4, "m": 6},
         "params": {"epsilon": 0.2, "strategies": "truthful"}, "seed": 6, "trials": 50},
        "58086d486798dea742d971f16ab744df4c2edf1db33cff14c907f6d6d3ba68c7",
        1474,
    ),
}


@pytest.mark.parametrize("key", list(DERIVED), ids=str)
def test_derived_seeds_keep_their_values(key):
    assert derive_seed(*key) == DERIVED[key]
    assert int(_derive_seeds(*key)) == DERIVED[key]


@pytest.mark.parametrize("case", list(CASES))
def test_engine_winners_keep_their_values(case):
    make_setting, mechanism, trials = CASES[case]
    setting = make_setting()
    reports = build_reports([Truthful()] * setting.n, setting.beliefs, mechanism)
    seeds = _derive_seeds(2024, [1, 2], np.arange(trials)[:, None])
    winners = experiments._draw_winners(reports, setting.theta, mechanism, seeds).tolist()
    digest, counts = WINNERS[case]
    assert np.bincount(winners, minlength=setting.n).tolist()[:10] == counts
    assert hashlib.sha256(",".join(map(str, winners)).encode()).hexdigest() == digest
    if case.endswith("lower_bound"):
        # forecaster 0 alone is 0.5-optimal there
        est = experiments.estimate_success_prob(setting, [Truthful()] * setting.n, mechanism, 0.5, trials, 2024)
        assert est.successes == counts[0]


@pytest.mark.parametrize("command", list(RESULTS))
def test_cli_results_keep_their_bytes(command, tmp_path, capsys):
    config, digest, size = RESULTS[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    results = (tmp_path / "out" / "results.csv").read_bytes()
    assert (hashlib.sha256(results).hexdigest(), len(results)) == (digest, size)
