import ctypes
import math
import os
import pickle
import random
import statistics
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimotif import (
    NULL_MODELS,
    SEMANTICS,
    EnsembleConfig,
    InvalidConfig,
    Side,
    census,
    density_rewire,
    from_indexed_edges,
    global_profile,
    randomize,
    replica_seed,
    run_ensemble,
)
from bimotif.census import _chunk_step, census_totals
from bimotif.null_model import (
    _aggregate,
    _blas_threads,
    _curveball_rows,
    _in_workers,
    _sampled_rows,
    _t_quantile,
    _usable_cpus,
)
from graphs import (
    biadjacency, edge_list, heavy_tailed, k33, neighbours, random_bipartite, three_disjoint_edges,
)
from oracles import divmod_density_rewire, set_curveball, tuple_set_randomize


# The double nearest the 0.975 quantile of Student's t, per degrees of
# freedom: roots of 1 - I_x(nu/2, 1/2)/2 = 0.975, x = nu/(nu + t²), found
# with mpmath at 50 digits.  For each, the CDF at the two half-ulp
# midpoints around the double was checked to lie on either side of 0.975.
# scipy.stats.t.ppf(0.975, 1) gives 12.706204736174694, the quantile of
# the double nearest 0.975, which is 2.2e-17 below it.
T_975 = {
    1: 12.706204736174705,
    2: 4.302652729749464,
    3: 3.1824463052837095,
    4: 2.7764451051977943,
    5: 2.5705818356363155,
    6: 2.44691185114497,
    7: 2.3646242515927853,
    8: 2.3060041352041667,
    9: 2.2621571627982053,
    10: 2.228138851986275,
    11: 2.2009851600916397,
    12: 2.178812829667229,
    13: 2.1603686564627926,
    14: 2.144786687917804,
    15: 2.1314495455597755,
    16: 2.1199052992212546,
    17: 2.109815577833317,
    18: 2.1009220402410387,
    19: 2.0930240544083096,
    20: 2.085963447265865,
    21: 2.0796138447276804,
    22: 2.0738730679040263,
    23: 2.0686576104190486,
    24: 2.063898561628026,
    25: 2.0595385527532977,
    26: 2.055529438642873,
    27: 2.0518305164802855,
    28: 2.048407141795245,
    29: 2.0452296421327043,
    30: 2.042272456301238,
    31: 2.0395134463964086,
    32: 2.036933343460102,
    33: 2.034515297449339,
    34: 2.032244509317719,
    35: 2.0301079282503434,
    36: 2.028094000980451,
    37: 2.0261924630291097,
    38: 2.02439416391197,
    39: 2.0226909200367613,
    40: 2.0210753903062733,
    41: 2.0195409704413763,
    42: 2.018081702818445,
    43: 2.0166921992278244,
    44: 2.015367574443764,
    45: 2.0141033888808466,
    46: 2.012895598919429,
    47: 2.011740513729766,
    48: 2.0106347576242323,
    49: 2.0095752371292397,
    50: 2.008559112100761,
    51: 2.007583770315836,
    52: 2.0066468050616884,
    53: 2.005745995317869,
    54: 2.004879288188057,
    55: 2.004044783289146,
    56: 2.0032407188478722,
    57: 2.0024654592910074,
    58: 2.001717484145236,
    59: 2.000995378088268,
    60: 2.0002978220142604,
    99: 1.9842169515864174,
    100: 1.9839715185235522,
    999: 1.96234146113345,
    1999: 1.961151420170562,
    4999: 1.960438646661525,
    19999: 1.9600826110898155,
}


def degree_pair(g):
    return tuple(tuple(map(len, neighbours(g, side))) for side in Side)


def test_randomize_preserves_degrees():
    rng = random.Random(7)
    for seed in range(50):
        g = random_bipartite(rng, rng.randint(3, 10), rng.randint(3, 10), rng.uniform(0.2, 0.7))
        h = randomize(g, seed)
        assert degree_pair(h) == degree_pair(g)
        assert h.edge_count == g.edge_count
        assert h.primary_labels == g.primary_labels
        assert h.secondary_labels == g.secondary_labels


def test_randomize_deterministic():
    rng = random.Random(11)
    g = random_bipartite(rng, 8, 8, 0.4)
    assert edge_list(randomize(g, 5)) == edge_list(randomize(g, 5))
    # some seed must actually move an edge on a graph this dense
    assert any(
        edge_list(randomize(g, s)) != edge_list(g) for s in range(5)
    )


def test_randomize_complete_graph_fixed_point():
    g = k33()
    for seed in range(10):
        assert edge_list(randomize(g, seed)) == edge_list(g)


def test_randomize_matching_stays_a_matching():
    g = three_disjoint_edges()
    for seed in range(20):
        h = randomize(g, seed)
        assert degree_pair(h) == (((1,) * 3), ((1,) * 3))


def test_density_rewire_shape():
    rng = random.Random(13)
    g = random_bipartite(rng, 9, 6, 0.35)
    for seed in range(20):
        h = density_rewire(g, seed)
        assert h.edge_count == g.edge_count
        assert h.primary_labels == g.primary_labels
        assert h.secondary_labels == g.secondary_labels
        assert len(set(edge_list(h))) == h.edge_count
    assert edge_list(density_rewire(g, 3)) == edge_list(density_rewire(g, 3))
    assert edge_list(density_rewire(g, 3)) != edge_list(density_rewire(g, 4))


def test_replica_seed_spread():
    seeds = {replica_seed(0, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert replica_seed(42, 7) == replica_seed(42, 7)
    assert replica_seed(42, 7) != replica_seed(43, 7)


def test_replica_seeds_depend_on_the_whole_base_seed(davis):
    # base seeds that differed only in low bits once gave one set of replica seeds
    # in another order, and so identical intervals
    seeds = {replica_seed(seed, r) for seed in range(16) for r in range(2000)}
    assert len(seeds) == 16 * 2000
    classes = {run_ensemble(davis, EnsembleConfig(runs=200, seed=seed)).classes
               for seed in (0, 1, 5, 7)}
    assert len(classes) == 4


def test_ensemble_prefix_property(davis):
    short = run_ensemble(davis, EnsembleConfig(runs=5, seed=9))
    long = run_ensemble(davis, EnsembleConfig(runs=10, seed=9))
    assert long.replica_values[:5] == short.replica_values


def test_ensemble_repeat_is_bit_identical(davis):
    cfg = EnsembleConfig(runs=8, seed=3)
    assert run_ensemble(davis, cfg) == run_ensemble(davis, cfg)


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_chunked_ensemble_matches_census_per_replica(chunk):
    # ten replicas, counted in chunks of `chunk` graphs per kernel call
    g = random_bipartite(random.Random(chunk), 7, 6, 0.45)
    census_module = sys.modules["bimotif.census"]
    sizes = []

    def recorded(bits):
        sizes.append(len(bits))
        return counted(bits)

    counted = census_module._count
    null_model = sys.modules["bimotif.null_model"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "_CHUNK_CELLS", chunk * 7 * 6)
        mp.setattr(census_module, "_count", recorded)
        for side in Side:
            for model in NULL_MODELS:
                for semantics in SEMANTICS:
                    cfg = EnsembleConfig(runs=10, seed=5, swaps_per_edge=3, side=side,
                                         null_model=model, semantics=semantics)
                    # one process, so that every chunk's size is recorded here
                    mp.setattr(null_model, "_usable_cpus", lambda: 1)
                    sizes.clear()
                    stats = run_ensemble(g, cfg)
                    assert max(sizes) == chunk and sum(sizes) == 10
                    assert stats.replica_values == oracle_values(g, cfg)
                    # and with chunks of two or more replicas split over processes
                    mp.setattr(null_model, "_usable_cpus", lambda: 3)
                    assert run_ensemble(g, cfg) == stats


def test_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert _usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert _usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _usable_cpus() == 1


def step_one_graph():
    """A 200x60 heavy-tailed graph: one replica per kernel call, so each is its own range."""
    g = heavy_tailed(random.Random(5), 200, 60, 900)
    assert _chunk_step(200, 60) == _chunk_step(60, 200) == 1
    return g


@pytest.fixture
def forked(monkeypatch):
    """The pids this process forks while the test runs, and none left unreaped after it."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("graph, runs", [("women", 200), ("women", 131), ("step-1", 5)],
                         ids=["200", "131", "step-1"])
def test_ensemble_independent_of_worker_count(davis, monkeypatch, forked, graph, runs):
    # 65 Southern Women replicas per kernel call: 200 runs are four chunks,
    # and 131 are three, the last of one replica.  The step-1 graph's five
    # replicas are five chunks.
    g, step = (davis, 65) if graph == "women" else (step_one_graph(), 1)
    assert _chunk_step(18, 14) == _chunk_step(14, 18) == 65
    chunks = -(-runs // step)
    null_model = sys.modules["bimotif.null_model"]
    for model in NULL_MODELS:
        for side in Side:
            cfg = EnsembleConfig(runs=runs, seed=3, swaps_per_edge=2, side=side, null_model=model)
            results = []
            for cpus in (1, 2, 3, 4):
                monkeypatch.setattr(null_model, "_usable_cpus", lambda n=cpus: n)
                forked.clear()
                results.append(run_ensemble(g, cfg))
                workers = min(cpus, chunks)
                # without a BLAS setter a step of 1 is counted here alone
                assert len(forked) == (workers if workers >= 2 and (step >= 2 or _blas_threads())
                                       else 0)
            assert all(pickle.dumps(stats) == pickle.dumps(results[0]) for stats in results[1:])


def test_parent_memory_per_replica(davis, monkeypatch, forked):
    # two workers send back each replica's four values, about 0.2 KB a
    # replica in this process; sending its census totals takes 1.3 KB
    monkeypatch.setattr(sys.modules["bimotif.null_model"], "_usable_cpus", lambda: 2)
    run_ensemble(davis, EnsembleConfig(runs=200, seed=1))  # imports, lookups and caches first
    forked.clear()
    runs = 2000
    tracemalloc.start()
    try:
        run_ensemble(davis, EnsembleConfig(runs=runs, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(forked) == 2
    assert peak < runs * 512


@pytest.fixture
def blas_threads():
    """``get`` of numpy's OpenBLAS thread count, set to two for the test and restored after it."""
    calls = _blas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS has no thread-count calls")
    get, set_ = calls
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.mark.parametrize("outcome", ["success", "worker failure", "interrupt"])
def test_blas_thread_count_restored(monkeypatch, forked, blas_threads, outcome):
    monkeypatch.setattr(sys.modules["bimotif.null_model"], "_usable_cpus", lambda: 2)

    def count(part):
        if outcome == "worker failure":
            raise ValueError("counted nothing")
        return [blas_threads()] * len(part)

    if outcome == "success":
        # each of two workers counts two replicas at one BLAS thread
        assert _in_workers(count, 4, 1) == [1, 1, 1, 1]
    elif outcome == "worker failure":
        with pytest.raises(ValueError, match="counted nothing"):
            _in_workers(count, 4, 1)
    else:
        def interrupted(data):
            raise KeyboardInterrupt

        # this process fails while it joins the first worker's results
        monkeypatch.setattr(pickle, "loads", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _in_workers(count, 4, 1)
    assert len(forked) == 2
    assert blas_threads() == 2


def test_no_blas_setter_counts_step_one_here(davis, monkeypatch, forked):
    null_model = sys.modules["bimotif.null_model"]
    lookups = []

    def no_setter():
        lookups.append(1)

    monkeypatch.setattr(null_model, "_blas_threads", no_setter)
    monkeypatch.setattr(null_model, "_usable_cpus", lambda: 1)
    g = step_one_graph()
    cfg = EnsembleConfig(runs=4, seed=2, null_model="degree")
    serial = run_ensemble(g, cfg)
    # one CPU: nothing would fork, so the setter is not looked up
    assert (forked, lookups) == ([], [])
    monkeypatch.setattr(null_model, "_usable_cpus", lambda: 4)
    assert run_ensemble(g, cfg) == serial
    assert (forked, lookups) == ([], [1])
    # two or more replicas a kernel call still fork without a setter
    run_ensemble(davis, EnsembleConfig(runs=200, seed=2))
    assert len(forked) == 4


@pytest.mark.parametrize("error", [OSError, AttributeError])
def test_failed_blas_lookup_counts_here(monkeypatch, forked, capfd, error):
    def failed_lookup(*args, **kwargs):
        raise error("no such library")

    null_model = sys.modules["bimotif.null_model"]
    g = step_one_graph()
    cfg = EnsembleConfig(runs=4, seed=2)
    monkeypatch.setattr(null_model, "_usable_cpus", lambda: 1)
    serial = run_ensemble(g, cfg)
    monkeypatch.setattr(null_model, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(ctypes, "CDLL", failed_lookup)
    _blas_threads.cache_clear()
    try:
        assert _blas_threads() is None
        assert run_ensemble(g, cfg) == serial
    finally:
        _blas_threads.cache_clear()
    assert forked == []
    assert capfd.readouterr() == ("", "")


def oracle_values(g, cfg):
    """Each replica's global coefficients, from the oracle generators and a census per replica."""
    values = []
    for r in range(cfg.runs):
        rs = replica_seed(cfg.seed, r)
        if cfg.null_model == "degree":
            replica = set_curveball(g, rs, cfg.swaps_per_edge)
        else:
            replica = divmod_density_rewire(g, rs)
        cc = global_profile(census(replica, cfg.side), cfg.semantics).cc
        values.append(tuple(None if v is None else float(v) for v in cc))
    return tuple(values)


# A slot's index fills the low (m - 1).bit_length() bits of its sort key: 6
# bits for 63 and 64 edges, 7 for 65 and 128.
EDGE_COUNTS = (0, 1, 2, 3, 63, 64, 65, 128)
# Graph shapes: any; an odd number of rows, the first of them empty; one row.
SHAPES = ("any", "odd rows, one empty", "one row")


def graph_with_edges(rng, m, shape="any"):
    """A random graph of exactly m edges, with room for them to move, of a shape from ``SHAPES``."""
    if shape == "one row":
        na, ns = 1, m + rng.randint(0, 4)
    else:
        na, ns = rng.randint(3, 16), rng.randint(3, 16)
        while (na - 1) * ns < m + 2:
            na, ns = na + 1, ns + 1
        if shape != "any":
            na |= 1
    empty = ns if shape == "odd rows, one empty" else 0  # the cells of the first row
    cells = rng.sample(range(empty, na * ns), m)
    return from_indexed_edges([f"p{i}" for i in range(na)], [f"s{j}" for j in range(ns)],
                              [divmod(c, ns) for c in cells])


@pytest.mark.parametrize("m", EDGE_COUNTS)
def test_replica_rows_equal_the_oracle_generators(m):
    rng = random.Random(m)
    for seed in range(200):
        g = graph_with_edges(rng, m, SHAPES[seed % 3])
        for swaps in (0, 1, 10):
            expected = set_curveball(g, seed, swaps)
            assert np.array_equal(_curveball_rows(biadjacency(g), [seed], swaps)[0],
                                  biadjacency(expected))
            assert randomize(g, seed, swaps) == expected
        expected = divmod_density_rewire(g, seed)
        assert np.array_equal(_sampled_rows(biadjacency(g), [seed])[0], biadjacency(expected))
        assert density_rewire(g, seed) == expected


def test_generators_leave_the_input_rows_alone():
    # every replica of a run is generated from one array of input rows
    g = graph_with_edges(random.Random(7), 40)
    bits = biadjacency(g)
    before = bits.copy()
    for seed in range(20):
        shuffled = _curveball_rows(bits, [seed], 10)
        assert np.array_equal(_curveball_rows(bits, [seed], 10), shuffled)
        sampled = _sampled_rows(bits, [seed])
        assert np.array_equal(_sampled_rows(bits, [seed]), sampled)
    assert np.array_equal(bits, before)


def test_a_chunk_of_replicas_equals_each_seed_alone(davis):
    # a replica depends on its seed alone, not on the seeds it runs with
    rng = random.Random(3)
    for g in (davis, graph_with_edges(rng, 65), graph_with_edges(rng, 64, SHAPES[1])):
        bits = biadjacency(g)
        seeds = [replica_seed(4, r) for r in range(70)]
        for generate in (lambda s: _curveball_rows(bits, s, 10), lambda s: _sampled_rows(bits, s)):
            together = generate(seeds)
            assert together.shape == (70, *bits.shape)
            for seed, rows in zip(seeds, together):
                assert np.array_equal(rows, generate([seed])[0])
            assert np.array_equal(generate(seeds[5:]), together[5:])


def edges_moved(bits, replicas):
    """The fraction of the input's edges each replica does not have."""
    return [1 - np.count_nonzero(bits & rows) / np.count_nonzero(bits) for rows in replicas]


def test_curveball_mixes_like_the_swap_chain(davis):
    # The degree model at its default 15 rounds against the swap chain it
    # replaced, at 10 swaps per edge; the seeds are fixed.
    seeds = [replica_seed(1, r) for r in range(400)]
    chain = [biadjacency(tuple_set_randomize(davis, seed)) for seed in seeds]
    curveball = run_ensemble(davis, EnsembleConfig(runs=400, seed=1, null_model="degree"))
    # each Southern Women class mean within three standard errors of the difference
    chain_values = [global_profile(totals).cc for totals in census_totals(np.stack(chain))]
    for k, stats in enumerate(curveball.classes):
        values = [float(row[k]) for row in chain_values]
        assert stats.defined_count == len(values) == 400
        error = math.sqrt((stats.std**2 + statistics.variance(values)) / 400)
        assert abs(stats.mean - statistics.fmean(values)) < 3 * error
    # the mean fraction of edges moved within one replica standard deviation of the chain's
    heavy = heavy_tailed(random.Random(1), 1000, 300, 3000)
    for g, reference in ((davis, chain),
                         (heavy, [biadjacency(tuple_set_randomize(heavy, s)) for s in seeds[:20]])):
        bits, runs = biadjacency(g), len(reference)
        step = _chunk_step(*bits.shape)
        moved = edges_moved(bits, [rows for lo in range(0, runs, step)
                                   for rows in _curveball_rows(bits, seeds[lo:lo + step], 10)])
        reference = edges_moved(bits, reference)
        gap = abs(statistics.fmean(moved) - statistics.fmean(reference))
        assert gap < statistics.stdev(reference)


@pytest.mark.parametrize("m", EDGE_COUNTS)
def test_ensemble_equals_census_of_oracle_replicas(m):
    rng = random.Random(1000 + m)
    for seed, shape in enumerate(SHAPES):
        g = graph_with_edges(rng, m, shape)
        for side in Side:
            for swaps in (0, 1, 10):
                cfg = EnsembleConfig(runs=4, seed=seed, swaps_per_edge=swaps, side=side,
                                     null_model="degree")
                assert run_ensemble(g, cfg).replica_values == oracle_values(g, cfg)
            cfg = EnsembleConfig(runs=4, seed=seed, side=side)
            assert run_ensemble(g, cfg).replica_values == oracle_values(g, cfg)


def test_ensemble_stats_match_plain_statistics(davis):
    stats = run_ensemble(davis, EnsembleConfig(runs=12, seed=1))
    for k, cls in enumerate(stats.classes):
        vals = [row[k] for row in stats.replica_values if row[k] is not None]
        assert cls.defined_count == len(vals)
        assert cls.mean == pytest.approx(statistics.fmean(vals), abs=1e-12)
        assert cls.std == pytest.approx(statistics.stdev(vals), abs=1e-12)
        half = T_975[len(vals) - 1] * cls.std / math.sqrt(len(vals))
        assert cls.ci_low == cls.mean - half
        assert cls.ci_high == cls.mean + half
        assert cls.midpoint == cls.mean


def test_ensemble_all_undefined_is_reported_not_raised():
    # the second graph has no secondary nodes at all
    for g in (three_disjoint_edges(), from_indexed_edges(["a", "b"], [], [])):
        stats = run_ensemble(g, EnsembleConfig(runs=5, seed=2, null_model="degree"))
        for cls in stats.classes:
            assert cls.defined_count == 0
            assert cls.mean is None
            assert cls.midpoint is None
            assert cls.ci_low is None
        assert all(row == (None, None, None, None) for row in stats.replica_values)


def test_ensemble_secondary_side(davis):
    stats = run_ensemble(davis, EnsembleConfig(runs=6, seed=4, side=Side.SECONDARY))
    assert stats.config.side is Side.SECONDARY
    assert all(c.defined_count == 6 for c in stats.classes)


def test_side_given_by_value(davis):
    cfg = EnsembleConfig(runs=3, side="secondary")
    assert cfg.side is Side.SECONDARY
    assert cfg == EnsembleConfig(runs=3, side=Side.SECONDARY)
    assert run_ensemble(davis, cfg) == run_ensemble(davis, EnsembleConfig(runs=3, side=Side.SECONDARY))


def test_invalid_configs():
    with pytest.raises(InvalidConfig):
        EnsembleConfig(runs=1)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(swaps_per_edge=-1)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(null_model="shuffle")
    with pytest.raises(InvalidConfig):
        EnsembleConfig(semantics="loose")
    for field in ("runs", "seed", "swaps_per_edge"):
        for value in (3.0, 1.5, "3", None):
            with pytest.raises(InvalidConfig, match=field):
                EnsembleConfig(**{field: value})
    for value in ("sideways", "PRIMARY", None, 0, [], Side):
        with pytest.raises(InvalidConfig, match="side"):
            EnsembleConfig(side=value)


def test_numpy_integer_config(davis):
    cfg = EnsembleConfig(runs=np.int64(3), seed=np.int32(2), swaps_per_edge=np.int16(1),
                         null_model="degree")
    assert (cfg.runs, cfg.seed, cfg.swaps_per_edge) == (3, 2, 1)
    assert type(cfg.seed) is int
    expected = EnsembleConfig(runs=3, seed=2, swaps_per_edge=1, null_model="degree")
    assert run_ensemble(davis, cfg).replica_values == run_ensemble(davis, expected).replica_values


def test_aggregate_small_counts():
    empty = _aggregate([])
    assert empty.defined_count == 0 and empty.mean is None
    single = _aggregate([0.5])
    assert single.defined_count == 1
    assert single.mean == 0.5 and single.midpoint == 0.5
    assert single.std is None and single.ci_low is None
    pair = _aggregate([0.25, 0.75])
    assert pair.mean == 0.5
    assert pair.ci_low < 0.5 < pair.ci_high


def test_t_quantile_is_correctly_rounded():
    assert {nu: _t_quantile(nu) for nu in T_975} == T_975


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 2000))
@example(1999)
@example(20000)
def test_t_quantile_between_half_ulp_midpoints(nu):
    mpmath = pytest.importorskip("mpmath")
    q = _t_quantile(nu)
    with mpmath.workdps(40):

        def cdf(a, b):
            # at the exact midpoint of the doubles a and b
            t = (mpmath.mpf(a) + mpmath.mpf(b)) / 2
            x = nu / (nu + t * t)
            return 1 - mpmath.betainc(mpmath.mpf(nu) / 2, 0.5, 0, x, regularized=True) / 2

        level = mpmath.mpf("0.975")
        assert cdf(math.nextafter(q, 0), q) < level < cdf(q, math.nextafter(q, math.inf))


def test_t_quantile_newton_is_bounded(monkeypatch):
    # a CDF that never reaches 0.975 drives the Newton iterate out of
    # [1.9, 13], or past _NEWTON_STEPS steps; either raises ArithmeticError
    calls = []

    def short_of_the_level(t, *args):
        calls.append(t)
        assert len(calls) < 100, "Newton steps go on past the range and step bound"
        return type(t)("0.9")

    monkeypatch.setattr(sys.modules["bimotif.null_model"], "_two_sided", short_of_the_level)
    _t_quantile.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="5 degrees of freedom"):
            _t_quantile(5)
    finally:
        _t_quantile.cache_clear()


def test_one_quantile_per_degrees_of_freedom(davis):
    # all four classes are defined in all 12 replicas, so they share nu = 11
    _t_quantile.cache_clear()
    stats = run_ensemble(davis, EnsembleConfig(runs=12, seed=1))
    assert {c.defined_count for c in stats.classes} == {12}
    info = _t_quantile.cache_info()
    assert (info.misses, info.hits) == (1, 3)
