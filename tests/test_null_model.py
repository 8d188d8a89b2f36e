import math
import random
import statistics
import sys

import pytest
from scipy.stats import t as student_t

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
from bimotif.null_model import _aggregate
from graphs import edge_list, k33, random_bipartite, three_disjoint_edges


def degree_pair(g):
    return (
        tuple(len(n) for n in g.adjacency_primary),
        tuple(len(n) for n in g.adjacency_secondary),
    )


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "_CHUNK_CELLS", chunk * 7 * 6)
        mp.setattr(census_module, "_count", recorded)
        for side in Side:
            for model in NULL_MODELS:
                for semantics in SEMANTICS:
                    cfg = EnsembleConfig(runs=10, seed=5, swaps_per_edge=3, side=side,
                                         null_model=model, semantics=semantics)
                    sizes.clear()
                    stats = run_ensemble(g, cfg)
                    assert max(sizes) == chunk and sum(sizes) == 10
                    for r, values in enumerate(stats.replica_values):
                        rs = replica_seed(cfg.seed, r)
                        if model == "degree":
                            replica = randomize(g, rs, cfg.swaps_per_edge)
                        else:
                            replica = density_rewire(g, rs)
                        cc = global_profile(census(replica, side), semantics).cc
                        assert values == tuple(None if v is None else float(v) for v in cc)


def test_ensemble_stats_match_plain_statistics(davis):
    stats = run_ensemble(davis, EnsembleConfig(runs=12, seed=1))
    for k, cls in enumerate(stats.classes):
        vals = [row[k] for row in stats.replica_values if row[k] is not None]
        assert cls.defined_count == len(vals)
        assert cls.mean == pytest.approx(statistics.fmean(vals), abs=1e-12)
        assert cls.std == pytest.approx(statistics.stdev(vals), abs=1e-12)
        half = student_t.ppf(0.975, len(vals) - 1) * cls.std / math.sqrt(len(vals))
        assert cls.ci_low == pytest.approx(cls.mean - half, abs=1e-12)
        assert cls.ci_high == pytest.approx(cls.mean + half, abs=1e-12)
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


def test_invalid_configs():
    with pytest.raises(InvalidConfig):
        EnsembleConfig(runs=1)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(swaps_per_edge=-1)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(null_model="shuffle")
    with pytest.raises(InvalidConfig):
        EnsembleConfig(semantics="loose")


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
