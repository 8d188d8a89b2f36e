"""Time two versions of the census kernel side by side, in one process.

Usage:
    PYTHONPATH=src python3 tools/kernel_ab.py A/census.py B/census.py [--rounds 20] [--seed 5]

Loads both files as modules of the ``bimotif`` package found on the
path (their relative imports read its ``errors`` and ``graph``) and
times ``_count`` of each on four inputs built from the benchmark's
generators (``bench/inputs.py``) at ``--seed``:

* ``skewed-replica``: one degree replica of the 1,000x300 skewed graph;
* ``skewed-secondary``: that graph counted with its 300-node side as rows;
* ``dense``: the uniform 100x100 graph of 2,000 edges;
* ``women-chunk``: 65 density replicas of Southern Women, one kernel call.

BLAS is held at one thread and every time is CPU time of this process.
Each round counts every input once with A and once with B, in an order
that alternates from round to round, and checks that both give equal
per-center sums.  Besides the total, the time inside ``_add_row_blocks``
(parts 1 and 3) and ``_add_single_shares`` (part 2) is recorded; "rest"
is the remainder of ``_count``.  The output is one line per input and
part: A's and B's medians in milliseconds, and the rounds B won.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402  (bench/inputs.py)

from bimotif import load_graph  # noqa: E402
from bimotif.null_model import (  # noqa: E402
    _blas_threads,
    _curveball_rows,
    _one_blas_thread,
    _sampled_rows,
    replica_seed,
)

PARTS = ("_add_row_blocks", "_add_single_shares")
WOMEN_CHUNK = 65


def _load(path: str, name: str):
    """``path`` as the module ``bimotif.<name>``."""
    spec = importlib.util.spec_from_file_location(f"bimotif.{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _timed_parts(module) -> dict:
    """Wrap the module's part functions so that each call adds its CPU time to the returned dict."""
    spent = dict.fromkeys(PARTS, 0.0)
    for name in PARTS:
        def timed(*args, _f=getattr(module, name), _name=name):
            start = time.process_time()
            try:
                return _f(*args)
            finally:
                spent[_name] += time.process_time() - start
        setattr(module, name, timed)
    return spent


def _inputs(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        graphs = {}
        for name, make, file in (("skewed", inputs.skewed_degree, "skewed.tsv"),
                                 ("dense", inputs.dense_uniform, "dense.tsv"),
                                 ("women", inputs.southern_women, "women.csv")):
            make(seed, Path(tmp) / file)
            graphs[name], _ = load_graph(str(Path(tmp) / file), "auto")
    skewed = graphs["skewed"].biadjacency
    women = graphs["women"].biadjacency
    return {
        "skewed-replica": _curveball_rows(skewed, [replica_seed(seed, 0)], 10),
        "skewed-secondary": skewed.T[None],
        "dense": graphs["dense"].biadjacency[None],
        "women-chunk": np.stack([_sampled_rows(women, replica_seed(seed, r))
                                 for r in range(WOMEN_CHUNK)]),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the census.py to compare against")
    parser.add_argument("b", help="the census.py under test")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    modules = [_load(args.a, "_kernel_a"), _load(args.b, "_kernel_b")]
    spent = [_timed_parts(m) for m in modules]
    data = _inputs(args.seed)
    # times[input][side][part] lists one CPU time per round
    keys = ("total", *PARTS, "rest")
    times = {name: [{k: [] for k in keys} for _ in modules] for name in data}
    with _one_blas_thread(_blas_threads()):
        for m in modules:  # warm up: first calls, lazy imports, BLAS buffers
            for bits in data.values():
                m._count(bits)
        for round_ in range(args.rounds):
            for name, bits in data.items():
                order = (0, 1) if round_ % 2 == 0 else (1, 0)
                results = {}
                for side in order:
                    for k in PARTS:
                        spent[side][k] = 0.0
                    start = time.process_time()
                    results[side] = modules[side]._count(bits)
                    total = time.process_time() - start
                    record = times[name][side]
                    record["total"].append(total)
                    for k in PARTS:
                        record[k].append(spent[side][k])
                    record["rest"].append(total - sum(spent[side][k] for k in PARTS))
                if not np.array_equal(results[0], results[1]):
                    raise SystemExit(f"{name}: the two kernels' sums differ")
    print(f"seed {args.seed}, {args.rounds} rounds, CPU ms (median A -> median B, rounds B won)")
    for name in data:
        for k in keys:
            a, b = times[name][0][k], times[name][1][k]
            wins = sum(y < x for x, y in zip(a, b))
            print(f"{name:17s} {k:19s} {1e3 * statistics.median(a):8.2f} -> "
                  f"{1e3 * statistics.median(b):8.2f}  {wins}/{args.rounds}")


if __name__ == "__main__":
    main()
