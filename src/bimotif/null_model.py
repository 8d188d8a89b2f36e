"""Random ensembles and per-class confidence intervals.

Two replica generators are available:

* ``density``: a fresh uniform graph with the same node counts and the
  same number of edges.  This is the default and is what the bundled
  reference midpoints were produced with.
* ``degree``: a global Curveball on the original graph, which
  preserves both degree sequences exactly (the fixed-degree null model
  of Strona et al., Nat. Commun. 5, 2014, sampled as in Carstens,
  Berger & Strona, arXiv:1609.05137).

A replica is made as bit rows: the generators map the graph's
read-only (primary, secondary) boolean biadjacency to a replica's,
filled from the random stream.  The density model sets the cells of
one ``rng.sample`` call; the degree model runs the Curveball rounds of
a whole chunk of replicas together, in numpy, with each replica's keys
drawn from its own ``random.Random``.  :func:`run_ensemble` hands the
replicas, in order, to :func:`census_totals` (transposed for the
secondary side), which counts them a chunk at a time and gives each
replica's global totals; its global clustering profile is computed
from those alone.  :func:`randomize` and :func:`density_rewire` give a
generator's array the graph's labels.

A run of two or more kernel calls is split at multiples of the chunk
step (``_CHUNK_CELLS`` // (na·ns), at least one replica) into
contiguous ranges, one per usable CPU and at most one per chunk.  A
forked worker generates and counts each range and pipes its totals
back; this process only joins them in replica order before any
profile is computed.  The seeds are per replica and the totals exact
integers, so every output is byte-identical whatever the number of
processes.  While the workers run, the OpenBLAS that numpy loaded is
held at one thread, so that each worker's products run on one thread
instead of on every core; its own count is restored on every exit.
Where no such setter is found, only runs whose kernel calls hold two
or more replicas are forked, and larger graphs are counted here.
Each process holds its own chunk, so memory is per worker.

Per class, the defined values are aggregated into a mean, a 95%
confidence interval from the correctly rounded Student-t quantile, and
its midpoint (equal to the mean).  Replicas where a class is undefined
are excluded from that class only; a class undefined in every replica
is reported as undefined stats rather than an error.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import pickle
import random
import signal
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Optional

import numpy as np

from .census import census  # unused here; kept because bench/traced.py wraps null_model.census
from .census import _chunk_step, census_totals
from .coefficients import global_profile  # unused here; kept because bench/traced.py wraps it
from .coefficients import SEMANTICS, global_values
from .errors import BimotifError, _in_memory
from .graph import BipartiteGraph, Side

NULL_MODELS = ("density", "degree")

_MASK64 = (1 << 64) - 1
# Curveball rounds per unit of swaps_per_edge, as (numerator, denominator):
# 15 rounds at the default of 10 (see README, "Null models").
_ROUNDS_PER_SWAP = (3, 2)
# Newton steps _t_quantile may take; nu = 1 needs 11.
_NEWTON_STEPS = 16


class InvalidConfig(BimotifError):
    """Ensemble configuration outside its allowed ranges."""

    exit_code = 3


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one ensemble run.

    ``swaps_per_edge`` sets the degree model's Curveball rounds:
    swaps_per_edge × 3 // 2 of them, so 15 at the default of 10.  The
    density model ignores it.
    """

    runs: int = 100
    seed: int = 0
    swaps_per_edge: int = 10
    side: Side = Side.PRIMARY
    null_model: str = "density"
    semantics: str = "configuration"

    def __post_init__(self):
        for name in ("runs", "seed", "swaps_per_edge"):
            try:  # stored as an int, so a numpy seed mixes as Python ints do
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise InvalidConfig(f"{name} must be an integer: {getattr(self, name)!r}") from None
        if self.runs < 2:
            raise InvalidConfig(f"runs must be >= 2, got {self.runs}")
        if self.swaps_per_edge < 0:
            raise InvalidConfig("swaps_per_edge must be >= 0")
        if self.null_model not in NULL_MODELS:
            raise InvalidConfig(f"unknown null model {self.null_model!r}")
        if self.semantics not in SEMANTICS:
            raise InvalidConfig(f"unknown semantics {self.semantics!r}")
        try:  # stored as a Side, so "secondary" works as Side.SECONDARY does
            object.__setattr__(self, "side", Side(self.side))
        except (ValueError, TypeError):
            raise InvalidConfig(f"unknown side {self.side!r}") from None


@dataclass(frozen=True)
class ClassStats:
    """Aggregated ensemble values for one cycle class."""

    mean: Optional[float]
    std: Optional[float]
    ci_low: Optional[float]
    ci_high: Optional[float]
    midpoint: Optional[float]
    defined_count: int


@dataclass(frozen=True)
class EnsembleStats:
    """Per-class stats plus the raw per-replica values."""

    config: EnsembleConfig
    classes: tuple[ClassStats, ClassStats, ClassStats, ClassStats]
    replica_values: tuple[tuple[Optional[float], ...], ...]

    @property
    def midpoints(self) -> tuple[Optional[float], ...]:
        return tuple(c.midpoint for c in self.classes)


def _mix64(x: int) -> int:
    """splitmix64 finalizer; spreads consecutive seeds apart."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def replica_seed(seed: int, replica: int) -> int:
    """Derived seed for one replica; stable across runs counts."""
    return _mix64((seed ^ replica) & _MASK64)


def _curveball_rows(bits: np.ndarray, seeds: list[int], swaps_per_edge: int) -> np.ndarray:
    """The degree model's replica (see :func:`randomize`) of ``bits`` for each seed, stacked.

    ``bits`` is an n × k boolean biadjacency of m edges; the result
    has shape (len(seeds), n, k), and the replicas run their
    swaps_per_edge × 3 // 2 rounds together.  Slot s is the input's edge
    s in the order of ``np.nonzero``: it keeps its column, and only its
    row changes.  A round draws a replica's n + m 64-bit keys with one
    ``getrandbits`` call, read as little-endian words: a key per row,
    then a key per slot.  It pairs the rows in the order of their keys,
    the first with the second and so on (with n odd the last sits the
    round out).  In each pair (a, b) the slots whose column only one of
    the two rows has are put in the order of their keys; a takes as
    many of the first of them as it had, and b the rest.

    A key is sorted with its low bits replaced by the index: the low
    (n − 1).bit_length() bits for a row, and for a slot the low
    (m − 1).bit_length() bits once it is shifted down to make room for
    its pair (n // 2 for a slot that stays) in the top
    (n // 2).bit_length() bits.  So no two sort keys are equal, and a
    replica depends on its seed alone, not on the seeds it runs with.
    """
    n, k = bits.shape
    rows, cols = np.divmod(np.flatnonzero(bits), k)  # np.nonzero's order, 10x faster
    m, q = len(cols), len(seeds)
    out = np.frombuffer(bytearray(q * bits.size), dtype=bool).reshape(q, n, k)
    out[:] = bits
    half = n // 2
    if half == 0 or m == 0:
        return out  # no slot can move
    row_mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    slot_mask = np.uint64((1 << (m - 1).bit_length()) - 1)
    pair_bits = np.uint64(half.bit_length())  # a pair, or half for a slot that stays
    pair_shift = np.uint64(64) - pair_bits
    row_ids, slot_ids = np.arange(n, dtype=np.uint64), np.arange(m, dtype=np.uint64)
    # Over the stacked replicas, row i of replica r is r·n + i, slot s is
    # r·m + s, and cell (i, c) is (r·n + i)·k + c.
    cells = out.reshape(-1)
    replica = np.repeat(np.arange(q), m)
    first_row = replica * n
    row = np.tile(rows, q) + first_row
    col = np.tile(cols, q)
    degree = np.tile(np.bincount(rows, minlength=n), q)
    place = np.empty(q * n, np.intp)  # each row's place in its replica's order
    draws = [random.Random(seed).getrandbits for seed in seeds]
    words = n + m
    for _ in range(swaps_per_edge * _ROUNDS_PER_SWAP[0] // _ROUNDS_PER_SWAP[1]):
        keys = np.frombuffer(
            b"".join(draw(64 * words).to_bytes(8 * words, "little") for draw in draws), "<u8"
        ).reshape(q, words)
        order = np.sort(keys[:, :n] & ~row_mask | row_ids, axis=1) & row_mask
        order = (order.astype(np.intp) + np.arange(0, q * n, n)[:, np.newaxis]).reshape(-1)
        place[order] = np.tile(np.arange(n), q)
        at = place[row]
        partner = order[first_row + np.minimum(at ^ 1, n - 1)]  # itself for a row sitting out
        pair = np.where(cells[partner * k + col], half, at // 2).reshape(q, m)
        ranked = np.sort(
            pair.astype(np.uint64) << pair_shift | keys[:, n:] >> pair_bits & ~slot_mask | slot_ids,
            axis=1,
        ).reshape(-1)
        pair = (ranked >> pair_shift).astype(np.intp)
        moves = pair < half
        in_replica = replica[moves]
        slot = (ranked[moves] & slot_mask).astype(np.intp) + in_replica * m
        group = in_replica * half + pair[moves]
        pairs = order.reshape(q, n)[:, :2 * half].reshape(-1)  # pair j is rows 2j and 2j + 1
        counts = np.bincount(group, minlength=q * half)
        # of the slots that move, (its degree − the other's + their count) / 2 are the first row's
        firsts = (degree[pairs[0::2]] - degree[pairs[1::2]] + counts) // 2
        rank = np.arange(len(group)) - (np.cumsum(counts) - counts)[group]
        new = pairs[2 * group + (rank >= firsts[group])]
        cells[row[slot] * k + col[slot]] = False
        cells[new * k + col[slot]] = True
        row[slot] = new
    return out


def _sampled_rows(bits: np.ndarray, seed: int) -> np.ndarray:
    """The density model's replica of ``bits``: its edge count of cells, drawn by ``rng.sample``."""
    cells = bytearray(bits.size)
    for c in random.Random(seed).sample(range(bits.size), int(np.count_nonzero(bits))):
        cells[c] = 1
    return np.frombuffer(cells, dtype=bool).reshape(bits.shape)


def randomize(g: BipartiteGraph, seed: int, swaps_per_edge: int = 10) -> BipartiteGraph:
    """Degree-preserving rewiring by a global Curveball (the ``degree`` model).

    Each round pairs the primary nodes at random, and each pair
    shuffles the secondary nodes that only one of the two has, each
    keeping its count, so both degree sequences hold exactly (Carstens,
    Berger & Strona, arXiv:1609.05137).  ``swaps_per_edge`` × 3 // 2
    rounds are run.  Deterministic for a given seed, and the replica
    that :func:`run_ensemble` counts for that seed.
    """
    rows = _curveball_rows(g.biadjacency, [seed], swaps_per_edge)[0]
    return BipartiteGraph(g.primary_labels, g.secondary_labels, rows)


def density_rewire(g: BipartiteGraph, seed: int) -> BipartiteGraph:
    """Uniform graph with the same node counts and edge count (the ``density`` model).

    The replica that :func:`run_ensemble` counts for that seed.
    """
    return BipartiteGraph(g.primary_labels, g.secondary_labels, _sampled_rows(g.biadjacency, seed))


def _two_sided(t: Decimal, nu: int) -> Decimal:
    """P(|T| < t) for Student's t with integer ``nu`` >= 1 degrees of freedom.

    The finite sums of Abramowitz & Stegun 26.7.3 (odd nu) and 26.7.4
    (even nu), summed by Horner's rule in the current decimal context,
    with cos²θ = nu/(nu + t²), sinθ = t/√(nu + t²) and 2/π = 1/(2·atan 1).
    """
    s = nu + t * t
    cos2 = nu / s
    sin = t / s.sqrt()
    odd = nu % 2
    acc = 0
    for k in range(nu // 2 - 1, -1, -1):
        m = 2 * k + 1 + odd
        acc = 1 + acc * cos2 * m / (m + 1)
    if odd:
        cos = cos2.sqrt()
        return (_decimal_atan(sin / cos) + sin * cos * acc) / (2 * _decimal_atan(Decimal(1)))
    return sin * acc


def _decimal_atan(x: Decimal) -> Decimal:
    """atan(x) for x >= 0 in the current decimal context."""
    # halve the angle, atan(x) = 2·atan(x / (1 + √(1 + x²))), until the
    # Taylor series gains two digits a term
    halvings = 0
    while x > Decimal("0.1"):
        x /= 1 + (1 + x * x).sqrt()
        halvings += 1
    minus_x2 = -x * x
    total = term = x
    k = 1
    while True:
        term *= minus_x2
        k += 2
        summed = total + term / k
        if summed == total:
            return total * 2**halvings
        total = summed


def _t_pdf(t: float, nu: int) -> float:
    """Student's t density, in floats; only Newton steps use it."""
    log_c = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - math.log(nu * math.pi) / 2
    return math.exp(log_c - (nu + 1) / 2 * math.log1p(t * t / nu))


@functools.lru_cache(maxsize=None)
def _t_quantile(nu: int) -> float:
    """The double nearest the 0.975 quantile of Student's t with integer nu >= 1.

    Newton's method on the exact sum of :func:`_two_sided` in 60-digit
    decimals, from t = 2, with each step's slope from the float density
    :func:`_t_pdf`.  The CDF is concave for t > 0, so steps from below
    the quantile rise towards it without crossing it (but for the float
    slope's last bits), and from above it (nu > 60, where the quantile
    is under 2) one step lands below.  Once a step is under 10⁻⁴⁰, t
    holds the quantile to far more digits than a double, and ``float``
    rounds it correctly.  For every nu from 1 to 3,000 and every 37th up
    to 20,000 this is the double whose half-ulp midpoints bracket 0.975
    in the same sum; nu = 1 takes the most steps, 11.  A t outside
    [1.9, 13], or no such step within ``_NEWTON_STEPS``, raises
    ``ArithmeticError``.  Memoised, so an ensemble's classes share one.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        t = Decimal(2)
        for _ in range(_NEWTON_STEPS):
            step = (Decimal("0.95") - _two_sided(t, nu)) / Decimal(2 * _t_pdf(float(t), nu))
            t += step
            if not Decimal("1.9") <= t <= 13:
                break
            if abs(step) < Decimal("1e-40"):
                return float(t)
    raise ArithmeticError(
        f"Student-t quantile for {nu} degrees of freedom not found in [1.9, 13] "
        f"within {_NEWTON_STEPS} Newton steps"
    )


def _aggregate(values: list[float]) -> ClassStats:
    # sort first so the float sums cannot depend on replica order
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return ClassStats(None, None, None, None, None, 0)
    mean = math.fsum(vals) / n
    if n == 1:
        return ClassStats(mean, None, None, None, mean, 1)
    var = math.fsum((x - mean) ** 2 for x in vals) / (n - 1)
    std = math.sqrt(var)
    half = _t_quantile(n - 1) * std / math.sqrt(n)
    return ClassStats(mean, std, mean - half, mean + half, mean, n)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(count: Callable[[range], list], part: range):
    """Start a worker process for ``count(part)``: its pid and the read end of its pipe.

    The worker pickles ``(True, result)``, or ``(False, exc)`` for the
    exception ``count`` raised, to the pipe and ends with ``os._exit``,
    status 0 only once the whole message is written.  It runs none of
    the parent's exit handlers and writes nothing else.
    """
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            try:
                message = (True, count(part))
            except Exception as exc:
                message = (False, exc)
            with open(writer, "wb") as pipe:
                pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    return pid, open(reader, "rb")


# The (get, set) thread-count calls of OpenBLAS: as numpy's wheels bundle it
# (scipy-openblas, 64-bit integers), and as other builds link it.
_BLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _blas_threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The (get, set) thread-count calls of the OpenBLAS numpy loaded, or None.

    They are looked up by name through the handle of numpy's extension
    module, which also finds the symbols of the libraries it links.  A
    build without them, or a lookup that fails, gives None.  Memoised,
    and called only when an ensemble is about to fork.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        for get_name, set_name in _BLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    except (OSError, AttributeError):
        pass
    return None


@contextlib.contextmanager
def _one_blas_thread(calls):
    """Hold BLAS at one thread through ``calls`` from :func:`_blas_threads`; nothing if None."""
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _in_workers(count: Callable[[range], list], runs: int, step: int) -> list:
    """``count(range(runs))``, cut at multiples of ``step`` over forked workers.

    There are W = min(usable CPUs, chunks of ``step``) contiguous
    ranges.  With W ≥ 2 each goes to a forked worker, and this process
    only joins their results in replica order; with W = 1 it counts
    alone.  The workers run while BLAS is held at one thread
    (:func:`_one_blas_thread`).  Where :func:`_blas_threads` finds no
    setter, a ``step`` of 1 is counted here alone, so that forked
    processes cannot multiply BLAS threads.  A worker's exception is
    raised again here, and a worker that ends without its result raises
    :class:`BimotifError`.  Whatever leaves this function, every worker
    has ended or been killed and has been reaped, and BLAS has its own
    thread count back.
    """
    chunks = -(-runs // step)
    workers = min(_usable_cpus(), chunks)
    blas = _blas_threads() if workers >= 2 else None
    if blas is None and step < 2:
        workers = 1
    if workers < 2:
        return count(range(runs))
    bounds = [min(runs, step * (chunks * k // workers)) for k in range(workers + 1)]
    running = []  # (pid, pipe) of each worker not yet reaped
    with _one_blas_thread(blas):
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                running.append(_fork(count, range(lo, hi)))
            results = []
            while running:
                pid, pipe = running[0]
                data = pipe.read()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                running.pop(0)
                pipe.close()
                if status != 0:
                    raise BimotifError(
                        f"ensemble worker {pid} ended without its totals (exit status {status})"
                    )
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results += value
            return results
        finally:
            for pid, pipe in running:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                pipe.close()


def run_ensemble(g: BipartiteGraph, cfg: EnsembleConfig) -> EnsembleStats:
    """Generate replicas, profile each, and aggregate per class.

    Replica r uses seed replica_seed(cfg.seed, r), so results are
    reproducible and a shorter run is a prefix of a longer one; the
    aggregation sorts values before summing.  The totals are exact
    integers, so the chunks :func:`census_totals` counts cannot change a
    value.

    A run of two or more chunks is generated and counted in forked
    processes, one per usable CPU at most, each over a contiguous range
    of whole chunks, with BLAS held at one thread (:func:`_in_workers`;
    it says when a run stays here instead).  The totals come
    back in replica order and each replica has its own seed, so every
    output is byte-identical to a single process's.  Each process holds
    its own chunk, so peak memory grows with the number of processes.

    Raises :class:`CensusTooLarge` when a replica or its count does not
    fit in memory, in this process or in a worker.
    """

    na, ns = g.node_count(cfg.side), g.node_count(cfg.side.other())
    step = _chunk_step(na, ns)

    def replicas(part: range):
        # a chunk at a time, so that the degree model runs one chunk's rounds together
        for lo in range(part.start, part.stop, step):
            seeds = [replica_seed(cfg.seed, r) for r in range(lo, min(lo + step, part.stop))]
            if cfg.null_model == "degree":
                chunk = _curveball_rows(g.biadjacency, seeds, cfg.swaps_per_edge)
            else:
                chunk = [_sampled_rows(g.biadjacency, seed) for seed in seeds]
            for rows in chunk:
                yield rows if cfg.side is Side.PRIMARY else rows.T

    # the replicas are allocated outside the kernel's guard, so guard them too
    with _in_memory("count", na, ns):
        totals_per_replica = _in_workers(lambda part: census_totals(replicas(part)), cfg.runs, step)
    rows = [global_values(totals, cfg.semantics) for totals in totals_per_replica]

    classes = []
    for k in range(4):
        defined = [row[k] for row in rows if row[k] is not None]
        classes.append(_aggregate(defined))
    return EnsembleStats(
        config=cfg,
        classes=tuple(classes),
        replica_values=tuple(rows),
    )
