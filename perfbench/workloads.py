"""Seeded inputs for the workloads, generated here and nowhere else.

The queries are drawn by this module's own code from the run's seed,
never by ``repro.workloads``, ``repro.serve.smoke`` or
``repro.serve.bench``, so a change to the program cannot change what
is measured.  The datasets are the repository's deterministic
stand-ins; :func:`check_fingerprint` fails the run when one drifts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

#: ``(op, u, v, t1, t2, theta)``; ``theta`` is None for span queries.
Query = Tuple[str, Any, Any, int, int, Optional[int]]

#: Pinned shape of each stand-in: vertex count, edge count and the
#: SHA-256 of its edge list in ``TemporalGraph.edges()`` order.
FINGERPRINTS = {
    "email-eu": (
        500, 3500,
        "cf12d8f4305411a2ee8119a95784eda2ff3dddd4d97d16e95485368bd5ad70e0",
    ),
    "enron": (
        800, 5000,
        "f4a50eabf61b8ce1a93a555aa330389e4998df9ea2dbb003ce592d77b57b7611",
    ),
}

#: serve-hot: sources are Zipf-skewed over a small hot set and targets
#: come from a fixed pool, so with 8 windows and two ops the distinct
#: keys (2 x 8 x 6 x 12 = 1,152) fit the server's 4,096-entry cache
#: and refill it within a few seconds after each reload.
HOT_SOURCES = 6
HOT_TARGETS = 12
HOT_WINDOWS = 8
HOT_ZIPF_S = 1.2
HOT_SET_SEED = 0
#: Share of θ queries in serve-hot.
THETA_SHARE = 0.25
#: serve-hot sends one ``reload`` op after every this many requests:
#: every 5 s at its reference rate and every ~2 s near its capacity.
#: (Once a second collapsed the served rate: each reload empties the
#: cache.)
RELOAD_EVERY = 2000
#: Pairs per engine call in batch-cold.
BATCH_PAIRS = 4096
#: Shortest window, as a share of the dataset's lifetime (batch-cold
#: draws lengths uniformly from this share up to 100%).
MIN_WINDOW_SHARE = 0.05


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, stream); string seeds are
    hashed with SHA-512, so the sequence does not depend on
    ``PYTHONHASHSEED``."""
    return random.Random(f"perfbench:{seed}:{stream}")


def graph_fingerprint(graph) -> Tuple[int, int, str]:
    digest = hashlib.sha256()
    for u, v, t in graph.edges():
        digest.update(f"{u} {v} {t}\n".encode())
    return graph.num_vertices, graph.num_edges, digest.hexdigest()


def check_fingerprint(name: str, graph) -> Tuple[int, int, str]:
    """Raise ``ValueError`` when the stand-in *name* is not the graph
    the benchmark was defined on."""
    got = graph_fingerprint(graph)
    if got != FINGERPRINTS[name]:
        raise ValueError(
            f"dataset {name!r} drifted: expected (vertices, edges, sha256)"
            f" = {FINGERPRINTS[name]}, got {got}"
        )
    return got


@dataclass(frozen=True)
class GraphShape:
    """What query generation needs to know about a graph."""

    vertices: Tuple[Any, ...]
    t_min: int
    t_max: int

    @classmethod
    def of(cls, graph) -> "GraphShape":
        return cls(tuple(graph.vertices()), graph.min_time, graph.max_time)

    @property
    def lifetime(self) -> int:
        return self.t_max - self.t_min + 1


def random_window(rng: random.Random, shape: GraphShape) -> Tuple[int, int]:
    """A window whose length is uniform in [5%, 100%] of the lifetime."""
    life = shape.lifetime
    length = rng.randint(max(1, round(MIN_WINDOW_SHARE * life)), life)
    start = rng.randint(shape.t_min, shape.t_max - length + 1)
    return start, start + length - 1


def theta_for(t1: int, t2: int) -> int:
    """θ is a third of the window, as in batch-cold."""
    return max(1, (t2 - t1 + 1) // 3)


def hot_queries(shape: GraphShape, seed: int) -> Iterator[Query]:
    """serve-hot: Zipf-skewed hot sources, a fixed target pool and
    eight shared "recent" windows ending near the end of the lifetime.

    The hot set is part of the workload's definition, drawn from
    :data:`HOT_SET_SEED`; *seed* orders the queries.  A hot set drawn
    per seed made the served rate differ 2x between seeds.
    """
    setup = rng_for(HOT_SET_SEED, "hot-setup")
    sources = setup.sample(shape.vertices, HOT_SOURCES)
    targets = setup.sample(shape.vertices, HOT_TARGETS)
    life = shape.lifetime
    windows = []
    for _ in range(HOT_WINDOWS):
        length = setup.randint(round(0.2 * life), round(0.6 * life))
        end = shape.t_max - setup.randint(0, round(0.1 * life))
        windows.append((end - length + 1, end))
    weights = [1.0 / (rank + 1) ** HOT_ZIPF_S for rank in range(HOT_SOURCES)]
    rng = rng_for(seed, "hot")
    while True:
        u = rng.choices(sources, weights)[0]
        v = rng.choice(targets)
        t1, t2 = rng.choice(windows)
        if rng.random() < THETA_SHARE:
            yield ("theta", u, v, t1, t2, theta_for(t1, t2))
        else:
            yield ("span", u, v, t1, t2, None)


@dataclass(frozen=True)
class Batch:
    """One batch-cold round: 4,096 distinct pairs over a fresh window."""

    pairs: Tuple[Tuple[Any, Any], ...]
    t1: int
    t2: int

    @property
    def theta(self) -> int:
        return theta_for(self.t1, self.t2)


def cold_batches(shape: GraphShape, seed: int,
                 stream: str = "batch") -> Iterator[Batch]:
    """batch-cold: no window repeats across batches and no pair repeats
    within one, so no (pair, window) key is ever asked twice."""
    rng = rng_for(seed, stream)
    vertices = shape.vertices
    used = set()
    while True:
        window = random_window(rng, shape)
        if window in used:
            continue
        used.add(window)
        pairs = {}
        while len(pairs) < BATCH_PAIRS:
            pair = (rng.choice(vertices), rng.choice(vertices))
            pairs[pair] = None
        yield Batch(tuple(pairs), window[0], window[1])


def encode_query(query: Query, rid: int) -> bytes:
    """The NDJSON request line for *query* with id *rid*."""
    op, u, v, t1, t2, theta = query
    doc = {"op": op, "u": u, "v": v, "t1": t1, "t2": t2, "id": rid}
    if theta is not None:
        doc["theta"] = theta
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def encode_reload(rid: int) -> bytes:
    return b'{"op":"reload","id":%d}\n' % rid


def digest_queries(queries: Sequence[Query]) -> str:
    """SHA-256 of the queries' request lines (ids numbered from 0)."""
    digest = hashlib.sha256()
    for rid, query in enumerate(queries):
        digest.update(encode_query(query, rid))
    return digest.hexdigest()


def digest_batches(batches: Sequence[Batch]) -> str:
    digest = hashlib.sha256()
    for batch in batches:
        digest.update(repr((batch.t1, batch.t2, batch.pairs)).encode())
    return digest.hexdigest()


def take(iterator, n: int) -> List:
    return [next(iterator) for _ in range(n)]
