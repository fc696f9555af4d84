"""NumPy-vectorized flat batch kernels (optional acceleration).

The pure-python batch kernels in :mod:`repro.core.queries`
(:func:`~repro.core.queries.flat_span_batch` /
:func:`~repro.core.queries.flat_theta_batch`) walk the
:class:`~repro.core.flatstore.FlatTILLStore` arrays one pair at a time.
This module re-expresses the same Algorithm 4/5 passes as whole-batch
array programs built around three ideas:

* **Window-keyed store sweeps.**  For a fixed query window the useful
  per-hub-slot facts — "does this run hold a window-contained
  interval, and which contained interval is shortest?" — are computed
  for *every* slot at once with one ``np.minimum.reduceat`` sweep over
  the interval arrays, and memoized on the direction (serving batches
  repeat the same window, so repeat calls start from gathers).

* **Indicator-matrix join.**  The rank-ordered merge-join over common
  hubs collapses into one BLAS product: per unique source an indicator
  row over hub ranks ("hub h is present with a window-contained
  interval"), per unique target the same on the in side, and a pair
  has a witnessing hub iff its ``(source row) · (target row)`` overlap
  count is nonzero.  Adding one *self* column per row folds conditions
  (i)/(ii) of Algorithm 4 into the same product.  When the matrices
  would not fit :data:`GEMM_BUDGET_BYTES` the kernels fall back to a
  ``searchsorted`` sweep over sorted composite ``(pair, hub)`` keys.

* **θ-windows as intervals of admissible starts.**  A label interval
  ``[s, e]`` with ``e - s + 1 <= θ`` fits the sliding window starting
  at any ``w ∈ [e - θ + 1, s]``; two intervals satisfy Algorithm 5's
  condition (3) iff those admissible-start ranges intersect (clipped
  to the query window).  The per-hub two-pointer pass thus becomes a
  vectorized interval-intersection test: one binary search per
  (pair, hub) against the in-run's admissible-start lows plus a
  group-reset running maximum over its highs — no data-dependent loop.
  A cheap acceptor (probe only the *shortest* contained out-interval,
  which has the widest admissible range) resolves most rows; the exact
  enumeration runs only on the remainder.

* **Batch-size break-even.**  A window-keyed sweep touches every
  interval of the store, whereas the python kernels touch only the two
  label slices of each pair.  :meth:`NumPyFlatKernels.span_batch` and
  :meth:`~NumPyFlatKernels.theta_batch` therefore hand a batch to the
  python kernels when ``len(pairs) * SWEEP_BREAK_EVEN`` is below the
  store's out-interval count, so a small batch (a served micro-batch,
  a single pair) costs only its own labels.  The rule weighs batch
  size against store size and nothing else.

NumPy is an **optional** dependency: this module imports without it,
:func:`available` reports whether it can be used, and :func:`select`
implements the ``backend="auto"|"python"|"numpy"`` feature flag of
:meth:`repro.core.index.TILLIndex.flatten` — ``python`` (the default
everywhere) keeps the mandatory pure-python kernels, ``numpy``
requires the import and raises when it is missing, ``auto`` picks
numpy when importable and silently falls back otherwise.

Answers are bit-identical to the python kernels (the ``flat`` fuzz
profile cross-checks numpy vs python vs the brute-force oracle on
every sampled query).  The offset/interval views over the store
buffers are zero-copy; selecting the backend allocates only the
per-direction derived tables (int64 hub ranks, interval lengths, and
slot ids) used by the sweeps.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence

from repro.core.intervals import validate_theta_window
from repro.core.queries import flat_span_batch, flat_theta_batch
from repro.errors import IndexBuildError

try:  # NumPy is optional; every entry point below guards on _np.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy tests
    _np = None

#: Recognised values of the ``backend=`` feature flag.
BACKENDS = ("auto", "python", "numpy", "native")

#: Byte ceiling for the indicator matrices of the GEMM join
#: (``(S + T) * num_ranks`` float32 cells plus the ``S × T`` product).
#: Past it the kernels switch to the sorted composite-key sweep.
GEMM_BUDGET_BYTES = 1 << 26

#: Out-intervals per pair below which a batch skips the whole-store
#: sweep: :meth:`NumPyFlatKernels.span_batch` / ``theta_batch`` run the
#: python kernels when ``len(pairs) * SWEEP_BREAK_EVEN`` is below
#: ``len(store.out.starts)``.  Fixed by a kernel-level sweep: span then
#: θ on batches of 1-4,096 uniform pairs, a fresh window per call so
#: the memos miss as they do on the serving path (2-vCPU Xeon, numpy
#: 2.4, 12 windows per size).  The backends cross between 512 and
#: 1,024 pairs on email-eu (23,351 out-intervals: 46-23 per pair) and
#: at ~1,024 on enron (47,654: ~47 per pair); a single pair costs
#: 2,100-4,500 µs on numpy against ~40 µs on python.
SWEEP_BREAK_EVEN = 32


def available() -> bool:
    """Is the numpy backend importable in this environment?"""
    return _np is not None


def select(store, rank: Sequence[int], backend: str):
    """Resolve the ``backend`` flag into a kernels object (or ``None``).

    ``None`` means "use the pure-python kernels" — the mandatory
    fallback.  An explicitly requested accelerator that is missing its
    dependency raises :class:`IndexBuildError` (``"native"`` needs
    numba+numpy, ``"numpy"`` needs numpy); ``"auto"`` degrades silently
    down the ladder native → numpy → python, so the same call site is
    correct on any host.
    """
    if backend not in BACKENDS:
        known = ", ".join(repr(b) for b in BACKENDS)
        raise IndexBuildError(
            f"unknown flat backend {backend!r}; known backends: {known}"
        )
    if backend == "python":
        return None
    if backend == "native":
        from repro.core.nativekernels import NativeFlatKernels

        # Raises IndexBuildError itself when numba/numpy are absent —
        # an explicit request for the JIT backend must fail loudly.
        return NativeFlatKernels(store, rank)
    if backend == "auto":
        from repro.core import nativekernels

        if nativekernels.available():
            return nativekernels.NativeFlatKernels(store, rank)
        if _np is None:
            return None  # silent fallback to the python kernels
        return NumPyFlatKernels(store, rank)
    if _np is None:
        raise IndexBuildError(
            "flat backend 'numpy' requested but numpy is not "
            "importable; install numpy or use backend='python'"
        )
    return NumPyFlatKernels(store, rank)


def _as_ndarray(buf, typecode):
    """Zero-copy ndarray view of a store buffer (array/memoryview/mmap)."""
    dtype = _np.int64 if typecode == "q" else _np.int32
    if len(buf) == 0:
        return _np.empty(0, dtype=dtype)
    return _np.frombuffer(buf, dtype=dtype)


def _steps_for(counts) -> int:
    """Binary-search depth covering the largest group in *counts*."""
    if len(counts) == 0:
        return 0
    return int(counts.max()).bit_length()


def _lower_bound(vals, lo, hi, target, steps):
    """Per-row ``bisect_left(vals, target[r], lo[r], hi[r])``.

    Every row's slice ``vals[lo[r]:hi[r]]`` is sorted ascending (a CSR
    group); *target* is a scalar or a per-row array.  Runs one
    branch-free midpoint probe per halving step — *steps* is the
    precomputed depth covering the longest group, so the whole batch
    finishes in that many vector operations with no per-iteration
    convergence scan.
    """
    np = _np
    lo = lo.astype(np.int64, copy=True)
    if len(vals) == 0:
        return lo
    hi = hi.astype(np.int64, copy=True)
    last = len(vals) - 1
    for _ in range(steps):
        active = lo < hi
        mid = (lo + hi) >> 1
        go_right = active & (vals[np.minimum(mid, last)] < target)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    return lo


def _expand(lo, hi):
    """Expand per-row slices ``[lo[r], hi[r])`` into flat (row, index).

    Returns ``rows`` (which row each element belongs to) and ``idx``
    (the global position inside the sliced array), both row-major — the
    vectorized form of ``for r: for g in range(lo[r], hi[r])``.
    """
    np = _np
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())
    rows = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    if total == 0:
        return rows, rows.copy()
    offsets = np.cumsum(counts) - counts  # exclusive prefix sum
    idx = np.arange(total, dtype=np.int64) + np.repeat(lo - offsets, counts)
    return rows, idx


class _Direction:
    """One direction's store buffers as ndarrays, plus derived tables
    and single-entry memos for the window-keyed sweeps."""

    __slots__ = ("voff", "hubs", "ioff", "starts", "ends", "lens",
                 "len_pad", "islot", "tmin", "span1",
                 "hub_steps", "run_steps",
                 "_best_key", "_best", "_mseg_key", "_mseg")

    def __init__(self, direction):
        np = _np
        self.voff = _as_ndarray(direction.vertex_offsets, "q")
        # Hub ranks widened once so joins and scatters never re-cast.
        self.hubs = _as_ndarray(direction.hub_ranks, "i").astype(np.int64)
        self.ioff = _as_ndarray(direction.interval_offsets, "q")
        self.starts = _as_ndarray(direction.starts, "q")
        self.ends = _as_ndarray(direction.ends, "q")
        self.lens = self.ends - self.starts + 1
        # Interval lengths padded by +inf: lets ``minimum.reduceat``
        # accept a run ending exactly at the array end.
        self.len_pad = np.concatenate(
            [self.lens, np.array([np.iinfo(np.int64).max], dtype=np.int64)]
        )
        # Owning hub slot of every interval (for group-reset scans).
        nslots = max(0, len(self.ioff) - 1)
        self.islot = np.repeat(np.arange(nslots, dtype=np.int64),
                               np.diff(self.ioff))
        # ``span1`` exceeds every interval length and every normalized
        # start: a safe sentinel and a safe per-slot key stride.
        self.tmin = int(self.starts.min()) if len(self.starts) else 0
        tmax = int(self.ends.max()) if len(self.ends) else 0
        self.span1 = max(1, tmax - self.tmin + 2)
        # Fixed binary-search depths: the longest hub slice / interval
        # run bounds how many halving steps any row can need.
        self.hub_steps = _steps_for(np.diff(self.voff))
        self.run_steps = _steps_for(np.diff(self.ioff))
        self._best_key = None
        self._best = None
        self._mseg_key = None
        self._mseg = None

    def best(self, ws, we):
        """Per-slot ``(minlen, argmin)`` over the window-contained run.

        ``minlen[g]`` is the shortest contained interval length of hub
        slot *g* (``span1`` when none is contained — so
        ``minlen < span1`` is "has a contained interval" and
        ``minlen <= θ`` is Algorithm 5's conditions (1)/(2) probe);
        ``argmin[g]`` is that interval's global index.  One reduceat
        sweep over the store, memoized per window.
        """
        key = (ws, we)
        if self._best_key != key:
            np = _np
            nslots = max(0, len(self.ioff) - 1)
            if nslots == 0:
                minlen = np.empty(0, dtype=np.int64)
                amin = np.empty(0, dtype=np.int64)
            else:
                # Every slot owns >= 1 interval (interval_offsets are
                # strictly increasing), so reduceat has no empty runs.
                contained = (self.starts >= ws) & (self.ends <= we)
                stride = len(self.starts) + 1
                enc = np.where(contained, self.lens, self.span1) * stride
                enc += np.arange(len(self.starts), dtype=np.int64)
                dec = np.minimum.reduceat(enc, self.ioff[:-1])
                minlen = dec // stride
                amin = dec - minlen * stride
            self._best_key = key
            self._best = (minlen, amin)
        return self._best

    def mseg(self, theta):
        """θ-keyed tables for the admissible-start intersection probe.

        ``lo_adm[j] = ends[j] - θ + 1`` is the lowest sliding-window
        start admitting interval *j* (ascending within a run, since
        ends are).  ``run_max[j]`` is the running maximum, reset at run
        boundaries via a per-slot key stride, of the *highest*
        admissible start (``starts``, normalized to ``>= 1``) over
        intervals of length ≤ θ — zero marks "no admissible interval
        yet in this run".  Together they answer "does any interval of
        this run admit a start in ``[lo, hi]``" with one binary search
        and one gather per row.
        """
        if self._mseg_key != theta:
            np = _np
            lo_adm = self.ends - (theta - 1)
            norm = np.where(self.lens <= theta,
                            self.starts - self.tmin + 1, 0)
            key = self.islot * self.span1 + norm
            run_max = np.maximum.accumulate(key) if len(key) else key
            self._mseg_key = theta
            self._mseg = (lo_adm, run_max)
        return self._mseg


class NumPyFlatKernels:
    """Batch kernels bound to one flat store and one vertex-rank array.

    The three entry points mirror the pure-python kernels' *unchecked*
    contracts (window validated, ``ui != vi`` and prefilter handled by
    the caller) and return plain ``list[bool]`` answers in pair order:

    * :meth:`span_batch`        ↔ :func:`~repro.core.queries.flat_span_batch`
    * :meth:`theta_batch`       ↔ :func:`~repro.core.queries.flat_theta_batch`
    * :meth:`theta_naive_batch` ↔ per-pair
      :func:`~repro.core.queries.flat_theta_naive`
    """

    backend = "numpy"

    __slots__ = ("store", "rank", "_rank", "_o", "_i", "_nranks",
                 "_nverts")

    def __init__(self, store, rank: Sequence[int]):
        self.store = store
        self.rank = rank  # as given, for the python kernels
        self._rank = _np.asarray(rank, dtype=_np.int64)
        self._nranks = max(1, len(self._rank))
        self._o = _Direction(store.out)
        self._i = self._o if store.inn is store.out else _Direction(store.inn)
        self._nverts = max(1, len(self._o.voff) - 1)

    # -- shared helpers -------------------------------------------------

    def _pair_arrays(self, pairs):
        """Source/target id arrays from a list of ``(ui, vi)`` pairs."""
        np = _np
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64,
                           count=2 * len(pairs))
        return flat[0::2], flat[1::2]

    def _dedup(self, uis, vis):
        """Unique ``(ui, vi)`` rows plus the inverse scatter map."""
        np = _np
        keys = uis * self._nverts + vis
        ukeys, inverse = np.unique(keys, return_inverse=True)
        uu = ukeys // self._nverts
        return uu, ukeys - uu * self._nverts, inverse

    def _below_break_even(self, pairs) -> bool:
        """Would a whole-store sweep cost more than *pairs*' own labels?
        (See :data:`SWEEP_BREAK_EVEN`.)"""
        return len(pairs) * SWEEP_BREAK_EVEN < len(self._o.starts)

    def _gemm_fits(self, n_src, n_tgt) -> bool:
        cells = (n_src + n_tgt) * self._nranks + n_src * n_tgt
        return cells * 4 <= GEMM_BUDGET_BYTES

    def _hub_matrix(self, d, verts, ws, we, theta=None):
        """Float32 indicator ``M[r, h]``: hub rank *h* appears in
        ``verts[r]``'s slice with a window-contained interval (of
        length ≤ θ when *theta* is given).

        Float32 so the join runs as one BLAS product (integer dtypes
        fall off the fast path); overlap counts stay far below 2**24,
        so they are exact.
        """
        np = _np
        minlen, _ = d.best(ws, we)
        rows, slots = _expand(d.voff[verts], d.voff[verts + 1])
        mat = np.zeros((len(verts), self._nranks), dtype=np.float32)
        if len(slots):
            # Clamp to span1 - 1: real lengths never exceed it, and the
            # no-contained-interval sentinel (span1) must stay out even
            # when θ is larger than the store's whole time range.
            bound = d.span1 - 1 if theta is None else min(theta, d.span1 - 1)
            ok = minlen[slots] <= bound
            mat[rows[ok], d.hubs[slots[ok]]] = 1.0
        return mat

    # -- span -----------------------------------------------------------

    def span_batch(self, pairs, ws, we) -> List[bool]:
        """Unchecked Algorithm 4 over many pairs; answer-for-answer
        identical to :func:`~repro.core.queries.flat_span_batch`."""
        if len(pairs) == 0:
            return []
        if self._below_break_even(pairs):
            return flat_span_batch(self.store, self.rank, pairs, ws, we)
        uis, vis = self._pair_arrays(pairs)
        return self._span_answers(uis, vis, ws, we).tolist()

    def _span_answers(self, uis, vis, ws, we):
        """Bool answers for parallel source/target id arrays."""
        np = _np
        us, s_inv = np.unique(uis, return_inverse=True)
        vt, t_inv = np.unique(vis, return_inverse=True)
        if self._gemm_fits(len(us), len(vt)):
            ob = self._hub_matrix(self._o, us, ws, we)
            ib = self._hub_matrix(self._i, vt, ws, we)
            # Self columns fold conditions (i)/(ii) into the product:
            # the (u, rank[u]) out cell meets the real "rank[u] in
            # L_in(v)" in cell and vice versa; u != v keeps the two
            # self cells from ever meeting each other.
            ob[np.arange(len(us)), self._rank[us]] = 1.0
            ib[np.arange(len(vt)), self._rank[vt]] = 1.0
            overlap = ob @ ib.T
            return overlap[s_inv, t_inv] > 0.5
        uu, vv, inverse = self._dedup(uis, vis)
        return self._span_unique(uu, vv, ws, we)[inverse]

    def _span_unique(self, uis, vis, ws, we):
        """Join fallback for unique pairs (store too wide for GEMM)."""
        o, i = self._o, self._i
        ru, rv = self._rank[uis], self._rank[vis]
        a0, a1 = o.voff[uis], o.voff[uis + 1]
        b0, b1 = i.voff[vis], i.voff[vis + 1]
        # Conditions (i) and (ii): the other endpoint is itself a hub.
        g, fnd = self._find_hub(o, a0, a1, rv)
        hit = self._contained(o, g, fnd, ws, we)
        g, fnd = self._find_hub(i, b0, b1, ru)
        hit |= self._contained(i, g, fnd, ws, we)
        # Condition (iii): a common hub contained on both sides.
        rem = ~hit
        if rem.any():
            hit[rem] = self._common_contained(uis[rem], vis[rem], ws, we)
        return hit

    # -- theta ----------------------------------------------------------

    def theta_batch(self, pairs, ws, we, theta) -> List[bool]:
        """Unchecked Algorithm 5 over many pairs; answer-for-answer
        identical to :func:`~repro.core.queries.flat_theta_batch`."""
        if len(pairs) == 0:
            return []
        if self._below_break_even(pairs):
            return flat_theta_batch(self.store, self.rank, pairs, ws, we,
                                    theta)
        uis, vis = self._pair_arrays(pairs)
        uu, vv, inverse = self._dedup(uis, vis)
        return self._theta_answers(uu, vv, ws, we, theta)[inverse].tolist()

    def _theta_answers(self, uu, vv, ws, we, theta):
        """Bool answers for unique source/target id arrays."""
        np = _np
        us, s_map = np.unique(uu, return_inverse=True)
        vt, t_map = np.unique(vv, return_inverse=True)
        if not self._gemm_fits(len(us), len(vt)):
            return self._theta_unique(uu, vv, ws, we, theta)
        ob = self._hub_matrix(self._o, us, ws, we, theta)
        ib = self._hub_matrix(self._i, vt, ws, we, theta)
        rank = self._rank
        # Conditions (1)/(2): the other endpoint as a θ-valid hub —
        # direct cell gathers, no search.
        hit = ob[s_map, rank[vv]] > 0.5
        hit |= ib[t_map, rank[uu]] > 0.5
        # A common θ-valid hub is necessary for condition (3); the
        # product prunes pairs with none before the exact alignment.
        overlap = ob @ ib.T
        cand = ~hit & (overlap[s_map, t_map] > 0.5)
        if cand.any():
            hit[cand] = self._theta_exact(uu[cand], vv[cand], ws, we, theta)
        return hit

    def _theta_exact(self, uu, vv, ws, we, theta):
        """Condition (3) exactly, for unique pairs known to share at
        least one θ-valid hub: do some out-interval and in-interval of
        a common hub admit the *same* sliding-window start?

        Three refinement stages, each touching only still-open rows:
        best×best range intersection (pure gathers), then the best
        out-interval against the whole in-run (one binary search per
        row), then full enumeration of the out-run.  The θ-valid slot
        filters are computed once per unique vertex and the per-pair
        expansion walks the compacted lists, so the join never sees a
        slot that cannot participate.
        """
        np = _np
        o, i = self._o, self._i
        minlen_o, amin_o = o.best(ws, we)
        minlen_i, amin_i = i.best(ws, we)
        res = np.zeros(len(uu), dtype=bool)
        # Slot-lookup matrix over the unique targets: cell (r, h) holds
        # the global in-slot of hub h in target r's slice (θ-valid
        # slots only, -1 elsewhere) — turns the common-hub join into
        # one 2D gather per expansion row.
        vt, t_map = np.unique(vv, return_inverse=True)
        trows, tslots = _expand(i.voff[vt], i.voff[vt + 1])
        keep = minlen_i[tslots] <= min(theta, i.span1 - 1)
        trows, tslots = trows[keep], tslots[keep]
        if len(tslots) == 0:
            return res
        tcells = trows * self._nranks + i.hubs[tslots]
        slot_of = np.full(len(vt) * self._nranks, -1, dtype=np.int64)
        slot_of[tcells] = tslots
        # Clipped admissible-start range of each θ-valid in-slot's best
        # interval, scattered into matrices keyed the same way (cells
        # never written are read only under the `matched` mask below).
        b = amin_i[tslots]
        lob_mat = np.empty(len(vt) * self._nranks, dtype=np.int64)
        hib_mat = np.empty(len(vt) * self._nranks, dtype=np.int64)
        lob_mat[tcells] = np.maximum(i.ends[b] - (theta - 1), ws)
        hib_mat[tcells] = np.minimum(i.starts[b], we - theta + 1)
        # Per-pair expansion of the out-slots (θ-valid only, compacted
        # once per unique source).
        us, s_map = np.unique(uu, return_inverse=True)
        srows, sslots = _expand(o.voff[us], o.voff[us + 1])
        keep = minlen_o[sslots] <= min(theta, o.span1 - 1)
        sslots = sslots[keep]
        counts = np.bincount(srows[keep], minlength=len(us))
        soff = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        # Admissible-start range of the shortest contained out-interval
        # (always nonempty for a θ-valid slot: the clip bounds cannot
        # cross when length ≤ θ, start ≥ ws, end ≤ we, θ ≤ window) —
        # computed once per compacted slot, gathered per expansion row.
        a = amin_o[sslots]
        lo_s = np.maximum(o.ends[a] - (theta - 1), ws)
        hi_s = np.minimum(o.starts[a], we - theta + 1)
        rows, pidx = _expand(soff[s_map], soff[s_map + 1])
        mo = sslots[pidx]
        fidx = t_map[rows] * self._nranks + o.hubs[mo]
        mi = slot_of[fidx]
        matched = mi >= 0
        lo = lo_s[pidx]
        hi = hi_s[pidx]
        # Stage 0: best-out × best-in range intersection — gathers only.
        lo_b = lob_mat[fidx]
        hi_b = hib_mat[fidx]
        ok = matched & (lo <= hi_b) & (lo_b <= hi)
        res[rows[ok]] = True
        # Stage 1: enumerate every admissible out-interval of the rows
        # whose pair is still open, probing each against the in-run.
        todo = matched & ~res[rows]
        if todo.any():
            lo_adm, run_max = i.mseg(theta)
            rows2, mo2, mi2 = rows[todo], mo[todo], mi[todo]
            erow, eidx = _expand(o.ioff[mo2], o.ioff[mo2 + 1])
            lo = np.maximum(o.ends[eidx] - (theta - 1), ws)
            hi = np.minimum(o.starts[eidx], we - theta + 1)
            va = lo <= hi  # admissible: contained and length ≤ θ
            if va.any():
                erow = erow[va]
                ok2 = self._adm_probe(i, lo_adm, run_max, mi2[erow],
                                      lo[va], hi[va])
                res[rows2[erow[ok2]]] = True
        return res

    def _adm_probe(self, d, lo_adm, run_max, q, lo, hi):
        """Does any length-≤θ interval of in-slot ``q[r]``'s run admit
        a sliding-window start inside ``[lo[r], hi[r]]``?

        Candidates are the run prefix with ``lo_adm <= hi`` (one binary
        search); among them the highest admissible start is the
        group-reset running max at the prefix's last slot — compare it
        against ``lo`` and the intersection test is done.
        """
        np = _np
        if len(run_max) == 0:
            return np.zeros(len(q), dtype=bool)
        glo = d.ioff[q]
        ghi = d.ioff[q + 1]
        p = _lower_bound(lo_adm, glo, ghi, hi + 1, d.run_steps)
        has = p > glo
        pm = np.maximum(p - 1, 0)
        best = run_max[np.minimum(pm, len(run_max) - 1)] - q * d.span1
        return has & (best >= 1) & (best + d.tmin - 1 >= lo)

    def _theta_unique(self, uis, vis, ws, we, theta):
        """Join fallback for unique pairs (store too wide for GEMM)."""
        o, i = self._o, self._i
        ru, rv = self._rank[uis], self._rank[vis]
        a0, a1 = o.voff[uis], o.voff[uis + 1]
        b0, b1 = i.voff[vis], i.voff[vis + 1]
        # Conditions (1)/(2): a single ≤θ entry whose hub is the other
        # endpoint, min-reduced over the contained chronological run.
        g, fnd = self._find_hub(o, a0, a1, rv)
        hit = self._run_minlen_ok(o, g, fnd, ws, we, theta)
        g, fnd = self._find_hub(i, b0, b1, ru)
        hit |= self._run_minlen_ok(i, g, fnd, ws, we, theta)
        # Condition (3): sliding two-pointer pass per common hub, run
        # for every matched (pair, hub) row at once.
        rem = ~hit
        if rem.any():
            hit[rem] = self._theta_pairs(a0[rem], a1[rem], b0[rem], b1[rem],
                                         ws, we, theta)
        return hit

    def theta_naive_batch(self, pairs, ws, we, theta) -> List[bool]:
        """ES-Reach baseline over many pairs: one span pass per
        θ-position, early-exiting pairs already answered.

        Validates the θ window like the python
        :func:`~repro.core.queries.flat_theta_naive` (both paths raise
        on ``theta > we - ws + 1`` instead of silently answering).
        """
        validate_theta_window((ws, we), theta)
        np = _np
        if len(pairs) == 0:
            return []
        uis, vis = self._pair_arrays(pairs)
        uu, vv, inverse = self._dedup(uis, vis)
        m = len(uu)
        res = np.zeros(m, dtype=bool)
        remaining = np.ones(m, dtype=bool)
        for start in range(ws, we - theta + 2):
            if not remaining.any():
                break
            idx = np.nonzero(remaining)[0]
            sub = self._span_answers(uu[idx], vv[idx], start,
                                     start + theta - 1)
            resolved = idx[sub]
            res[resolved] = True
            remaining[resolved] = False
        return res[inverse].tolist()

    # -- join-fallback probes (store too wide for the GEMM path) --------

    def _find_hub(self, d, v0, v1, target_rank):
        """Slot of hub *target_rank* within each row's hub slice, plus a
        found-mask (vectorized condition (i)/(ii) hub lookup)."""
        np = _np
        g = _lower_bound(d.hubs, v0, v1, target_rank, d.hub_steps)
        if len(d.hubs) == 0:
            return g, np.zeros(len(g), dtype=bool)
        found = (g < v1) & (d.hubs[np.minimum(g, len(d.hubs) - 1)]
                            == target_rank)
        return g, found

    def _contained(self, d, slots, mask, ws, we):
        """Rows (where *mask*) whose hub slot holds a window-contained
        interval: the skyline first-``start >= ws`` probe + end check."""
        np = _np
        if not mask.any() or len(d.ends) == 0:
            return np.zeros(len(slots), dtype=bool)
        safe = np.where(mask, slots, 0)
        lo = d.ioff[safe]
        hi = np.where(mask, d.ioff[safe + 1], lo)
        k = _lower_bound(d.starts, lo, hi, ws, d.run_steps)
        ok = mask & (k < hi)
        ok &= d.ends[np.minimum(k, len(d.ends) - 1)] <= we
        return ok

    def _contained_slots(self, d, slots, ws, we):
        """:meth:`_contained` for known-valid hub slots (no mask)."""
        np = _np
        if len(slots) == 0 or len(d.ends) == 0:
            return _np.zeros(len(slots), dtype=bool)
        lo = d.ioff[slots]
        hi = d.ioff[slots + 1]
        k = _lower_bound(d.starts, lo, hi, ws, d.run_steps)
        ok = k < hi
        ok &= d.ends[np.minimum(k, len(d.ends) - 1)] <= we
        return ok

    def _run_minlen_ok(self, d, slots, mask, ws, we, theta):
        """θ-conditions (1)/(2): does the window-contained chronological
        run of each (masked) hub slot hold an interval of length ≤ θ?"""
        np = _np
        if not mask.any() or len(d.ends) == 0:
            return np.zeros(len(slots), dtype=bool)
        safe = np.where(mask, slots, 0)
        lo = d.ioff[safe]
        hi = np.where(mask, d.ioff[safe + 1], lo)
        k = _lower_bound(d.starts, lo, hi, ws, d.run_steps)
        e = _lower_bound(d.ends, k, hi, we + 1, d.run_steps)  # 1st end > we
        run = mask & (k < e)
        out = np.zeros(len(slots), dtype=bool)
        if not run.any():
            return out
        bounds = np.empty(2 * int(run.sum()), dtype=np.int64)
        bounds[0::2] = k[run]
        bounds[1::2] = e[run]
        minlen = np.minimum.reduceat(d.len_pad, bounds)[0::2]
        out[run] = minlen <= theta
        return out

    def _match_common_hubs(self, a0, a1, b0, b1):
        """Expansion merge-join: every ``(pair, hub)`` present in both
        the out slice and the in slice.

        Both composite key arrays are sorted ascending by construction
        (rows ascend, hub ranks strictly ascend within a vertex slice),
        so membership is a single ``searchsorted`` sweep.  Returns
        ``(rows, out_slots, in_slots)``.
        """
        np = _np
        empty = np.empty(0, dtype=np.int64)
        rows_o, slots_o = _expand(a0, a1)
        if len(slots_o) == 0:
            return empty, empty, empty
        rows_i, slots_i = _expand(b0, b1)
        if len(slots_i) == 0:
            return empty, empty, empty
        base = self._nranks
        ko = rows_o * base + self._o.hubs[slots_o]
        ki = rows_i * base + self._i.hubs[slots_i]
        pos = np.searchsorted(ki, ko)
        hit = pos < len(ki)
        hit &= ki[np.minimum(pos, len(ki) - 1)] == ko
        return rows_o[hit], slots_o[hit], slots_i[pos[hit]]

    def _common_contained(self, uis, vis, ws, we):
        """Span condition (iii) via the composite-key join: match the
        common hubs, then probe containment only on matched slots."""
        np = _np
        o, i = self._o, self._i
        res = np.zeros(len(uis), dtype=bool)
        rows, mo, mi = self._match_common_hubs(
            o.voff[uis], o.voff[uis + 1], i.voff[vis], i.voff[vis + 1]
        )
        if len(rows):
            ok = self._contained_slots(o, mo, ws, we)
            ok &= self._contained_slots(i, mi, ws, we)
            res[rows[ok]] = True
        return res

    def _theta_pairs(self, a0, a1, b0, b1, ws, we, theta):
        np = _np
        res = np.zeros(len(a0), dtype=bool)
        # All common hubs, not only window-contained ones — the
        # sliding pass bounds the window itself.
        rows, mo, mi = self._match_common_hubs(a0, a1, b0, b1)
        if len(rows) == 0:
            return res
        o, i = self._o, self._i
        o_hi = o.ioff[mo + 1]
        i_hi = i.ioff[mi + 1]
        k = _lower_bound(o.starts, o.ioff[mo], o_hi, ws, o.run_steps)
        kp = _lower_bound(i.starts, i.ioff[mi], i_hi, ws, i.run_steps)
        last_o = len(o.ends) - 1
        last_i = len(i.ends) - 1
        active = (k < o_hi) & (kp < i_hi)
        while True:
            # A row whose pair already answered True is dead weight.
            active &= ~res[rows]
            if not active.any():
                break
            kc = np.minimum(k, last_o)
            kpc = np.minimum(kp, last_i)
            oe, os_ = o.ends[kc], o.starts[kc]
            ne, ns = i.ends[kpc], i.starts[kpc]
            # Ends are strictly increasing inside a group: an end past
            # the window terminates that row (the scalar kernel's
            # break).
            live = active & (oe <= we) & (ne <= we)
            span = np.maximum(oe, ne) - np.minimum(os_, ns) + 1
            hits = live & (span <= theta)
            if hits.any():
                res[rows[hits]] = True
            # Advance the earlier-starting interval of surviving rows.
            step = live & ~hits
            adv_o = step & (os_ <= ns)
            adv_i = step & ~adv_o
            k[adv_o] += 1
            kp[adv_i] += 1
            active = step & (k < o_hi) & (kp < i_hi)
        return res
