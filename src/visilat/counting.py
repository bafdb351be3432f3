"""Empirical counting of visible tuples over cube and ball regions.

Three routes: a direct count (exact: every tuple of region^m, and the mixed
minors, in ``ideals.rows_index``, only where a gcd table of distinct norms
finds a common factor), a prime-ideal sieve (exact: it splits only the
primes dividing a norm of a difference between the region and S; each
residue class of S keeps its last coordinates as a W-bit set (a row list past
a norm), and each prefix of the other coordinates counts their union, block
by block), and a Monte Carlo estimator (the kernel's ``ideals.visible_mask``
on uniform samples) for regions beyond enumeration caps.  The direct count
never touches prime ideals or residues, so sieve == direct is an independent
check and must hold exactly.  One closed form, run by run of the last
coordinate, finds a residue class's rows mod any prime from the
``primes.residues`` of the region's basis and of S: the sieve expands it for
the classes of S, and the lemma check sums it for the class of 0, the points
of the prime.  Each count takes S as anything ``ideals.point_set`` accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import ideals as il
from . import primes as pr
from .errors import CapExceeded
from .numfield import FieldSpec, _det_bareiss, as_int, as_real, rational_primes_up_to
from .numfield import norm_of_coords  # noqa: F401 (perfbench's self-test looks it up here)

DEFAULT_REGION_CAP = 2 ** 22
DEFAULT_TUPLE_CAP = 2 ** 31
# bytes of the sieve's accumulator and OR layer for one block of prefixes
BLOCK_BYTES = 2 ** 20
# the sieve keeps a pair's last selection, ~W/N(P) rows, as a W-bit set if
# N(P) <= DENSE_WORDS * W / (words a set), else as a row list
DENSE_WORDS = 8

# pi to 49 decimal places; enough that ball-volume normalization error is
# far below every tolerance in play
PI = Fraction(31415926535897932384626433832795028841971693993751, 10 ** 49)


@dataclass(frozen=True)
class Region:
    """A cube C[L] or ball B[R] of coordinate vectors over the field basis.

    ``basis_transform`` rows, when given, are a replacement Z-basis in
    coordinates of the field basis (must be unimodular): the region becomes
    {a . T : a in the cube/ball}, i.e. the same shape over the new basis.
    """

    field: FieldSpec
    shape: str
    size: Fraction
    basis_transform: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.shape not in ("cube", "ball"):
            raise ValueError(f"unknown region shape {self.shape!r}")
        if self.size <= 0:
            raise ValueError("region size must be positive")
        if self.shape == "cube" and self.size.denominator != 1:
            raise ValueError("cube side L must be an integer")
        if self.basis_transform is not None:
            T = self.basis_transform
            n = self.field.degree
            if len(T) != n or any(len(r) != n for r in T):
                raise ValueError("basis transform must be n x n")
            if abs(_det_bareiss([list(r) for r in T])) != 1:
                raise ValueError("basis transform must be unimodular")

    @property
    def L(self) -> int:
        return int(self.size)

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The region's rows as runs (prefix, h) of the last coordinate: run
        i is the rows (prefix[i], -h[i]..h[i]) in lexicographic order (n = 1:
        one run, empty prefix).  A prefix grown one coordinate at a time is
        followed by c = -b..b, b = L in a cube and isqrt(floor(R^2) -
        |prefix|^2) in a ball."""
        r2 = int(self.size ** 2)
        pre = np.zeros((1, 0), dtype=np.int64)
        while True:
            sq, inv = np.unique((pre * pre).sum(axis=1), return_inverse=True)
            h = np.array([self.L if self.shape == "cube" else
                          math.isqrt(r2 - s) for s in sq.tolist()], dtype=np.int64)[inv]
            if pre.shape[1] == self.field.degree - 1:
                return pre, h
            pre = _run_rows(pre, h)

    def volume(self) -> Fraction:
        """Continuous volume: (2L)^n for cubes, V_n R^n for balls.

        Used for the main term of the ideal-count checks; empirical density
        estimates divide by the exact tuple count instead.
        """
        n = self.field.degree
        if self.shape == "cube":
            return Fraction((2 * self.L) ** n)
        return _ball_volume_unit(n) * self.size ** n

    def label(self) -> str:
        if self.shape == "cube":
            base = f"cube:L={self.L}"
        else:
            r = self.size
            base = f"ball:R={int(r) if r.denominator == 1 else float(r)}"
        if self.basis_transform is not None:
            base += ":T=" + str([list(r) for r in self.basis_transform]).replace(" ", "")
        return base


def cube_region(field: FieldSpec, L: int, basis_transform=None) -> Region:
    return Region(field, "cube", Fraction(as_int(L)),
                  _norm_transform(basis_transform))


def ball_region(field: FieldSpec, R, basis_transform=None) -> Region:
    return Region(field, "ball", as_real(R),
                  _norm_transform(basis_transform))


def _norm_transform(T):
    if T is None:
        return None
    return tuple(tuple(as_int(x) for x in row) for row in T)


def _ball_volume_unit(n: int) -> Fraction:
    """Volume of the unit n-ball as an exact rational in pi."""
    if n % 2 == 0:
        k = n // 2
        return PI ** k / math.factorial(k)
    k = (n - 1) // 2
    return Fraction(2 * math.factorial(k) * 4 ** k, math.factorial(n)) * PI ** k


@dataclass(frozen=True)
class CountResult:
    """Outcome of one counting run over region^m."""

    visible_count: int
    total_tuples: int
    density_estimate: Fraction
    method: str
    region: Region
    mc_stderr: Optional[float] = None
    prime_norm_bound: Optional[int] = None


@dataclass(frozen=True)
class IdealCountCheck:
    """Observed vs expected count of ideal points in a region."""

    count: int
    main_term: Fraction
    error: Fraction
    normalized_error: float


# ----------------------------------------------------------------------
# region enumeration
# ----------------------------------------------------------------------

def region_coords(region: Region,
                  region_cap: int = DEFAULT_REGION_CAP) -> np.ndarray:
    """The region's rows, lexicographic in the untransformed coordinates, as
    a ``(W, n)`` int64 array built from ``Region.runs``, after ``_check_cap``."""
    _check_cap(region, region_cap)
    return _transform(region, _run_rows(*region.runs))


def _check_cap(region: Region, region_cap: int) -> None:
    """Refuse, before anything is built, a region whose bound on W passes the
    cap: for a ball V_n (R + sqrt(n)/2)^n, as the disjoint unit cubes centred
    on the points lie in that ball (sqrt(n)/2 rounded up, the floor + 1)."""
    n = region.field.degree
    half_diag = Fraction(math.isqrt(n * 10 ** 8) + 1, 2 * 10 ** 4)
    est = ((2 * region.L + 1) ** n if region.shape == "cube" else
           math.floor(_ball_volume_unit(n) * (region.size + half_diag) ** n) + 1)
    if est > region_cap:
        raise CapExceeded("region exceeds enumeration cap", estimate=est)


def _run_rows(pre: np.ndarray, h: np.ndarray) -> np.ndarray:
    k = 2 * h + 1
    c = np.arange(k.sum()) - np.repeat(np.cumsum(k) - h - 1, k)
    return np.column_stack([np.repeat(pre, k, axis=0), c])


def _transform(region: Region, pts: np.ndarray) -> np.ndarray:
    """Region vectors a mapped to a . T for the region and the MC sampler.

    Every partial sum of sum_i a_i T_ij is at most max|a| * max_j sum_i
    |T_ij|, and max|a| <= L (floor(R) for a ball); int64 is exact below 2^63.
    """
    T = region.basis_transform
    if T is None:
        return pts
    bound = max(region.L, 1) * max(sum(abs(row[j]) for row in T)
                                   for j in range(len(T)))
    if bound >= 2 ** 63:
        raise CapExceeded("basis transform would overflow int64",
                          estimate=bound)
    return pts @ np.array(T, dtype=np.int64)


def _class_runs(region: Region, plist, S: np.ndarray):
    """(u0, q, count): the rows of run r of ``Region.runs`` in the class t
    of S[k] mod plist[i] are count of its u_n, from u0 in steps of q, with
    u0 and count at [i, k, r] and q at [i].

    They are the u_n in [-h, h] with c + u_n v = t in F_p^f, where rho'_l and
    t are the ``pr.residues`` of the rows of T and of S, c = sum_(l<n) u_l
    rho'_l and v = rho'_n (a row u . T lies in the class sum_l u_l rho'_l).
    If v != 0, q = p and tau = (t_j - c_j) / v_j for its first v_j != 0; if
    v = 0, q = 1 and tau = 0.  The run has rows in the class when c + tau v =
    t: its u_n = tau mod q, for any p, f and h (a small p gives a run several
    rows).  The u_l are at most L in size, the b of ``pr.residues``.
    """
    pre, h = region.runs
    n = region.field.degree
    TS = np.concatenate((_transform(region, np.eye(n, dtype=np.int64)), S))
    p, red = pr.residues(plist, TS, region.L)
    rho, t = red[:, :n], red[:, n:]
    c, v = pre @ rho[:, :-1] % p, rho[:, -1]
    C = np.arange(len(plist))
    j = (v == 0).argmin(axis=1)
    q = np.where(v[C, j] != 0, p[:, 0, 0], 1)[:, None, None]
    inv = np.array([pow(int(a), -1, int(b)) if a else 0
                    for a, b in zip(v[C, j].tolist(), p.ravel().tolist())],
                   dtype=p.dtype)[:, None, None]
    tau = (t[C, :, j][:, :, None] - c[C, :, j][:, None]) * inv % p
    # tau solves the class equation if f = 1 and v != 0; the other primes
    # check it a residue coordinate at a time, temporaries (C, K, M)
    x = np.flatnonzero([P.f > 1 for P in plist] | ~v.any(axis=1))
    hit = np.ones(tau.shape, bool)
    if len(x):
        cx, tx, vx, taux, px = c[x], t[x], v[x], tau[x], p[x]
        hit[x] = np.logical_and.reduce([(cx[:, None, :, f] + taux * vx[:, None, None, f]
                                         - tx[:, :, None, f]) % px == 0 for f in range(v.shape[1])])
    r = (tau + h) % q
    return r - h, q, np.where(hit, (2 * h - r) // q + 1, 0)


# ----------------------------------------------------------------------
# direct counting
# ----------------------------------------------------------------------

def count_visible_direct(field: FieldSpec, S, m: int, region: Region,
                         region_cap: int = DEFAULT_REGION_CAP,
                         tuple_cap: int = DEFAULT_TUPLE_CAP) -> CountResult:
    """Exact count of visible tuples by testing every tuple in region^m.

    The rows and |N| of a - c, for each region row a and coordinate c of S,
    are built once (``il.ideal_rows``, one dtype).  Blocks of prefixes (z_1,
    ..., z_(m-1)), each against every z_m, meet each s while still visible:
    a lane's gcd of norms is read from gcd.outer(the block's distinct N(z_1 -
    s_1), the distinct N(z_m - s_m)), the others folded in, and only a gcd
    other than 1 takes the mixed minors (``il.rows_index``).  BLOCK_BYTES /
    (8 m n^2 W) prefixes a block keep its gathered rows, gcd table and lane
    arrays under ``BLOCK_BYTES`` on int64, unless one prefix alone passes it.
    No prime ideal or residue is consulted: sieve == direct is independent.
    """
    S, coords, total = _tuple_space(field, S, m, region, region_cap, tuple_cap)
    (W, n), at = coords.shape, {}
    kid = [[at.setdefault(c, len(at)) for c in map(tuple, s)] for s in S.tolist()]
    rows = il.ideal_rows(field, np.broadcast_to(coords[:, None], (W, len(at), n)), list(at))
    rows = rows.reshape(len(at), n * n, W)
    N = [il.rows_index(r.reshape(n, n, W), il.minors(1, n), np.zeros(W, r.dtype)) for r in rows]
    dist, rank = zip(*(np.unique(x, return_inverse=True) for x in N))
    step, mixed, visible = max(1, BLOCK_BYTES // (8 * m * n * n * W)), il.minors(m, n)[m:], 0
    for lo in range(0, W ** (m - 1), step):
        pre = np.unravel_index(np.arange(lo, min(lo + step, W ** (m - 1))), (W,) * (m - 1))
        ok = np.ones(len(pre[0]) * W, dtype=bool)
        for ks in kid:
            u, inv = np.unique(rank[ks[0]][pre[0]], return_inverse=True)
            g = np.gcd.outer(dist[ks[0]][u], dist[ks[-1]])[inv][:, rank[ks[-1]]]
            for k, a in zip(ks[1:-1], pre[1:]):
                g = np.gcd(g, N[k][a][:, None])
            hit = np.flatnonzero(ok & (g.ravel() != 1))
            p, z = np.divmod(hit, W)
            sel = np.empty((m, n * n, len(hit)), rows.dtype)
            for j, (k, i) in enumerate(zip(ks, [a[p] for a in pre] + [z])):
                rows[k].take(i, axis=1, out=sel[j])  # with out: ~6x a fresh take
            ok[hit] = il.rows_index(sel.reshape(m * n, n, -1), mixed, g.ravel()[hit]) == 1
        visible += int(ok.sum())
    return CountResult(visible_count=visible, total_tuples=total,
                       density_estimate=Fraction(visible, total),
                       method="direct", region=region)


# ----------------------------------------------------------------------
# sieve counting
# ----------------------------------------------------------------------

def count_visible_sieve(field: FieldSpec, S, m: int, region: Region,
                        region_cap: int = DEFAULT_REGION_CAP,
                        tuple_cap: int = DEFAULT_TUPLE_CAP) -> CountResult:
    """Exact count by sieving the residue classes of small-norm primes.

    An invisible tuple z has all coordinates of z - s in some prime P, so p
    divides the norm of every nonzero z_j - s_j, and N(P) <= B := max |N(a -
    s_i)|.  Only those p are split, found by trial division of the distinct
    norms up to sqrt(B).  The pair (P, s) catches the tuples whose every z_j
    lies in its selection j, the rows in the class of s_j mod P, which
    ``_selections`` finds; so every pair catches z = s.  When B < 2 every
    nonzero difference is a unit, and the prime above 2 catches exactly the
    points of S.  A pair keeps its last selection, ~W/N(P) rows, as a W-bit
    set of ``uint64`` words when N(P) <= DENSE_WORDS * W / (words a set), and
    as a sorted row list otherwise.  A CSR index gives each row z_1 the pairs
    whose first selection holds it; each prefix (z_1, ..., z_(m-1)) of one
    block of z_1 rows ORs the sets of its pairs into its own accumulator row,
    in place, then sets the bits of its pairs' row lists, and the block adds
    the popcounts (under ``BLOCK_BYTES``).  No array grows with W^(m-1).  A
    B whose square root exceeds ``region_cap`` is refused before any norm is
    factored or prime is split.
    """
    S, coords, total = _tuple_space(field, S, m, region, region_cap, tuple_cap)
    W = len(coords)

    norms = [il.ideal_index(field, coords[:, None], key)
             for key in set(map(tuple, S.reshape(-1, field.degree).tolist()))]
    B = max(1, *(int(N.max()) for N in norms))
    if math.isqrt(B) > region_cap:
        raise CapExceeded("square root of the sieve prime norm bound exceeds "
                          "region cap", estimate=B)
    plist = (pr.primes_up_to_norm(field, B, _prime_divisors(np.concatenate(norms)))
             if B >= 2 else pr.split_prime(field, 2)[:1])
    del norms

    # pair q = i k + s joins the selections g = q m + j (j < m) of plist[i]
    # pair q keeps the rows of its first and middle selections, and its last
    # as the W-bit set bits[q] if q < nd (plist is sorted by norm), else as
    # lrow[lptr[q]:lptr[q + 1]] (q, rows ascending as _selections yields
    # them); bits[nd] stays 0; a pair with an empty selection adds nothing
    nw, zero, npair = -(-W // 64), np.zeros(1, np.int64), len(S) * len(plist)
    nd = len(S) * sum(P.norm * nw <= DENSE_WORDS * W for P in plist)
    bits = np.zeros((nd + 1, nw), np.uint64)
    kept = [[np.zeros((2, 0), np.int32)] for _ in range(m)]
    for g, row in _selections(region, plist, S.reshape(-1, field.degree)):
        q, j = g // m, g % m
        x = (j == m - 1) & (q < nd)
        np.bitwise_or.at(bits, (q[x], row[x] >> 6), np.uint64(1) << (row[x] & 63).astype(np.uint64))
        j[x] = m
        for col in range(m):
            kept[col].append(np.stack((q[j == col], row[j == col])).astype(np.int32))
    pair, first = np.concatenate(kept[0], axis=1)
    last, lrow = np.concatenate(kept.pop(), axis=1)
    lptr = np.concatenate((zero[:1], np.cumsum(np.bincount(last, minlength=npair))))
    lword, lbit = lrow >> 6, np.uint64(1) << (lrow & 63).astype(np.uint64)
    # each pair's flat ids in W^(m-2) of its middle selections' product
    mids = [zero] * npair
    for qc, x in (np.concatenate(kc, axis=1) for kc in kept[1:]):
        at = np.cumsum(np.bincount(qc, minlength=npair))[:-1]
        mids = [(a[:, None] * W + y).reshape(-1) for a, y in zip(mids, np.split(x, at))]
    mlen = np.array([len(a) for a in mids], dtype=np.int64)
    moff = np.cumsum(mlen) - mlen
    mids = np.concatenate(mids)
    del kept, last, lrow
    # CSR index: the pairs of row z_1 are pair[rowptr[z_1]:rowptr[z_1 + 1]]
    rowptr = np.concatenate((zero[:1], np.cumsum(np.bincount(first, minlength=W))))
    pair = pair[np.argsort(first, kind="stable")]
    del first
    # blocks of z_1 rows, a row with at most min(sum of mlen, W^(m-2)) prefixes
    # (z_1, ..., z_(m-1)): a block ends where the prefixes before a row pass a
    # multiple of cap or their (prefix, pair) incidences one of icap, so its
    # accumulator and one layer of sets stay under BLOCK_BYTES, as do its index
    # arrays (< 64 bytes an incidence), unless one row alone passes a cap
    inc = np.concatenate((zero[:1], np.cumsum(mlen[pair])))[rowptr]
    pre = np.concatenate((zero[:1], np.cumsum(np.minimum(np.diff(inc), W ** (m - 2)))))
    cap, icap = max(1, BLOCK_BYTES // (32 * nw)), max(1, BLOCK_BYTES // 128)
    cuts = np.flatnonzero(np.diff(pre[:-1] // cap, prepend=-1)
                          | np.diff(inc[:-1] // icap, prepend=-1)).tolist() + [W]
    marked = 0
    for a, b in zip(cuts, cuts[1:]):
        q = pair[rowptr[a]:rowptr[b]]
        k = mlen[q]
        z = np.repeat(np.arange(b - a), np.diff(rowptr[a:b + 1]))
        at = np.repeat(moff[q] - np.cumsum(k) + k, k) + np.arange(int(k.sum()))
        prefix = np.repeat(z * W ** (m - 2), k) + mids[at]
        o = np.argsort(prefix, kind="stable")
        q, prefix = np.repeat(q, k)[o], prefix[o]
        new = np.concatenate((prefix[:1] >= 0, prefix[1:] != prefix[:-1]))  # [] if empty
        seg, starts = np.cumsum(new) - 1, np.flatnonzero(new)
        # one accumulator row per prefix, most sets first: a prefix keeps its
        # pairs in order, so its dense ones (q < nd) lead, and layer t ORs in
        # the t-th pair of the prefixes that have more than t sets
        cnt = np.bincount(seg[q < nd], minlength=len(starts))
        order = np.argsort(-cnt, kind="stable")
        starts, rank = starts[order], np.argsort(order)
        acc = bits[np.minimum(q[starts], nd)]
        for t, n in enumerate((len(cnt) - np.cumsum(np.bincount(cnt))[1:-1]).tolist(), 1):
            acc[:n] |= bits[q[starts[:n] + t]]
        # then every sparse pair sets its rows' bits in its prefix's row
        k = lptr[q + 1] - lptr[q]
        at = np.repeat(lptr[q] - np.cumsum(k) + k, k) + np.arange(int(k.sum()))
        np.bitwise_or.at(acc.reshape(-1), np.repeat(rank[seg] * nw, k) + lword[at], lbit[at])
        marked += int(np.bitwise_count(acc).sum())

    visible = total - marked
    return CountResult(visible_count=visible, total_tuples=total,
                       density_estimate=Fraction(visible, total),
                       method="sieve", region=region,
                       prime_norm_bound=B)


def _prime_divisors(values: np.ndarray) -> list[int]:
    """The primes dividing a nonzero entry of ``values`` (integers >= 0), by
    trial division up to sqrt(max): what is left of an entry is 1 or prime.
    The distinct entries meet the primes a block at a time, the block's
    remainders under ``BLOCK_BYTES``; only the primes found are divided out."""
    v = np.sort(values)  # np.unique's hash table would add ~1 MiB of resident code
    v, out = v[(v > 1) & (np.diff(v, prepend=0) != 0)], set()
    ps = np.array(rational_primes_up_to(math.isqrt(int(v.max(initial=1)))), np.int64)
    step = max(1, BLOCK_BYTES // (8 * len(v) + 1))
    for lo in range(0, len(ps), step):
        block = ps[lo:lo + step]
        for p in block[(v[:, None] % block == 0).any(axis=0)].tolist():
            out.add(p)
            while (d := v % p == 0).any():
                v[d] //= p
    return sorted(out.union(v[v > 1].tolist()))


def _selections(region: Region, plist, S: np.ndarray):
    """(g, row) arrays in ascending g, then row: one entry per row of
    selection g = i K + k, the rows in the class of S[k] mod plist[i], from
    ``_class_runs``, a run's u_n at row mid + u_n (mid: its row u_n = 0).  A
    prime costs K (M + W / N(P)) units of 64 bytes, for its K M run solutions
    and about its rows; a chunk of primes ends where the cost before a prime
    passes a multiple of cap, half of ``BLOCK_BYTES``, so it stays under
    ``BLOCK_BYTES`` unless its last prime alone costs more than cap."""
    h = region.runs[1]
    K, M, W = len(S), len(h), int((2 * h + 1).sum())
    mid, cap = np.cumsum(2 * h + 1) - h - 1, max(1, BLOCK_BYTES // 128)
    cost = np.array([K * (M + W // P.norm) for P in plist], dtype=np.int64)
    cuts = np.flatnonzero(np.diff((np.cumsum(cost) - cost) // cap, prepend=-1)).tolist()
    for a, b in zip(cuts, cuts[1:] + [len(plist)]):
        u0, q, count = _class_runs(region, plist[a:b], S)
        i, k, r = np.nonzero(count)
        cnt = count[i, k, r].astype(np.int64)
        # a run with two rows or more has q <= 2h < W, so W stands in for a
        # larger q, which no run steps by
        step = np.minimum(q[i, 0, 0], W).astype(np.int64)
        at = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        yield (np.repeat((a + i) * K + k, cnt),
               np.repeat(mid[r] + u0[i, k, r].astype(np.int64), cnt) + at * np.repeat(step, cnt))


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

# Philox4x64-10 (Salmon et al., SC'11): the multipliers of counter words 0
# and 2, and the bumps of the key's two words after each round
_PHILOX_M = ((0xD2E7470EE14C6C93,), (0xCA5A826395121157,))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(a, b):
    """The high (from 32-bit halves) and low 64 bits of a*b on uint64."""
    lo32, s = np.uint64(2 ** 32 - 1), np.uint64(32)
    a0, a1, b0, b1 = a & lo32, a >> s, b & lo32, b >> s
    t = a1 * b0 + (a0 * b0 >> s)
    u = a0 * b1 + (t & lo32)
    return a1 * b1 + (t >> s) + (u >> s), a * b


def _philox_draws(seed: int, L: int):
    """The int64 values of ``Generator(Philox(key=seed)).integers(-L, L + 1)``
    in numpy's order, BLOCK_BYTES / 64 words at a time.

    Block b is the counter (b + 1, 0, 0, 0) under the key (seed mod 2^64,
    seed >> 64); Lemire's method (ACM TOMACS 29(1), 2019) maps each word, or
    each 32-bit half, low first, when r = 2L + 1 <= 2^32, to [0, r)."""
    r, blocks, start, (w0, w1) = 2 * L + 1, BLOCK_BYTES // 256, 1, _PHILOX_W
    mult = np.array(_PHILOX_M, np.uint64)
    keys = np.array([[[(seed + i * w0) % 2 ** 64], [((seed >> 64) + i * w1) % 2 ** 64]]
                     for i in range(10)], dtype=np.uint64)
    while True:
        # x[0] and y[0] are counter words 0 and 1, x[1] and y[1] words 2 and 3
        x, y = np.zeros((2, blocks), np.uint64), np.zeros((2, blocks), np.uint64)
        x[0], start = np.arange(start, start + blocks, dtype=np.uint64), start + blocks
        for key in keys:
            hi, lo = _mulhilo(mult, x)
            x, y = hi[::-1] ^ y ^ key, lo[::-1]
        w = np.stack((x, y), axis=2).transpose(1, 0, 2).ravel()
        if r <= 2 ** 32:
            u = w.astype("<u8", copy=False).view("<u4").astype(np.uint64)
            u *= np.uint64(r)
            keep = (u & np.uint64(2 ** 32 - 1)) >= np.uint64((2 ** 32 - r) % r)
            u >>= np.uint64(32)
        else:
            u, lo = _mulhilo(w, np.uint64(r))
            keep = lo >= np.uint64((2 ** 64 - r) % r)
        u = u[keep]
        u -= np.uint64(L)
        yield u.view(np.int64)


def mc_estimate(field: FieldSpec, S, m: int,
                region: Region, samples: int, seed: int) -> CountResult:
    """Estimate the visible density from uniform i.i.d. tuples of region^m.

    Coordinates come from numpy's counter-based Philox stream keyed by the
    seed, reproduced bit for bit by ``_philox_draws`` without importing
    ``numpy.random``, so results are reproducible; a ball keeps the rows of
    the stream that lie in it.  The samples go through the same visibility
    kernel as the direct count.  A region with L >= 2^63 is refused.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if not 0 <= seed < 2 ** 128:
        raise ValueError("seed must lie in [0, 2^128)")
    S = _check_inputs(field, S, m, region)
    n, L, need = field.degree, region.L, samples * m
    if L >= 2 ** 63:
        raise ValueError(f"{region.label()}: Monte Carlo draws need L < 2^63")
    # a squared length is at most n L^2; past int64, square exactly
    dt, r2 = (np.int64 if n * L * L < 2 ** 63 else object), int(region.size ** 2)
    draws, tail = _philox_draws(seed, L), np.zeros(0, np.int64)
    flat, count = np.empty((need, n), np.int64), 0
    while count < need:
        vals = np.concatenate((tail, next(draws)))
        rows, tail = vals[:len(vals) // n * n].reshape(-1, n), vals[len(vals) // n * n:]
        if region.shape == "ball":
            rows = rows[(rows.astype(dt, copy=False) ** 2).sum(axis=1) <= r2]
        rows = rows[:need - count]
        flat[count:count + len(rows)] = rows
        count += len(rows)
    flat = _transform(region, flat)
    hits = int(il.visible_mask(field, flat.reshape(samples, m, n), S).sum())
    phat = hits / samples
    stderr = math.sqrt(phat * (1 - phat) / samples)
    return CountResult(visible_count=hits, total_tuples=samples,
                       density_estimate=Fraction(hits, samples),
                       method="mc", region=region, mc_stderr=stderr)


# ----------------------------------------------------------------------
# ideal lattice counting checks
# ----------------------------------------------------------------------

def ideal_count_check(field: FieldSpec, P: pr.PrimeIdeal, region: Region,
                      region_cap: int = DEFAULT_REGION_CAP) -> IdealCountCheck:
    """Count |P ∩ region| and compare with volume/N(P).

    Run by run of ``Region.runs``, with no rows built: the points of P are
    the class of 0, and ``_class_runs`` counts each run's rows in it, the
    closed form the sieve solves for its classes.
    The normalized error divides by (R/N^(1/n))^(n-1) for balls and by
    (2L/N^(1/n) + 1)^(n-1) for cubes, the shape the counting bound says is
    O(1) uniformly in the prime and the region size; it is inf when that
    divisor underflows to 0.0 on a tiny ball.
    """
    if P.field != field or region.field != field:
        raise ValueError("mismatched field")
    _check_cap(region, region_cap)
    n = field.degree
    count = int(_class_runs(region, [P], np.zeros((1, n), dtype=np.int64))[2].sum())
    main = region.volume() / P.norm
    error = abs(Fraction(count) - main)
    radius_ratio = float(region.size) / P.norm ** (1.0 / n)
    denom = (radius_ratio if region.shape == "ball" else
             2 * radius_ratio + 1) ** (n - 1)
    normalized = float(error) / denom if denom else math.inf
    return IdealCountCheck(count=count, main_term=main, error=error,
                           normalized_error=normalized)


def _tuple_space(field: FieldSpec, S, m: int, region: Region, region_cap: int,
                 tuple_cap: int) -> tuple[np.ndarray, np.ndarray, int]:
    """S checked, the region's rows and W^m, for an exact count of region^m;
    a W^m over ``tuple_cap`` is refused."""
    S = _check_inputs(field, S, m, region)
    coords = region_coords(region, region_cap)
    total = len(coords) ** m
    if total > tuple_cap:
        raise CapExceeded("tuple space exceeds cap", estimate=total)
    return S, coords, total


def _check_inputs(field: FieldSpec, S, m: int, region: Region) -> np.ndarray:
    if region.field != field:
        raise ValueError("region belongs to a different field")
    if m < 2:
        raise ValueError("m must be >= 2")
    return il.point_set(field, S, m)
