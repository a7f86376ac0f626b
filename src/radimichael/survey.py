"""Exact class counts up to a limit, from an enumeration of the radimichael numbers.

A composite n is radimichael when rad(phi(n)) | n-1. Such an n is odd
(phi(n) is even for n >= 3) and squarefree (a squared prime divides phi(n)
but not n-1), so the condition reads rad(q-1) | n-1 for every prime q | n.
Write n = p*c with p the largest prime of n. As p = 1 (mod rad(p-1)), the
condition at p is rad(p-1) | c-1. With r = isqrt(limit), one pass over an
spf sieve of [0, r] lists the distinct primes of every m <= r, and the
survey finds every such n in two parts from that table:

- p > r, so c <= r. p-1 = d is built from the primes of c-1 only, on
  int64 arrays for a chunk of c values at a time; each d with
  r <= d < limit // c that meets the congruence the primes of c impose
  has d+1 decided by trial division by the primes up to isqrt(d+1), all
  in the table since d+1 <= limit / 3.
- p <= r. A depth-first search over descending primes carries the product
  P of the primes taken and L = lcm rad(q-1) over them, pruning a prime q
  that divides L. The rest of n is a cofactor c = P^-1 (mod L). c = 1 is
  decided as a node is made, and a node with limit // P < 3 can hold no
  other c, so it is not kept. Once the progression has no more terms than
  the node has children, the node is a leaf and its terms are walked
  instead. Leaves are held until a full batch has gathered, and take their
  first terms from one vectorized extended Euclid over the batch. A term
  above r is divided down into the table by the primes below min(P), and
  every term is checked against per-c arrays of the table.

Each radimichael number is recorded as (n, phi(n), lambda(n), omega(n)),
all known from its primes, and the records are tallied in batches: n is
Carmichael iff lambda(n) | n-1, and its exact Lehmer index is the number
of steps r -> r / gcd(r, n-1) that take phi(n) to 1. The work is split
into units (c values and top-level primes, interleaved) whose integer
tallies are summed, so the report is identical for any worker count.
Composites up to a checkpoint x number x - 1 - pi(x). Unit 0 counts the
primes by Lucy's method over the table's primes, in O(limit^(3/4)) time and
O(isqrt(limit)) memory: one count gives pi up to isqrt(limit) and at every
limit // i, and any other checkpoint takes a count of its own.

Exactness rests on one invariant: every int64 value the survey forms is at
most `limit`, so a limit below 2**63 leaves no room for a wrap. A product
is formed only where it is a number the survey counts or one of its
factors: P*c and d*ell are at most some n <= limit; phi(n), lambda(n)
and L | lambda(n) lie below n, and np.lcm divides by the gcd before it
multiplies; Lucy's x // (i*p) has i*p <= x // p; and in _inverse, q*r1
<= r0 <= m while q*s1 is at most the final |s|, which is at most m, with
m = L < limit. The functions below cite this invariant where they form
products.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Iterator, NamedTuple

# numpy's OpenBLAS starts a worker thread for every CPU but one at import.
# This package never calls BLAS, yet each idle worker spins for about 0.1 s
# of CPU in every process and must be stopped again at each fork. A value
# the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from .arith import SMALL_PRIMES, TRIAL_LIMIT
from .workers import check_workers, fork_map

DEFAULT_MEMORY_BUDGET = 2 << 30     # bytes
DEFAULT_K_MAX = 8
# cap on k_max. Every prime of r divides n-1, so each step r -> r / gcd(r,
# n-1) at least halves r: an index is at most log2 phi(n), which is below
# limit.bit_length(), and so below 63 for any limit under 2**63
K_MAX_LIMIT = 64
SURVEY_LIMIT = 10**8                # desk-scale cap

# Memory charge, from peak RSS (VmHWM) growth measured on Linux (Python 3.11,
# numpy 2.4) with numpy and the package imported and their bytecode cached;
# compiling the package at import instead frees heap that the first call
# reuses, which hides up to 1 MB. A survey grows 0.9 MB at 10**6, 1.4 MB at
# 10**7 and 2.4 MB at 10**8: about 0.9 MB on a first call whatever the
# limit, mostly the first touch of the numpy code the batched search runs
# and its scratch, plus 170-230 bytes per integer of [0, isqrt(limit)] in
# each process for the spf sieve, the factor table, the plan arrays and the
# search; the prime counts, taken in the calling process after its unit's
# search, stay under that peak.
_FIRST_CALL_BYTES = 2 << 20
_PLAN_BYTES_PER_ROOT_ENTRY = 256


class MemoryBudgetError(RuntimeError):
    """The requested survey exceeds the configured memory budget."""


def _memory_charge(limit: int, workers: int = 1) -> int:
    """Bytes for survey(limit): in each of `workers` processes, the table and
    enumeration state over [0, isqrt(limit)]."""
    return (_FIRST_CALL_BYTES
            + workers * _PLAN_BYTES_PER_ROOT_ENTRY * (isqrt(limit) + 1))


# ---------------------------------------------------------------------------
# smallest-prime-factor sieve
# ---------------------------------------------------------------------------

def build_spf(limit: int) -> np.ndarray:
    """Smallest prime factor of n at [n] for n in [0, limit], sieved in one
    pass; an entry equals n iff n is prime, and those of 0 and 1 are
    themselves. Its base primes are SMALL_PRIMES, all below TRIAL_LIMIT, so
    the table is exact only for limit < TRIAL_LIMIT**2 = 2**28, and any
    other limit is refused before the table is allocated."""
    if limit < 1 or limit >= TRIAL_LIMIT**2:
        raise ValueError(f"need 1 <= limit < {TRIAL_LIMIT**2}")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    spf[4::2] = 2
    for p in SMALL_PRIMES[1:bisect_right(SMALL_PRIMES, isqrt(limit))]:
        view = spf[p * p::2 * p]  # odd multiples; evens belong to 2
        view[view == 0] = p
    # remaining zeros are primes (or the 0/1 sentinels)
    idx = np.flatnonzero(spf == 0)
    spf[idx] = idx
    return spf


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointRow:
    """Cumulative counts of each class up to `checkpoint`."""
    checkpoint: int
    composites: int
    carmichael: int
    radimichael: int
    radimichael_not_carmichael: int
    lehmer: tuple[int, ...]  # lehmer[k-1] = #composites with index <= k
    omega2: int
    omega3: int
    omega4plus: int


@dataclass(frozen=True)
class SurveyReport:
    limit: int
    k_max: int
    rows: tuple[CheckpointRow, ...]


def default_checkpoints(limit: int) -> list[int]:
    """Powers of 10 up to limit, with limit itself as the final checkpoint."""
    if limit < 2:
        return []
    return [10**e for e in range(1, limit.bit_length()) if 10**e < limit] + [limit]


# rows of a work unit's tally array, whose columns are checkpoint buckets;
# rows _HIST.. hold the index histogram, k = 1..k_max exact, then "> k_max"
_CARMICHAEL, _RADIMICHAEL, _OMEGA2, _HIST = 0, 1, 2, 5

# the most child nodes the search makes at once, and the records a work unit
# gathers before it tallies them. 2048 and 4096 took the search at 10**7
# from 9.9 to 9.6 and 8.3 ms, but raised a work unit's traced peak from
# 1.15 to 1.27 and 1.61 MB
_BATCH = 1024

# the leaves the search holds before it walks them together, and the most
# progression terms it walks at once. 1024, 2048, 4096 and 8192 took the
# search 12.8, 10.9, 9.6 and 9.3 ms at 10**7, and 0.42, 0.31, 0.26 and
# 0.23 s at 10**9; a work unit's traced peak at 10**7 was 0.74 (that of the
# p > root part), 0.74, 1.15 and 1.94 MB, and the CLI's peak RSS at 10**7
# read 0.4 MiB above 1024's at 4096 and 1.2 MiB at 8192
_WALK_BATCH = 4096

# the most c values the p > root part takes at once. Taking all 1,008 c
# values of 10**7 at once adds 1.1 MB to a survey's peak RSS, and all 3,112
# of 10**8 add 8.6 MB; 64 and 128 saved nothing and were slower
_CHUNK = 256


class _Plan(NamedTuple):
    """What every work unit reads, all derived from the factor table over
    [0, root]. (A NamedTuple: creating a frozen dataclass costs the CLI 1-2 ms.)"""
    limit: int
    root: int
    checkpoints: np.ndarray
    k_max: int
    # factors[j, m] is the j-th least distinct prime of m, or 1 once m has
    # fewer (all 1 for m = 0 and 1), in the sieve's uint32
    factors: np.ndarray
    primes: np.ndarray      # odd primes <= root, ascending
    # cofactors[:, c] = (L, largest prime, phi(c), lambda(c), omega(c)), with
    # L the lcm of rad(q-1) over q | c, for every c <= root that can divide a
    # radimichael number: odd, squarefree and coprime to L; zeros for any other
    # c. So L is rad(q-1) at every odd prime q
    cofactors: np.ndarray


def _plan(limit: int, checkpoints: list[int], k_max: int) -> _Plan:
    root = isqrt(limit)
    spf = build_spf(root)
    ints = np.arange(root + 1, dtype=np.int64)
    primes = ints[3::2][spf[3::2] == ints[3::2]]
    # the one pass that peels primes off the spf table, least first; the
    # rest of the plan comes from column reductions of the table
    factors, m = [], np.maximum(ints, 1)
    while (p := spf[m]).max() > 1:
        factors.append(p)
        while (div := (p > 1) & (m % p == 0)).any():
            m[div] //= p[div]
    factors = np.array(factors, dtype=spf.dtype).reshape(-1, root + 1)
    radm = factors.prod(axis=0, dtype=np.int64)  # rad(m)
    # lam = lcm(q-1) over q | m is at most m, and L = rad(lam); initial=1
    # covers root 1, whose table has no rows
    cofactors = np.empty((5, root + 1), dtype=np.int64)
    L, top, phi, lam, omega = cofactors
    pm1 = np.maximum(factors, 2) - 1
    np.lcm.reduce(pm1, axis=0, initial=1, out=lam)
    np.take(radm, lam, out=L)
    factors.max(axis=0, initial=1, out=top)
    pm1.prod(axis=0, out=phi)
    (factors > 1).sum(axis=0, out=omega)
    # an odd m is squarefree iff rad(m) = m; L | lambda(c) <= c <= root <
    # limit, so no L reaches the limit
    cofactors[:, (ints % 2 == 0) | (radm != ints) | (np.gcd(L, ints) != 1)] = 0
    return _Plan(limit, root, np.array(checkpoints, dtype=np.int64), k_max, factors,
                 primes, cofactors)


def _tally(counts: np.ndarray, plan: _Plan, records: np.ndarray) -> None:
    """Add to counts the radimichael numbers whose rows in records are n,
    phi(n), lambda(n) and omega(n).

    n is squarefree, so it is Carmichael iff lambda(n) | n-1. Its Lehmer
    index, the value of classify.lehmer_index_from_phi, is counted here on
    int64 batches step by step: the number of steps r -> r / gcd(r, n-1)
    that take r = phi(n) to 1, each step lowering every v_q(r) by v_q(n-1),
    which is positive as rad(phi(n)) | n-1. Step k_max+1 stands for every
    index above k_max. Every value here is a divisor of phi(n), n itself or
    a cell index, so the int64 invariant (module docstring) holds.
    """
    n, phi, lam, omega = records
    nm1 = n - 1
    index = np.zeros_like(n)
    r = phi
    for _ in range(plan.k_max + 1):
        live = r > 1
        if not live.any():
            break
        index += live
        r = r // np.gcd(r, nm1)
    bucket = np.searchsorted(plan.checkpoints, n)
    width = len(plan.checkpoints)
    cells = np.concatenate((bucket + _RADIMICHAEL * width,
                            bucket[nm1 % lam == 0] + _CARMICHAEL * width,
                            bucket + (_OMEGA2 - 2 + np.minimum(omega, 4)) * width,
                            bucket + (_HIST - 1 + index) * width))
    counts += np.bincount(cells, minlength=counts.size).reshape(counts.shape)


def _large_prime_part(plan: _Plan, cs: np.ndarray) -> Iterator[np.ndarray]:
    """Records of every radimichael n = p*c with c in cs and prime p > root.

    p*c = 1 (mod L), so d = p-1 = c^-1 - 1 (mod L), and rad(d) | c-1. L is
    squarefree, so a prime ell of both L and c-1 divides d exactly when it
    divides the residue: it is forced into d or kept out. 2 is always
    forced, as p is odd. The primes of c-1 are its column of plan.factors.
    The c values are taken _CHUNK at a time, and each d is an int64 entry
    beside the index of its c.
    """
    limit, root = plan.limit, plan.root
    primes = plan.primes.tolist()
    for start in range(0, len(cs), _CHUNK):
        c = cs[start:start + _CHUNK]
        L, _, phi, lam, omega = plan.cofactors[:, c]
        residue = (_inverse(c, L) - 1) % L
        top = limit // c - 1
        # ells[j] holds the j-th prime of each c-1 if d may take it, else 1
        # (as for the table's padding), and d starts as the product of the
        # forced ones
        p = plan.factors[:, c - 1].astype(np.int64)
        forced = L % p == 0
        ells = np.where(~forced | (residue % p == 0), p, 1)
        d = np.where(forced, ells, 1).prod(axis=0)
        owner = np.arange(len(c))
        for ell in ells:
            # ell | c-1 and d <= max(top, c-1), so d*ell < max(c*(top+1), c*c)
            # <= limit, as the int64 invariant (module docstring) needs
            live = ell[owner] > 1
            grown, owners = [d], [owner]
            g, o = d[live] * ell[owner[live]], owner[live]
            while g.size:
                keep = g <= top[o]
                g, o = g[keep], o[keep]
                grown.append(g)
                owners.append(o)
                g = g * ell[o]
            d, owner = np.concatenate(grown), np.concatenate(owners)
        hit = (d >= root) & (d % L[owner] == residue[owner])
        d, owner = d[hit], owner[hit]
        # d+1 is odd and at most limit // 3, so trial division by the odd
        # primes up to isqrt(d+1), all in primes, decides it. An entry leaves
        # the live set as prime once it is below p*p, or as composite when p
        # divides it. (Sorting the entries instead first touches numpy's
        # sort code, 0.3 MB of peak RSS.)
        x, idx, prime = d + 1, np.arange(len(d)), np.ones(len(d), dtype=bool)
        for p in primes:
            keep = x >= p * p
            x, idx = x[keep], idx[keep]
            if not x.size:
                break
            div = x % p == 0
            prime[idx[div]] = False
            x, idx = x[~div], idx[~div]
        if prime.any():
            d, owner = d[prime], owner[prime]
            # the int64 invariant: c*(d+1) <= limit as d <= top; phi(c)*d <
            # c*d < limit; and np.lcm(lambda(c), d) divides by the gcd first,
            # so no step of it exceeds lambda(c)*d <= phi(c)*d
            yield np.stack([c[owner] * (d + 1), phi[owner] * d, np.lcm(lam[owner], d),
                            omega[owner] + 1])


def _inverse(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a^-1 (mod m) for each coprime pair, by the extended Euclidean
    algorithm on int64 arrays; a pair drops out when its remainder is 0.
    Under the int64 invariant (module docstring), q*r1 <= r0 <= m, and the
    |s| grow to at most m, so q*s1 <= m too."""
    r0, r1 = m.copy(), a % m
    s0, s1 = np.zeros_like(r1), np.ones_like(r1)
    live = np.flatnonzero(r1)
    while live.size:
        q = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - q * r1[live]
        s0[live], s1[live] = s1[live], s0[live] - q * s1[live]
        live = live[r1[live] != 0]
    return s0 % m


def _spread(sizes: np.ndarray, done: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Items done.. of nodes holding sizes[i] items each, at most batch of
    them: the node of each item and its index within the node."""
    ends = np.cumsum(sizes)
    item = np.arange(done, min(done + batch, int(ends[-1])))
    node = np.searchsorted(ends, item, side="right")
    return node, item - (ends - sizes)[node]


def _walk(plan: _Plan, nodes: np.ndarray) -> Iterator[np.ndarray]:
    """Records of every radimichael n = P*c over leaf nodes, whose
    progressions c = P^-1 (mod L), 1 < c <= limit // P, are short. A term c
    is kept if it is squarefree, every prime of it lies below least and
    rad(q-1) | n-1 for each of them."""
    limit, root, primes = plan.limit, plan.root, plan.primes
    rad = plan.cofactors[0]  # rad(q-1) at each odd prime q
    P, L = nodes[:2]
    c0 = _inverse(P, L)
    c0 += np.where(c0 == 1, L, 0)  # c = 1 was decided as the node was made
    # every leaf has limit // P >= 3 and 2 <= c0 <= L + 1, so the quotient is
    # at least (2 - L) // L >= -1 and no count is negative
    terms = (limit // P - c0) // L + 1
    live = np.flatnonzero(terms)  # most leaves hold no term
    nodes, c0, terms = nodes[:, live], c0[live], terms[live]
    for done in range(0, int(terms.sum()), _WALK_BATCH):
        node, k = _spread(terms, done, _WALK_BATCH)
        # the term c, then what is left of it. The int64 invariant: P*c <=
        # limit, and head's products of ell - 1 over primes of c stay below c
        rest = c0[node] + nodes[1, node] * k
        nm1 = nodes[0, node] * rest - 1
        least = nodes[5, node]
        # divide the primes out of a c above root, least first, until the
        # rest is in the table; head holds phi, lambda and omega of them. A
        # rest above root after every prime below least and sqrt(c) has a
        # prime at least `least`.
        ok = np.ones(len(rest), dtype=bool)
        head = np.ones((3, len(rest)), dtype=np.int64)
        head[2] = 0
        big = np.flatnonzero(rest > root)
        if big.size:
            bound = min(int(least[big].max()), isqrt(int(rest[big].max())) + 1)
            for ell in primes[:np.searchsorted(primes, bound)].tolist():
                hit = big[rest[big] % ell == 0]
                if not hit.size:
                    continue
                rest[hit] //= ell
                ok[hit] &= ((ell < least[hit]) & (rest[hit] % ell != 0)
                            & (nm1[hit] % rad[ell] == 0))
                head[0, hit] *= ell - 1
                head[1, hit] = np.lcm(head[1, hit], ell - 1)
                head[2, hit] += 1
                big = big[ok[big] & (rest[big] > root)]
                if not big.size:
                    break
            ok[big] = False
        Lc, top = plan.cofactors[:2, np.where(ok, rest, 0)]
        i = np.flatnonzero((Lc > 0) & (top < least) & (nm1 % np.maximum(Lc, 1) == 0))
        phi, lam, omega = nodes[2:5, node[i]]
        phic, lamc, omegac = plan.cofactors[2:, rest[i]]
        hphi, hlam, homega = head[:, i]
        yield np.stack([nm1[i] + 1, phi * phic * hphi, np.lcm(np.lcm(lam, lamc), hlam),
                        omega + omegac + homega])


def _children(limit: int, parents: np.ndarray, q: np.ndarray, r: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Each parent column extended by the prime q beside it (q < least and
    P*q <= limit), with r = rad(q-1): the records of n = P*q, and the
    children that can hold a cofactor c > 1, as nodes."""
    P, L, phi, lam, omega, _ = parents
    # q | L would put q in both n and n-1 (no prime of P divides rad(q-1), as
    # each exceeds q)
    keep = np.flatnonzero(L % q != 0)
    P, q = P[keep] * q[keep], q[keep]  # P*q <= limit by the choice of q
    # L | lambda(P), so lcm(L, r) | lambda(P*q) < P*q <= limit: np.lcm, which
    # divides by the gcd first, keeps the int64 invariant, as do phi and lambda
    nodes = np.stack([P, np.lcm(L[keep], r[keep]), phi[keep] * (q - 1),
                      np.lcm(lam[keep], q - 1), omega[keep] + 1, q])
    # c = 1: n = P*q. A child with limit // (P*q) < 3 holds no cofactor c > 1,
    # as c is odd
    return nodes[[0, 2, 3, 4]][:, P % nodes[1] == 1], nodes[:, P <= limit // 3]


def _small_prime_part(plan: _Plan, tops: np.ndarray) -> Iterator[np.ndarray]:
    """Records of every radimichael n whose largest prime is in tops (all
    <= root).

    n = P*c with L = lcm rad(q-1) over q | P dividing n-1, so c = P^-1
    (mod L), and every prime of c lies below least = min(P). A node is a
    column (P, L, phi(P), lambda(P), omega(P), least). The search takes a
    batch of nodes at a time, depth first, and the stack holds each depth's
    interior nodes with a cursor into their children, of which it makes at
    most _BATCH at a time; c = 1 is decided as a child is made. A node whose
    progression has no more terms than it has children is a leaf. Leaves
    are held until _WALK_BATCH of them have gathered, or the search ends,
    and are then walked together.
    """
    limit, primes = plan.limit, plan.primes
    rad = plan.cofactors[0]  # rad(q-1) at each odd prime q
    nodes = np.stack([tops, rad[tops], tops - 1, tops - 1, np.ones_like(tops), tops])
    stack, held, holding = [], [], 0
    while True:
        room = limit // nodes[0]
        # a child takes one more prime q < least with P*q <= limit. A node
        # with no children holds no cofactor c > 1, as each prime of c would
        # make one
        sizes = np.searchsorted(primes, np.minimum(nodes[5] - 1, room), side="right")
        leaf = room // nodes[1] <= sizes
        if leaf.any():
            held.append(nodes[:, leaf])
            holding += held[-1].shape[1]
            if holding >= _WALK_BATCH:
                leaves, held, holding = np.hstack(held), [], 0
                yield from _walk(plan, leaves)
        stack.append([nodes[:, ~leaf], sizes[~leaf], 0])
        while stack and stack[-1][2] == stack[-1][1].sum():
            stack.pop()
        if not stack:
            break
        parents, sizes, done = stack[-1]
        node, k = _spread(sizes, done, _BATCH)
        stack[-1][2] = done + len(node)
        q = primes[k]
        records, nodes = _children(limit, parents[:, node], q, rad[q])
        if records.size:
            yield records
    if held:
        yield from _walk(plan, np.hstack(held))


def _prime_counts(x: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pi at every x // i, by Lucy's method over 2 and the odd primes in
    primes up to r = isqrt(x): small[v] = pi(v) for v <= r, and large[i] =
    pi(x // i) for 1 <= i <= r.

    S(v) starts at v - 1. Each prime p <= r in turn applies S(v) -= S(v // p)
    - S(p - 1) to every v >= p*p, dropping the composites whose least prime
    is p; S(p - 1) is then pi(p - 1), the number of primes before p. Every
    read sees the values from before p: large, which reads small, goes
    first, and each right-hand side is computed before it is assigned.
    """
    r = isqrt(x)
    small = np.arange(-1, r, dtype=np.int64)
    small[0] = 0
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = x // np.arange(1, r + 1, dtype=np.int64) - 1
    for below, p in enumerate([2, *primes[primes <= r].tolist()]):
        # v = x // i for i <= x // p^2; v // p = x // (i*p) is large[i*p]
        # while i*p <= r, else small[x // (i*p)]; i*p <= x // p keeps the
        # int64 invariant
        top = min(r, x // (p * p))
        mid = min(top, r // p)
        large[1:mid + 1] -= large[p:mid * p + 1:p] - below
        if mid < top:  # an empty numpy step still costs microseconds
            large[mid + 1:top + 1] -= small[x // (np.arange(mid + 1, top + 1) * p)] - below
        if p * p <= r:
            small[p * p:] -= small[np.arange(p * p, r + 1) // p] - below
    return small, large


def _checkpoint_pis(plan: _Plan) -> list[int]:
    """pi at every checkpoint: one count at the limit answers those up to
    root and at every limit // i, and any other takes a count of its own."""
    limit, root, primes = plan.limit, plan.root, plan.primes
    small, large = _prime_counts(limit, primes)
    return [int(small[x] if x <= root
                else large[limit // x] if limit // (limit // x) == x
                else _prime_counts(x, primes)[1][1]) for x in plan.checkpoints.tolist()]


def _unit_counts(plan: _Plan, unit: int, units: int) -> np.ndarray:
    """Tallies of work unit `unit` of `units`: every units-th c value and
    top prime, starting at the unit-th."""
    counts = np.zeros((_HIST + plan.k_max + 1, len(plan.checkpoints)), dtype=np.int64)
    cs = np.flatnonzero(plan.cofactors[0, 3:plan.limit // (plan.root + 1) + 1]) + 3
    pending, held = [], 0
    for records in chain(_large_prime_part(plan, cs[unit::units]),
                         _small_prime_part(plan, plan.primes[unit::units])):
        pending.append(records)
        held += records.shape[1]
        if held >= _BATCH:
            _tally(counts, plan, np.hstack(pending))
            pending, held = [], 0
    if pending:
        _tally(counts, plan, np.hstack(pending))
    return counts


def survey(limit: int, k_max: int = DEFAULT_K_MAX, *, workers: int = 1,
           checkpoints: list[int] | None = None,
           memory_budget: int | None = None) -> SurveyReport:
    """Exact class counts for all integers up to `limit` (<= SURVEY_LIMIT).

    The table and enumeration state over [0, isqrt(limit)], in each of
    `workers` processes, are charged to `memory_budget` up front; the
    search makes at most _BATCH children and tallies at most _BATCH records
    at a time, walks at most _WALK_BATCH terms at a time, and holds at most
    _WALK_BATCH leaves plus one step's children; the prime counts are taken
    in this process. Work units are pure and their integer tallies are
    summed, so the report is identical for any `workers`. No or empty
    `checkpoints` means default_checkpoints(limit).
    """
    check_workers(workers)
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    if any(type(v) is not int for v in (limit, k_max, budget)):
        raise ValueError("limit, k_max and memory_budget must be ints")
    if budget < 0:
        raise ValueError(f"memory_budget must be >= 0 bytes, got {budget}")
    if limit < 1:
        raise ValueError("survey requires limit >= 1")
    if limit > SURVEY_LIMIT:
        raise ValueError(f"survey limit capped at {SURVEY_LIMIT}")
    if not 1 <= k_max <= K_MAX_LIMIT:
        raise ValueError(f"k_max must lie in [1, {K_MAX_LIMIT}], got {k_max}")
    if not checkpoints:
        checkpoints = default_checkpoints(limit)
    else:
        if any(type(c) is not int for c in checkpoints):
            raise ValueError("checkpoints must be ints")
        if any(c < 1 or c > limit for c in checkpoints):
            raise ValueError("checkpoints must lie in [1, limit]")
        checkpoints = sorted({*checkpoints, limit})
    if not checkpoints:
        return SurveyReport(limit, k_max, ())

    if (charge := _memory_charge(limit, workers)) > budget:
        raise MemoryBudgetError(f"tables plus scratch need {charge} bytes, "
                                f"budget is {budget}")
    plan = _plan(limit, checkpoints, k_max)

    def work(unit: int, units: int) -> tuple[tuple[np.ndarray, list[int] | None]]:
        # unit 0 runs here: the prime counts are taken while workers run
        return ((_unit_counts(plan, unit, units),
                 _checkpoint_pis(plan) if unit == 0 else None),)
    parts = list(fork_map(work, workers))
    total = sum(counts for counts, _ in parts)
    composites = [cp - 1 - pi for cp, pi in zip(checkpoints, parts[0][1])]
    running = total.cumsum(axis=1).tolist()  # cumulative over checkpoints
    lehmer = np.cumsum(running[_HIST:_HIST + k_max], axis=0).T.tolist()
    rows = [CheckpointRow(cp, comp, carm, radi, radi - carm, tuple(lk), o2, o3, o4)
            for cp, comp, carm, radi, o2, o3, o4, lk
            in zip(checkpoints, composites, *running[:_HIST], lehmer)]
    return SurveyReport(limit, k_max, tuple(rows))


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

REPORT_FORMATS = ("table", "csv", "json-lines")


def _columns(k_max: int) -> list[str]:
    return (["checkpoint", "composites", "carmichael", "radimichael",
             "radimichael_not_carmichael"]
            + [f"L{k}" for k in range(1, k_max + 1)]
            + ["omega2_radimichael", "omega3_radimichael", "omega4plus_radimichael"])


def _row_values(row: CheckpointRow) -> list[int]:
    return ([row.checkpoint, row.composites, row.carmichael, row.radimichael,
             row.radimichael_not_carmichael]
            + list(row.lehmer)
            + [row.omega2, row.omega3, row.omega4plus])


def report_write(report: SurveyReport, fmt: str) -> bytes:
    """Render a report deterministically; byte-identical for equal reports."""
    cols = _columns(report.k_max)
    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(str(v) for v in _row_values(row)) for row in report.rows]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "table":
        str_rows = [[str(v) for v in _row_values(row)] for row in report.rows]
        widths = [max(len(col), *(len(r[i]) for r in str_rows)) if str_rows
                  else len(col) for i, col in enumerate(cols)]
        lines = ["  ".join(col.rjust(w) for col, w in zip(cols, widths))]
        lines += ["  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in str_rows]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json-lines":
        lines = [json.dumps({"limit": report.limit, "k_max": report.k_max},
                            separators=(",", ":"))]
        for row in report.rows:
            record = dict(zip(cols, _row_values(row)))
            lines.append(json.dumps(record, separators=(",", ":")))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")

