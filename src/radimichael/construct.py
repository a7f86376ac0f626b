"""Geometric prime-tuple searches and self-verifying radimichael certificates.

A tuple spec fixes a base a, shift b, and window of exponents; for each n the
scan records which a^l * n + 1 are prime. Products of m such primes are
radimichael numbers, and every certificate built here carries the data needed
to re-verify that claim, the non-Carmichael witness, and the exact Lehmer
index from scratch.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod
from operator import attrgetter
from typing import Iterable, TextIO

from .arith import (
    Factorization,
    U64_LIMIT,
    factorize,
    prime_verdict,
)
from .classify import is_carmichael, is_k_lehmer, lehmer_index_from_factors
from .workers import check_workers, fork_map

# Largest bit length of a tuple prime a^l * n + 1 that a spec may produce and
# that `verify` will test. Verifying one component at the cap costs 30 SPRP
# rounds plus a strong Lucas test on a number of this size.
MAX_COMPONENT_BITS = 2048

# Largest bit length of a certificate's N: at most 4,300 decimal digits, the
# default int <-> str limit, so its record can be written and read back.
MAX_CERTIFICATE_BITS = (10**4300).bit_length() - 1


class InsufficientHitsError(ValueError):
    """A tuple hit does not contain enough primes to build the request."""


class CertificateViolationError(RuntimeError):
    """A freshly built certificate failed its own re-verification."""


@dataclass(frozen=True)
class TupleSpec:
    """Search parameters: primes of the form a^l * n + 1 for l in `window`.

    The default window (b+1, b+s) has s slots; theorem2_search passes its
    own. Both bounds are inclusive.
    """
    a: int
    b: int
    s: int
    m: int
    n_min: int = 1
    n_max: int = 1
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.a < 2 or self.b < 0 or self.s < 1 or self.m < 2:
            raise ValueError("need a >= 2, b >= 0, s >= 1, m >= 2")
        if self.a >= U64_LIMIT or self.n_max >= U64_LIMIT:
            # a and every n are factored to certify a product
            raise ValueError("need a < 2**64 and n_max < 2**64")
        if self.m > self.s + 1:
            raise ValueError(f"m={self.m} exceeds s+1={self.s + 1} window slots")
        if self.window is None:
            object.__setattr__(self, "window", (self.b + 1, self.b + self.s))
        lo, hi = self.window
        if lo > hi:
            raise ValueError(f"empty exponent window {self.window}")
        if self.m > hi - lo + 1:
            raise ValueError(f"m={self.m} exceeds the {hi - lo + 1}-slot window")
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        bits = _component_bits(self.a, hi, self.n_max)
        if bits > MAX_COMPONENT_BITS:
            raise ValueError(f"largest component {self.a}^{hi} * {self.n_max} + 1 "
                             f"exceeds {MAX_COMPONENT_BITS} bits")
        if self.m * bits > MAX_CERTIFICATE_BITS:
            raise ValueError(f"{self.m} components of {bits} bits can exceed the "
                             f"{MAX_CERTIFICATE_BITS}-bit (4,300 decimal digit) N cap")


def _component_bits(a: int, l: int, n: int) -> int:
    """Bit length of a^l * n + 1 (a, n >= 1), or a lower bound for it that
    exceeds MAX_COMPONENT_BITS.

    a^l * n >= 2^(l*(bits(a)-1) + bits(n)-1) decides a huge l before a^l is
    built, so the power computed below has at most about twice the cap.
    """
    floor_bits = l * (a.bit_length() - 1) + n.bit_length()
    if floor_bits > MAX_COMPONENT_BITS:
        return floor_bits
    return (a**l * n + 1).bit_length()


@dataclass(frozen=True)
class TupleHit:
    """Primes found in one scanned tuple: (exponent, prime) pairs, ascending."""
    spec: TupleSpec
    n: int
    hits: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RadimichaelCertificate:
    """Everything needed to independently re-check one constructed N.

    exponents are the raw window exponents l_1 < ... < l_m with
    p_i = a^{l_i} * n + 1 and N = p_1 * ... * p_m. kappa_N is rad(a*n),
    which equals rad(phi(N)) and divides N-1. The witness pair shows
    N mod (a^{l_2} * n) = p_1 != 1, so p_2 - 1 cannot divide N - 1 and
    Korselt's criterion fails. sufficient_condition_held records whether
    sum(l_i - b) < b, the shortcut that alone forces index <= m+1.
    """
    a: int
    b: int
    n: int
    exponents: tuple[int, ...]
    primes: tuple[int, ...]
    N: int
    kappa_N: int
    lehmer_index: int | None
    non_carmichael_modulus: int
    non_carmichael_residue: int
    sufficient_condition_held: bool
    probable_prime_flag: bool
    gcd_a_n: int


def scan_tuple(spec: TupleSpec, n: int) -> TupleHit:
    """List exactly the window exponents l with a^l * n + 1 prime."""
    if not spec.n_min <= n <= spec.n_max:
        raise ValueError(f"n={n} outside [{spec.n_min}, {spec.n_max}]")
    lo, hi = spec.window
    found = []
    value = spec.a**lo * n
    for l in range(lo, hi + 1):
        if prime_verdict(value + 1):
            found.append((l, value + 1))
        value *= spec.a
    return TupleHit(spec, n, tuple(found))


def _phi_valuations(a_factors, n_factors, exponent_sum: int, m: int
                    ) -> dict[int, int]:
    """Prime valuations of phi(N) for N a product of m tuple primes.

    phi(N) = a^sum(l_i) * n^m with every l_i >= 1, so its valuations come
    from the factorizations of a and n only, and rad(phi(N)) = rad(a*n).
    """
    phi_vals = {q: e * exponent_sum for q, e in a_factors}
    for q, e in n_factors:
        phi_vals[q] = phi_vals.get(q, 0) + e * m
    return phi_vals


def _certificate(a: int, b: int, n: int,
                 exponents: tuple[int, ...]) -> RadimichaelCertificate:
    """The certificate for a, b, n and the exponents, every field derived
    from those four values and none tested for primality.

    build_radimichael and verify_certificate both compare against it, so each
    field is computed in this one place.
    """
    primes = tuple(a**l * n + 1 for l in exponents)
    big_n = prod(primes)
    modulus = primes[1] - 1
    # rad(a*n) from a and n apart: a*n itself may pass 2**64
    phi_vals = _phi_valuations(factorize(a).factors, factorize(n).factors,
                               sum(exponents), len(exponents))
    return RadimichaelCertificate(
        a=a,
        b=b,
        n=n,
        exponents=exponents,
        primes=primes,
        N=big_n,
        kappa_N=prod(phi_vals),
        lehmer_index=lehmer_index_from_factors(phi_vals.items(), big_n - 1),
        non_carmichael_modulus=modulus,
        non_carmichael_residue=big_n % modulus,
        sufficient_condition_held=sum(l - b for l in exponents) < b,
        # at or above 2**64 a prime verdict is strong-probable-prime, not exact
        probable_prime_flag=any(p >= U64_LIMIT for p in primes),
        gcd_a_n=gcd(a, n),
    )


def build_radimichael(hit: TupleHit, m: int,
                      subset: tuple[int, ...] | None = None) -> RadimichaelCertificate:
    """Certify the product of m primes from a tuple hit.

    By default the m smallest primes are taken (exponent 0 entries are never
    selectable: the certificate identities need every p_i - 1 divisible by
    a*n). Pass `subset` (exponents) to certify a specific selection. The
    certificate is re-verified before being returned; a failure raises
    CertificateViolationError rather than emitting a bad record. Only the
    self-check tests primality again.
    """
    usable = [(l, p) for l, p in hit.hits if l >= 1]
    if subset is None:
        if len(usable) < m:
            raise InsufficientHitsError(
                f"need {m} primes at exponents >= 1, found {len(usable)} for n={hit.n}")
        chosen = usable[:m]
    else:
        if len(subset) != m:
            raise ValueError(f"subset has {len(subset)} exponents, expected m={m}")
        by_exp = dict(usable)
        try:
            chosen = sorted((l, by_exp[l]) for l in subset)
        except KeyError as exc:
            raise InsufficientHitsError(f"exponent {exc} not among usable hits") from exc

    exponents, primes = zip(*chosen)
    cert = _certificate(hit.spec.a, hit.spec.b, hit.n, exponents)
    if cert.primes != primes:
        raise CertificateViolationError(f"hit primes {primes} are not {cert.primes}")
    if not verify_certificate(cert):
        raise CertificateViolationError(f"self-check failed for N={cert.N}")
    return cert


def non_carmichael_check(cert: RadimichaelCertificate) -> bool:
    """Confirm the witness that N is not Carmichael.

    True iff the modulus is p_2 - 1 and N mod (p_2 - 1) is p_1 != 1; were
    N Carmichael, Korselt would force that residue to be 1. For N below
    2**64 the verdict is additionally cross-checked against the Korselt test
    itself (an independent route: lcm of p-1 instead of the residue
    argument). The cross-check uses the certificate's listed primes;
    verify_certificate establishes their primality and product before
    relying on this.
    """
    try:
        p1, p2 = cert.primes[:2]
        modulus, residue = cert.non_carmichael_modulus, cert.non_carmichael_residue
        if modulus != p2 - 1 or cert.N % modulus != residue:
            return False
        if residue != p1 or p1 == 1:
            return False
        if cert.N < U64_LIMIT:
            f = Factorization(cert.N, tuple((p, 1) for p in cert.primes))
            if is_carmichael(cert.N, f):
                return False
    except (ValueError, TypeError, ZeroDivisionError):
        return False
    return True


def verify_certificate(cert: RadimichaelCertificate) -> bool:
    """Re-verify a certificate from scratch; False on any discrepancy.

    Every field must equal the one _certificate derives from a, b, n and the
    exponents. Then every component must be prime, kappa(N) must divide
    N-1, the non-Carmichael witness must hold, and the Lehmer index must
    pass the big-integer divisibility oracle at k and fail it at k-1.
    """
    try:
        a, n, exponents, primes = cert.a, cert.n, cert.exponents, cert.primes
        if a < 2 or cert.b < 0 or n < 1 or len(primes) < 2:
            return False
        if len(exponents) != len(primes) or exponents[0] < 1:
            return False
        if any(lo >= hi for lo, hi in zip(exponents, exponents[1:])):
            return False
        # a^l >= 2^(l*(bits(a)-1)), so a huge exponent is refused before
        # a^l is built
        if any(l * (a.bit_length() - 1) >= p.bit_length()
               for l, p in zip(exponents, primes)):
            return False
        if cert != _certificate(a, cert.b, n, exponents):
            return False
        if not all(prime_verdict(p) for p in primes):
            return False
        if (cert.N - 1) % cert.kappa_N != 0 or not non_carmichael_check(cert):
            return False
        k = cert.lehmer_index
        f = Factorization(cert.N, tuple((p, 1) for p in primes))
        return is_k_lehmer(cert.N, k, f) and not (k >= 2 and is_k_lehmer(cert.N, k - 1, f))
    except (ValueError, TypeError):
        return False


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def _eligible_subsets(hit: TupleHit, m: int, all_subsets: bool):
    usable = [l for l, _ in hit.hits if l >= 1]
    if len(usable) < m:
        return
    if all_subsets:
        yield from combinations(usable, m)
    else:
        yield tuple(usable[:m])


def _on_target(hit: TupleHit, subsets: list[tuple[int, ...]],
               target: int) -> list[tuple[int, ...]]:
    """The subsets whose product has Lehmer index `target` or satisfies the
    sufficient condition sum(l_i - b) < b, with the index computed from
    valuations, before anything is certified."""
    b = hit.spec.b
    primes = dict(hit.hits)
    a_factors = factorize(hit.spec.a).factors
    n_factors = factorize(hit.n).factors
    kept = []
    for subset in subsets:
        if sum(l - b for l in subset) >= b:
            phi_vals = _phi_valuations(a_factors, n_factors, sum(subset),
                                       len(subset))
            n_minus_1 = prod(primes[l] for l in subset) - 1
            if lehmer_index_from_factors(phi_vals.items(), n_minus_1) != target:
                continue
        kept.append(subset)
    return kept


def _search_chunk(spec: TupleSpec, ns: range, all_subsets: bool,
                  target: int | None) -> list[RadimichaelCertificate]:
    """Certify the eligible products for each n in `ns`; with a `target`
    index, only those _on_target keeps."""
    out = []
    for n in ns:
        hit = scan_tuple(spec, n)
        subsets = list(_eligible_subsets(hit, spec.m, all_subsets))
        if target is not None and subsets:
            subsets = _on_target(hit, subsets, target)
        for subset in subsets:
            out.append(build_radimichael(hit, spec.m, subset))
    return out


def _search(spec: TupleSpec, all_subsets: bool, workers: int,
            target: int | None) -> list[RadimichaelCertificate]:
    """_search_chunk over spec's n range, in n order for any worker count:
    unit u of U takes every U-th n from n_min + u, so a merge by n keeps
    the certificates of each n, which all come from one unit, in order."""
    def work(unit: int, units: int) -> list[RadimichaelCertificate]:
        return _search_chunk(spec, range(spec.n_min + unit, spec.n_max + 1, units),
                             all_subsets, target)
    parts = fork_map(work, min(workers, spec.n_max - spec.n_min + 1))
    return list(heapq.merge(*parts, key=attrgetter("n")))


def search_radimichael(spec: TupleSpec, *, all_subsets: bool = False,
                       workers: int = 1) -> list[RadimichaelCertificate]:
    """Scan spec's n range and certify every qualifying product.

    Default selection is the m smallest usable primes per hit;
    all_subsets=True certifies every size-m selection instead. Results are
    ordered by n (then by selection), independent of worker count.
    """
    check_workers(workers)
    return _search(spec, all_subsets, workers, None)


def theorem2_search(a: int, k: int, s: int, n_range: range, *, b: int = 0,
                    workers: int = 1,
                    diagnostics: list[RadimichaelCertificate] | None = None,
                    ) -> list[RadimichaelCertificate]:
    """Hunt members of L_k \\ L_{k-1} with exactly k-1 prime factors.

    Uses m = k-1 and the window (max(b, 1), b+s): exponent 0 is never
    selectable, so at b = 0 the window has s slots, otherwise s+1. The
    exact index of every size-m selection of primes per n is computed from
    valuations first, and only products of index k, or with the sufficient
    condition sum(l_i - b) < b held, are certified; certificates of index
    k are returned. Certificates where the sufficient condition held but
    the index came out different are appended to `diagnostics` (and
    logged), never silently dropped. k = 2 is rejected: no product of a
    single tuple prime can land in L_2 \\ L_1, and semiprimes never do.
    `n_range` must have step 1.
    """
    check_workers(workers)
    if k < 3:
        raise ValueError("theorem2_search requires k >= 3")
    if n_range.step != 1:
        raise ValueError(f"n_range needs step 1, got {n_range.step}")
    if len(n_range) == 0:
        return []
    m = k - 1
    spec = TupleSpec(a=a, b=b, s=s, m=m, n_min=n_range[0], n_max=n_range[-1],
                     window=(max(b, 1), b + s))
    emitted = []
    for cert in _search(spec, True, workers, k):
        if cert.lehmer_index == k:
            emitted.append(cert)
        elif cert.sufficient_condition_held:
            import logging  # imported only on this unexpected path
            logging.getLogger(__name__).warning(
                "sufficient condition held but index=%s != %s for N=%s",
                cert.lehmer_index, k, cert.N)
            if diagnostics is not None:
                diagnostics.append(cert)
    return emitted


# ---------------------------------------------------------------------------
# certificate wire format: one JSON object per line, integers in decimal
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return type(value) is int  # JSON integers only: bools and floats fail


def _is_ints(value) -> bool:
    return type(value) is list and all(map(_is_int, value))


def _is_bool(value) -> bool:
    return type(value) is bool


def _is_index(value) -> bool:
    return value is None or _is_int(value)


# wire fields in serialization order, each with the only JSON type it takes
_CERT_FIELDS = {
    "a": _is_int, "b": _is_int, "n": _is_int,
    "exponents": _is_ints, "primes": _is_ints,
    "N": _is_int, "kappa_N": _is_int, "lehmer_index": _is_index,
    "non_carmichael_modulus": _is_int, "non_carmichael_residue": _is_int,
    "sufficient_condition_held": _is_bool, "probable_prime_flag": _is_bool,
    "gcd_a_n": _is_int,
}


def certificate_to_line(cert: RadimichaelCertificate) -> str:
    record = {name: getattr(cert, name) for name in _CERT_FIELDS}
    record["exponents"] = list(cert.exponents)
    record["primes"] = list(cert.primes)
    return json.dumps(record, separators=(",", ":"))


def certificate_from_line(line: str) -> RadimichaelCertificate:
    """Parse one serialized certificate; malformed input raises ValueError.

    Only what certificate_to_line writes is accepted: exactly the wire
    fields, each with its own JSON type (no numeric strings, floats, or
    0/1 for booleans).
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a JSON record: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError("certificate record must be a JSON object")
    missing = [name for name in _CERT_FIELDS if name not in record]
    if missing:
        raise ValueError(f"certificate record missing fields: {missing}")
    unknown = sorted(set(record) - set(_CERT_FIELDS))
    if unknown:
        raise ValueError(f"certificate record has unknown fields: {unknown}")
    bad = [name for name, ok in _CERT_FIELDS.items() if not ok(record[name])]
    if bad:
        raise ValueError(f"certificate fields of the wrong JSON type: {bad}")
    record["exponents"] = tuple(record["exponents"])
    record["primes"] = tuple(record["primes"])
    return RadimichaelCertificate(**record)


def write_certificates(certs: Iterable[RadimichaelCertificate],
                       stream: TextIO) -> int:
    count = 0
    for cert in certs:
        stream.write(certificate_to_line(cert) + "\n")
        count += 1
    return count


def read_certificates(stream: TextIO) -> list[RadimichaelCertificate]:
    certs = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            certs.append(certificate_from_line(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return certs
