"""Geometric prime-tuple searches and self-verifying radimichael certificates.

A tuple spec fixes a base a, shift b, and window of exponents; for each n the
scan records which a^l * n + 1 are prime. Products of m such primes are
radimichael numbers, and every certificate built here carries the data needed
to re-verify that claim, the non-Carmichael witness, and the exact Lehmer
index from scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import chain, combinations
from math import gcd, prod
from typing import Generator, Iterable, Iterator, TextIO

from .arith import Factorization, U64_LIMIT, factorize, prime_verdict
from .classify import is_carmichael, is_k_lehmer, lehmer_index_from_phi
from .workers import check_workers, fork_map

# Largest bit length of a tuple prime a^l * n + 1 that a spec may produce and
# that `verify` will test. Proving one component at the cap prime costs two
# modular powers per prime of a*n, plus one per base that is passed over.
MAX_COMPONENT_BITS = 2048

# Largest bit length of a certificate's N: at most 4,300 decimal digits, the
# default int <-> str limit, so its record can be written and read back.
MAX_CERTIFICATE_BITS = (10**4300).bit_length() - 1


class CertificateViolationError(RuntimeError):
    """A freshly built certificate failed its own re-verification."""


@dataclass(frozen=True)
class TupleSpec:
    """Search parameters: primes of the form a^l * n + 1 for l in `window`.

    The default window (b+1, b+s) has s slots; stream_theorem2 passes its
    own, and verify_certificate one spanning a record's exponents. Both
    bounds are inclusive, and exponents start at 1: at l = 0, p - 1 = n is
    not divisible by a*n, as the certificate identities need.
    """
    a: int
    b: int
    s: int
    m: int
    n_min: int = 1
    n_max: int = 1
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if any(type(v) is not int
               for v in (self.a, self.b, self.s, self.m, self.n_min, self.n_max)):
            raise ValueError("a, b, s, m, n_min and n_max must be ints")
        if self.window is None:
            object.__setattr__(self, "window", (self.b + 1, self.b + self.s))
        elif (type(self.window) is not tuple or len(self.window) != 2
              or any(type(v) is not int for v in self.window)):
            raise ValueError(f"window must be a tuple of two ints, got {self.window!r}")
        if self.a < 2 or self.b < 0 or self.s < 1 or self.m < 2:
            raise ValueError("need a >= 2, b >= 0, s >= 1, m >= 2")
        if self.a >= U64_LIMIT or self.n_max >= U64_LIMIT:
            # a and every n are factored to certify a product
            raise ValueError("need a < 2**64 and n_max < 2**64")
        lo, hi = self.window
        if not 1 <= lo <= hi:
            raise ValueError(f"exponent window {self.window} is empty or starts below 1")
        if self.m > hi - lo + 1:
            raise ValueError(f"m={self.m} exceeds the {hi - lo + 1}-slot window")
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError(f"need 1 <= n_min <= n_max, got {self.n_min}, {self.n_max}")
        bits = _component_bits(self.a, hi, self.n_max)
        if bits > MAX_COMPONENT_BITS:
            raise ValueError(f"largest component {self.a}^{hi} * {self.n_max} + 1 "
                             f"exceeds {MAX_COMPONENT_BITS} bits")
        if self.m * bits > MAX_CERTIFICATE_BITS:
            raise ValueError(f"{self.m} components of {bits} bits can exceed the "
                             f"{MAX_CERTIFICATE_BITS}-bit (4,300 decimal digit) N cap")

    def admit(self, n: int, exponents: tuple[int, ...] | None = None) -> None:
        """Refuse with ValueError any request but an int n in [n_min, n_max]
        with, if given, m strictly increasing int exponents inside window:
        the one rule that scan_tuple, build_radimichael and
        verify_certificate each apply before a power is built."""
        if type(n) is not int or not self.n_min <= n <= self.n_max:
            raise ValueError(f"need an int n in [{self.n_min}, {self.n_max}], got {n!r}")
        lo, hi = self.window
        if exponents is not None and (
                len(exponents) != self.m or any(type(l) is not int for l in exponents)
                or any(l >= r for l, r in zip((lo - 1, *exponents), (*exponents, hi + 1)))):
            raise ValueError(f"need {self.m} strictly increasing int exponents in "
                             f"[{lo}, {hi}], got {exponents!r}")


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
class RadimichaelCertificate:
    """Everything needed to independently re-check one constructed N.

    exponents are the raw window exponents l_1 < ... < l_m with
    p_i = a^{l_i} * n + 1 and N = p_1 * ... * p_m. kappa_N is rad(a*n),
    which equals rad(phi(N)) and divides N-1. The witness pair shows
    N mod (a^{l_2} * n) = p_1 != 1, so p_2 - 1 cannot divide N - 1 and
    Korselt's criterion fails. sufficient_condition_held records whether
    sum(l_i - b) < b; with l_1 >= b, as in every search's window, the index
    is then m+1, the least any selection has (see stream_theorem2).

    The fields, in order, and their annotations are the wire schema:
    certificate_to_line writes them and certificate_from_line admits each
    only with the JSON type its annotation names.

    probable_prime_flag is exactly "some component is at or above 2^64".
    Such components are proved prime by Pocklington's theorem, so the flag
    no longer marks a probable verdict. It keeps this value so that every
    record written before still verifies and the reference digests hold;
    setting it to false changes those bytes, and waits for a change that
    updates the digests with it.
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


def _rad_primes(a: int, n: int) -> tuple[int, ...]:
    """The distinct primes of a*n, ascending: those of every a^l * n for
    l >= 1, found from a and n apart, since a*n itself may pass 2**64."""
    return tuple(sorted({p for m in (a, n) for p, _ in factorize(m).factors}))


def _pocklington_primes(a: int, n: int, largest: int) -> tuple[int, ...]:
    """The primes of a*n if `largest`, the greatest component a^l * n + 1,
    is at or above 2**64, else (): components grow with l, so those below
    2**64 need no primes of p - 1, and the rest are proved prime from them."""
    return _rad_primes(a, n) if largest >= U64_LIMIT else ()


def scan_tuple(spec: TupleSpec, n: int) -> tuple[tuple[int, int], ...]:
    """The (l, a^l * n + 1) pairs, ascending, for exactly the window
    exponents l with a^l * n + 1 prime. spec must admit n."""
    spec.admit(n)
    lo, hi = spec.window
    found = []
    pm1_primes = _pocklington_primes(spec.a, n, spec.a**hi * n + 1)
    value = spec.a**lo * n
    for l in range(lo, hi + 1):
        if prime_verdict(value + 1, pm1_primes):
            found.append((l, value + 1))
        value *= spec.a
    return tuple(found)


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
    return RadimichaelCertificate(
        a=a,
        b=b,
        n=n,
        exponents=exponents,
        primes=primes,
        N=big_n,
        kappa_N=prod(_rad_primes(a, n)),
        lehmer_index=lehmer_index_from_phi(prod(p - 1 for p in primes), big_n - 1),
        non_carmichael_modulus=modulus,
        non_carmichael_residue=big_n % modulus,
        sufficient_condition_held=sum(l - b for l in exponents) < b,
        # "a component at or above 2**64": proved prime, but flagged as
        # before so that earlier records and the reference digests hold
        probable_prime_flag=any(p >= U64_LIMIT for p in primes),
        gcd_a_n=gcd(a, n),
    )


def build_radimichael(spec: TupleSpec, n: int,
                      exponents: tuple[int, ...]) -> RadimichaelCertificate:
    """Certify the product of the primes a^l * n + 1 for the given exponents.

    spec must admit the request (TupleSpec.admit); any other is refused
    with ValueError before a power is built. The certificate is
    re-verified before being returned: a composite component, or any other
    failure, raises CertificateViolationError rather than emitting a bad
    record. Only the self-check tests primality.
    """
    exponents = tuple(exponents)
    spec.admit(n, exponents)
    cert = _certificate(spec.a, spec.b, n, exponents)
    if not verify_certificate(cert):
        raise CertificateViolationError(f"self-check failed for N={cert.N}")
    return cert


def oversize(cert: RadimichaelCertificate) -> str | None:
    """Why the record is past a size cap, or None: a listed component over
    MAX_COMPONENT_BITS, or a listed N over MAX_CERTIFICATE_BITS."""
    for what, bits, cap in (
            ("component", max((p.bit_length() for p in cert.primes), default=0),
             MAX_COMPONENT_BITS),
            ("N", cert.N.bit_length(), MAX_CERTIFICATE_BITS)):
        if bits > cap:
            return f"a {bits}-bit {what} exceeds the {cap}-bit cap"
    return None


def verify_certificate(cert: RadimichaelCertificate) -> bool:
    """Re-verify a certificate from scratch; False on any discrepancy.

    A TupleSpec must admit the record over the window its exponents span,
    so that every power and product built here is within the spec's size
    caps. Every field must then equal the one _certificate derives from a,
    b, n and the exponents. Then every component must be prime and
    kappa(N) must divide N-1. The non-Carmichael witness must hold:
    N mod (p_2 - 1) is p_1 != 1, so p_2 - 1 does not divide N - 1, which
    Korselt's test on the listed primes must confirm as an independent
    route. Last, the Lehmer index must pass the big-integer divisibility
    oracle at k and fail it at k-1.
    """
    try:
        a, n, exponents, primes = cert.a, cert.n, cert.exponents, cert.primes
        TupleSpec(a=a, b=cert.b, s=1, m=len(exponents), n_min=n, n_max=n,
                  window=(exponents[0], exponents[-1])).admit(n, exponents)
        if cert != _certificate(a, cert.b, n, exponents):
            return False
        pm1_primes = _pocklington_primes(a, n, primes[-1])
        if not all(prime_verdict(p, pm1_primes) for p in primes):
            return False
        f = Factorization(cert.N, tuple((p, 1) for p in primes))
        if ((cert.N - 1) % cert.kappa_N != 0 or cert.non_carmichael_residue != primes[0]
                or primes[0] == 1 or is_carmichael(cert.N, f)):
            return False
        k = cert.lehmer_index
        return is_k_lehmer(cert.N, k, f) and not (k >= 2 and is_k_lehmer(cert.N, k - 1, f))
    except (ValueError, TypeError, IndexError):
        return False


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def _certified(spec: TupleSpec, n: int, all_subsets: bool,
               target: int | None) -> list[RadimichaelCertificate]:
    """Scan n and certify its products of m primes: the m smallest,
    or with all_subsets every size-m selection. With a `target` index only
    the selections whose product has that index, computed from phi(N) and
    N-1, are certified."""
    primes = dict(scan_tuple(spec, n))
    if len(primes) < spec.m:
        return []
    subsets = combinations(primes, spec.m) if all_subsets else [tuple(primes)[:spec.m]]
    if target is not None:
        def on_target(subset: tuple[int, ...]) -> bool:
            chosen = [primes[l] for l in subset]
            return lehmer_index_from_phi(prod(p - 1 for p in chosen),
                                         prod(chosen) - 1) == target
        subsets = filter(on_target, subsets)
    return [build_radimichael(spec, n, subset) for subset in subsets]


def _search(spec: TupleSpec, all_subsets: bool, workers: int, target: int | None
            ) -> Generator[RadimichaelCertificate, None, None]:
    """_certified's certificates for each n of spec's range, in n order for
    any worker count: unit u of U takes every U-th n from n_min + u, so
    taking the units' pieces in turn visits n in order. Closing this stops
    the search's workers."""
    def work(unit: int, units: int) -> Iterator[list[RadimichaelCertificate]]:
        return (_certified(spec, n, all_subsets, target)
                for n in range(spec.n_min + unit, spec.n_max + 1, units))
    pieces = fork_map(work, min(workers, spec.n_max - spec.n_min + 1))
    try:
        yield from chain.from_iterable(pieces)
    finally:
        pieces.close()


def stream_radimichael(spec: TupleSpec, *, all_subsets: bool = False,
                       workers: int = 1
                       ) -> Generator[RadimichaelCertificate, None, None]:
    """Scan spec's n range and certify every qualifying product, yielding
    each n's certificates once that n and every n before it are done.

    Default selection is the m smallest primes per n;
    all_subsets=True certifies every size-m selection instead. Results are
    ordered by n (then by selection), independent of worker count. The
    parameters are checked on the call, before any search or fork; closing
    the generator stops the search and its workers.
    """
    check_workers(workers)
    return _search(spec, all_subsets, workers, None)


def search_radimichael(spec: TupleSpec, *, all_subsets: bool = False,
                       workers: int = 1) -> list[RadimichaelCertificate]:
    """stream_radimichael's certificates as a list."""
    return list(stream_radimichael(spec, all_subsets=all_subsets, workers=workers))


def stream_theorem2(a: int, k: int, s: int, n_range: range, *, b: int = 0,
                    workers: int = 1) -> Generator[RadimichaelCertificate, None, None]:
    """Hunt members of L_k \\ L_{k-1} with exactly k-1 prime factors,
    yielding each n's certificates once that n and every n before it are
    done.

    Uses m = k-1 and the window (max(b, 1), b+s): exponents start at 1, so
    at b = 0 the window has s slots, otherwise s+1. Of every size-m
    selection of primes per n, only the products whose exact index,
    computed from phi(N) and N-1, is k are certified and yielded.

    No selection has index below k. Take a prime q | a, v = v_q(a) >= 1 and
    w = v_q(n); phi(N) = a^(sum l_i) * n^m has v_q = v*sum(l_i) + m*w. N-1 is
    the sum over nonempty S of prod_{i in S} a^(l_i) * n, whose term
    a^(l_1) * n has v_q = v*l_1 + w and every other term more (a larger l_i
    or two factors), so v_q(N-1) = v*l_1 + w. As sum(l_i) > m*l_1, phi
    does not divide (N-1)^m: the index is at least m+1 = k.

    k = 2 is rejected: no product of a single tuple prime can land in
    L_2 \\ L_1, and semiprimes never do. `n_range` must be a range of
    step 1 whose ends n_min = start and n_max = stop - 1 obey construct's
    rule, 1 <= n_min <= n_max < 2**64: an empty range is refused. The
    parameters are checked on the call, before any search or fork; closing
    the generator stops the search and its workers.
    """
    check_workers(workers)
    if k < 3:
        raise ValueError("theorem2 requires k >= 3")
    if type(n_range) is not range or n_range.step != 1:
        raise ValueError(f"n_range needs a range of step 1, got {n_range!r}")
    spec = TupleSpec(a=a, b=b, s=s, m=k - 1, n_min=n_range.start,
                     n_max=n_range.stop - 1, window=(max(b, 1), b + s))
    return _search(spec, True, workers, k)


def theorem2_search(a: int, k: int, s: int, n_range: range, *, b: int = 0,
                    workers: int = 1) -> list[RadimichaelCertificate]:
    """stream_theorem2's certificates as a list."""
    return list(stream_theorem2(a, k, s, n_range, b=b, workers=workers))


# ---------------------------------------------------------------------------
# certificate wire format: one JSON object per line, integers in decimal
# ---------------------------------------------------------------------------

# each field annotation with the only JSON values it takes: JSON integers
# only, so that bools and floats fail an int
_WIRE_TYPES = {
    "int": lambda v: type(v) is int,
    "tuple[int, ...]": lambda v: type(v) is list and all(type(x) is int for x in v),
    "int | None": lambda v: v is None or type(v) is int,
    "bool": lambda v: type(v) is bool,
}

# wire fields in serialization order, each with its JSON type test
_CERT_FIELDS = {f.name: _WIRE_TYPES[f.type] for f in fields(RadimichaelCertificate)}


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    record = dict(pairs)
    if len(record) != len(pairs):
        raise ValueError("certificate record repeats a field")
    return record


def certificate_to_line(cert: RadimichaelCertificate) -> str:
    return json.dumps({name: getattr(cert, name) for name in _CERT_FIELDS},
                      separators=(",", ":"))


def certificate_from_line(line: str) -> RadimichaelCertificate:
    """Parse one serialized certificate; malformed input raises ValueError.

    Only what certificate_to_line writes is accepted: exactly the wire
    fields, each once and with its own JSON type (no numeric strings,
    floats, or 0/1 for booleans).
    """
    try:
        record = json.loads(line, object_pairs_hook=_unique_fields)
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
    return RadimichaelCertificate(**{name: tuple(value) if type(value) is list else value
                                     for name, value in record.items()})


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
