"""Property-based tests, derandomized so that a failure reproduces."""

from dataclasses import fields, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_json_lines_equal_csv
from radimichael.classify import classify
from radimichael.construct import (
    TupleSpec,
    certificate_from_line,
    certificate_to_line,
    search_radimichael,
    verify_certificate,
)
from radimichael.survey import K_MAX_LIMIT, survey

WINDOW = 2 * 10**4


@settings(derandomize=True, max_examples=3, deadline=None)
@given(lo=st.integers(1, 10**7),
       cuts=st.lists(st.integers(0, WINDOW), max_size=3))
def test_survey_window_counts_equal_the_naive_loop(lo, cuts):
    hi = lo + WINDOW
    checkpoints = sorted({lo - 1, hi, *(lo + cut for cut in cuts)} - {0})
    rows = survey(hi, checkpoints=checkpoints).rows
    assert [row.checkpoint for row in rows] == checkpoints
    base = rows[0] if checkpoints[0] == lo - 1 else None
    classes = [classify(n) for n in range(lo, hi + 1)]
    for row in rows:
        if row is base:
            continue
        window = classes[:row.checkpoint - lo + 1]
        radi = [c for c in window if c.radimichael]

        def delta(field):
            return getattr(row, field) - (getattr(base, field) if base else 0)

        assert delta("composites") == sum(c.category == "composite" for c in window)
        assert delta("carmichael") == sum(c.carmichael for c in window)
        assert delta("radimichael") == len(radi)
        assert delta("omega2") == sum(c.omega == 2 for c in radi)
        assert delta("omega3") == sum(c.omega == 3 for c in radi)
        assert delta("omega4plus") == sum(c.omega >= 4 for c in radi)
        for k in range(1, len(row.lehmer) + 1):
            below = base.lehmer[k - 1] if base else 0
            assert row.lehmer[k - 1] - below == sum(c.lehmer_index <= k for c in radi)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(limit=st.integers(1, 10**5), k_max=st.integers(1, K_MAX_LIMIT),
       fractions=st.lists(st.floats(0, 1), max_size=6))
def test_json_lines_round_trip_for_random_checkpoints(limit, k_max, fractions):
    checkpoints = [max(1, round(f * limit)) for f in fractions]
    assert_json_lines_equal_csv(survey(limit, k_max, checkpoints=checkpoints))


# valid certificates of four kinds: three components, a base other than 2,
# components at or above 2**64, and a*n at or above 2**64
CERTIFICATES = [cert for spec in (
    TupleSpec(a=2, b=0, s=8, m=3, n_min=1, n_max=30),
    TupleSpec(a=3, b=2, s=6, m=2, n_min=1, n_max=20),
    TupleSpec(a=2, b=64, s=8, m=2, n_min=9, n_max=9),
    TupleSpec(a=2**40, b=0, s=4, m=2, n_min=16777482, n_max=16777482),
) for cert in search_radimichael(spec)]
CERT_FIELDS = [field.name for field in fields(CERTIFICATES[0])]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cert=st.sampled_from(CERTIFICATES), field=st.sampled_from(CERT_FIELDS),
       shift=st.sampled_from([-3, -2, -1, 1, 2, 3]))
def test_every_single_field_mutation_fails_verification(cert, field, shift):
    value = getattr(cert, field)
    if isinstance(value, bool):
        value = not value
    elif isinstance(value, tuple):
        value = value[:-1] + (value[-1] + shift,)
    else:
        value += shift
    mutant = replace(cert, **{field: value})
    assert certificate_from_line(certificate_to_line(cert)) == cert
    assert certificate_from_line(certificate_to_line(mutant)) == mutant
    if field == "b":
        # b is window bookkeeping: it only decides sufficient_condition_held
        held = sum(l - value for l in cert.exponents) < value
        expected = value >= 0 and held == cert.sufficient_condition_held
    else:
        expected = False
    assert verify_certificate(mutant) == expected
