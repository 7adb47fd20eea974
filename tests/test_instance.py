"""Parsing, validation, and canonical serialization of instance documents."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    DEMO_DOC,
    LONG_NUMBER_INSTANCES,
    instance_document,
    instances,
    make_instance,
    requires_digit_limit,
    serialize_instance,
)
from dmsiplan import (
    ClientSpec,
    DmsiInstance,
    InstanceError,
    format_rational,
    parse_instance,
    parse_rational,
)
from dmsiplan.instance import scaled_delays


def test_demo_document_parses(demo_instance):
    assert demo_instance.n == 6
    assert demo_instance.k == 4
    assert demo_instance.delays() == (Fraction(8), Fraction(4), Fraction(2), Fraction(1))
    assert demo_instance.want_counts() == (2, 1, 3, 5)
    assert demo_instance.delay_ranking() == (0, 1, 2, 3)
    assert demo_instance.clients[0].has == frozenset({0, 2, 4, 5})


def test_bandwidth_form_equals_delay_form(demo_instance):
    path = Path(__file__).resolve().parent.parent / "data" / "demo_instance.json"
    assert parse_instance(path.read_text()) == demo_instance


def test_packet_size_divides_exactly():
    inst = parse_instance(
        '{"n": 1, "packet_size": "3/2", "clients": [{"has": [], "bandwidth": 6}]}'
    )
    assert inst.clients[0].delay == Fraction(1, 4)


def test_ranking_breaks_ties_by_client_order():
    inst = make_instance(2, [set(), set(), set()], [3, 5, 3])
    assert inst.delay_ranking() == (1, 0, 2)
    inst = make_instance(2, [set(), set(), set()], [7, 7, 7])
    assert inst.delay_ranking() == (0, 1, 2)


def test_scaled_delays_use_the_lcm_of_the_denominators():
    assert scaled_delays((Fraction(1, 2), Fraction(2, 3), Fraction(0), Fraction(5))) == (
        6,
        (3, 4, 0, 30),
    )
    assert scaled_delays(()) == (1, ())


def test_zero_delay_is_accepted_and_ranks_last():
    inst = make_instance(2, [set(), {0}], [0, 4])
    assert inst.delays()[0] == 0
    assert inst.delay_ranking() == (1, 0)


@pytest.mark.parametrize(
    "value,expected",
    [
        (5, Fraction(5)),
        ("7/2", Fraction(7, 2)),
        ("8", Fraction(8)),
        (0, Fraction(0)),
        # ASCII whitespace around the digits: space, tab, CR, LF
        (" 3 ", Fraction(3)),
        ("\t3/4\r\n", Fraction(3, 4)),
    ],
)
def test_parse_rational_accepts(value, expected):
    assert parse_rational(value) == expected


@pytest.mark.parametrize(
    "value",
    [0.5, "3.5", "-2", "2/-3", True, False, None, [1], "1/0", "a/b", "", "\u0663", "\uff13/\u0664"]
    # any other whitespace: ideographic, no-break, em space, VT, FF, NEL
    + [space + "3/4" for space in ("\u3000", "\xa0", "\u2003", "\x0b", "\x0c", "\x85")],
)
def test_parse_rational_rejects(value):
    with pytest.raises(InstanceError):
        parse_rational(value)


def test_format_rational_round_trips():
    assert format_rational(Fraction(8)) == 8
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"clients": []}',
        '{"n": 2}',
        '{"n": -1, "clients": []}',
        '{"n": 2.0, "clients": []}',
        '{"n": true, "clients": []}',
        '{"n": 2, "clients": [], "extra": 1}',
        '{"n": 2, "clients": [[]]}',
        '{"n": 2, "clients": [{"delay": 1}]}',
        '{"n": 2, "clients": [{"has": [1], "delay": 1, "bandwidth": 1}]}',
        '{"n": 2, "clients": [{"has": [1]}]}',
        '{"n": 2, "clients": [{"has": [1], "dela": 1}]}',
        '{"n": 2, "clients": [{"has": [0], "delay": 1}]}',
        '{"n": 2, "clients": [{"has": [3], "delay": 1}]}',
        '{"n": 2, "clients": [{"has": [1, 1], "delay": 1}]}',
        '{"n": 2, "clients": [{"has": [true], "delay": 1}]}',
        '{"n": 2, "clients": [{"has": 1, "delay": 1}]}',
        '{"n": 2, "clients": [{"has": [1], "delay": 0.25}]}',
        '{"n": 2, "clients": [{"has": [1], "bandwidth": 2}]}',
        '{"n": 2, "packet_size": 8, "clients": [{"has": [1], "bandwidth": 0}]}',
        '{"n": 2, "clients": [{"has": [1], "delay": -1}]}',
        '{"n": 2, "packet_size": -8, "clients": [{"has": [1], "bandwidth": 2}]}',
        '{"n": 2, "packet_size": 8, "clients": [{"has": [1], "bandwidth": -2}]}',
        '{"n": 2, "packet_size": -8, "clients": [{"has": [1], "bandwidth": -2}]}',
        # digits outside ASCII: Arabic-Indic 3, then fullwidth 3 over Arabic-Indic 4
        '{"n": 2, "clients": [{"has": [1], "delay": "\\u0663"}]}',
        '{"n": 2, "packet_size": "\\uff13/\\u0664", "clients": [{"has": [1], "bandwidth": 1}]}',
        '{"n": 2, "packet_size": 8, "clients": [{"has": [1], "bandwidth": "\\u0662"}]}',
        # spaces outside ASCII: an ideographic space before 3, a no-break space before 3/4
        '{"n": 2, "clients": [{"has": [1], "delay": "\\u30003"}]}',
        '{"n": 2, "clients": [{"has": [1], "delay": "\\u00a03/4"}]}',
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(InstanceError):
        parse_instance(text)


def has_fault(raw_has, n):
    """The message for the first bad entry of client 1's 'has' list, entry by
    entry as the parser has always checked it, or None for a good list."""
    seen = set()
    for x in raw_has:
        if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= n:
            return f"client 1: packet index {x!r} outside [1, {n}]"
        if x in seen:
            return f"client 1: duplicate packet index {x}"
        seen.add(x)
    return None


def has_entries(n):
    """Good indices, 0 and n + 1, bools, floats (integral ones too) and other
    JSON values."""
    return st.one_of(
        st.integers(0, n + 1),
        st.booleans(),
        st.floats(allow_nan=False),
        st.sampled_from([1.0, float(n), None, "1", [1], {}]),
    )


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(has_entries(n)))))
@example((3, [True, 0, 2.0]))
@example((3, [2, 2, 4]))
@example((3, [1, 3, 3, 0]))
@example((0, []))
@example((2, [2, 1]))
def test_has_lists_are_refused_by_their_first_bad_entry(case):
    n, raw_has = case
    text = json.dumps({"n": n, "clients": [{"has": raw_has, "delay": 1}]})
    fault = has_fault(raw_has, n)
    if fault is None:
        assert parse_instance(text).clients[0].has == {x - 1 for x in raw_has}
    else:
        with pytest.raises(InstanceError) as info:
            parse_instance(text)
        assert str(info.value) == fault


@pytest.mark.parametrize("packet_size", [8, -8])
@pytest.mark.parametrize("bandwidth", [0, -2])
def test_a_nonpositive_bandwidth_is_refused_by_name(bandwidth, packet_size):
    """A zero bandwidth is refused by name, and a negative bandwidth or packet
    size as any negative number is, naming its field, so two negatives cannot
    make a positive delay."""
    client = f'{{"has": [1], "bandwidth": {bandwidth}}}'
    text = f'{{"n": 2, "packet_size": {packet_size}, "clients": [{client}]}}'
    if packet_size < 0:
        message = "packet_size: must be nonnegative"
    elif bandwidth < 0:
        message = "client 1: bandwidth: must be nonnegative"
    else:
        message = "client 1: bandwidth must be positive"
    with pytest.raises(InstanceError, match=f"^{message}$"):
        parse_instance(text)


@pytest.mark.parametrize(
    "client, packet_size, where",
    [
        ('{"has": [1], "delay": -1}', 8, "client 1: delay"),
        ('{"has": [1], "bandwidth": 2}', -8, "packet_size"),
        ('{"has": [], "bandwidth": 3}', -8, "packet_size"),
    ],
)
def test_a_negative_delay_is_refused_as_the_constructor_refuses_it(client, packet_size, where):
    """A negative delay is refused, as ClientSpec refuses it, but where the
    document holds the negative number: parse_rational refuses a negative int
    as it refuses "-1", naming the field, so the parser builds clients without
    ClientSpec's checks and never names a delay the document does not hold."""
    text = f'{{"n": 2, "packet_size": {packet_size}, "clients": [{client}]}}'
    with pytest.raises(InstanceError, match=f"^{where}: must be nonnegative$"):
        parse_instance(text)


@pytest.mark.parametrize("opener", ["[", '{"n": '])
def test_deeply_nested_json_is_an_instance_error(opener):
    """JSON nested past the recursion limit is malformed input, not a RecursionError."""
    with pytest.raises(InstanceError, match="^not valid JSON: maximum recursion depth"):
        parse_instance(opener * 100_000)


@requires_digit_limit
@pytest.mark.parametrize("name", sorted(LONG_NUMBER_INSTANCES))
def test_numbers_past_the_digit_limit_are_instance_errors(name):
    """Python refuses to convert an int of more than 4,300 digits to or from
    text; a document that needs one is malformed, not a plain ValueError."""
    with pytest.raises(InstanceError, match="a number has more than 4300 digits$"):
        parse_instance(LONG_NUMBER_INSTANCES[name])


def test_direct_construction_validates():
    with pytest.raises(InstanceError):
        DmsiInstance(n=-1, clients=())
    with pytest.raises(InstanceError):
        DmsiInstance(n=2, clients=(ClientSpec(has=frozenset({2}), delay=Fraction(1)),))
    with pytest.raises(InstanceError):
        ClientSpec(has=frozenset(), delay=Fraction(-1))


def test_client_spec_keeps_a_fraction_delay_and_refuses_negative_ones():
    made = ClientSpec(has=frozenset(), delay=3).delay
    assert made == 3 and type(made) is Fraction
    delay = Fraction(2, 3)
    assert ClientSpec(has=frozenset(), delay=delay).delay is delay
    for bad, shown in ((-1, "-1"), (Fraction(-1, 3), "-1/3")):
        with pytest.raises(InstanceError, match=f"^delay must be nonnegative, got {shown}$"):
            ClientSpec(has=frozenset(), delay=bad)


def test_serialization_is_canonical(demo_instance):
    doc = instance_document(demo_instance)
    assert doc["clients"][0]["has"] == [1, 3, 5, 6]
    assert doc["clients"][0]["delay"] == 8
    text = serialize_instance(demo_instance)
    assert json.loads(text) == doc
    assert parse_instance(text) == demo_instance


def test_empty_instance():
    inst = parse_instance('{"n": 0, "clients": []}')
    assert inst.k == 0
    assert inst.want_counts() == ()
    assert inst.delay_ranking() == ()


@given(instances())
def test_serialize_parse_round_trip(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@given(instances())
def test_ranking_is_a_sorted_permutation(inst):
    ranking = inst.delay_ranking()
    assert sorted(ranking) == list(range(inst.k))
    delays = inst.delays()
    assert all(
        delays[ranking[i]] >= delays[ranking[i + 1]] for i in range(inst.k - 1)
    )
    # stability: equal delays stay in client order
    for i in range(inst.k - 1):
        if delays[ranking[i]] == delays[ranking[i + 1]]:
            assert ranking[i] < ranking[i + 1]
