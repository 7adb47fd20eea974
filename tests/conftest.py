"""Shared fixtures: the six-packet worked example, its two reference
matrices, the pinned GF(4) code, a client's view of a broadcast, scalar
field arithmetic, the seeded corpus draw (the regression sweep's), and
hypothesis strategies for random instances and exact-weight assignment
matrices."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from dmsiplan import (
    AssignmentMatrix,
    ClientSpec,
    ClientView,
    DmsiInstance,
    format_rational,
    parse_instance,
)

# the corpus draw lives in the script, which runs without pytest
sys.path.append(str(Path(__file__).resolve().parents[1] / "scripts"))
from regression_sweep import draw_instance as random_instance  # noqa: E402

DEMO_DOC = {
    "n": 6,
    "clients": [
        {"has": [1, 3, 5, 6], "delay": 8},
        {"has": [1, 2, 3, 4, 5], "delay": 4},
        {"has": [3, 4, 6], "delay": 2},
        {"has": [4], "delay": 1},
    ],
}

# hand-built feasible plan for the worked example, total delay 24
HAND_PLAN_ROWS = ((1, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 1))
# the optimal plan for the same instance, total delay 20
OPTIMAL_PLAN_ROWS = ((1, 1, 1, 1), (1, 0, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 0, 1))

# reference GF(4) code for OPTIMAL_PLAN_ROWS (alpha = 2, alpha^2 = 3); every
# client's restricted submatrix has full rank, re-verified in the suite
KNOWN_GF4_ROWS = (
    (0, 0, 2, 1, 3, 2),
    (1, 1, 3, 2, 1, 1),
    (2, 3, 1, 2, 1, 3),
    (1, 0, 3, 2, 0, 3),
    (3, 2, 1, 2, 1, 0),
)

# every 2-subset of 4 packets missing: a GF(2) code would need four pairwise
# independent columns in a 2-dimensional space, which do not exist
IMPOSSIBLE_GF2_DOC = {
    "n": 4,
    "clients": [
        {"has": [3, 4], "delay": 6},
        {"has": [2, 4], "delay": 5},
        {"has": [2, 3], "delay": 4},
        {"has": [1, 4], "delay": 3},
        {"has": [1, 3], "delay": 2},
        {"has": [1, 2], "delay": 1},
    ],
}


# Python reads and writes at most 4,300 digits per int unless told otherwise;
# the documents below are sized for that default
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
requires_digit_limit = pytest.mark.skipif(
    DIGIT_LIMIT != 4300, reason="sized for Python's default limit of 4,300 digits"
)
LONG_INT = "1" * 5000
# instance texts past the limit: a JSON literal, a delay string, and three
# bandwidths of 3,000 digits each whose delays sum over a common denominator
# of about 9,000 digits (each client pays for a different row)
LONG_NUMBER_INSTANCES = {
    "n-literal": '{"n": %s, "clients": []}' % LONG_INT,
    "delay-string": json.dumps({"n": 2, "clients": [{"has": [1], "delay": LONG_INT}]}),
    "derived-total": json.dumps({
        "n": 3,
        "packet_size": "1" + "0" * 2999,
        "clients": [
            {"has": has, "bandwidth": digit + rest * 2999}
            for has, digit, rest in (([1, 2], "3", "1"), ([1], "7", "1"), ([], "9", "3"))
        ],
    }),
}


@pytest.fixture
def demo_instance():
    return parse_instance(json.dumps(DEMO_DOC))


@pytest.fixture
def hand_plan_matrix():
    return AssignmentMatrix(rows=HAND_PLAN_ROWS, k=4)


@pytest.fixture
def optimal_plan_matrix():
    return AssignmentMatrix(rows=OPTIMAL_PLAN_ROWS, k=4)


def instance_document(instance):
    """The canonical JSON-ready form: 1-based sorted 'has', explicit delays."""
    return {
        "n": instance.n,
        "clients": [
            {
                "has": [x + 1 for x in sorted(client.has)],
                "delay": format_rational(client.delay),
            }
            for client in instance.clients
        ],
    }


def serialize_instance(instance):
    """The canonical instance document as indented JSON text."""
    return json.dumps(instance_document(instance), indent=2)


def client_view(instance, matrix, client, payload, broadcast):
    """What the given client sees of a payload and its broadcast: decode's input."""
    return ClientView(
        client=client,
        side_info=tuple((x, payload[x]) for x in sorted(instance.clients[client].has)),
        received=tuple((h, broadcast[h]) for h, row in enumerate(matrix.rows) if row[client]),
    )


# scalar arithmetic on a Field's own tables, each operand checked as the codec checks it
def gf_add(field, a, b):
    field._check(a)
    field._check(b)
    return a ^ b


def gf_mul(field, a, b):
    field._check(a)
    field._check(b)
    if a == 0 or b == 0:
        return 0
    return field._exp[field._log[a] + field._log[b]]


def gf_inv(field, a):
    field._check(a)
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return field._exp[field.q - 1 - field._log[a]]


def make_instance(n, has_sets, delays):
    """0-based side-info sets and int/Fraction delays, zipped into an instance."""
    return DmsiInstance(
        n=n,
        clients=tuple(
            ClientSpec(has=frozenset(has), delay=Fraction(d))
            for has, d in zip(has_sets, delays)
        ),
    )


@st.composite
def instances(draw, max_n=5, max_k=4, min_k=0):
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(min_k, max_k))
    clients = []
    for _ in range(k):
        has = draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()
        delay = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
        clients.append(ClientSpec(has=has, delay=delay))
    return DmsiInstance(n=n, clients=tuple(clients))


@st.composite
def instance_with_exact_matrix(draw, max_n=5, max_k=4):
    """An instance plus a matrix whose column weights equal the want counts."""
    instance = draw(instances(max_n=max_n, max_k=max_k))
    want = instance.want_counts()
    m = max(want, default=0) + draw(st.integers(0, 2))
    rows = [[0] * instance.k for _ in range(m)]
    for j, w in enumerate(want):
        for i in draw(st.permutations(range(m)))[:w]:
            rows[i][j] = 1
    matrix = AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=instance.k)
    return instance, matrix


@pytest.fixture
def criterion_report(request):
    """Emit one uncaptured pass/fail line per acceptance criterion."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(number: int, name: str, ok: bool) -> None:
        line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {name}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line)
        else:
            print(line)

    return emit
