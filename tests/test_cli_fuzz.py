"""Fuzz the CLI's JSON inputs: every malformed file must exit 2, never raise.

Each strategy below builds a file that is malformed for its kind by
construction (one field is wrong, the rest is small and valid), so exit 0
would be a parser accepting bad input and an escaping exception a traceback.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierkit.cli import main

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _parses(text, kind):
    try:
        kind(text.strip())
    except (ValueError, ZeroDivisionError):
        return False
    return True


not_object = values.filter(lambda v: not isinstance(v, dict))
not_array = values.filter(lambda v: not isinstance(v, list))
not_int = values.filter(lambda v: not _is_int(v))
not_rational = values.filter(lambda v: not (_is_int(v) or (isinstance(v, str) and _parses(v, Fraction))))
below_one = st.integers(-3, 0)
small_set = st.lists(st.integers(1, 6), max_size=3, unique=True).map(sorted)


def without(key):
    return st.dictionaries(st.text(max_size=4).filter(lambda k: k != key), values, max_size=3)


def with_one_bad(good, bad):
    """A short list of ``good`` items with one ``bad`` item placed among them."""
    return st.tuples(st.lists(good, max_size=2), bad, st.lists(good, max_size=2)).map(
        lambda t: t[0] + [t[1]] + t[2]
    )


bad_set = (
    not_array
    | with_one_bad(st.integers(1, 6), not_int)
    | with_one_bad(st.integers(1, 6), below_one).map(sorted)
    | st.lists(st.integers(1, 6), min_size=2, max_size=4).filter(lambda s: s != sorted(set(s)))
)
bad_family = st.one_of(
    not_object,
    without("sets"),
    st.fixed_dictionaries({"sets": not_array}),
    st.fixed_dictionaries({"sets": with_one_bad(small_set, bad_set)}),
    st.fixed_dictionaries({
        "sets": st.lists(small_set, max_size=3),
        "hereditary": values.filter(lambda v: v is not None and not isinstance(v, bool)),
    }),
    # a heredity claim is checked: {2} is missing
    st.just({"sets": [[1, 2]], "hereditary": True}),
)

pair = st.tuples(st.integers(1, 6), st.sampled_from(["1", "-1/2", "3/4"])).map(list)
bad_pair = (
    values.filter(lambda v: not (isinstance(v, list) and len(v) == 2))
    | st.tuples(not_int | below_one, st.just("1")).map(list)
    | st.tuples(st.integers(1, 6), not_rational).map(list)
)
bad_vector = st.one_of(
    not_object,
    without("coords"),
    st.fixed_dictionaries({"coords": not_array}),
    st.fixed_dictionaries({"coords": with_one_bad(pair, bad_pair)}),
    # each index at most once: a repeat would be summed silently
    st.fixed_dictionaries({"coords": st.lists(pair, min_size=1, max_size=3).map(lambda ps: ps + ps[:1])}),
)

bad_measure = st.one_of(
    not_object,
    without("pieces"),
    st.fixed_dictionaries({"pieces": not_array}),
    st.fixed_dictionaries({"pieces": with_one_bad(st.just([1, 2]), bad_set | st.just([]))}),
    # pieces [1, 2] and [3]: one weight array each, of the piece's length
    st.fixed_dictionaries({"pieces": st.just([[1, 2], [3]]), "weights": st.one_of(
        not_array.filter(lambda v: v is not None),
        st.lists(st.just(["1"]), max_size=3),
        st.tuples(st.just(["1/2", "1/2"]), not_array).map(list),
        st.tuples(st.tuples(st.just("1/2"), not_rational).map(list), st.just(["1"])).map(list),
        st.tuples(st.just(["0", "1"]), st.just(["1"])).map(list),
        st.tuples(st.just(["1/3", "1/3"]), st.just(["1"])).map(list),
    )}),
)

small_config = {"lambda": st.just("1/2"), "window_max": st.integers(1, 6)}
# radix keys that int() reads but that are not m >= 1 in plain decimal
int_key_not_canonical = st.one_of(
    st.integers(-6, 0).map(str),
    st.tuples(st.sampled_from(["0", "+", " ", "\t"]), st.integers(1, 6)).map(lambda t: f"{t[0]}{t[1]}"),
    st.integers(1, 6).map(lambda m: f"{m} "),
    st.sampled_from(["\u0664", "1_0"]),
)
bad_config = st.one_of(
    not_object,
    st.fixed_dictionaries({**small_config, "lambda": not_rational}),
    st.fixed_dictionaries({**small_config, "lambda": st.sampled_from([0, 1, "-1/2", "3/2", "0/5"])}),
    st.fixed_dictionaries({**small_config, "window_max": not_int | below_one}),
    st.fixed_dictionaries({**small_config, "radices": not_object.filter(lambda v: v is not None)}),
    st.fixed_dictionaries({**small_config, "radices": st.dictionaries(
        st.text(max_size=3).filter(lambda k: not _parses(k, int)), st.integers(1, 5),
        min_size=1, max_size=2)}),
    st.fixed_dictionaries({**small_config, "radices": st.dictionaries(
        int_key_not_canonical, st.integers(1, 5), min_size=1, max_size=2)}),
    st.fixed_dictionaries({**small_config, "radices": st.integers(1, 5).map(
        lambda m: {str(m): 2, f"0{m}": 3})}),
    st.fixed_dictionaries({**small_config, "radices": st.dictionaries(
        st.sampled_from(["4", "5"]), not_int | below_one, min_size=1, max_size=2)}),
    st.fixed_dictionaries({**small_config, "seed": not_int.filter(lambda v: v is not None)}),
)


# text that is not JSON, not UTF-8, or nested past the decoder's recursion limit
# (an array is never a valid file of any kind)
not_json = (
    st.text(max_size=12).filter(lambda t: not t.lstrip().startswith("{")).map(str.encode)
    | st.binary(max_size=8).filter(lambda b: not _parses(b, lambda t: t.decode("utf-8")))
    | st.integers(1, 3000).map(lambda d: b"[" * d + b"]" * d)
)

GOOD = {
    "family": json.dumps({"sets": [[1, 2], [2, 3], [3]], "hereditary": None}),
    "vector": json.dumps({"coords": [[1, "1/2"], [3, "-2"]]}),
}

COMMANDS = {
    "family": [
        ["norm", "--family", "{bad}", "--vector", "{vector}"],
        ["gauge", "--n", "2", "--family", "{bad}", "--vector", "{vector}"],
        ["family", "--op", "closure", "--input", "{bad}"],
    ],
    "vector": [
        ["norm", "--family", "{family}", "--vector", "{bad}"],
        ["gauge", "--n", "2", "--family", "{family}", "--vector", "{bad}"],
        ["gauge", "--nmax", "2", "--family", "{family}", "--vector", "{bad}"],
    ],
    "measure": [
        ["family", "--op", "gplus", "--input", "{family}", "--measure", "{bad}"],
        ["family", "--op", "glambda", "--input", "{family}", "--measure", "{bad}", "--density", "1/2"],
    ],
    "config": [
        ["tfamily", mode, "--config", "{bad}", "--n", "1"] for mode in ("build", "sample", "verify", "report")
    ],
}

BAD = {"family": bad_family, "vector": bad_vector, "measure": bad_measure, "config": bad_config}
malformed = st.one_of(*(
    st.tuples(st.sampled_from(COMMANDS[kind]), bad.map(lambda v: json.dumps(v).encode()) | not_json)
    for kind, bad in BAD.items()
))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    out = {"bad": tmp / "bad.json"}
    for name, text in GOOD.items():
        out[name] = tmp / f"{name}.json"
        out[name].write_text(text)
    return out


@settings(max_examples=300, deadline=None)
@given(case=malformed)
def test_cli_malformed_json_exits_2(paths, case):
    command, content = case
    paths["bad"].write_bytes(content)
    argv = [arg.format(**paths) for arg in command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 2, (argv, content)
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
