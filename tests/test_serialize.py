"""report.json writer: the same bytes as json.dump(indent=2, sort_keys=True), non-finite
floats written as null."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sampstab.cli import EXIT_OK, main
from sampstab.serialize import (dump_json, matrix_from_json, matrix_to_json, reals_from_json,
                                vector_from_json)

from conftest import (json_dump_oracle, matrix_from_json_loop, matrix_to_json_loop,
                      reals_from_json_loop, vector_from_json_loop)

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.8e308,
               -1.8e308, 1.0, -2.5, 0.1, 1e-7, 1e16, 123456789.125]

floats = hs.one_of(hs.sampled_from(EDGE_FLOATS), hs.floats())
scalars = hs.one_of(hs.none(), hs.booleans(), hs.integers(), floats,
                    floats.map(np.float64), hs.text())
values = hs.recursive(
    scalars,
    lambda kids: hs.one_of(hs.lists(kids, max_size=4), hs.tuples(kids, kids),
                           hs.dictionaries(hs.text(), kids, max_size=4)),
    max_leaves=24)


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("serialize") / "out.json"


def assert_same_bytes(obj, path):
    dump_json(obj, path)
    assert path.read_bytes() == json_dump_oracle(obj).encode("ascii")


def complex_matrix(re, im, shape) -> np.ndarray:
    m = np.empty(shape, dtype=complex)
    m.real = np.reshape(re, shape)
    m.imag = np.reshape(im, shape)
    return m


@settings(max_examples=200, deadline=None)
@given(obj=values)
def test_nested_values(obj, out_path):
    assert_same_bytes(obj, out_path)


def test_keys_and_strings_escape_like_json(out_path):
    obj = {"é": "ü☃", "\x00\x1f": ["\n\t\"\\", "\U0001f600"], "z": {}, "": [],
           "nested": {"b": [None, True, False, -3, 2 ** 70]}}
    assert_same_bytes(obj, out_path)


@settings(max_examples=60, deadline=None)
@given(shape=hs.tuples(hs.integers(1, 8), hs.integers(1, 8)), data=hs.data())
def test_complex_matrices(shape, data, out_path):
    size = shape[0] * shape[1]
    parts = hs.lists(hs.sampled_from(EDGE_FLOATS), min_size=size, max_size=size)
    m = complex_matrix(data.draw(parts), data.draw(parts), shape)
    rows = matrix_to_json(m)
    assert_same_bytes({"K": rows, "row": rows[0], "meta": {"n": shape[0]}}, out_path)


@pytest.mark.parametrize("near", [
    [[1, 2.0]],
    [[1.0]],
    [[1.0, 2.0, 3.0]],
    [[1.0, 2.0], [3.0], [4.0, 5.0]],
    [[1.0, 2.0], (3.0, 4.0)],
    [[np.float64(1.0), 2.0]],
    [[True, 2.0]],
    [[[1.0, 2.0], [3.0, 4.0]]],
])
def test_near_pairs_take_the_general_path(near, out_path):
    assert_same_bytes({"m": [near, near], "v": near}, out_path)


@pytest.mark.parametrize("m", [
    np.array([[1 + 2j, -0.0 - 0.0j], [np.nan + 1j, complex(np.inf, -np.inf)]]),
    np.arange(6.0).reshape(2, 3),
    np.array([1 - 1j, 5e-324j, -1.8e308]),
    np.arange(24.0).reshape(2, 3, 4) * (1 - 2j),
    3.5 - 0.0j,
])
def test_matrix_to_json_is_the_entry_loop(m):
    # Any shape: a 1-D per-mode array is one list of n pairs, a scalar one pair.
    got, want = matrix_to_json(m), matrix_to_json_loop(m)
    assert json.dumps(got) == json.dumps(want)
    assert np.shape(got) == np.shape(m) + (2,)
    assert all(type(x) is float for x in leaves(got))


def leaves(obj):
    """The numbers of a nested list, depth first."""
    return [x for item in obj for x in leaves(item)] if isinstance(obj, list) else [obj]


# JSON numbers as json.loads gives them: floats, NaN and the infinities, and
# integers of any size; 2**1024 - 2**970 - 1 is the largest that rounds to a
# finite float.
json_numbers = hs.one_of(floats, hs.integers(), hs.sampled_from(
    [2 ** 53 + 1, -(2 ** 63) - 3, 2 ** 70 + 1, 2 ** 1023, 2 ** 1024 - 2 ** 970 - 1]))


@settings(max_examples=100, deadline=None)
@given(shape=hs.tuples(hs.integers(1, 6), hs.integers(1, 6)), data=hs.data())
def test_matrix_from_json_is_the_entry_loop(shape, data):
    pair = hs.lists(json_numbers, min_size=2, max_size=2)
    obj = [[data.draw(pair) for _ in range(shape[1])] for _ in range(shape[0])]
    got, want = matrix_from_json(obj), matrix_from_json_loop(obj)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_matrix_from_json_reads_a_dense_system_bit_for_bit(rng):
    A = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    obj = json.loads(json.dumps(matrix_to_json(A)))
    assert matrix_from_json(obj).tobytes() == A.tobytes()


@pytest.mark.parametrize("obj,message", [
    ([[[True, 1.5]]], "expected a number, got True"),
    ([[[1.0, 2.0], [False, 0.0]]], "expected a number, got False"),
    ([[["1.5", 2.0]]], "expected a number, got '1.5'"),
    ([[[1.0, None]]], "expected a number, got None"),
    ([[[1.0, [2.0]]]], "expected a number, got [2.0]"),
    ([[[1.0, 2.0, 3.0]]], "complex entry must be [re, im], got [1.0, 2.0, 3.0]"),
    ([[[1.0]]], "complex entry must be [re, im], got [1.0]"),
    ([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]], "matrix rows have unequal lengths"),
    ([[[10 ** 400, 0.0]]], "number out of float range: " + str(10 ** 400)),
    ([[[0.0, -(2 ** 1024)]]], "number out of float range: " + str(-(2 ** 1024))),
])
def test_matrix_from_json_keeps_its_messages(obj, message):
    for read in (matrix_from_json, matrix_from_json_loop):
        with pytest.raises(ValueError) as err:
            read(obj)
        assert str(err.value) == message


READERS = [(matrix_from_json, matrix_from_json_loop), (vector_from_json, vector_from_json_loop),
           (reals_from_json, reals_from_json_loop)]

# The defects a reader must refuse: integers that round past the largest float
# (the least of them first), booleans, strings, None, objects, nested lists.
huge_ints = hs.sampled_from([2 ** 1024 - 2 ** 970, -(2 ** 1024), 10 ** 400])
number_defects = hs.one_of(huge_ints, hs.booleans(), hs.none(), hs.text(max_size=3),
                           hs.just({}), hs.lists(json_numbers, max_size=4).filter(
                               lambda e: len(e) != 2))
pairs = hs.lists(json_numbers, min_size=2, max_size=2)
entries = hs.one_of(json_numbers, pairs)
entry_defects = hs.one_of(
    number_defects,
    hs.one_of(hs.tuples(number_defects, json_numbers),
              hs.tuples(json_numbers, number_defects)).map(list))
json_values = hs.recursive(
    hs.one_of(json_numbers, huge_ints, hs.booleans(), hs.none(), hs.text(max_size=3)),
    lambda kids: hs.one_of(hs.lists(kids, max_size=3),
                           hs.dictionaries(hs.text(max_size=2), kids, max_size=2)),
    max_leaves=8)


@hs.composite
def matrices(draw, entry=entries, min_rows=1, min_cols=0):
    """Rows of equal length whose entries mix plain numbers and [re, im] pairs."""
    n, m = draw(hs.integers(min_rows, 4)), draw(hs.integers(min_cols, 4))
    return [[draw(entry) for _ in range(m)] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(obj=hs.one_of(
    matrices(), matrices(hs.one_of(entries, entry_defects)),
    hs.lists(hs.lists(entries, max_size=3), min_size=1, max_size=3),
    hs.lists(hs.one_of(entries, entry_defects), max_size=6),
    hs.lists(hs.one_of(json_numbers, huge_ints), max_size=6), json_values))
def test_readers_are_the_entry_loop(obj):
    # Each reader returns the loop's array bit for bit, or raises when it does.
    for read, oracle in READERS:
        try:
            want = oracle(obj)
        except ValueError:
            with pytest.raises(ValueError):
                read(obj)
            continue
        got = read(obj)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(kind=hs.sampled_from(["entry", "row", "vector", "reals"]), data=hs.data())
def test_one_defect_gets_the_loops_message(kind, data):
    # A valid array with one bad entry, or with one matrix row longer than the others.
    if kind in ("entry", "row"):
        read, oracle = matrix_from_json, matrix_from_json_loop
        obj = data.draw(matrices(min_rows=2 if kind == "row" else 1, min_cols=1))
        target, defect = obj[data.draw(hs.integers(0, len(obj) - 1))], entry_defects
    elif kind == "vector":
        read, oracle = vector_from_json, vector_from_json_loop
        obj = target = data.draw(hs.lists(entries, min_size=1, max_size=6))
        defect = entry_defects
    else:
        read, oracle = reals_from_json, reals_from_json_loop
        obj = target = data.draw(hs.lists(json_numbers, min_size=1, max_size=6))
        defect = hs.one_of(number_defects, pairs)
    if kind == "row":
        target.append(data.draw(entries))
    else:
        target[data.draw(hs.integers(0, len(target) - 1))] = data.draw(defect)
    with pytest.raises(ValueError) as want:
        oracle(obj)
    with pytest.raises(ValueError) as got:
        read(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("obj,message", [
    ({"re": 1.0}, "vector must be a non-empty list"),
    ([], "vector must be a non-empty list"),
    ([[True, 1.5]], "expected a number, got True"),
    ([1.0, False], "expected a number, got False"),
    ([["1.5", 2.0]], "expected a number, got '1.5'"),
    ([[1.0, None]], "expected a number, got None"),
    ([[1.0, [2.0]]], "expected a number, got [2.0]"),
    ([[1.0, 2.0, 3.0]], "complex entry must be [re, im], got [1.0, 2.0, 3.0]"),
    ([2.0, [1.0]], "complex entry must be [re, im], got [1.0]"),
    ([[10 ** 400, 0.0]], "number out of float range: " + str(10 ** 400)),
    ([1.0, -(2 ** 1024)], "number out of float range: " + str(-(2 ** 1024))),
])
def test_vector_from_json_keeps_its_messages(obj, message):
    for read in (vector_from_json, vector_from_json_loop):
        with pytest.raises(ValueError) as err:
            read(obj)
        assert str(err.value) == message


@pytest.mark.parametrize("obj,message", [
    ("1.0", "vector must be a non-empty list"),
    ([], "vector must be a non-empty list"),
    ([True, 1.5], "expected a number, got True"),
    ([1.0, "2"], "expected a number, got '2'"),
    ([None], "expected a number, got None"),
    ([1.0, [2.0, 0.0]], "expected a number, got [2.0, 0.0]"),
    ([10 ** 400, 0.0], "number out of float range: " + str(10 ** 400)),
    ([0.0, 2 ** 1024 - 2 ** 970], "number out of float range: " + str(2 ** 1024 - 2 ** 970)),
])
def test_reals_from_json_keeps_its_messages(obj, message):
    for read in (reals_from_json, reals_from_json_loop):
        with pytest.raises(ValueError) as err:
            read(obj)
        assert str(err.value) == message


@pytest.mark.parametrize("argv,name", [
    (["synthesize", "--example", "frac-heat", "--modes", "8", "--T", "1"], "report.json"),
    (["simulate", "--example", "frac-heat", "--modes", "8", "--T", "1",
      "--horizon", "4", "--loop", "dp"], "report.json"),
    (["example", "schrodinger", "--modes", "9"], "schrodinger.json"),
])
def test_cli_files_are_the_standard_library_text(argv, name, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    text = (tmp_path / name).read_text(encoding="utf-8")
    assert text == json_dump_oracle(json.loads(text))
