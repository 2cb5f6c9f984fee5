import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecclab.setsystem import (
    HSE,
    OV,
    SetSystemFormatError,
    SetSystemInstance,
    random_instance,
    read_set_system,
    solve_set_system,
    write_set_system,
)


def test_from_sets_and_unpack():
    inst = SetSystemInstance.from_sets([[0, 2]], [[1]], 3, OV)
    assert inst.list_a == [0b101]
    assert inst.list_b == [0b10]
    assert write_set_system(inst) == "s 1 1 3 OV\n0 2\n1\n"


def test_from_sets_rejects_out_of_range():
    with pytest.raises(SetSystemFormatError):
        SetSystemInstance.from_sets([[3]], [], 3, OV)


def test_rejects_unknown_mode():
    with pytest.raises(SetSystemFormatError):
        SetSystemInstance(2, [], [], "xor")


def test_solve_ov():
    inst = SetSystemInstance.from_sets([[0], [1]], [[1], [0]], 2, OV)
    found, wit = solve_set_system(inst)
    assert found and inst.list_a[wit[0]] & inst.list_b[wit[1]] == 0


def test_solve_ov_negative():
    inst = SetSystemInstance.from_sets([[0, 1]], [[0], [1]], 2, OV)
    assert solve_set_system(inst) == (False, None)


def test_solve_hse():
    inst = SetSystemInstance.from_sets([[0, 1], [0]], [[0], [1]], 2, HSE)
    found, wit = solve_set_system(inst)
    assert found and wit == 0


def test_solve_hse_negative():
    inst = SetSystemInstance.from_sets([[0]], [[1]], 2, HSE)
    assert solve_set_system(inst) == (False, None)


def test_empty_b_is_trivially_hit():
    inst = SetSystemInstance.from_sets([[0]], [], 2, HSE)
    assert solve_set_system(inst)[0] is True


def test_bruteforce_against_itertools():
    rng = random.Random(4)
    for _ in range(100):
        inst = random_instance(rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 5),
                               rng.choice((OV, HSE)), rng)
        found, _ = solve_set_system(inst)
        if inst.mode == OV:
            want = any(a & b == 0 for a in inst.list_a for b in inst.list_b)
        else:
            want = any(all(a & b for b in inst.list_b) for a in inst.list_a)
        assert found == want


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5), st.integers(0, 5), st.integers(1, 6))
def test_round_trip(seed, na, nb, d):
    rng = random.Random(seed)
    inst = random_instance(na, nb, d, rng.choice((OV, HSE)), rng)
    back = read_set_system(write_set_system(inst))
    assert back == inst
    assert write_set_system(back) == write_set_system(inst)


def test_universe_bound_builds_no_universe_sized_int():
    tracemalloc.start()
    try:
        inst = read_set_system("s 0 0 100000000 OV\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.d == 100000000
    assert peak < 1_000_000
    SetSystemInstance(3, [0b111], [0], OV)
    for sets in ([0b1000], [-1]):
        with pytest.raises(SetSystemFormatError):
            SetSystemInstance(3, sets, [], OV)


def test_read_handles_empty_sets_and_comments():
    text = "# comment\ns 2 1 3 OV\n0 2\n\n1\n"
    inst = read_set_system(text)
    assert inst.list_a == [0b101, 0]
    assert inst.list_b == [0b10]


def test_read_rejects_bad_header():
    with pytest.raises(SetSystemFormatError):
        read_set_system("s 1 1 OV\n0\n1\n")


@pytest.mark.parametrize("text", [
    "s x 1 1 OV\n0\n0\n",
    "s 1 1 1 OV\ny\n0\n",
    "s 1 1 -2 OV\n\n\n",
    "s -1 2 2 OV\n0\n",
], ids=["header-non-integer", "element-non-integer", "negative-d", "negative-count"])
def test_read_rejects_bad_fields(text):
    with pytest.raises(SetSystemFormatError):
        read_set_system(text)


_TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["s", "OV", "HSE", "ov", "xor", "#", "x", "-", ""]),
    st.text(max_size=4),
)
_LINES = st.one_of(
    st.builds("s {} {} {} {}".format, st.integers(-3, 4), st.integers(-3, 4),
              st.integers(-3, 6), st.sampled_from(["OV", "HSE", "hse", "xor"])),
    st.lists(_TOKENS, max_size=6).map(" ".join),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_LINES, max_size=8).map("\n".join)))
def test_reader_raises_only_format_errors(text):
    try:
        inst = read_set_system(text)
    except SetSystemFormatError:
        pass
    else:
        assert min(inst.d, inst.na, inst.nb) >= 0
