"""Any byte string given to a file reader yields a value or a TrajGraphError;
the data-file readers raise a DataError, the CLI's exit code 2, and the
CLI's read path (`load_csv`, then `check_scenes`) also a ConfigError.

Each reader is fed raw bytes, and bytes that start like a valid file so
the fuzz reaches past the header checks.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajgraph.checkpoint import MAGIC, VERSION, load_checkpoint
from trajgraph.data import Normalizer, check_scenes, load_csv
from trajgraph.errors import DataError, TrajGraphError

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file"


def _reads_or_rejects(read, path, content: bytes, error=TrajGraphError):
    path.write_bytes(content)
    try:
        read(path)
    except error:
        pass


def _lines(alphabet: str, prefix: bytes):
    line = st.text(alphabet=alphabet, max_size=30)
    return st.lists(line, max_size=12).map(
        lambda rows: prefix + "\n".join(rows).encode("utf-8"))


CSV_HEADER = b"scene_id,agent_id,category,t,x,y\n"
csv_bytes = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: CSV_HEADER + b),
    _lines("s0123456789-,.e\x00\xe9 ", CSV_HEADER),
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(-2, 3),
                       st.integers(-2, 99) | st.just(10 ** 20), st.integers(-3, 6),
                       st.sampled_from(["0.5", "nan", "-inf", "1e308"])),
             max_size=16).map(lambda rows: CSV_HEADER + "".join(
                 f"{s},{a},{c},{t},{x},{x}\n" for s, a, c, t, x in rows).encode()),
)


@FUZZ
@given(content=csv_bytes)
def test_load_csv_never_raises_raw(target, content):
    _reads_or_rejects(load_csv, target, content, DataError)


# complete scenes, so that the fuzz reaches every rule of `check_scenes`
scene_bytes = st.tuples(st.integers(1, 3), st.integers(3, 5),
                        st.lists(st.integers(0, 4), min_size=3, max_size=3),
                        st.sampled_from(["0.5", "-1.0", "1.5", "1e308"])).map(
    lambda s: CSV_HEADER + "".join(
        f"s,{a},{s[2][a]},{t},{s[3] if a == t == 0 else '0.1'},0.2\n"
        for a in range(s[0]) for t in range(s[1])).encode())


@FUZZ
@given(content=csv_bytes | scene_bytes)
def test_checked_csv_never_raises_raw(target, content):
    _reads_or_rejects(lambda path: check_scenes(load_csv(path), 3, 4), target, content)


normalizer_bytes = st.one_of(
    st.binary(max_size=120),
    _lines("min_xaymax =0123456789.e-\xff", b""),
    st.lists(st.sampled_from(["min_x = 0", "max_x = 1", "min_y = -1", "max_y = 2",
                              "min_x = abc", "max_y =", "min_y = nan", "max_x = inf",
                              "= 3", "\xe9"]), max_size=6).map(
        lambda rows: "\n".join(rows).encode("utf-8")),
)


@FUZZ
@given(content=normalizer_bytes)
def test_normalizer_from_file_never_raises_raw(target, content):
    _reads_or_rejects(Normalizer.from_file, target, content, DataError)


CKPT_HEADER = MAGIC + struct.pack("<I", VERSION)
checkpoint_bytes = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: CKPT_HEADER + b),
    st.lists(st.tuples(st.binary(max_size=6), st.lists(st.integers(0, 3), max_size=3),
                       st.binary(max_size=80)), max_size=4).map(
        lambda recs: CKPT_HEADER + b"".join(
            struct.pack("<I", len(k)) + k + struct.pack(f"<{len(d) + 1}I", len(d), *d) + v
            for k, d, v in recs)),
)


@FUZZ
@given(content=checkpoint_bytes)
def test_load_checkpoint_never_raises_raw(target, content):
    _reads_or_rejects(load_checkpoint, target, content)
