import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from koopseed.dictionary import build_dictionary
from koopseed.model import KoopmanModel, load_matrix_csv, save_matrix_csv, write_csv

# float64 bit patterns of signed zeros, the extreme subnormals, the extreme
# normals, infinities and a NaN
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000,
]


def test_write_csv_formats_columns_by_their_first_value(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, "key,name,value", [(3, "a", 0.1), (40, "bc", -0.0), (5, "d", float("inf"))])
    assert path.read_bytes() == b"key,name,value\n3,a,0.10000000000000001\n40,bc,-0\n5,d,inf\n"


def test_write_csv_without_rows_writes_the_header(tmp_path):
    write_csv(tmp_path / "empty.csv", "a,b", iter([]))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


@given(
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS)), min_size=36, max_size=36),
)
@example((1, 2), SPECIAL_BITS)
def test_matrix_csv_round_trip_is_bit_exact(tmp_path_factory, shape, bits):
    """Every float64 comes back with its bits; a NaN comes back as a NaN
    (each is written as "nan", so its sign and payload are not kept)."""
    dictionary = build_dictionary(*shape)
    n = len(dictionary)
    matrix = np.array(bits[: n * n], dtype=np.uint64).view(np.float64).reshape(n, n)
    path = tmp_path_factory.mktemp("round_trip") / "matrix.csv"
    save_matrix_csv(path, KoopmanModel(dictionary, matrix))
    loaded = load_matrix_csv(path).matrix
    nan = np.isnan(matrix)
    assert np.array_equal(np.isnan(loaded), nan)
    assert np.array_equal(loaded.view(np.uint64)[~nan], matrix.view(np.uint64)[~nan])


GOOD_HEADER = '# {"max_degree": 1, "size": 3, "var_count": 2}'
ROW = "1,0,0"


@pytest.mark.parametrize(
    "lines, problem",
    [
        (["# {var_count: 2}", ROW, ROW, ROW], "Expecting property name"),
        (['# [2, 1, 3]', ROW, ROW, ROW], "JSON record"),
        (['# {"max_degree": 1, "size": 3}', ROW, ROW, ROW], "var_count"),
        (['# {"max_degree": 1, "size": 4, "var_count": 2}', ROW, ROW, ROW], "size 4"),
        ([GOOD_HEADER, ROW, ROW], r"shape \(2, 3\)"),
        ([GOOD_HEADER, ROW, "1,x,0", ROW], "'x'"),
    ],
    ids=["header-not-json", "header-not-record", "no-var-count", "size-disagrees", "too-few-rows", "not-a-number"],
)
def test_malformed_matrix_csv_is_an_error_naming_the_file(tmp_path, lines, problem):
    path = tmp_path / "matrix.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + f".*{problem}"):
        load_matrix_csv(path)

