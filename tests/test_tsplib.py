import math
import pickle
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mrtsp.tsplib import (Instance, MissingKeywordError, ParseError,
                          TokenCountError, TokenValueError,
                          UnsupportedFormatError, format_instance,
                          load_instance, load_registry, parse_instance,
                          random_instance, save_registry)

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

THREE_CITY = """\
NAME: toy3
TYPE: ATSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 1 2 2 0 3 4 5 0
EOF
"""


def test_parse_three_city_full_matrix():
    inst = parse_instance(THREE_CITY)
    assert inst.name == "toy3"
    assert inst.dimension == 3
    assert inst.rows == [[0, 1, 2], [2, 0, 3], [4, 5, 0]]
    assert inst.distances.dtype == np.int64


def test_parse_euc_2d_three_four_five():
    text = """\
NAME: tri
TYPE: TSP
DIMENSION: 2
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 4
EOF
"""
    inst = parse_instance(text)
    assert inst.rows[0][1] == 5
    assert inst.rows[1][0] == 5


def test_parse_euc_2d_rounds_to_nearest():
    text = """\
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 1 2
3 2.5 0
EOF
"""
    inst = parse_instance(text)
    assert inst.rows[0][1] == 2   # sqrt(5) = 2.236 -> 2
    assert inst.rows[0][2] == 3   # 2.5 rounds up
    assert inst.rows[1][2] == 3   # sqrt(1.5^2 + 4) = 2.5 -> 3


def test_br17_matches_independent_reader(br17):
    # minimal line-oriented re-read: grab every numeric token after the
    # section keyword, stop at EOF
    tokens = []
    in_section = False
    for line in (INSTANCE_DIR / "br17.atsp").read_text().splitlines():
        stripped = line.strip()
        if stripped == "EDGE_WEIGHT_SECTION":
            in_section = True
            continue
        if stripped == "EOF":
            break
        if in_section:
            tokens.extend(float(tok) for tok in stripped.split())
    assert len(tokens) == 17 * 17
    expected = np.array(tokens).reshape(17, 17)
    assert br17.dimension == 17
    assert np.array_equal(br17.distances, expected)
    # diagonal is stored as read (br17 uses 9999), never normalized
    assert br17.rows[0][0] == 9999


def test_header_order_is_lenient():
    shuffled = """\
EDGE_WEIGHT_FORMAT: FULL_MATRIX
COMMENT: header lines in any order, unknown ones skipped
DIMENSION: 2
EDGE_WEIGHT_TYPE: EXPLICIT
NAME: weird
EDGE_WEIGHT_SECTION
0 7
9 0
EOF
"""
    inst = parse_instance(shuffled)
    assert inst.name == "weird"
    assert inst.rows == [[0, 7], [9, 0]]


def test_missing_dimension():
    text = "EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0\nEOF\n"
    with pytest.raises(MissingKeywordError) as err:
        parse_instance(text)
    assert "DIMENSION" in str(err.value)


def test_unsupported_weight_type():
    text = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: GEO\nEDGE_WEIGHT_SECTION\nEOF\n"
    with pytest.raises(UnsupportedFormatError):
        parse_instance(text)


def test_unsupported_matrix_format():
    text = ("DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT: UPPER_ROW\nEDGE_WEIGHT_SECTION\nEOF\n")
    with pytest.raises(UnsupportedFormatError):
        parse_instance(text)


@pytest.mark.parametrize("section", ["0 1 2 2 0 3 4 5", "0 1 2 2 0 3 4 5 0 6"])
def test_wrong_token_count(section):
    text = (f"DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            f"EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n{section}\nEOF\n")
    with pytest.raises(TokenCountError):
        parse_instance(text)


def test_non_numeric_token():
    text = ("DIMENSION: 2\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 x 0\nEOF\n")
    with pytest.raises(TokenValueError) as err:
        parse_instance(text)
    assert err.value.line is not None


def test_parse_errors_name_line_and_keyword():
    with pytest.raises(ParseError) as err:
        parse_instance("DIMENSION: nope\nEOF\n")
    assert err.value.line == 1


def explicit(dimension, weights):
    return (f"DIMENSION: {dimension}\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            f"EDGE_WEIGHT_SECTION\n{weights}\nEOF\n")


def euc_2d(dimension, *nodes):
    return (f"DIMENSION: {dimension}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
            + "".join(f"{node}\n" for node in nodes) + "EOF\n")


@pytest.mark.parametrize("text, error, message", [
    (explicit("1e400", "0 1 1 0"), TokenValueError, "DIMENSION"),
    (explicit("nan", "0 1 1 0"), TokenValueError, "DIMENSION"),
    (explicit("1", "0"), TokenValueError, "DIMENSION"),
    (explicit("-2", "0 1 1 0"), TokenValueError, "DIMENSION"),
    (explicit(2, "0 nan 1 0"), TokenValueError, "weight nan at row 1, column 2"),
    (explicit(2, "0 1 -inf 0"), TokenValueError, "weight -inf at row 2, column 1"),
    (explicit(2, "0 9007199254740993 1 0"), TokenValueError, "below 2\\*\\*53"),
    (explicit(2, "0 -1 1 0"), ParseError, "negative"),
    (euc_2d(2, "1 0 0", "2 1e30 0"), TokenValueError, "EUC_2D distance"),
    (euc_2d(2, "1 -1e308 0", "2 1e308 0"), TokenValueError, "EUC_2D distance inf"),
    (euc_2d(2, "1 0 0", "2 inf 0"), TokenValueError, "non-finite coordinate"),
    (euc_2d(2, "1 0 x", "2 3 4"), TokenValueError,
     "non-numeric token in NODE_COORD_SECTION: '1 0 x' \\(keyword NODE_COORD_SECTION, line 4\\)$"),
    (euc_2d(2, "nan 0 0", "2 1 0"), TokenValueError, "bad node index"),
    (euc_2d(2, "1 0 0", "inf 1 0"), TokenValueError, "bad node index"),
])
def test_bad_numbers_raise_parse_errors(text, error, message):
    with pytest.raises(error, match=message):
        parse_instance(text)


def test_euc_2d_matches_the_rounding_loop():
    rng = random.Random(3)
    nodes = [f"{i + 1} {rng.uniform(-1e4, 1e4)} {rng.choice([0.5, 2.5, rng.uniform(0, 1e4)])}"
             for i in range(12)]
    coords = [tuple(map(float, node.split()[1:])) for node in nodes]
    expected = [[math.floor(math.hypot(xi - xj, yi - yj) + 0.5) for xj, yj in coords]
                for xi, yi in coords]
    assert parse_instance(euc_2d(12, *nodes)).rows == expected


def test_weights_below_two_to_the_53_are_exact():
    inst = parse_instance(explicit(2, "0 9007199254740991 1 0"))
    assert inst.rows == [[0, 2**53 - 1], [1, 0]]


def test_short_coord_section_with_huge_dimension_is_a_count_error():
    # DIMENSION alone must not size an allocation (10**11 slots is ~800 GB)
    with pytest.raises(TokenCountError, match="has 2 nodes, expected 100000000000"):
        parse_instance(euc_2d(10**11, "1 0 0", "2 3 4"))


def test_full_matrix_round_trip():
    rng = random.Random(7)
    for n in (2, 5, 17):
        inst = random_instance(n, (0, 250), seed=rng.randrange(10**6))
        again = parse_instance(format_instance(inst))
        assert np.array_equal(inst.distances, again.distances)
        assert again.name == inst.name


def test_round_trip_preserves_floats():
    mat = np.array([[0.0, 1.5], [2.25, 0.0]])
    inst = Instance("floaty", 2, mat)
    again = parse_instance(format_instance(inst))
    assert again.distances.dtype == np.float64
    assert np.array_equal(again.distances, mat)


def test_random_instance_degenerate_range():
    inst = random_instance(2, (5, 5), seed=123)
    assert inst.rows == [[0, 5], [5, 0]]


def test_random_instance_determinism():
    a = random_instance(8, (1, 100), seed=42)
    b = random_instance(8, (1, 100), seed=42)
    c = random_instance(8, (1, 100), seed=43)
    assert np.array_equal(a.distances, b.distances)
    assert not np.array_equal(a.distances, c.distances)


@pytest.mark.parametrize("n", [1])
def test_random_instance_bounds(n):
    with pytest.raises(ValueError):
        random_instance(n, (1, 10), seed=0)


@pytest.mark.parametrize("n", [53, 64, 171])
def test_shipped_rnd_instances_are_random_instance_output(n):
    # scripts/make_instances.py draws every shipped rnd file this way
    name = f"rnd{n:03d}"
    built = replace(random_instance(n, (1, 100), n), name=name)
    assert format_instance(built) == (INSTANCE_DIR / f"{name}.atsp").read_text()


def test_random_instance_bad_range():
    with pytest.raises(ValueError):
        random_instance(5, (10, 1), seed=0)


def test_instance_rejects_negative_entries():
    with pytest.raises(ValueError):
        Instance("bad", 2, np.array([[0, -1], [1, 0]]))


def test_instance_rejects_wrong_shape():
    with pytest.raises(ValueError):
        Instance("bad", 3, np.zeros((2, 2)))


def test_instance_matrix_is_read_only():
    inst = random_instance(4, (1, 9), seed=1)
    with pytest.raises(ValueError):
        inst.distances[0, 1] = 99


def test_pickle_keeps_rows_and_a_read_only_matrix():
    inst = load_instance(INSTANCE_DIR / "rnd171.atsp")
    unbuilt = pickle.dumps(inst)
    assert inst.rows == inst.distances.tolist()
    for clone in (pickle.loads(unbuilt), pickle.loads(pickle.dumps(inst))):
        assert (clone.name, clone.dimension, clone.known_optimum) == \
            (inst.name, inst.dimension, inst.known_optimum)
        assert np.array_equal(clone.distances, inst.distances)
        assert clone.rows == inst.rows
        # the copy stays read-only
        with pytest.raises(ValueError):
            clone.distances[0, 1] = 99


def test_registry_round_trip(tmp_path):
    path = tmp_path / "optima.txt"
    save_registry({"br17": 39, "ft53": 6905}, path)
    assert load_registry(path) == {"br17": 39, "ft53": 6905}
    first = path.read_text()
    save_registry(load_registry(path), path)
    assert path.read_text() == first  # idempotent rewrite


def test_registry_comments_and_errors(tmp_path):
    path = tmp_path / "optima.txt"
    path.write_text("# comment\nbr17 39   # trailing\n\n")
    assert load_registry(path) == {"br17": 39}
    for bad in ("br17\n", "br17 inf\n", "br17 nan\n"):
        path.write_text(bad)
        with pytest.raises(ParseError):
            load_registry(path)


def test_load_instance_picks_up_sibling_registry(br17):
    assert br17.known_optimum == 39


def test_load_instance_name_falls_back_to_stem(tmp_path):
    text = THREE_CITY.replace("NAME: toy3\n", "")
    path = tmp_path / "nameless.atsp"
    path.write_text(text)
    assert load_instance(path).name == "nameless"


@pytest.mark.parametrize("text, rows", [
    (explicit(2, "0 7\n9 0"), [[0, 7], [9, 0]]),
    (euc_2d(2, "1 0 0", "2 0 8"), [[0, 8], [8, 0]]),
], ids=["FULL_MATRIX", "EUC_2D"])
@pytest.mark.parametrize("trailer", ["1 2 3", "DIMENSION: 5", "NAME: renamed"])
def test_nothing_after_eof_is_read(text, rows, trailer):
    inst = parse_instance(f"{text}{trailer}\n")
    assert (inst.name, inst.rows) == ("", rows)


def test_a_keyword_right_after_the_weight_section_takes_effect():
    weights = "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_SECTION\n0 7\n9 0\n"
    assert parse_instance(f"{weights}NAME: renamed\nEOF\n").name == "renamed"
    # the matrix keeps the DIMENSION in force at its keyword, so a later one
    # fails Instance's shape check, with or without a line between
    for between in ("", "COMMENT: x\n"):
        with pytest.raises(ParseError, match="must be 3x3"):
            parse_instance(f"{weights}{between}DIMENSION: 3\nEOF\n")


def test_a_numeric_line_after_the_last_node_is_a_count_error():
    with pytest.raises(TokenCountError, match="unexpected numeric data outside a section") as err:
        parse_instance(euc_2d(2, "1 0 0", "2 3 4", "3 6 8"))
    # the line is outside every section, so the error names none
    assert err.value.keyword is None and err.value.line == 6


def test_a_numeric_line_before_any_section_is_a_count_error():
    with pytest.raises(TokenCountError, match="outside a section: '1 2 3'") as err:
        parse_instance("NAME: stray\n1 2 3\n" + euc_2d(2, "1 0 0", "2 3 4"))
    assert err.value.keyword is None and err.value.line == 2
    assert str(err.value).endswith("(line 2)")


def test_a_weight_section_may_end_the_file_without_eof():
    weights = "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_SECTION\n0 7\n"
    assert parse_instance(f"{weights}9 0\n").rows == [[0, 7], [9, 0]]
    with pytest.raises(TokenCountError) as err:
        parse_instance(f"{weights}9\n")
    # the error names the file's last line, where the short section ended
    assert str(err.value) == ("EDGE_WEIGHT_SECTION ended after 3 tokens, expected 4 "
                              "(keyword EDGE_WEIGHT_SECTION, line 5)")


@pytest.mark.parametrize("text, error, message", [
    ("DIMENSION: 2\nEOF\n", MissingKeywordError,
     "missing EDGE_WEIGHT_TYPE (keyword EDGE_WEIGHT_TYPE)"),
    ("DIMENSION: 2\nEDGE_WEIGHT_TYPE: EXPLICIT\nEOF\n", MissingKeywordError,
     "missing EDGE_WEIGHT_SECTION (keyword EDGE_WEIGHT_SECTION)"),
    ("DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nEOF\n", MissingKeywordError,
     "missing NODE_COORD_SECTION (keyword NODE_COORD_SECTION)"),
    ("DIMENSION: 2\nEDGE_WEIGHT_TYPE: GEO\nEOF\n", UnsupportedFormatError,
     "unsupported EDGE_WEIGHT_TYPE 'GEO' (keyword EDGE_WEIGHT_TYPE)"),
], ids=["no-type", "no-weight-section", "no-coord-section", "geo"])
def test_a_missing_section_or_type_is_named(text, error, message):
    with pytest.raises(error) as err:
        parse_instance(text)
    assert type(err.value) is error and str(err.value) == message


def test_instance_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="non-finite"):
        Instance("bad", 2, np.array([[0, math.inf], [1, 0]]))
