"""Property tests for the TSPLIB parser: any text either parses into an
Instance or raises ParseError, never another exception; and every instance
it accepts runs under sga and pga, or pga rejects it up front with a named
error, alike with the compiled kernel and with the Python loops."""

import dataclasses

from hypothesis import given, settings, strategies as st

from mrtsp import ga
from mrtsp.ga import GaParams, run_sga
from mrtsp.island import IslandParams, NonIntegerWeightsError, TourLengthOverflowError, run_pga
from mrtsp.tsplib import Instance, ParseError, parse_instance

KEYWORDS = ["NAME", "TYPE", "COMMENT", "DIMENSION", "EDGE_WEIGHT_TYPE",
            "EDGE_WEIGHT_FORMAT", "EDGE_WEIGHT_SECTION", "NODE_COORD_SECTION", "EOF"]
NUMBERS = ["0", "1", "2", "3", "-1", "2.5", "1e-3", "nan", "inf", "-inf", "1e30",
           "1e308", "-1e308", "1e400", "9007199254740993", "100000000000", "1_0"]
WORDS = ["EXPLICIT", "EUC_2D", "FULL_MATRIX", "UPPER_ROW", "ATSP", "x", ""]

numbers = st.one_of(st.sampled_from(NUMBERS), st.integers(-2, 100).map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr))
headers = st.builds(lambda key, sep, value: f"{key}{sep}{value}", st.sampled_from(KEYWORDS),
                    st.sampled_from([": ", ":", " ", ""]),
                    st.one_of(numbers, st.sampled_from(WORDS)))
number_lines = st.lists(numbers, min_size=1, max_size=6).map(" ".join)
noise = st.one_of(headers, number_lines, st.text(max_size=20))


@st.composite
def documents(draw):
    """A well-formed explicit or EUC_2D file of 2-4 cities, its numbers and
    lines then perturbed: most examples reach the section readers."""
    n = draw(st.integers(2, 4))
    small = st.integers(0, 100).map(str)
    if draw(st.booleans()):
        head = ["EDGE_WEIGHT_TYPE: EXPLICIT", "EDGE_WEIGHT_SECTION"]
        body = [" ".join(draw(st.lists(st.one_of(small, numbers), min_size=n, max_size=n)))
                for _ in range(n)]
    else:
        head = ["EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
        body = [" ".join([str(i + 1), *draw(st.lists(st.one_of(small, numbers),
                                                     min_size=2, max_size=2))])
                for i in range(n)]
    dimension = draw(st.one_of(st.just(str(n)), numbers))
    lines = [f"DIMENSION: {dimension}", *head, *body, "EOF"]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return "\n".join(lines)


@st.composite
def clean_documents(draw):
    """An unperturbed FULL_MATRIX or EUC_2D file of 2-5 cities whose tokens
    are small ints or, in some examples, fractions such as 2.5: each parses,
    and a fraction in a matrix makes float weights."""
    n = draw(st.integers(2, 5))
    token = st.integers(0, 100).map(str)
    if draw(st.booleans()):
        token = st.one_of(token, st.integers(0, 400).map(lambda quarters: str(quarters / 4)))
    if draw(st.booleans()):
        head = ["EDGE_WEIGHT_TYPE: EXPLICIT", "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
                "EDGE_WEIGHT_SECTION"]
        body = [" ".join(draw(st.lists(token, min_size=n, max_size=n))) for _ in range(n)]
    else:
        head = ["EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
        body = [" ".join([str(i + 1), draw(token), draw(token)]) for i in range(n)]
    return "\n".join([f"DIMENSION: {n}", *head, *body, "EOF"])


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(documents(), st.lists(noise, max_size=12).map("\n".join)))
def test_parser_returns_an_instance_or_raises_parse_error(text):
    try:
        inst = parse_instance(text)
    except ParseError:
        return
    assert isinstance(inst, Instance)
    assert inst.distances.shape == (inst.dimension, inst.dimension)


def untimed(report):
    """The report as a dict, less its timing fields."""
    fields = dataclasses.asdict(report)
    fields.pop("wall_seconds")
    for summary in fields["rounds"]:
        summary.pop("wall_seconds")
        summary.pop("pooled")
    return fields


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(documents(), clean_documents()), population=st.integers(2, 4),
       generations=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_every_parsed_instance_runs_or_is_rejected_by_name(text, population, generations, seed):
    try:
        inst = parse_instance(text)
    except ParseError:
        return
    params = GaParams(population_size=population)
    islands = IslandParams(num_islands=2, migration_interval=1, ga=params,
                           max_total_generations=generations, convergence_patience=None)
    kernel, outcomes = ga._KERNEL, []
    try:
        for compiled in (kernel, None):
            ga._KERNEL = compiled
            sga = untimed(run_sga(inst, params, generations, seed=seed))
            try:
                pga = untimed(run_pga(inst, islands, master_seed=seed))
            except (NonIntegerWeightsError, TourLengthOverflowError) as exc:
                pga = (type(exc), str(exc))
            outcomes.append((sga, pga))
    finally:
        ga._KERNEL = kernel
    assert outcomes[0] == outcomes[1]
