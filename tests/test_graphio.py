"""Edge-list and graph6 parsing/serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from toughspec.graphio import (
    GraphFormat,
    GraphFormatError,
    parse_graph,
    serialize_graph,
)
from toughspec.graphs import complete, cycle, empty, path, petersen
from toughspec.randoms import gnp


TRIANGLE_TEXT = "3 3\n0 1\n0 2\n1 2"

# malformed text -> the exact GraphFormatError message it must raise
EDGE_LIST_ERRORS = {
    "": "line 1: missing 'n m' header",
    "3": "line 1: header must be 'n m', got '3'",
    "3 x": "line 1: header must hold two integers, got '3 x'",
    "x 3": "line 1: header must hold two integers, got 'x 3'",
    "0 0": "line 1: order must be at least 1, got 0",
    "3 2\n0 1": "header announces 2 edges but 1 edge lines follow",
    "3 1\n0 1\n1 2": "header announces 1 edges but 2 edge lines follow",
    "3 1\n0 0": "line 2: self-loop at vertex 0",
    "3 1\n0 3": "line 2: endpoint out of range 0..2",
    "3 2\n0 1\n1 0": "line 3: duplicate edge (0, 1)",
    "3 1\n0 1 2": "line 2: edge must be 'u v', got '0 1 2'",
    "3 1\n0": "line 2: edge must be 'u v', got '0'",
    "3 1\n0 a": "line 2: edge endpoints must be integers, got '0 a'",
    "-2 0": "line 1: order must be at least 1, got -2",
    "3 -1": "line 1: edge count must be nonnegative",
    "3 2\n\n0 1\n\n0 9": "line 5: endpoint out of range 0..2",  # blank lines count
}
GRAPH6_ERRORS = {
    "": "empty graph6 string",
    "D~": "graph6 body for n=5 needs 2 characters, got 1",
    "D~{{": "graph6 body for n=5 needs 2 characters, got 3",
    "D~\x1f": "graph6 body for n=5 needs 2 characters, got 1",  # strip() drops \x1f
    "D~~": "graph6 padding bits must be zero",
    "D\x1f~": "graph6 character '\\x1f' out of range",
    "~": "truncated graph6 order",
    "~??": "truncated graph6 order",  # 4-byte order header cut short
    "~~?????": "truncated graph6 order",  # 8-byte order header cut short
    "?": "graph needs at least one vertex",  # the null graph
    "~~??????": "graph needs at least one vertex",
    "?A": "graph6 body for n=0 needs 0 characters, got 1",
}


class TestEdgeList:
    def test_parse_triangle(self):
        g = parse_graph(TRIANGLE_TEXT, GraphFormat.EDGE_LIST)
        assert g == complete(3)

    def test_serialize_triangle(self):
        assert serialize_graph(complete(3), GraphFormat.EDGE_LIST) == TRIANGLE_TEXT

    def test_serializer_emits_no_trailing_newline(self):
        text = serialize_graph(path(2), GraphFormat.EDGE_LIST)
        assert text == "2 1\n0 1"

    def test_parse_tolerates_trailing_newline_and_blank_lines(self):
        g = parse_graph("3 2\n0 1\n1 2\n", GraphFormat.EDGE_LIST)
        assert g == path(3)

    def test_edgeless_graph(self):
        assert parse_graph("4 0", GraphFormat.EDGE_LIST) == empty(4)
        assert serialize_graph(empty(4), GraphFormat.EDGE_LIST) == "4 0"

    def test_edges_serialized_in_sorted_order(self):
        text = serialize_graph(cycle(4), GraphFormat.EDGE_LIST)
        assert text.splitlines()[1:] == ["0 1", "0 3", "1 2", "2 3"]

    @pytest.mark.parametrize("bad", list(EDGE_LIST_ERRORS))
    def test_rejects_malformed_text(self, bad):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(bad, GraphFormat.EDGE_LIST)
        assert str(info.value) == EDGE_LIST_ERRORS[bad]

    def test_error_reports_one_based_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("3 2\n0 1\n0 9", GraphFormat.EDGE_LIST)


class TestGraph6:
    def test_complete_graph_on_five_vertices(self):
        # standard encoding of K_5
        assert serialize_graph(complete(5), GraphFormat.GRAPH6) == "D~{"
        assert parse_graph("D~{", GraphFormat.GRAPH6) == complete(5)

    def test_single_vertex(self):
        text = serialize_graph(complete(1), GraphFormat.GRAPH6)
        assert parse_graph(text, GraphFormat.GRAPH6) == complete(1)

    def test_petersen_round_trip(self):
        text = serialize_graph(petersen(), GraphFormat.GRAPH6)
        assert parse_graph(text, GraphFormat.GRAPH6) == petersen()

    def test_long_order_prefix_round_trip(self):
        # orders above 62 switch to the 4-byte prefix
        for n, prefix in ((62, "}"), (63, "~??~"), (64, "~?@?"), (70, "~?@E")):
            for g in (path(n), gnp(n, 0.3, n)):
                text = serialize_graph(g, GraphFormat.GRAPH6)
                assert text[: len(prefix)] == prefix
                assert parse_graph(text, GraphFormat.GRAPH6) == g

    @pytest.mark.parametrize("bad", list(GRAPH6_ERRORS))
    def test_rejects_malformed_graph6(self, bad):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(bad, GraphFormat.GRAPH6)
        assert str(info.value) == GRAPH6_ERRORS[bad]

    def test_rejects_nonzero_padding_bits(self):
        # P_2 is "A_"; "A`" flips a padding bit that must be zero
        assert serialize_graph(path(2), GraphFormat.GRAPH6) == "A_"
        with pytest.raises(GraphFormatError, match="^graph6 padding bits must be zero$"):
            parse_graph("A`", GraphFormat.GRAPH6)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 24),
       tenths=st.integers(0, 10))
def test_round_trip_both_formats(seed, n, tenths):
    g = gnp(n, tenths / 10, seed)
    for fmt in GraphFormat:
        assert parse_graph(serialize_graph(g, fmt), fmt) == g
