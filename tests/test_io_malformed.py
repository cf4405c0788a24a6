"""Malformed-input regression tests for every reader (IO hardening).

Each parser must raise its typed :class:`repro.io.ParseError` subclass —
never a bare ``ValueError``/``KeyError``/``IndexError`` — with the
1-based line number of the offending *original* line (comments and
blanks included in the count), and the ``read_*`` wrappers must attach
the filename so the rendered message reads
``<path>: line <n>: <problem>``.
"""

from __future__ import annotations

import pytest

from repro.io import (
    HgrFormatError,
    JsonFormatError,
    NetlistFormatError,
    ParseError,
)
from repro.io.errors import ParseError as ErrorsParseError
from repro.io.hgr import parse_hgr, read_hgr
from repro.io.json_io import hypergraph_from_json, read_json
from repro.io.netlist import parse_netlist, read_netlist


class TestParseErrorType:
    def test_render_with_source_and_line(self):
        err = ParseError("bad token", source="design.hgr", line=7)
        assert str(err) == "design.hgr: line 7: bad token"
        assert err.source == "design.hgr"
        assert err.line == 7
        assert err.message == "bad token"

    def test_render_without_context(self):
        assert str(ParseError("just bad")) == "just bad"
        assert str(ParseError("bad", line=2)) == "line 2: bad"

    def test_with_source_preserves_subclass_and_line(self):
        err = HgrFormatError("bad pin", line=4)
        attached = err.with_source("a.hgr")
        assert type(attached) is HgrFormatError
        assert attached.line == 4
        assert str(attached) == "a.hgr: line 4: bad pin"

    def test_is_a_value_error(self):
        # Callers that predate the typed hierarchy catch ValueError.
        for cls in (ParseError, HgrFormatError, NetlistFormatError, JsonFormatError):
            assert issubclass(cls, ValueError)

    def test_public_reexport_is_the_same_class(self):
        assert ParseError is ErrorsParseError


class TestMalformedHgr:
    def test_empty_content(self):
        with pytest.raises(HgrFormatError, match="empty"):
            parse_hgr("")
        with pytest.raises(HgrFormatError, match="empty"):
            parse_hgr("% only a comment\n\n")

    def test_bad_header_shape(self):
        with pytest.raises(HgrFormatError, match="bad header") as exc_info:
            parse_hgr("1 2 3 4\n")
        assert exc_info.value.line == 1

    def test_non_integer_header(self):
        with pytest.raises(HgrFormatError, match="non-integer header"):
            parse_hgr("two 3\n1 2\n")

    def test_unknown_fmt_code(self):
        with pytest.raises(HgrFormatError, match="unknown fmt code"):
            parse_hgr("1 2 7\n1 2\n")

    def test_truncated_body(self):
        with pytest.raises(HgrFormatError, match="expected 2 body lines"):
            parse_hgr("2 3\n1 2\n")

    def test_non_integer_pin_reports_original_line_number(self):
        # Comments and blank lines before the bad edge still count, so
        # the reported number matches what an editor shows.
        text = "% header comment\n2 3\n\n1 2\n% mid comment\n1 x\n"
        with pytest.raises(HgrFormatError, match="non-integer pin") as exc_info:
            parse_hgr(text)
        assert exc_info.value.line == 6

    def test_pin_out_of_range(self):
        with pytest.raises(HgrFormatError, match="pins out of range") as exc_info:
            parse_hgr("1 3\n1 9\n")
        assert exc_info.value.line == 2

    def test_bad_edge_weight(self):
        with pytest.raises(HgrFormatError, match="bad weight 'w'") as exc_info:
            parse_hgr("1 3 1\nw 1 2\n")
        assert exc_info.value.line == 2

    def test_weighted_edge_needs_weight_and_pin(self):
        with pytest.raises(HgrFormatError, match="weight plus at least one pin"):
            parse_hgr("1 3 1\n2\n")

    def test_bad_vertex_weight(self):
        with pytest.raises(HgrFormatError, match="vertex weight line 1") as exc_info:
            parse_hgr("1 2 10\n1 2\nheavy\n2\n")
        assert exc_info.value.line == 3

    @pytest.mark.parametrize(
        "weight,rule", [("0", "positive"), ("-2", "positive"), ("nan", "finite"), ("inf", "finite")]
    )
    def test_bad_edge_weight_value(self, weight, rule):
        text = f"% weighted\n2 3 1\n1 1 2\n{weight} 2 3\n"
        with pytest.raises(HgrFormatError, match=f"edge line 2: edge weight must be {rule}") as exc_info:
            parse_hgr(text)
        assert exc_info.value.line == 4

    @pytest.mark.parametrize("weight,rule", [("0", "positive"), ("nan", "finite")])
    def test_bad_vertex_weight_value(self, weight, rule):
        with pytest.raises(HgrFormatError, match=f"vertex weight line 2: vertex weight must be {rule}") as exc_info:
            parse_hgr(f"1 2 10\n1 2\n1\n{weight}\n")
        assert exc_info.value.line == 4

    def test_read_reports_a_bad_weight_with_file_and_line(self, tmp_path):
        path = tmp_path / "zero.hgr"
        path.write_text("1 2 1\n0 1 2\n")
        with pytest.raises(HgrFormatError) as exc_info:
            read_hgr(path)
        assert str(exc_info.value) == (
            f"{path}: line 2: edge line 1: edge weight must be positive, got 0.0"
        )

    def test_read_attaches_filename(self, tmp_path):
        path = tmp_path / "broken.hgr"
        path.write_text("1 3\n1 x\n")
        with pytest.raises(HgrFormatError) as exc_info:
            read_hgr(path)
        assert str(exc_info.value).startswith(f"{path}: line 2:")


class TestMalformedNetlist:
    def test_line_without_colon(self):
        with pytest.raises(NetlistFormatError, match="expected '<signal>") as exc_info:
            parse_netlist("a: 1 2\nnot a statement\n")
        assert exc_info.value.line == 2

    def test_duplicate_signal(self):
        with pytest.raises(NetlistFormatError, match="duplicate signal 'a'") as exc_info:
            parse_netlist("a: 1 2\nb: 2 3\na: 3 4\n")
        assert exc_info.value.line == 3

    def test_signal_with_no_modules(self):
        with pytest.raises(NetlistFormatError, match="has no modules"):
            parse_netlist("a:\n")

    def test_empty_signal_name(self):
        with pytest.raises(NetlistFormatError, match="empty signal name"):
            parse_netlist(": 1 2\n")

    def test_bad_signal_weight(self):
        with pytest.raises(NetlistFormatError, match="bad signal weight"):
            parse_netlist("clk(fast): 1 2\n")

    def test_bad_module_statement(self):
        with pytest.raises(NetlistFormatError, match="%module") as exc_info:
            parse_netlist("a: 1 2\n%module 3\n")
        assert exc_info.value.line == 2

    def test_bad_module_weight(self):
        with pytest.raises(NetlistFormatError, match="bad weight"):
            parse_netlist("%module 3 weight=big\n")

    @pytest.mark.parametrize(
        "weight,rule", [("0", "positive"), ("-1", "positive"), ("nan", "finite"), ("inf", "finite")]
    )
    def test_bad_signal_weight_value(self, weight, rule):
        with pytest.raises(NetlistFormatError, match=f"signal 'clk': edge weight must be {rule}") as exc_info:
            parse_netlist(f"a: 1 2\nclk({weight}): 1 2\n")
        assert exc_info.value.line == 2

    @pytest.mark.parametrize("weight,rule", [("0", "positive"), ("nan", "finite")])
    def test_bad_module_weight_value(self, weight, rule):
        text = f"a: 1 2\n%module 2 weight={weight}\n# trailer\n"
        with pytest.raises(NetlistFormatError, match=f"module 2: vertex weight must be {rule}") as exc_info:
            parse_netlist(text)
        assert exc_info.value.line == 2

    def test_comments_count_toward_line_numbers(self):
        text = "# banner\n\na: 1 2\n# more\nbad line\n"
        with pytest.raises(NetlistFormatError) as exc_info:
            parse_netlist(text)
        assert exc_info.value.line == 5

    def test_read_attaches_filename(self, tmp_path):
        path = tmp_path / "broken.net"
        path.write_text("a: 1 2\nbogus\n")
        with pytest.raises(NetlistFormatError) as exc_info:
            read_netlist(path)
        assert str(exc_info.value).startswith(f"{path}: line 2:")


class TestMalformedJson:
    def test_syntactically_invalid_json_carries_decoder_line(self):
        text = '{\n  "vertices": [],\n  "edges": [,]\n}\n'
        with pytest.raises(JsonFormatError, match="invalid JSON") as exc_info:
            hypergraph_from_json(text)
        assert exc_info.value.line == 3

    def test_wrong_top_level_shape(self):
        with pytest.raises(JsonFormatError, match="'vertices' and 'edges'"):
            hypergraph_from_json("[1, 2, 3]")
        with pytest.raises(JsonFormatError, match="'vertices' and 'edges'"):
            hypergraph_from_json('{"vertices": []}')
        with pytest.raises(JsonFormatError, match="must be lists"):
            hypergraph_from_json('{"vertices": {}, "edges": []}')

    def test_misshapen_vertex_entry(self):
        with pytest.raises(JsonFormatError, match="vertex entry 0"):
            hypergraph_from_json('{"vertices": [["a"]], "edges": []}')

    def test_non_numeric_vertex_weight(self):
        with pytest.raises(JsonFormatError, match="is not a number"):
            hypergraph_from_json('{"vertices": [["a", "heavy"]], "edges": []}')
        with pytest.raises(JsonFormatError, match="is not a number"):
            hypergraph_from_json('{"vertices": [["a", true]], "edges": []}')

    def test_misshapen_edge_entry(self):
        payload = '{"vertices": [["a", 1], ["b", 1]], "edges": [["n1", ["a", "b"]]]}'
        with pytest.raises(JsonFormatError, match="edge entry 0"):
            hypergraph_from_json(payload)

    @pytest.mark.parametrize(
        "entry,message",
        [
            ('["b", 0]', "vertex entry 1: vertex weight must be positive, got 0"),
            ('["b", -1]', "vertex entry 1: vertex weight must be positive, got -1"),
            ('["b", NaN]', "vertex entry 1: vertex weight must be finite, got nan"),
            ('["b", Infinity]', "vertex entry 1: vertex weight must be finite, got inf"),
            ('[["b"], 1]', "vertex entry 1: unhashable type: 'list'"),
            ('[{"__tuple__": 5}, 1]', "vertex entry 1: 'int' object is not iterable"),
        ],
        ids=["zero", "negative", "nan", "inf", "list-label", "bad-tuple-label"],
    )
    def test_bad_vertex_entry_is_typed(self, entry, message):
        text = '{"vertices": [["a", 1], %s], "edges": []}' % entry
        with pytest.raises(JsonFormatError) as exc_info:
            hypergraph_from_json(text)
        assert exc_info.value.message == message

    @pytest.mark.parametrize(
        "weight,message",
        [
            ("0", "edge weight must be positive, got 0"),
            ("NaN", "edge weight must be finite, got nan"),
            ("-Infinity", "edge weight must be positive, got -inf"),
            ("1" + "0" * 400, "edge weight must be finite, got 1" + "0" * 400),
        ],
        ids=["zero", "nan", "minus-infinity", "int-beyond-float"],
    )
    def test_bad_edge_weight_value_is_typed(self, weight, message):
        text = '{"vertices": [["a", 1]], "edges": [["n", ["a"], %s]]}' % weight
        with pytest.raises(JsonFormatError) as exc_info:
            hypergraph_from_json(text)
        assert exc_info.value.message == f"edge entry 0: {message}"

    def test_empty_pins_rejected(self):
        payload = '{"vertices": [["a", 1]], "edges": [["n1", [], 1]]}'
        with pytest.raises(JsonFormatError, match="non-empty list"):
            hypergraph_from_json(payload)

    def test_read_attaches_filename(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(JsonFormatError) as exc_info:
            read_json(path)
        assert str(exc_info.value).startswith(f"{path}:")
