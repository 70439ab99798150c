"""Lexer unit tests."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import Token, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source) if t.kind != "eof"]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifier(self):
        tokens = tokenize("foo")
        assert tokens[0].kind == "ident"
        assert tokens[0].value == "foo"

    def test_identifier_with_underscore_and_digits(self):
        assert values("buf_out2") == ["buf_out2"]

    def test_leading_underscore_identifier(self):
        tokens = tokenize("_tmp")
        assert tokens[0].kind == "ident"

    def test_number(self):
        tokens = tokenize("42")
        assert tokens[0].kind == "number"
        assert tokens[0].value == "42"

    def test_zero(self):
        assert tokenize("0")[0].value == "0"

    def test_keywords_recognised(self):
        for kw in ["shared", "local", "int", "lock", "thread", "if", "else",
                   "while", "for", "acquire", "release", "assert", "output",
                   "memcpy"]:
            assert tokenize(kw)[0].kind == "keyword", kw

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("iffy")[0].kind == "ident"
        assert tokenize("sharedx")[0].kind == "ident"


class TestOperators:
    @pytest.mark.parametrize("op", ["==", "!=", "<=", ">=", "&&", "||"])
    def test_multichar_operators(self, op):
        tokens = tokenize(op)
        assert tokens[0].kind == "op"
        assert tokens[0].value == op

    @pytest.mark.parametrize("op", list("+-*/%<>=!&|^(){}[],;"))
    def test_single_char_operators(self, op):
        tokens = tokenize(op)
        assert tokens[0].kind == "op"
        assert tokens[0].value == op

    def test_maximal_munch_le(self):
        # "<=" must not lex as "<", "="
        assert values("a<=b") == ["a", "<=", "b"]

    def test_adjacent_operators(self):
        assert values("a==-1") == ["a", "==", "-", "1"]

    def test_and_and_vs_and(self):
        assert values("a&&b") == ["a", "&&", "b"]
        assert values("a&b") == ["a", "&", "b"]


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("a // comment here\nb") == ["a", "b"]

    def test_line_comment_at_eof(self):
        assert values("a // trailing") == ["a"]

    def test_block_comment_skipped(self):
        assert values("a /* x */ b") == ["a", "b"]

    def test_multiline_block_comment(self):
        assert values("a /* x\ny\nz */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_whitespace_variants(self):
        assert values("a\t b\r\n c") == ["a", "b", "c"]


class TestPositions:
    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_column_numbers(self):
        tokens = tokenize("ab cd")
        assert tokens[0].column == 1
        assert tokens[1].column == 4

    def test_line_tracking_through_comment(self):
        tokens = tokenize("/* a\nb */ x")
        assert tokens[0].line == 2


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("a $ b")
        assert exc.value.line == 1

    def test_malformed_number(self):
        with pytest.raises(LexError):
            tokenize("12abc")

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\U0001d7d8"],
                             ids=["superscript-two", "arabic-indic-three",
                                  "double-struck-zero"])
    def test_non_ascii_digit_is_not_a_number(self, digit):
        """Literals are decimal: ``str.isdigit`` accepts these, and
        ``int`` either refuses them or reads them as ASCII digits."""
        for source in (f"x = {digit};", f"x = 1{digit};"):
            with pytest.raises(LexError) as exc:
                tokenize(source)
            assert "unexpected character" in str(exc.value)

    def test_error_reports_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("ok\n  @")
        assert exc.value.line == 2
        assert exc.value.column == 3
