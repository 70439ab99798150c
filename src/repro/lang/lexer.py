"""Hand-written lexer for MiniSMP."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.lang.errors import LexError

KEYWORDS = {
    "shared", "local", "int", "lock", "thread",
    "if", "else", "while", "for",
    "acquire", "release", "wait", "notify", "notifyall",
    "assert", "output", "memcpy",
}

#: Multi-character operators, longest first so maximal munch works.
MULTI_OPS = ["==", "!=", "<=", ">=", "&&", "||"]
SINGLE_OPS = set("+-*/%<>=!&|^(){}[],;")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'number', 'keyword', 'op', 'eof'
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize MiniSMP source, raising :class:`LexError` on bad input.

    Supports ``//`` line comments and ``/* */`` block comments.
    """
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise LexError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        # ASCII digits only: ``str.isdigit`` also accepts ``²`` and the
        # digits of other scripts, which ``int`` refuses or reads
        if "0" <= ch <= "9":
            start = i
            start_line, start_col = line, col
            while i < n and "0" <= source[i] <= "9":
                advance(1)
            if i < n and (source[i].isalpha() or source[i] == "_"):
                raise LexError(
                    f"malformed number near {source[start:i + 1]!r}",
                    start_line, start_col,
                )
            tokens.append(Token("number", source[start:i], start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_line, start_col = line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            word = source[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, start_line, start_col))
            continue
        matched = False
        for op in MULTI_OPS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, col))
                advance(len(op))
                matched = True
                break
        if matched:
            continue
        if ch in SINGLE_OPS:
            tokens.append(Token("op", ch, line, col))
            advance(1)
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)

    tokens.append(Token("eof", "", line, col))
    return tokens
