"""Tokenizer for the SQL dialect understood by the embedded engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import SqlSyntaxError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PLACEHOLDER = "placeholder"  # {p_1} style template placeholders
    EOF = "eof"


KEYWORDS = frozenset(
    """
    select from where group by having order limit offset as and or not
    join inner left right full outer cross on using distinct all
    case when then else end between in like ilike is null exists any some
    union intersect except asc desc cast
    count sum avg min max
    true false
    create table primary key foreign references index unique insert into values
    update set delete
    integer bigint double precision text date boolean varchar char numeric
    decimal float real extract interval substring
    """.split()
)

MULTI_CHAR_OPERATORS = ("<>", "!=", "<=", ">=", "||")
SINGLE_CHAR_OPERATORS = "+-*/%<>=."
PUNCTUATION = "(),;"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    type: TokenType
    value: str
    position: int

    def matches_keyword(self, *keywords: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in keywords


def tokenize(sql: str) -> list[Token]:
    """Split *sql* into tokens, raising :class:`SqlSyntaxError` on bad input.

    Identifiers and keywords are case-insensitive and normalized to lower
    case; string literals keep their case.  ``{name}`` sequences become
    :data:`TokenType.PLACEHOLDER` tokens so SQL *templates* can be parsed with
    the same grammar as executable queries.
    """
    tokens: list[Token] = []
    i = 0
    length = len(sql)
    while i < length:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):  # line comment
            end = sql.find("\n", i)
            i = length if end == -1 else end + 1
            continue
        if sql.startswith("/*", i):  # block comment
            end = sql.find("*/", i + 2)
            if end == -1:
                raise SqlSyntaxError("unterminated block comment", position=i)
            i = end + 2
            continue
        if ch == "{":
            end = sql.find("}", i + 1)
            if end == -1:
                raise SqlSyntaxError("unterminated placeholder", position=i)
            name = sql[i + 1 : end].strip()
            if not name:
                raise SqlSyntaxError("empty placeholder", position=i)
            tokens.append(Token(TokenType.PLACEHOLDER, name, i))
            i = end + 1
            continue
        if ch == "'":
            value, end = _read_string(sql, i)
            tokens.append(Token(TokenType.STRING, value, i))
            i = end
            continue
        if ch == '"':
            end = sql.find('"', i + 1)
            if end == -1:
                raise SqlSyntaxError("unterminated quoted identifier", position=i)
            tokens.append(Token(TokenType.IDENTIFIER, sql[i + 1 : end].lower(), i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and sql[i + 1].isdigit()):
            value, end = _read_number(sql, i)
            tokens.append(Token(TokenType.NUMBER, value, i))
            i = end
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i].lower()
            token_type = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENTIFIER
            tokens.append(Token(token_type, word, start))
            continue
        matched = False
        for op in MULTI_CHAR_OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in SINGLE_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, ch, i))
            i += 1
            continue
        if ch in PUNCTUATION:
            tokens.append(Token(TokenType.PUNCTUATION, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens


def _read_string(sql: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string literal starting at *start*.

    Doubled quotes (``''``) escape a quote, matching standard SQL.
    """
    chars: list[str] = []
    i = start + 1
    length = len(sql)
    while i < length:
        if sql[i] == "'":
            if i + 1 < length and sql[i + 1] == "'":
                chars.append("'")
                i += 2
                continue
            return "".join(chars), i + 1
        chars.append(sql[i])
        i += 1
    raise SqlSyntaxError("unterminated string literal", position=start)


def _read_number(sql: str, start: int) -> tuple[str, int]:
    i = start
    length = len(sql)
    seen_dot = False
    seen_exp = False
    while i < length:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            # An exponent only when a digit follows "e" or "e+"/"e-";
            # otherwise the number ends before the "e".
            digit = i + 2 if sql.startswith(("+", "-"), i + 1) else i + 1
            if digit < length and sql[digit].isdigit():
                seen_exp = True
                i = digit
            else:
                break
        else:
            break
    return sql[start:i], i
