"""Tokenizer behaviour, including placeholders, comments, and errors."""

import random

import pytest

from repro.fuzz.runner import build_fuzz_database
from repro.sqldb.errors import SqlSyntaxError
from repro.sqldb.lexer import TokenType, tokenize


def kinds(sql):
    return [t.type for t in tokenize(sql)[:-1]]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("SELECT sElEcT select")
        assert all(t.value == "select" for t in tokens[:-1])
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_lowercased(self):
        assert values("MyTable") == ["mytable"]
        assert kinds("MyTable") == [TokenType.IDENTIFIER]

    def test_quoted_identifier(self):
        tokens = tokenize('"Weird Name"')
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "weird name"

    def test_eof_token_present(self):
        assert tokenize("")[0].type is TokenType.EOF

    def test_punctuation_and_operators(self):
        assert values("(a, b);") == ["(", "a", ",", "b", ")", ";"]
        assert values("a <> b != c <= d >= e || f") == [
            "a", "<>", "b", "!=", "c", "<=", "d", ">=", "e", "||", "f",
        ]


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == "42"

    def test_float(self):
        assert tokenize("3.14")[0].value == "3.14"

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == ".5"

    def test_scientific(self):
        assert tokenize("1e6")[0].value == "1e6"
        assert tokenize("2.5E-3")[0].value == "2.5E-3"

    def test_e_not_exponent(self):
        # "1e" followed by an identifier char is a number then identifier
        tokens = tokenize("1efoo")
        assert tokens[0].value == "1"
        assert tokens[1].value == "efoo"

    def test_e_at_end_of_input_is_not_exponent(self):
        assert values("select 1e") == ["select", "1", "e"]
        assert kinds("1E") == [TokenType.NUMBER, TokenType.IDENTIFIER]

    def test_e_sign_without_digit_is_not_exponent(self):
        assert values("1e+x") == ["1", "e", "+", "x"]
        assert values("select 1.5e-") == ["select", "1.5", "e", "-"]
        assert values("select 1e+ from t") == ["select", "1", "e", "+", "from", "t"]


class TestStrings:
    def test_simple_string(self):
        token = tokenize("'hello'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "hello"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_string_preserves_case(self):
        assert tokenize("'MiXeD'")[0].value == "MiXeD"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")


class TestPlaceholders:
    def test_placeholder_token(self):
        token = tokenize("{p_1}")[0]
        assert token.type is TokenType.PLACEHOLDER
        assert token.value == "p_1"

    def test_placeholder_in_context(self):
        tokens = tokenize("WHERE amount > {p_1}")
        assert tokens[-2].type is TokenType.PLACEHOLDER

    def test_unterminated_placeholder(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("{p_1")

    def test_empty_placeholder(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("{ }")


class TestComments:
    def test_line_comment(self):
        assert values("a -- comment\n b") == ["a", "b"]

    def test_line_comment_at_end(self):
        assert values("a -- trailing") == ["a"]

    def test_block_comment(self):
        assert values("a /* hi\n there */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("a /* oops")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize("a @ b")
        assert "@" in str(excinfo.value)

    def test_error_carries_position(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize("ab @")
        assert excinfo.value.position == 3


class TestPositions:
    def test_every_token_starts_where_its_text_starts(self):
        sql = "select 'abc', 12 from t where x = {v} and y >= 3.5e2"
        positions = [(t.value, t.position) for t in tokenize(sql)[:-1]]
        assert positions == [
            ("select", 0), ("abc", 7), (",", 12), ("12", 14), ("from", 17),
            ("t", 22), ("where", 24), ("x", 30), ("=", 32), ("v", 34),
            ("and", 38), ("y", 42), (">=", 44), ("3.5e2", 47),
        ]

    def test_literal_with_escaped_quote_keeps_its_start(self):
        tokens = tokenize("x = 'it''s' + .5")
        assert [(t.value, t.position) for t in tokens[2:5]] == [
            ("it's", 4), ("+", 12), (".5", 14),
        ]


class TestValidateContract:
    """``Database.validate`` returns ``(ok, error)`` and never raises, so no
    malformed input may escape the lexer as anything but a SqlError."""

    WORDS = (
        "select", "from", "where", "and", "or", "not", "in", "between",
        "like", "is", "null", "group", "by", "order", "limit", "join", "on",
        "as", "case", "when", "then", "else", "end", "count", "(", ")", ",",
        "*", "=", "<", "+", "-", "/", "'x'", "users", "orders", "user_id",
        "amount", "u", "1", "2.5", "1e", "1e+", "1.5e-", "3e-2", ".5",
    )

    def test_random_statements_return_a_pair(self):
        db = build_fuzz_database(0)
        rng = random.Random(7)
        for _ in range(2000):
            words = rng.choices(self.WORDS, k=rng.randint(1, 12))
            if rng.random() < 0.7:
                words.insert(0, "select")
            sql = " ".join(words)
            ok, error = db.validate(sql)
            assert isinstance(ok, bool), sql
            assert (error is None) == ok and (ok or isinstance(error, str)), sql
