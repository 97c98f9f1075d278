"""Sub-tokenizer examples, suffix peeling behaviour, and losslessness."""

import random

import pytest

from lemname.subtok import (
    DEFAULT_LEXICON,
    EmptyName,
    SuffixLexicon,
    subtokenize_name,
    subtokenize_statement_token,
)


class TestNameExamples:
    def test_suffix_peeling_with_camel_boundary(self):
        subs = subtokenize_name("extprod_mulgA")
        assert subs == ["extprod", "_", "mul", "g", "A"]

    def test_short_head_is_not_peeled(self):
        assert subtokenize_name("mg_eq_nerode") == ["mg", "_", "eq", "_", "nerode"]

    def test_lexicon_head_may_shrink_to_one_letter(self):
        # Both letters are in the lexicon, so peeling may empty the tail.
        subs = subtokenize_name("AC")
        assert subs == ["A", "C"]

    def test_digit_boundary(self):
        subs = subtokenize_name("addn0", SuffixLexicon(letters=frozenset("ACgn")))
        assert subs == ["add", "n", "0"]

    def test_digit_boundary_without_lexicon_letter(self):
        assert subtokenize_name("addn0") == ["addn", "0"]

    def test_peeling_disabled(self):
        lex = SuffixLexicon(enabled=False)
        assert subtokenize_name("extprod_mulgA", lex) == ["extprod", "_", "mulg", "A"]

    def test_prime_suffix_is_a_symbol_run(self):
        subs = subtokenize_name("addn'")
        assert subs == ["addn", "'"]

    def test_empty_name_rejected(self):
        with pytest.raises(EmptyName):
            subtokenize_name("")


class TestStatementTokens:
    def test_camel_case_split(self):
        subs = subtokenize_statement_token("CLocalAssum")
        assert subs == ["C", "Local", "Assum"]

    def test_no_suffix_peeling_on_statements(self):
        assert subtokenize_statement_token("mulgA") == ["mulg", "A"]

    def test_keyword_passes_through(self):
        assert subtokenize_statement_token("forall") == ["forall"]

    def test_symbol_token(self):
        subs = subtokenize_statement_token("->")
        assert subs == ["->"]

    def test_empty_token_yields_nothing(self):
        assert subtokenize_statement_token("") == []

    def test_mixed_token(self):
        assert subtokenize_statement_token("x2_fooBar") == ["x", "2", "_", "foo", "Bar"]


class TestLexicon:
    def test_default_letters(self):
        assert DEFAULT_LEXICON.letters == frozenset({"A", "C", "g"})
        assert DEFAULT_LEXICON.enabled

    def test_rejects_empty_enabled_lexicon(self):
        with pytest.raises(ValueError):
            SuffixLexicon(letters=frozenset())

    def test_rejects_multichar_entries(self):
        with pytest.raises(ValueError):
            SuffixLexicon(letters=frozenset({"Ab"}))

    @pytest.mark.parametrize("field_name, value", [("letters", "ACg"), ("letters", [None]), ("enabled", "no")])
    def test_rejects_mistyped_fields(self, field_name, value):
        with pytest.raises(ValueError, match=f"{field_name} must be"):
            SuffixLexicon(**{field_name: value})


_IDENT_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'"


class TestLosslessness:
    def test_round_trip_on_random_identifiers(self):
        rng = random.Random(99)
        for _ in range(10_000):
            first = rng.choice("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
            rest = "".join(rng.choice(_IDENT_CHARS) for _ in range(rng.randrange(0, 12)))
            name = first + rest
            subs = subtokenize_name(name)
            assert "".join(subs) == name
            assert all(subs)

    def test_round_trip_on_statement_tokens(self):
        rng = random.Random(100)
        alphabet = _IDENT_CHARS + "()=<>+-*/.,:"
        for _ in range(2000):
            token = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 10)))
            assert "".join(subtokenize_statement_token(token)) == token
