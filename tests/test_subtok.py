"""Sub-tokenizer examples, suffix peeling behaviour, and losslessness."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_subtok
import lemname.subtok
from lemname.subtok import (
    DEFAULT_LEXICON,
    SPLIT_CACHE_ENTRIES,
    SPLIT_CACHE_MAX_CHARS,
    EmptyName,
    SuffixLexicon,
    _cached_split,
    _split,
    split_statement_token,
    subtokenize_name,
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
        lex = SuffixLexicon(letters=frozenset())
        assert subtokenize_name("extprod_mulgA", lex) == ["extprod", "_", "mulg", "A"]

    def test_prime_suffix_is_a_symbol_run(self):
        subs = subtokenize_name("addn'")
        assert subs == ["addn", "'"]

    def test_empty_name_rejected(self):
        with pytest.raises(EmptyName):
            subtokenize_name("")


class TestSuffixPeel:
    @given(st.text(alphabet="aAbBCgG_0'", min_size=1), st.sets(st.sampled_from("aAbBCgG")))
    def test_one_slice_peel_matches_the_per_letter_peel(self, name, letters):
        lexicon = SuffixLexicon(letters=frozenset(letters))
        assert subtokenize_name(name, lexicon) == reference_subtok.subtokenize_name(name, lexicon.letters)

    @given(st.text(min_size=1))
    def test_an_empty_lexicon_is_the_no_peeling_split(self, name):
        no_peeling = reference_subtok.subtokenize_name(name, letters=None)
        assert subtokenize_name(name, SuffixLexicon(letters=frozenset())) == no_peeling
        assert no_peeling == list(split_statement_token(name))


class TestLinearTime:
    """Names on which peeling one letter per step takes quadratic time.

    The per-letter peel copies the rest of the word for every letter it
    drops and takes over a minute on each, so a regression hangs the tests.
    """

    def test_word_then_two_million_suffix_letters(self):
        assert subtokenize_name("mul" + "g" * 2_000_000) == ["mul"] + ["g"] * 2_000_000

    def test_two_million_suffix_letters_alone(self):
        assert subtokenize_name("g" * 2_000_000) == ["g"] * 2_000_000


class TestStatementTokens:
    def test_camel_case_split(self):
        subs = split_statement_token("CLocalAssum")
        assert subs == ("C", "Local", "Assum")

    def test_no_suffix_peeling_on_statements(self):
        assert split_statement_token("mulgA") == ("mulg", "A")

    def test_keyword_passes_through(self):
        assert split_statement_token("forall") == ("forall",)

    def test_symbol_token(self):
        subs = split_statement_token("->")
        assert subs == ("->",)

    def test_empty_token_yields_nothing(self):
        assert split_statement_token("") == ()

    def test_mixed_token(self):
        assert split_statement_token("x2_fooBar") == ("x", "2", "_", "foo", "Bar")


class TestLexicon:
    def test_default_letters(self):
        assert DEFAULT_LEXICON.letters == frozenset({"A", "C", "g"})

    def test_rejects_multichar_entries(self):
        with pytest.raises(ValueError):
            SuffixLexicon(letters=frozenset({"Ab"}))

    @pytest.mark.parametrize("field_name, value", [("letters", "ACg"), ("letters", [None])])
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
            assert "".join(split_statement_token(token)) == token


class TestSplitCache:
    @given(st.text())
    def test_cached_split_equals_uncached(self, text):
        assert split_statement_token(text) == tuple(_split(text, frozenset()))

    @given(st.text(min_size=1))
    def test_returns_a_tuple_so_the_cached_value_cannot_change(self, text):
        assert type(split_statement_token(text)) is tuple
        assert split_statement_token(text) == tuple(_split(text, frozenset()))

    def test_cache_is_bounded_by_entry_count(self):
        _cached_split.cache_clear()
        for index in range(SPLIT_CACHE_ENTRIES + 500):
            split_statement_token(f"tok{index}Name")
        info = _cached_split.cache_info()
        assert info.maxsize == SPLIT_CACHE_ENTRIES
        assert 0 < info.currsize <= SPLIT_CACHE_ENTRIES
        assert info.misses == SPLIT_CACHE_ENTRIES + 500

    def test_token_over_the_length_cap_is_never_cached(self, monkeypatch):
        long_token = "fooBar_" * (SPLIT_CACHE_MAX_CHARS // 7 + 1)
        assert len(long_token) > SPLIT_CACHE_MAX_CHARS
        capped = long_token[:SPLIT_CACHE_MAX_CHARS]
        _cached_split.cache_clear()
        calls = []
        monkeypatch.setattr(lemname.subtok, "_split", lambda text, letters: calls.append(text) or _split(text, letters))
        for _ in range(3):
            assert split_statement_token(long_token) == tuple(_split(long_token, frozenset()))
            assert split_statement_token(capped) == tuple(_split(capped, frozenset()))
        assert calls == [long_token, capped, long_token, long_token]
        assert _cached_split.cache_info().currsize == 1
