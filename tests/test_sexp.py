"""Parser/printer round-trip and error behaviour for the S-expression format.

`reference_sexp` is the earlier character-by-character parser; the regex
tokenizer must give its trees, or its error type and offset, on any text.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_sexp
from sexp_helpers import linearize
from lemname import sexp
from lemname.sexp import (
    InvalidEscape,
    SExpError,
    UnbalancedParen,
    UnterminatedString,
    parse,
    render,
)


class TestParse:
    def test_flat_list(self):
        assert parse("(a b)") == [("a", "b")]

    def test_nested_empty_list(self):
        assert parse("(Prod char ( ) )") == [("Prod", "char", ())]

    def test_quoted_atom_with_space(self):
        assert parse('"a b"') == ["a b"]

    def test_quoted_escapes(self):
        assert parse('"a\\"b"') == ['a"b']
        assert parse('"a\\\\b"') == ["a\\b"]
        assert parse('"a\\nb"') == ["a\nb"]

    def test_multiple_toplevel_forms(self):
        assert parse("a (b c) d") == ["a", ("b", "c"), "d"]

    def test_whitespace_only(self):
        assert parse("  \t\n ") == []

    def test_empty_text(self):
        assert parse("") == []

    def test_adjacent_quoted_atoms(self):
        assert parse('"a""b"') == ["a", "b"]

    def test_bare_atom_stops_at_delimiters(self):
        assert parse('x(y)"z"') == ["x", ("y",), "z"]

    def test_unicode_atoms(self):
        assert parse("(π λx)") == [("π", "λx")]

    def test_exactly_six_whitespace_characters(self):
        assert parse("a \t\n\r\x0b\x0cb") == ["a", "b"]
        assert parse("(a\x85b \xa0 \u2028 \x1c)") == [("a\x85b", "\xa0", "\u2028", "\x1c")]


class TestParseErrors:
    def test_unmatched_close(self):
        with pytest.raises(UnbalancedParen) as err:
            parse("a ) b")
        assert err.value.position == 2

    def test_unclosed_open(self):
        with pytest.raises(UnbalancedParen) as err:
            parse("(a (b c)")
        assert err.value.position == 0

    def test_unterminated_string(self):
        with pytest.raises(UnterminatedString) as err:
            parse('(a "bc')
        assert err.value.position == 3

    def test_trailing_backslash(self):
        with pytest.raises(UnterminatedString):
            parse('"ab\\')

    def test_invalid_escape(self):
        with pytest.raises(InvalidEscape):
            parse('"a\\tb"')

    def test_invalid_escape_offset_inside_a_list(self):
        with pytest.raises(InvalidEscape) as err:
            parse('(x "a\\tb")')
        assert err.value.position == 5


def outcome(parser, text):
    """A parser's trees, or the type, offset and message of the error it raises."""
    try:
        return parser(text)
    except SExpError as err:
        return type(err), err.position, str(err)


# Heavy in the characters the grammar treats specially, plus whitespace
# look-alikes that are atom characters.
SEXP_TEXT = st.text(
    alphabet=st.sampled_from(list('()"\\n \t\n\r\x0b\x0c') + ["\x85", "\xa0", "\u2028", "\x1c", "a"]),
    max_size=40,
)


class TestAgainstReference:
    """parse agrees with the character-by-character reference parser."""

    @settings(max_examples=1000)
    @given(SEXP_TEXT)
    @example('"a\\"').via("an escaped quote is not a closing quote")
    @example('"\\\\"(').via("an escaped backslash before a closing quote")
    @example('"\\t"').via("an unsupported escape")
    @example('"ab\\').via("a backslash at the end of the text")
    @example("(\x85 \xa0\u2028)").via("atom characters that str.split treats as spaces")
    @example('"\\t" ) "').via("a bad escape before an unmatched paren")
    @example('(a) ) "\\t"').via("an unmatched paren before a bad escape")
    @example('(("a\\"').via("an open atom inside unclosed lists")
    def test_trees_or_error_and_offset(self, text):
        assert outcome(parse, text) == outcome(reference_sexp.parse, text)


# Parens, quotes, escapes, every character str.split splits at, letters and
# a character outside the Basic Multilingual Plane.
TOKEN_TEXT = st.text(
    alphabet=st.sampled_from(list('()"\\n') + list(sexp._SPACE + sexp._ATOM_SPACES) + ["a", "Z", "\U0001d400"]),
    max_size=60,
)


class TestTokenize:
    """The split-based tokens are `_TOKEN.findall`'s, malformed text included."""

    @settings(max_examples=2000)
    @given(TOKEN_TEXT)
    @example('(a "b c" d)').via("a quoted atom between bare runs")
    @example('x"a\\tb" (').via("a bad escape ends a quoted atom at its backslash")
    @example('a\xa0b ("\u2028")').via("spaces that str.split takes and the grammar does not")
    def test_tokens_are_findall(self, text):
        assert sexp._tokenize(text) == sexp._TOKEN.findall(text)
        # The split path on the same text without the spaces that make it fall back.
        bare = text.translate(dict.fromkeys(map(ord, sexp._ATOM_SPACES)))
        assert sexp._split_tokens(bare) == sexp._TOKEN.findall(bare)

    def test_the_fallback_spaces_are_the_other_str_split_spaces(self):
        characters = list(map(chr, range(0x110000)))
        spaces = {c for c in characters if c.isspace()}
        assert {c for c in characters if len(f"a{c}b".split()) == 2} == spaces
        assert len(sexp._ATOM_SPACES) == len(set(sexp._ATOM_SPACES))
        assert set(sexp._ATOM_SPACES) == spaces - set(sexp._SPACE)


class TestLinearTime:
    """Inputs on which a backtracking tokenizer takes quadratic time.

    Each must give the reference parser's result; a quadratic tokenizer
    takes minutes on them, so a regression hangs these tests.
    """

    @pytest.mark.parametrize(
        "text",
        [
            '"\\' * 200_000,
            '"' * 400_000,
            "(" * 200_000,
            '"a\\' * 100_000,
            '"' + "x" * 2_000_000 + '"',
            '"' + "x" * 2_000_000,
            " ".join(f'"a{index}"' for index in range(50_000)),
            '(((("a\\n b"))))' * 20_000,
        ],
        ids=[
            "quote-backslash", "quotes", "open-parens", "quote-a-backslash", "long-atom", "long-open-atom",
            "all-quoted", "quoted-in-lists",
        ],
    )
    def test_adversarial_input(self, text):
        assert outcome(parse, text) == outcome(reference_sexp.parse, text)


class TestRender:
    def test_nested_list(self):
        assert render(("a", ("b",))) == "(a (b))"

    def test_empty_list(self):
        assert render(()) == "()"

    def test_atom_with_space_is_quoted(self):
        assert render("a b") == '"a b"'

    def test_empty_atom_is_quoted(self):
        assert render("") == '""'

    def test_specials_are_escaped(self):
        assert render('a"b') == '"a\\"b"'
        assert render("a\\b") == '"a\\\\b"'
        assert render("a\nb") == '"a\\nb"'

    def test_parens_inside_atom_are_quoted(self):
        assert parse(render("(")) == ["("]

    def test_non_sexp_value_rejected(self):
        with pytest.raises(TypeError):
            render(("a", 3))


class TestLinearize:
    def test_flat(self):
        assert linearize(("Prod", "char")) == ["(", "Prod", "char", ")"]

    def test_atom(self):
        assert linearize("x") == ["x"]

    def test_nested(self):
        assert linearize((("a",),)) == ["(", "(", "a", ")", ")"]

    def test_balanced_parens(self):
        # Atoms whose text is itself "(" or ")" are excluded: linearize emits
        # raw atom texts, so only structural parens are counted here.
        rng = random.Random(7)
        for _ in range(200):
            tree = _random_tree(rng, depth=5, pool=_TOKEN_ATOM_POOL)
            toks = linearize(tree)
            depth = 0
            for tok in toks:
                if tok == "(":
                    depth += 1
                elif tok == ")":
                    depth -= 1
                assert depth >= 0
            assert depth == 0


_TOKEN_ATOM_POOL = [
    "a",
    "foo_bar",
    "Qualid",
    "x'",
    "πλ",
    "12",
    "->",
]

_ATOM_POOL = _TOKEN_ATOM_POOL + [
    "",
    "a b",
    'q"t',
    "back\\slash",
    "line\nbreak",
    "(",
    ")",
]


def _random_tree(rng: random.Random, depth: int, pool=_ATOM_POOL, budget=None):
    """A random tree of at most `depth` levels.

    `budget`, a one-element list, caps the size: once that many nodes are
    drawn, every further node is an atom. Without it the size is unbounded
    (at depth 12, up to about 128,000 nodes).
    """
    if budget is not None:
        budget[0] -= 1
    if depth == 0 or rng.random() < 0.4 or (budget is not None and budget[0] < 0):
        return rng.choice(pool)
    return tuple(_random_tree(rng, depth - 1, pool, budget) for _ in range(rng.randrange(0, 8)))


def same_tree(a, b) -> bool:
    """Structural equality without recursion; == on tuples recurses per level."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y):
            stack.extend(zip(x, y))
        elif not (isinstance(x, str) and x == y):
            return False
    return True


# Any text: delimiters, quotes, backslashes, newlines and the empty atom.
ATOMS = st.text(max_size=4)
# A level of a deep tree: the atoms before and after the child it wraps.
LEVELS = st.tuples(st.lists(ATOMS, max_size=2), st.lists(ATOMS, max_size=2))


class TestRoundTrip:
    @given(depth=st.integers(1, 3000), levels=st.lists(LEVELS, min_size=1, max_size=4), leaf=ATOMS | st.just(()))
    def test_parse_render_identity_on_deep_trees(self, depth, levels, leaf):
        tree = leaf
        for level in range(depth):
            before, after = levels[level % len(levels)]
            tree = (*before, tree, *after)
        text = render(tree)
        (parsed,) = parse(text)
        assert same_tree(parsed, tree)
        assert render(parsed) == text

    def test_parse_render_identity_on_random_trees(self):
        # Sizes are bounded: deep nesting is the deep-tree test's subject.
        rng = random.Random(42)
        for _ in range(300):
            tree = _random_tree(rng, depth=12, budget=[2000])
            assert parse(render(tree)) == [tree]

    def test_render_parse_stability_on_text(self):
        rng = random.Random(13)
        for _ in range(100):
            trees = [_random_tree(rng, depth=6) for _ in range(rng.randrange(1, 4))]
            text = "\n".join(render(t) for t in trees)
            assert parse(text) == trees

    def test_module_exports_type_alias(self):
        assert sexp.SExp is not None
