"""Shorthands the tests use to build and flatten S-expression trees."""

from lemname import sexp


def parse_one(text: str):
    """The tree of text that holds exactly one S-expression."""
    (tree,) = sexp.parse(text)
    return tree


def linearize(tree) -> list:
    """`sexp.linearize` of one tree: depth-first tokens with explicit parens, atoms unquoted."""
    return sexp.linearize(tree, pieces=lambda atom: (atom,))
