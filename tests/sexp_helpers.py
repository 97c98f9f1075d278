"""Shorthands the tests use to build and flatten S-expression trees."""

from lemname.sexp import iter_linearized, parse


def parse_one(text: str):
    """The tree of text that holds exactly one S-expression."""
    (tree,) = parse(text)
    return tree


def linearize(tree) -> list:
    """`iter_linearized` as a list: depth-first tokens with explicit parens."""
    return list(iter_linearized(tree))
