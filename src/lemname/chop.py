"""Tree chopping: one post-order rewrite of serialized syntax and kernel trees.

Serialized Coq trees carry fully qualified names and source locations that
are useless for naming and blow up the token stream. Chopping applies three
rewrites, each of which ChopConfig can switch off: collapse a
qualified-name node to its last component, drop a location node, and
splice out a single-child list node. An empty tag set switches the first
two off, since no head matches it. All three run in one post-order walk
of the tree. Tags are recognized in head position only: a node is a
qualified-name or location node when its first element is an atom in the
configured tag set; a tag atom anywhere else is an ordinary atom. Every
rewrite only ever shrinks the tree, and chopping is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import DomainError, InvalidValue
from .sexp import SExp, render

DEFAULT_QUALIFIED_NAME_TAGS = frozenset({"Ser_Qualid", "Qualid", "DirPath"})
DEFAULT_LOCATION_TAGS = frozenset({"loc"})


class MalformedQualifiedName(DomainError):
    """A qualified-name node with no recognizable component to keep."""

    def __init__(self, subtree: SExp):
        super().__init__(f"qualified-name node has no components: {render(subtree)}")
        self.subtree = subtree


@dataclass(frozen=True)
class ChopConfig:
    """The head atoms each rewrite reacts to (none: the rewrite is off), and whether singletons splice."""

    qualified_name_tags: frozenset = field(default=DEFAULT_QUALIFIED_NAME_TAGS)
    location_tags: frozenset = field(default=DEFAULT_LOCATION_TAGS)
    enable_singleton_extract: bool = True

    def __post_init__(self):
        for name in ("qualified_name_tags", "location_tags"):
            tags = getattr(self, name)
            if not isinstance(tags, (list, tuple, set, frozenset)) or not all(isinstance(t, str) for t in tags):
                raise InvalidValue(f"{name} must be a set of strings, got {tags!r}")
            object.__setattr__(self, name, frozenset(tags))
        if not isinstance(self.enable_singleton_extract, bool):
            raise InvalidValue(f"enable_singleton_extract must be a bool, got {self.enable_singleton_extract!r}")


DEFAULT_CHOP_CONFIG = ChopConfig()


def _head_tag(node: SExp):
    if isinstance(node, tuple) and node and isinstance(node[0], str):
        return node[0]
    return None


def _last_component(node: tuple) -> SExp:
    """The component a qualified-name node collapses to.

    Components are the children after the head atom. A headless tuple in
    last position is a bare component list (the DirPath shape), so its own
    last element is the component.
    """
    candidates = node[1:]
    if not candidates:
        raise MalformedQualifiedName(node)
    last = candidates[-1]
    if isinstance(last, tuple) and _head_tag(last) is None:
        if not last:
            raise MalformedQualifiedName(node)
        return last[-1]
    return last


def chop(tree: SExp, config: ChopConfig = DEFAULT_CHOP_CONFIG) -> SExp:
    """Rewrite a tree to its chopped normal form in one post-order walk.

    A child is rewritten when the walk reaches it: while its head is a
    qualified-name tag it collapses to its last component, so a location
    node hiding inside a qualified name surfaces; then a location child
    is dropped unvisited. Once a node's children are rebuilt, the node is
    examined again, because losing or splicing its first child can expose
    a new head: a qualified-name head collapses (the components are
    already chopped), a location head drops the node, and a singleton is
    spliced into its parent. A dropped root becomes the empty list. The
    result holds nothing an enabled rewrite applies to, so chopping it
    again returns it unchanged. The walk keeps its own stack, so a deep
    tree costs no recursion.
    """
    qualified = config.qualified_name_tags
    locations = config.location_tags
    splice = config.enable_singleton_extract

    # One frame per open node: an iterator over its children and the
    # rewritten children kept so far. The bottom frame holds the root. The
    # head-tag test of _head_tag is written out inline where it runs once
    # per child and once per finished node.
    stack = [(iter((tree,)), [])]
    while True:
        children, kept = stack[-1]
        for child in children:
            if isinstance(child, str):
                kept.append(child)
                continue
            head = child[0] if isinstance(child, tuple) and child and isinstance(child[0], str) else None
            while head in qualified:
                child = _last_component(child)
                head = _head_tag(child)
            if isinstance(child, str):  # a collapsed qualified name
                kept.append(child)
            elif head not in locations:
                stack.append((iter(child), []))
                break
        else:
            stack.pop()
            if not stack:
                return kept[0] if kept else ()
            node = tuple(kept)
            head = node[0] if node and isinstance(node[0], str) else None
            if head in qualified:
                node = _last_component(node)
            elif head in locations:
                continue
            elif splice and len(node) == 1:
                node = node[0]
            stack[-1][1].append(node)
