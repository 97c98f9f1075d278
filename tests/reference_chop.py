# The three-pass chop that preceded the one-walk rewrite in lemname.chop,
# kept unchanged (apart from this header and its import) as the test oracle.
"""Tree-shrinking passes applied to serialized syntax and kernel trees.

Serialized Coq trees carry fully qualified names and source locations that
are useless for naming and blow up the token stream. Chopping rewrites a
tree in three passes: collapse qualified-name nodes to their last
component, drop location nodes, and splice out single-child list nodes.
Each pass only ever shrinks the tree, and the composition is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lemname.sexp import SExp, render

DEFAULT_QUALIFIED_NAME_TAGS = frozenset({"Ser_Qualid", "Qualid", "DirPath"})
DEFAULT_LOCATION_TAGS = frozenset({"loc"})


class MalformedQualifiedName(Exception):
    """A qualified-name node with no recognizable component to keep."""

    def __init__(self, subtree: SExp):
        super().__init__(f"qualified-name node has no components: {render(subtree)}")
        self.subtree = subtree


@dataclass(frozen=True)
class ChopConfig:
    """Which passes run and which head atoms they react to."""

    qualified_name_tags: frozenset = field(default=DEFAULT_QUALIFIED_NAME_TAGS)
    location_tags: frozenset = field(default=DEFAULT_LOCATION_TAGS)
    enable_qualid_collapse: bool = True
    enable_location_strip: bool = True
    enable_singleton_extract: bool = True

    def __post_init__(self):
        object.__setattr__(self, "qualified_name_tags", frozenset(self.qualified_name_tags))
        object.__setattr__(self, "location_tags", frozenset(self.location_tags))
        if self.enable_qualid_collapse and not self.qualified_name_tags:
            raise ValueError("qualified-name collapse enabled with empty tag set")
        if self.enable_location_strip and not self.location_tags:
            raise ValueError("location strip enabled with empty tag set")

    def to_dict(self) -> dict:
        return {
            "qualified_name_tags": sorted(self.qualified_name_tags),
            "location_tags": sorted(self.location_tags),
            "enable_qualid_collapse": self.enable_qualid_collapse,
            "enable_location_strip": self.enable_location_strip,
            "enable_singleton_extract": self.enable_singleton_extract,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChopConfig":
        return cls(
            qualified_name_tags=frozenset(data["qualified_name_tags"]),
            location_tags=frozenset(data["location_tags"]),
            enable_qualid_collapse=data["enable_qualid_collapse"],
            enable_location_strip=data["enable_location_strip"],
            enable_singleton_extract=data["enable_singleton_extract"],
        )


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


def collapse_qualified_names(tree: SExp, config: ChopConfig) -> SExp:
    """Replace every qualified-name subtree with its last component.

    Replacements are re-examined, so a component that is itself a
    qualified-name node keeps collapsing. Rewriting a child can hand its
    parent a tagged head (degenerate trees only), so the pass repeats
    until the tree stops changing; each round shrinks the tree, hence
    termination and idempotence.
    """
    tags = config.qualified_name_tags

    def walk(node: SExp) -> SExp:
        while _head_tag(node) in tags:
            node = _last_component(node)
        if isinstance(node, str):
            return node
        return tuple(walk(child) for child in node)

    while True:
        rewritten = walk(tree)
        if rewritten == tree:
            return rewritten
        tree = rewritten


def strip_locations(tree: SExp, config: ChopConfig) -> SExp:
    """Drop every subtree whose head atom is a location tag.

    A tree that is itself a location node becomes the empty list. Run to
    a fixpoint for the same reason as the collapse pass: dropping a head
    child can expose a location tag one level up.
    """
    tags = config.location_tags

    def walk(node: SExp) -> SExp:
        if isinstance(node, str):
            return node
        return tuple(walk(child) for child in node if _head_tag(child) not in tags)

    while True:
        if _head_tag(tree) in tags:
            return ()
        rewritten = walk(tree)
        if rewritten == tree:
            return rewritten
        tree = rewritten


def extract_singletons(tree: SExp) -> SExp:
    """Splice out list nodes with exactly one child, bottom-up."""

    def walk(node: SExp) -> SExp:
        if isinstance(node, str):
            return node
        children = tuple(walk(child) for child in node)
        if len(children) == 1:
            return children[0]
        return children

    return walk(tree)


def chop(tree: SExp, config: ChopConfig | None = None) -> SExp:
    """Apply the enabled passes in their fixed order, to a fixpoint.

    Order within a round is collapse, strip, extract: collapsing first
    lets a location node hiding inside a qualified name surface for
    stripping, and extraction last cleans up singletons the first two
    passes expose. A round can in turn uncover work for an earlier pass
    (splicing a singleton may expose a qualified-name head), so rounds
    repeat until the tree stops changing. Every rewrite shrinks the
    tree, so this terminates; on ordinary serialized trees the second
    round is already a no-op.
    """
    config = config or ChopConfig()
    while True:
        rewritten = tree
        if config.enable_qualid_collapse:
            rewritten = collapse_qualified_names(rewritten, config)
        if config.enable_location_strip:
            rewritten = strip_locations(rewritten, config)
        if config.enable_singleton_extract:
            rewritten = extract_singletons(rewritten)
        if rewritten == tree:
            return rewritten
        tree = rewritten
