"""Worked examples, algebraic laws and reference equality for tree chopping.

Each rewrite is exercised through `chop` with a ChopConfig that enables
only that rewrite: an empty tag set switches collapse or strip off.
`reference_chop` is the earlier three-pass implementation, whose config
switches each pass with a flag; `reference` maps an empty tag set to its
flag, and the one-walk `chop` must reach the same normal form.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_chop
from sexp_helpers import linearize, parse_one
from lemname.chop import (
    DEFAULT_LOCATION_TAGS,
    DEFAULT_QUALIFIED_NAME_TAGS,
    ChopConfig,
    MalformedQualifiedName,
    chop,
)
from lemname.corpus import bundled_corpus_dir, generate_synthetic_corpus, load_directory


def _size(tree):
    return len(linearize(tree))


def reference(tree, cfg):
    """`reference_chop.chop` under `cfg`, each empty tag set turned into its pass's flag off."""
    flagged = reference_chop.ChopConfig(
        qualified_name_tags=cfg.qualified_name_tags,
        location_tags=cfg.location_tags,
        enable_qualid_collapse=bool(cfg.qualified_name_tags),
        enable_location_strip=bool(cfg.location_tags),
        enable_singleton_extract=cfg.enable_singleton_extract,
    )
    return reference_chop.chop(tree, flagged)


NONE = frozenset()
CFG = ChopConfig()
COLLAPSE_ONLY = ChopConfig(location_tags=NONE, enable_singleton_extract=False)
STRIP_ONLY = ChopConfig(qualified_name_tags=NONE, enable_singleton_extract=False)
EXTRACT_ONLY = ChopConfig(qualified_name_tags=NONE, location_tags=NONE)
ONE_PASS_DISABLED = (
    ChopConfig(qualified_name_tags=NONE),
    ChopConfig(location_tags=NONE),
    ChopConfig(enable_singleton_extract=False),
)
CONFIGS = (CFG, *ONE_PASS_DISABLED, COLLAPSE_ONLY, STRIP_ONLY, EXTRACT_ONLY)
CONFIG_IDS = (
    "default",
    "no-collapse",
    "no-strip",
    "no-extract",
    "collapse-only",
    "strip-only",
    "extract-only",
)


class TestCollapse:
    def test_keeps_identifier_component(self):
        tree = parse_one("(Qualid (Path (A B C)) (Id f))")
        assert chop(tree, COLLAPSE_ONLY) == ("Id", "f")

    def test_serapi_shape(self):
        tree = parse_one("(CRef (Ser_Qualid (DirPath ()) (Id addn)))")
        assert chop(tree, COLLAPSE_ONLY) == ("CRef", ("Id", "addn"))

    def test_nested_qualified_component_keeps_collapsing(self):
        tree = parse_one("(Qualid (Qualid p (Id inner)))")
        assert chop(tree, COLLAPSE_ONLY) == ("Id", "inner")

    def test_bare_component_list(self):
        tree = parse_one("(DirPath ((Id A) (Id B)))")
        assert chop(tree, COLLAPSE_ONLY) == ("Id", "B")

    def test_atom_component(self):
        tree = parse_one("(Qualid A B C)")
        assert chop(tree, COLLAPSE_ONLY) == "C"

    def test_malformed_no_children(self):
        with pytest.raises(MalformedQualifiedName):
            chop(parse_one("(Qualid)"), COLLAPSE_ONLY)

    def test_malformed_empty_component_list(self):
        with pytest.raises(MalformedQualifiedName):
            chop(parse_one("(DirPath ())"), COLLAPSE_ONLY)

    def test_untagged_tree_unchanged(self):
        tree = parse_one("(App (Id f) (Rel 1))")
        assert chop(tree, COLLAPSE_ONLY) == tree


class TestStrip:
    def test_drops_location_child(self):
        tree = parse_one("(v (loc ((line 3))) (Id x))")
        assert chop(tree, STRIP_ONLY) == ("v", ("Id", "x"))

    def test_root_location_becomes_empty(self):
        tree = parse_one("(loc ((line 3)))")
        assert chop(tree, STRIP_ONLY) == ()

    def test_nested_locations_all_removed(self):
        tree = parse_one("(a (b (loc 1) c) (loc 2))")
        assert chop(tree, STRIP_ONLY) == ("a", ("b", "c"))

    def test_atom_unchanged(self):
        assert chop("x", STRIP_ONLY) == "x"


class TestExtract:
    def test_double_singleton(self):
        assert chop(parse_one("((x))"), EXTRACT_ONLY) == "x"

    def test_singleton_chain_over_list(self):
        assert chop(parse_one("(((a b)))"), EXTRACT_ONLY) == ("a", "b")

    def test_non_singletons_kept(self):
        tree = parse_one("(a (b) c)")
        assert chop(tree, EXTRACT_ONLY) == ("a", "b", "c")

    def test_empty_list_kept(self):
        assert chop(parse_one("(a ())"), EXTRACT_ONLY) == ("a", ())


class TestChopPipeline:
    def test_collapse_result_feeds_later_passes(self):
        tree = parse_one("(CRef (Ser_Qualid (DirPath ()) (Id addn)) (loc ((line 7))))")
        assert chop(tree, CFG) == ("CRef", ("Id", "addn"))

    def test_flags_disable_passes(self):
        tree = parse_one("(v (loc 1) ((x)))")
        cfg = ChopConfig(location_tags=NONE)
        assert chop(tree, cfg) == ("v", ("loc", "1"), "x")
        cfg = ChopConfig(enable_singleton_extract=False)
        assert chop(tree, cfg) == ("v", (("x",),))

    def test_all_disabled_is_identity(self):
        tree = parse_one("(Qualid p (Id f))")
        cfg = ChopConfig(qualified_name_tags=NONE, location_tags=NONE, enable_singleton_extract=False)
        assert chop(tree, cfg) == tree

    @pytest.mark.parametrize(
        "field_name, value",
        [("location_tags", "loc"), ("qualified_name_tags", [7]), ("enable_singleton_extract", "no")],
    )
    def test_config_rejects_mistyped_fields(self, field_name, value):
        with pytest.raises(ValueError, match=f"{field_name} must be"):
            ChopConfig(**{field_name: value})

    def test_rebuilt_node_with_an_exposed_head_is_rewritten_again(self):
        # Dropping (loc 1) moves a tag atom into head position.
        for text, expected in (
            ("(w ((loc 1) loc 2) x)", ("w", "x")),
            ("(w ((loc 1) Qualid p (Id f)))", ("w", ("Id", "f"))),
        ):
            tree = parse_one(text)
            assert chop(tree, CFG) == expected == reference(tree, CFG)


_LEAVES = ["a", "b", "x", "f", "1", "line", "Id", "CRef", "App"]
_HEADS = _LEAVES + ["loc", "Qualid", "Ser_Qualid", "DirPath"]


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(_LEAVES)
    head = rng.choice(_HEADS)
    children = [_random_tree(rng, depth - 1) for _ in range(rng.randrange(0, 4))]
    if head in ("Qualid", "Ser_Qualid", "DirPath"):
        # Keep qualified-name nodes well formed so collapse never raises.
        children.append(("Id", rng.choice(_LEAVES)))
    return tuple([head] + children)


class TestLaws:
    def test_laws_on_random_trees(self):
        rng = random.Random(2024)
        for _ in range(1000):
            tree = _random_tree(rng, depth=8)
            for cfg in (COLLAPSE_ONLY, STRIP_ONLY, EXTRACT_ONLY, CFG):
                once = chop(tree, cfg)
                assert once == reference(tree, cfg)
                assert chop(once, cfg) == once
                assert _size(once) <= _size(tree)
            assert _no_singleton_lists(chop(tree, CFG))

    def test_order_pinned_collapse_before_strip(self):
        # A location node hiding inside a qualified name must not survive.
        tree = parse_one("(w (Qualid p (K (loc 9) (Id f) x)))")
        assert chop(tree, CFG) == ("w", ("K", ("Id", "f"), "x"))


def _no_singleton_lists(tree):
    if isinstance(tree, str):
        return True
    if len(tree) == 1:
        return False
    return all(_no_singleton_lists(c) for c in tree)


# ------------------------------------------------- equality with the reference

# Tag atoms appear in head position only, the shape of serialized Coq
# trees. Qualified-name nodes may be malformed; lists may be headless
# (bare component lists), empty, or singletons.
_ATOMS = st.sampled_from(["a", "b", "x", "f", "1", "Id", "App"])
_TAGS = st.sampled_from(sorted(DEFAULT_QUALIFIED_NAME_TAGS | DEFAULT_LOCATION_TAGS))


def _lists(children):
    items = st.lists(children, max_size=4)
    return st.one_of(
        st.builds(lambda tag, rest: (tag, *rest), _TAGS, items),
        items.map(tuple),
    )


head_only_trees = st.recursive(_ATOMS, _lists, max_leaves=40)


def _outcome(chop_fn, tree, cfg):
    try:
        return linearize(chop_fn(tree, cfg))
    except (MalformedQualifiedName, reference_chop.MalformedQualifiedName):
        return MalformedQualifiedName


def _hollow_locations(tree):
    """The tree with every location node emptied of its children."""
    if isinstance(tree, str):
        return tree
    if tree and tree[0] in DEFAULT_LOCATION_TAGS:
        return (tree[0],)
    return tuple(_hollow_locations(child) for child in tree)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@given(tree=head_only_trees)
def test_matches_reference_on_head_only_trees(cfg, tree):
    expected = _outcome(reference, tree, cfg)
    actual = _outcome(chop, tree, cfg)
    if expected is MalformedQualifiedName and actual is not MalformedQualifiedName:
        # The one allowed divergence: the reference collapses inside
        # location nodes before dropping them, so it meets malformed names
        # there; the one walk never visits a dropped node's children.
        assert cfg.location_tags
        assert actual == _outcome(reference, _hollow_locations(tree), cfg)
    else:
        assert actual == expected


@given(tree=head_only_trees, off=st.sets(st.sampled_from(["collapse", "strip"])), splice=st.booleans())
def test_an_empty_tag_set_is_its_pass_switched_off(tree, off, splice):
    # The reference keeps its default tag sets and switches passes with
    # flags, as ChopConfig itself did before an empty set meant "off".
    cfg = ChopConfig(
        qualified_name_tags=NONE if "collapse" in off else DEFAULT_QUALIFIED_NAME_TAGS,
        location_tags=NONE if "strip" in off else DEFAULT_LOCATION_TAGS,
        enable_singleton_extract=splice,
    )
    flagged = reference_chop.ChopConfig(
        enable_qualid_collapse="collapse" not in off,
        enable_location_strip="strip" not in off,
        enable_singleton_extract=splice,
    )
    expected = _outcome(reference_chop.chop, tree, flagged)
    actual = _outcome(chop, tree, cfg)
    if expected is MalformedQualifiedName and actual is not MalformedQualifiedName:
        # The divergence test_matches_reference_on_head_only_trees allows.
        assert "strip" not in off
        assert actual == _outcome(reference_chop.chop, _hollow_locations(tree), flagged)
    else:
        assert actual == expected


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@given(tree=head_only_trees)
def test_chop_laws_on_head_only_trees(cfg, tree):
    try:
        once = chop(tree, cfg)
    except MalformedQualifiedName:
        return
    assert linearize(chop(once, cfg)) == linearize(once)
    assert _size(once) <= _size(tree)
    if cfg.enable_singleton_extract:
        assert _no_singleton_lists(once)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_matches_reference_on_bundled_and_generated_trees(cfg, tmp_path):
    generate_synthetic_corpus(tmp_path, seed=3, n_docs=6, lemmas_per_doc=10)
    for root in (bundled_corpus_dir(), tmp_path):
        for records in load_directory(root).values():
            for record in records:
                for tree in (record.syntax_tree, record.kernel_tree):
                    assert chop(tree, cfg) == reference(tree, cfg)


def test_malformed_name_inside_a_location_no_longer_raises():
    tree = parse_one("(v (loc (Qualid)) (Id x))")
    with pytest.raises(reference_chop.MalformedQualifiedName):
        reference(tree, CFG)
    assert chop(tree, CFG) == ("v", ("Id", "x"))


# ------------------------------------------------------------------ deep trees

DEEP = 100_000


def test_deep_tree_chops_without_recursion():
    level = "(App (Qualid (DirPath ()) (Id f)) (loc 1) "
    tree = parse_one(level * DEEP + "(Rel 1)" + ")" * DEEP)
    expected = parse_one("(App (Id f) " * DEEP + "(Rel 1)" + ")" * DEEP)
    assert linearize(chop(tree, CFG)) == linearize(expected)


def test_deep_singleton_chain_splices_to_its_atom():
    assert chop(parse_one("(" * DEEP + "x" + ")" * DEEP), CFG) == "x"
    assert chop(parse_one("(Qualid (loc " * DEEP + "x" + "))" * DEEP), CFG) == ()
