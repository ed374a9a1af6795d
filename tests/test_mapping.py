"""Tests for mappings, generation, and 1:1 assignment (Section 7)."""

import dataclasses
import math

import pytest

from repro import CupidMatcher
from repro.config import CupidConfig
from repro.exceptions import MappingError
from repro.mapping.assignment import greedy_one_to_one, hungarian_one_to_one
from repro.mapping.generator import MappingGenerator
from repro.mapping.mapping import Mapping, MappingElement
from repro.model.builder import schema_from_tree
from repro.structure.dense import numpy_available

try:  # pragma: no cover - environment-specific
    import scipy.optimize  # noqa: F401

    _HAS_SCIPY = True
except ImportError:  # pragma: no cover - environment-specific
    _HAS_SCIPY = False

requires_scipy = pytest.mark.skipif(
    not _HAS_SCIPY, reason="hungarian_one_to_one requires scipy"
)


def _element(source, target, score):
    return MappingElement(
        source_path=tuple(source.split(".")),
        target_path=tuple(target.split(".")),
        similarity=score,
    )


class TestMappingElement:
    def test_validation(self):
        with pytest.raises(MappingError):
            _element("a", "b", 1.5)
        with pytest.raises(MappingError):
            MappingElement(source_path=(), target_path=("b",), similarity=0.5)

    def test_accessors(self):
        element = _element("S.A.x", "T.B.y", 0.7)
        assert element.source_name == "x"
        assert element.target_name == "y"
        assert element.name_pair() == ("x", "y")
        assert element.path_pair() == ("S.A.x", "T.B.y")

    def test_str(self):
        assert "->" in str(_element("a.b", "c.d", 0.5))


class TestMapping:
    @pytest.fixture
    def mapping(self):
        mapping = Mapping("S", "T")
        mapping.add(_element("S.a", "T.x", 0.9))
        mapping.add(_element("S.a", "T.y", 0.8))
        mapping.add(_element("S.b", "T.z", 0.7))
        return mapping

    def test_len_and_iter(self, mapping):
        assert len(mapping) == 3
        assert len(list(mapping)) == 3

    def test_path_pairs(self, mapping):
        assert ("S.a", "T.x") in mapping.path_pairs()

    def test_targets_of(self, mapping):
        assert len(mapping.targets_of("S.a")) == 2

    def test_sources_of(self, mapping):
        assert len(mapping.sources_of("T.z")) == 1

    def test_best_per_target(self, mapping):
        best = mapping.best_per_target()
        assert best["T.x"].similarity == 0.9

    def test_sorted_by_similarity(self, mapping):
        scores = [e.similarity for e in mapping.sorted_by_similarity()]
        assert scores == sorted(scores, reverse=True)

    def test_is_one_to_one(self, mapping):
        assert not mapping.is_one_to_one()
        assert Mapping("S", "T", [_element("S.a", "T.x", 0.9)]).is_one_to_one()


class TestOneToOne:
    @pytest.fixture
    def ambiguous(self):
        mapping = Mapping("S", "T")
        mapping.add(_element("S.a", "T.x", 0.9))
        mapping.add(_element("S.a", "T.y", 0.8))
        mapping.add(_element("S.b", "T.x", 0.7))
        mapping.add(_element("S.b", "T.y", 0.6))
        return mapping

    def test_greedy_picks_best_disjoint(self, ambiguous):
        result = greedy_one_to_one(ambiguous)
        assert result.is_one_to_one()
        assert ("S.a", "T.x") in result.path_pairs()
        assert ("S.b", "T.y") in result.path_pairs()

    @requires_scipy
    def test_hungarian_maximizes_total(self, ambiguous):
        result = hungarian_one_to_one(ambiguous)
        assert result.is_one_to_one()
        total = sum(e.similarity for e in result)
        assert total == pytest.approx(0.9 + 0.6)

    @requires_scipy
    def test_hungarian_on_skewed_weights(self):
        """Hungarian beats greedy when greedy's first pick is costly."""
        mapping = Mapping("S", "T")
        mapping.add(_element("S.a", "T.x", 0.9))
        mapping.add(_element("S.a", "T.y", 0.85))
        mapping.add(_element("S.b", "T.x", 0.8))
        # greedy: a->x (0.9), b gets nothing matching y... b->? none.
        greedy = greedy_one_to_one(mapping)
        hungarian = hungarian_one_to_one(mapping)
        assert sum(e.similarity for e in hungarian) >= (
            sum(e.similarity for e in greedy)
        )

    def test_empty_mapping(self):
        empty = Mapping("S", "T")
        assert len(greedy_one_to_one(empty)) == 0

    @requires_scipy
    def test_empty_mapping_hungarian(self):
        assert len(hungarian_one_to_one(Mapping("S", "T"))) == 0


class TestGeneratedMappings:
    def test_naive_mapping_is_one_to_n(self):
        """Section 7: 'a source element may map to many target
        elements' — the single CIDX Contact maps into both contexts."""
        source = schema_from_tree(
            "S", {"Contact": {"Name": "string", "Phone": "string"}}
        )
        target = schema_from_tree(
            "T",
            {
                "Ship": {"Contact": {"Name": "string", "Phone": "string"}},
                "Bill": {"Contact": {"Name": "string", "Phone": "string"}},
            },
        )
        result = CupidMatcher().match(source, target)
        names = [
            e for e in result.leaf_mapping
            if e.source_name == "Name"
        ]
        assert len(names) == 2  # same source leaf, two targets

    def test_all_leaf_mappings_meet_thaccept(self, figure2_result):
        for element in figure2_result.leaf_mapping:
            assert element.similarity >= 0.5

    def test_nonleaf_mapping_excludes_leaves(self, figure2_result):
        for element in figure2_result.nonleaf_mapping:
            assert element.source_node is not None
            assert not element.source_node.is_leaf

    def test_combined_mapping(self, figure2_result):
        combined = figure2_result.mapping
        assert len(combined) == len(figure2_result.leaf_mapping) + len(
            figure2_result.nonleaf_mapping
        )

    def test_one_to_one_extraction(self, figure2_result):
        assert figure2_result.one_to_one().is_one_to_one()


class _ScalarReads:
    """Hides a dense store behind its scalar ``wsim`` accessor, so the
    generator runs the per-pair scan the reference engine runs."""

    def __init__(self, store):
        self.wsim = store.wsim


class TestPlaneLeafMapping:
    """On dense stores the leaf mapping is a column scan over the wsim
    plane that runs the sequential ε tie-break over each column's top
    tie cluster only. It must pick exactly the node and similarity the
    full scalar scan picks."""

    EPS = MappingGenerator._TIE_EPSILON
    TOP = 0.8
    BACKENDS = ["stdlib"] + (["numpy"] if numpy_available() else [])

    def _crafted(self, backend):
        """A 6×6 leaf plane with hand-set wsim columns and hand-set
        ancestor-pair wsims (G1 > G2 > G3 under T1, reversed under
        T2)."""
        groups = ("G1", "G2", "G3")
        source = schema_from_tree(
            "S", {g: {"x": "int", "y": "int"} for g in groups}
        )
        target = schema_from_tree(
            "T",
            {
                "T1": {"t0": "int", "t1": "int", "t2": "int"},
                "T2": {"u0": "int", "u1": "int", "u2": "int"},
            },
        )
        config = CupidConfig(store="flat", dense_backend=backend)
        tm = CupidMatcher(config=config).match(source, target).treematch_result
        sims = tm.sims
        rows = {
            leaf.path()[1:]: i
            for i, leaf in enumerate(tm.source_tree.root.leaves())
        }
        cols = {
            leaf.path()[1:]: j
            for j, leaf in enumerate(tm.target_tree.root.leaves())
        }
        n_t = len(cols)
        for k in range(len(sims._W)):
            sims._W[k] = 0.1

        def put(row, col, value):
            sims._W[rows[row] * n_t + cols[col]] = value

        eps, top = self.EPS, self.TOP
        # t0: an ε-chain of near-ties (gaps 0.9ε) around the maximum.
        put(("G1", "y"), ("T1", "t0"), top - 1.8 * eps)
        put(("G2", "x"), ("T1", "t0"), top)
        put(("G2", "y"), ("T1", "t0"), top - 0.9 * eps)
        # t1: the chain reaches a row 1.5ε below the maximum that is
        # scanned first and loses its tie against G2.x; the maximum
        # then wins outright. Rows within ε of the maximum alone would
        # pick G2.x.
        put(("G1", "x"), ("T1", "t1"), top - 1.5 * eps)
        put(("G2", "x"), ("T1", "t1"), top - 0.6 * eps)
        put(("G3", "x"), ("T1", "t1"), top)
        # t2: a row exactly 2ε below a one-row cluster: the whole
        # column is scanned.
        below = top - 2 * eps
        while top - below > 2 * eps:
            below = math.nextafter(below, 1.0)
        put(("G1", "x"), ("T1", "t2"), below)
        put(("G3", "x"), ("T1", "t2"), top)
        # u0: an exact shared-type tie, broken by the ancestors (G3
        # beats G1 under T2).
        put(("G1", "y"), ("T2", "u0"), 0.7)
        put(("G3", "y"), ("T2", "u0"), 0.7)
        # u1: the tie-break moves to a lower score and keeps the
        # higher one as the similarity.
        put(("G1", "y"), ("T2", "u1"), 0.7)
        put(("G3", "y"), ("T2", "u1"), 0.7 - 0.5 * eps)
        # u2: nothing reaches thaccept.
        put(("G2", "y"), ("T2", "u2"), 0.45)

        groups_by_name = {
            node.name: node for node in tm.source_tree.root.children
        }
        parents = {node.name: node for node in tm.target_tree.root.children}
        for group, under_t1, under_t2 in (
            ("G1", 0.9, 0.2), ("G2", 0.6, 0.5), ("G3", 0.3, 0.8),
        ):
            g = groups_by_name[group].node_id
            tm.wsim[(g, parents["T1"].node_id)] = under_t1
            tm.wsim[(g, parents["T2"].node_id)] = under_t2
        return config, tm, cols

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plane_scan_matches_scalar_scan(self, backend):
        config, tm, cols = self._crafted(backend)
        generator = MappingGenerator(config)
        plane = _signature(generator.leaf_mapping(tm))
        scalar = _signature(
            generator.leaf_mapping(
                dataclasses.replace(tm, sims=_ScalarReads(tm.sims))
            )
        )
        top = self.TOP
        assert plane == scalar == sorted([
            (("S", "G2", "x"), ("T", "T1", "t0"), top),
            (("S", "G3", "x"), ("T", "T1", "t1"), top),
            (("S", "G3", "x"), ("T", "T1", "t2"), top),
            (("S", "G3", "y"), ("T", "T2", "u0"), 0.7),
            (("S", "G3", "y"), ("T", "T2", "u1"), 0.7),
        ])

    def test_cluster_shapes(self):
        config, tm, cols = self._crafted(self.BACKENDS[-1])
        generator = MappingGenerator(config)
        columns = dict(tm.sims.leaf_wsim_columns(config.thaccept))
        assert cols[("T2", "u2")] not in columns
        n_s = len(tm.source_tree.root.leaves())
        # The chain reaches every near-tie; the 2ε row forces a full
        # scan; exact ties form a two-row cluster.
        assert list(generator._top_cluster(columns[cols[("T1", "t0")]])) == [
            1, 2, 3,
        ]
        assert list(generator._top_cluster(columns[cols[("T1", "t1")]])) == [
            0, 2, 4,
        ]
        assert list(
            generator._top_cluster(columns[cols[("T1", "t2")]])
        ) == list(range(n_s))
        assert list(generator._top_cluster(columns[cols[("T2", "u0")]])) == [
            1, 5,
        ]

    @pytest.mark.parametrize("store", ["flat", "blocked"])
    def test_shared_type_ties_match_reference(self, store):
        """End to end: two identical Contact subtrees tie for every
        target leaf; the ancestors break the ties identically."""
        source = schema_from_tree(
            "S",
            {
                "Ship": {"Contact": {"Name": "string", "Phone": "string"}},
                "Bill": {"Contact": {"Name": "string", "Phone": "string"}},
            },
        )
        target = schema_from_tree(
            "T", {"BillTo": {"Contact": {"Name": "string", "Phone": "string"}}}
        )
        dense = CupidMatcher(config=CupidConfig(store=store)).match(
            source, target
        )
        reference = CupidMatcher(
            config=CupidConfig(engine="reference")
        ).match(source, target)
        assert dense.treematch_result.leaf_sweep_cells == 8
        assert len(reference.leaf_mapping) == 2
        assert _signature(dense.leaf_mapping) == _signature(
            reference.leaf_mapping
        )


def _signature(mapping):
    return sorted(
        (e.source_path, e.target_path, e.similarity) for e in mapping
    )
