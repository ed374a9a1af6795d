"""Engine parity: dense and reference engines must agree bit-for-bit.

The dense engine (``config.engine = "dense"``) replaces the TreeMatch
hot path with contiguous-array arithmetic and memoizes the linguistic
phase; the reference engine is the correctness oracle. Because the
dense paths apply exactly the same IEEE-754 double operations, the
two must produce *identical* (not merely close) lsim tables, wsim
values, and leaf/non-leaf mappings — these tests assert exact
equality, on the canonical dataset, the Figure 2 walkthrough,
rdb_star, and seeded generator schemas (including the join-view DAG
and depth-pruned-frontier configurations).
"""

from __future__ import annotations

import pytest

from repro import CupidMatcher, MatchPipeline
from repro.config import CupidConfig
from repro.datasets.canonical import canonical_examples
from repro.datasets.figure2 import figure2_po, figure2_purchase_order
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.datasets.rdb_star import rdb_schema, star_schema
from repro.structure.dense import (
    DenseSimilarityStore,
    numpy_available,
    resolve_backend,
)
from repro.structure.similarity import SimilarityStore


def _mapping_signature(mapping):
    return sorted(
        (e.source_path, e.target_path, e.similarity) for e in mapping
    )


def _wsim_signature(result):
    """wsim values keyed by node *paths* (node ids differ across runs)."""
    source_paths = {n.node_id: n.path() for n in result.source_tree.nodes()}
    target_paths = {n.node_id: n.path() for n in result.target_tree.nodes()}
    return sorted(
        (source_paths[s], target_paths[t], value)
        for (s, t), value in result.treematch_result.wsim.items()
    )


def _run(source, target, engine, **overrides):
    config = CupidConfig(engine=engine, **overrides)
    return CupidMatcher(config=config).match(source, target)


def assert_parity(source, target, **overrides):
    dense = _run(source, target, "dense", **overrides)
    reference = _run(source, target, "reference", **overrides)

    assert sorted(dense.lsim_table.items()) == sorted(
        reference.lsim_table.items()
    )
    assert _wsim_signature(dense) == _wsim_signature(reference)
    assert _mapping_signature(dense.leaf_mapping) == _mapping_signature(
        reference.leaf_mapping
    )
    assert _mapping_signature(dense.nonleaf_mapping) == _mapping_signature(
        reference.nonleaf_mapping
    )
    tm_dense = dense.treematch_result
    tm_reference = reference.treematch_result
    assert tm_dense.compared_pairs == tm_reference.compared_pairs
    assert tm_dense.pruned_pairs == tm_reference.pruned_pairs
    assert tm_dense.scaled_pairs == tm_reference.scaled_pairs
    assert isinstance(tm_dense.sims, DenseSimilarityStore)
    assert not isinstance(tm_reference.sims, DenseSimilarityStore)
    return dense, reference


class TestCanonicalParity:
    @pytest.mark.parametrize("example_id", [1, 2, 3, 4, 5, 6])
    def test_canonical_example(self, example_id):
        example = canonical_examples()[example_id - 1]
        assert_parity(example.schema1, example.schema2)


class TestFigure2Parity:
    def test_figure2_walkthrough(self):
        assert_parity(figure2_po(), figure2_purchase_order())

    def test_figure2_stdlib_backend(self):
        assert_parity(
            figure2_po(), figure2_purchase_order(), dense_backend="stdlib"
        )

    def test_figure2_no_optional_discount(self):
        assert_parity(
            figure2_po(),
            figure2_purchase_order(),
            discount_optional_leaves=False,
        )


class TestRdbStarParity:
    def test_rdb_star(self):
        # Join-view augmentation turns both trees into DAGs, so this
        # exercises the gather (non-contiguous leaf slice) path.
        assert_parity(rdb_schema(), star_schema())

    def test_rdb_star_without_joins(self):
        assert_parity(rdb_schema(), star_schema(), use_refint_joins=False)

    def test_rdb_star_leaf_prune_depth(self):
        # Depth-pruned frontiers contain non-leaf stand-ins, forcing
        # the dense engine's fallback to the per-pair reference loop.
        assert_parity(rdb_schema(), star_schema(), leaf_prune_depth=2)


class TestGeneratedSchemasParity:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_perturbed_generated_schema(self, seed):
        generator = SchemaGenerator(seed=seed)
        schema = generator.generate(n_leaves=30, max_depth=3)
        copy, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        assert_parity(schema, copy)

    def test_generated_schema_refint_dag(self):
        generator = SchemaGenerator(seed=7)
        schema = generator.generate(n_leaves=24, max_depth=3)
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy, use_refint_joins=True)

    def test_generated_schema_leaf_prune_depth(self):
        generator = SchemaGenerator(seed=13)
        schema = generator.generate(n_leaves=24, max_depth=4)
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy, leaf_prune_depth=1)

    def test_generated_schema_no_pruning(self):
        generator = SchemaGenerator(seed=5)
        schema = generator.generate(n_leaves=20, max_depth=3)
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy, prune_by_leaf_count=False)


class TestDuplicateHeavyParity:
    """The distinct-name kernel must stay bit-identical where it pays
    off most: schemas whose names repeat heavily."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_repetition_workload(self, seed):
        generator = SchemaGenerator(seed=seed)
        schema = generator.generate(
            n_leaves=40, max_depth=3, name_repetition=0.8
        )
        copy, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        assert_parity(schema, copy)

    def test_wide_star_shape(self):
        generator = SchemaGenerator(seed=11)
        schema = generator.generate(
            n_leaves=48, max_depth=2, fanout=12, name_repetition=0.9
        )
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy)

    def test_repetition_stdlib_backend(self):
        generator = SchemaGenerator(seed=13)
        schema = generator.generate(
            n_leaves=36, max_depth=3, name_repetition=0.7
        )
        copy, _ = generator.perturb(schema, PerturbationConfig())
        assert_parity(schema, copy, dense_backend="stdlib")

    @pytest.mark.parametrize("repetition", [0.0, 0.8])
    def test_kernel_ablation_identical(self, repetition):
        """dense+kernel and dense without the kernel agree exactly
        (same lsim items, same mappings) — the kernel is a pure
        reorganization of the same float computations."""
        generator = SchemaGenerator(seed=17)
        schema = generator.generate(
            n_leaves=35, max_depth=3, name_repetition=repetition
        )
        copy, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        with_kernel = _run(schema, copy, "dense")
        without = _run(schema, copy, "dense", linguistic_kernel=False)
        assert sorted(with_kernel.lsim_table.items()) == sorted(
            without.lsim_table.items()
        )
        assert _wsim_signature(with_kernel) == _wsim_signature(without)
        assert _mapping_signature(with_kernel.leaf_mapping) == (
            _mapping_signature(without.leaf_mapping)
        )
        assert _mapping_signature(with_kernel.nonleaf_mapping) == (
            _mapping_signature(without.nonleaf_mapping)
        )

    def test_kernel_produces_factored_table(self):
        from repro.linguistic.kernel import FactoredLsimTable

        example = canonical_examples()[0]
        dense = _run(example.schema1, example.schema2, "dense")
        reference = _run(example.schema1, example.schema2, "reference")
        assert isinstance(dense.lsim_table, FactoredLsimTable)
        assert not isinstance(reference.lsim_table, FactoredLsimTable)
        # Factored reads agree with the materialized dict form.
        for (id1, id2), value in reference.lsim_table.items():
            assert dense.lsim_table.get_by_id(id1, id2) == value


class TestBackendParity:
    """numpy and stdlib dense backends agree with each other too."""

    def test_backends_identical(self):
        source, target = figure2_po(), figure2_purchase_order()
        stdlib = _run(source, target, "dense", dense_backend="stdlib")
        auto = _run(source, target, "dense", dense_backend="auto")
        assert _wsim_signature(stdlib) == _wsim_signature(auto)
        assert _mapping_signature(stdlib.leaf_mapping) == _mapping_signature(
            auto.leaf_mapping
        )
        assert stdlib.treematch_result.sims.backend == "stdlib"
        expected = "numpy" if numpy_available() else "stdlib"
        assert auto.treematch_result.sims.backend == expected

    @pytest.mark.skipif(
        not numpy_available(), reason="numpy not installed"
    )
    def test_forced_numpy_backend(self):
        result = _run(
            figure2_po(),
            figure2_purchase_order(),
            "dense",
            dense_backend="numpy",
        )
        assert result.treematch_result.sims.backend == "numpy"

    def test_resolve_backend(self):
        assert resolve_backend("stdlib") == "stdlib"
        expected = "numpy" if numpy_available() else "stdlib"
        assert resolve_backend("auto") == expected


class TestVectorizedPaths:
    """Force the numpy vector paths (normally reserved for blocks of
    >= _VECTOR_MIN_CELLS cells) onto small schemas and re-assert
    parity, covering both the contiguous-slice and the join-view
    gather (np.ix_) branches."""

    @pytest.fixture(autouse=True)
    def _force_vectorization(self, monkeypatch):
        if not numpy_available():
            pytest.skip("numpy not installed")
        monkeypatch.setattr(DenseSimilarityStore, "_VECTOR_MIN_CELLS", 1)

    def test_figure2_all_vector(self):
        assert_parity(figure2_po(), figure2_purchase_order())

    def test_rdb_star_gather_vector(self):
        # Join-view DAG leaves are non-contiguous: np.ix_ gather path.
        assert_parity(rdb_schema(), star_schema())

    def test_generated_schema_vector(self):
        generator = SchemaGenerator(seed=17)
        schema = generator.generate(n_leaves=25, max_depth=3)
        copy, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        assert_parity(schema, copy)


class TestDenseStoreBehaviour:
    def test_scalar_accessors_match_reference_defaults(self):
        """Dense matrix defaults equal the reference lazy defaults."""
        from repro.linguistic.matcher import LsimTable
        from repro.model.datatypes import default_compatibility_table
        from repro.tree.construction import construct_schema_tree

        source, target = figure2_po(), figure2_purchase_order()
        config = CupidConfig()
        compat = default_compatibility_table()
        source_tree = construct_schema_tree(source)
        target_tree = construct_schema_tree(target)
        table = LsimTable()
        dense = DenseSimilarityStore(
            table, config, compat, source_tree, target_tree
        )
        reference = SimilarityStore(table, config, compat)
        for s in source_tree.leaves():
            for t in target_tree.leaves():
                assert dense.ssim(s, t) == reference.ssim(s, t)
                assert dense.wsim(s, t) == reference.wsim(s, t)

    def test_set_and_scale_roundtrip(self):
        from repro.linguistic.matcher import LsimTable
        from repro.model.datatypes import default_compatibility_table
        from repro.tree.construction import construct_schema_tree

        source, target = figure2_po(), figure2_purchase_order()
        config = CupidConfig()
        source_tree = construct_schema_tree(source)
        target_tree = construct_schema_tree(target)
        dense = DenseSimilarityStore(
            LsimTable(),
            config,
            default_compatibility_table(),
            source_tree,
            target_tree,
        )
        s = source_tree.leaves()[0]
        t = target_tree.leaves()[0]
        dense.set_ssim(s, t, 0.7)
        assert dense.ssim(s, t) == 0.7
        dense.scale_ssim(s, t, 2.0)
        assert dense.ssim(s, t) == 1.0  # clamped
        # wsim reflects the update immediately.
        expected = (
            config.wstruct_leaf * 1.0
            + (1.0 - config.wstruct_leaf) * dense.lsim(s, t)
        )
        assert dense.wsim(s, t) == expected


class TestLeafSweepEngaged:
    """The dense engine decides every leaf×leaf pair in one whole-plane
    sweep; a silent fallback to the per-pair loop shows up as a
    ``leaf_sweep_cells`` count below n_s·n_t."""

    BACKENDS = ["stdlib"] + (["numpy"] if numpy_available() else [])

    @staticmethod
    def _pair():
        generator = SchemaGenerator(seed=41)
        schema = generator.generate(n_leaves=40, max_depth=3)
        copy, _ = generator.perturb(
            schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
        )
        return schema, copy

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("store", ["flat", "blocked"])
    def test_default_match_sweeps_every_leaf_pair(self, store, backend):
        pipeline = MatchPipeline.default(
            config=CupidConfig(store=store, dense_backend=backend)
        )
        result = pipeline.run(*self._pair())
        stats = pipeline.run_stats(result)
        n_s = len(result.source_tree.root.leaves())
        n_t = len(result.target_tree.root.leaves())
        assert n_s >= 40 and n_t >= 40
        assert stats["store"] == store
        assert stats["backend"] == backend
        assert stats["leaf_sweep_cells"] == n_s * n_t
        assert stats["compared_pairs"] + stats["pruned_pairs"] == (
            len(result.source_tree.nodes()) * len(result.target_tree.nodes())
        )

    def test_reference_engine_sweeps_nothing(self):
        pipeline = MatchPipeline.default(
            config=CupidConfig(engine="reference")
        )
        result = pipeline.run(*self._pair())
        assert pipeline.run_stats(result)["leaf_sweep_cells"] == 0

    def test_foreign_layout_falls_back_to_pairwise(self):
        """Layouts that do not index the trees' leaves (built from
        other trees) cannot stand in for the leaf pairs: the per-pair
        loop runs, and its values equal the reference engine's."""
        from repro.linguistic.lexicon import builtin_thesaurus
        from repro.linguistic.matcher import LinguisticMatcher
        from repro.structure.dense import LeafLayout
        from repro.structure.treematch import TreeMatch
        from repro.tree.construction import construct_schema_tree

        schema, copy = self._pair()
        config = CupidConfig()
        lsim = LinguisticMatcher(builtin_thesaurus(), config).compute(
            schema, copy
        )
        source_tree = construct_schema_tree(schema)
        target_tree = construct_schema_tree(copy)
        dense = TreeMatch(config).run(
            source_tree,
            target_tree,
            lsim,
            source_layout=LeafLayout(construct_schema_tree(schema)),
            target_layout=LeafLayout(construct_schema_tree(copy)),
        )
        reference = TreeMatch(CupidConfig(engine="reference")).run(
            source_tree, target_tree, lsim
        )
        assert dense.leaf_sweep_cells == 0
        assert dense.compared_pairs == reference.compared_pairs
        assert dense.pruned_pairs == reference.pruned_pairs
        assert dense.scaled_pairs == reference.scaled_pairs
        assert dense.wsim == reference.wsim
