"""Tests for the composable match-pipeline API.

The default pipeline must be behaviourally identical to the
``CupidMatcher`` facade (same stages, same artifacts); composition
(substitution, insertion, removal, registered variants) must produce
the documented alternative behaviours; adapted baselines must speak
the same ``Matcher`` protocol with ``CupidResult``-compatible output.
"""

from __future__ import annotations

import pytest

from repro import CupidMatcher, Matcher, MatchPipeline, baseline_pipeline
from repro.baselines.pathname import PathNameMatcher
from repro.baselines.topdown import TopDownMatcher
from repro.config import CupidConfig
from repro.datasets.figure2 import figure2_po, figure2_purchase_order
from repro.exceptions import ReproError
from repro.pipeline import (
    STAGE_VARIANTS,
    MatchContext,
    MatchStage,
    TreeBuildStage,
)


def _mapping_signature(mapping):
    return sorted(
        (e.source_path, e.target_path, e.similarity) for e in mapping
    )


def _wsim_by_path(result):
    source_paths = {n.node_id: n.path() for n in result.source_tree.nodes()}
    target_paths = {n.node_id: n.path() for n in result.target_tree.nodes()}
    return sorted(
        (source_paths[s], target_paths[t], value)
        for (s, t), value in result.treematch_result.wsim.items()
    )


@pytest.fixture
def schemas():
    return figure2_po(), figure2_purchase_order()


class TestDefaultPipeline:
    def test_matches_cupid_matcher_exactly(self, schemas):
        source, target = schemas
        via_pipeline = MatchPipeline.default().run(source, target)
        via_matcher = CupidMatcher().match(source, target)
        assert _mapping_signature(via_pipeline.leaf_mapping) == (
            _mapping_signature(via_matcher.leaf_mapping)
        )
        assert _mapping_signature(via_pipeline.nonleaf_mapping) == (
            _mapping_signature(via_matcher.nonleaf_mapping)
        )
        assert sorted(via_pipeline.lsim_table.items()) == (
            sorted(via_matcher.lsim_table.items())
        )

    def test_stage_names(self):
        assert MatchPipeline.default().stage_names() == [
            "linguistic", "trees", "structural", "mapping",
        ]

    def test_timing_keys_are_backward_compatible(self, schemas):
        source, target = schemas
        result = MatchPipeline.default().run(source, target)
        assert set(result.timings) == {
            "linguistic", "trees", "treematch", "mapping",
        }
        assert all(v >= 0.0 for v in result.timings.values())

    def test_satisfies_matcher_protocol(self):
        assert isinstance(MatchPipeline.default(), Matcher)
        assert isinstance(CupidMatcher(), Matcher)

    def test_stages_satisfy_stage_protocol(self):
        for stage in MatchPipeline.default().stages:
            assert isinstance(stage, MatchStage)

    def test_cupid_matcher_exposes_pipeline(self):
        matcher = CupidMatcher()
        assert matcher.pipeline.linguistic is matcher.linguistic
        assert matcher.pipeline.treematch is matcher.treematch


class TestComposition:
    def test_get_stage_unknown_name(self):
        with pytest.raises(ReproError, match="no stage 'bogus'"):
            MatchPipeline.default().get_stage("bogus")

    def test_replace_stage_returns_new_pipeline(self):
        default = MatchPipeline.default()
        replaced = default.replace_stage("trees", TreeBuildStage())
        assert replaced is not default
        assert default.stage_names() == replaced.stage_names()

    def test_insert_after_observer_stage(self, schemas):
        source, target = schemas
        seen = []

        class ObserverStage:
            name = "observer"
            timing_key = "observer"

            def run(self, context: MatchContext) -> None:
                seen.append(len(context.lsim_table))
                context.extras["observed"] = True

        pipeline = MatchPipeline.default().insert_after(
            "linguistic", ObserverStage()
        )
        assert pipeline.stage_names() == [
            "linguistic", "observer", "trees", "structural", "mapping",
        ]
        result = pipeline.run(source, target)
        assert seen and seen[0] == len(result.lsim_table)
        assert "observer" in result.timings

    def test_insert_before(self):
        class Noop:
            name = "noop"
            timing_key = "noop"

            def run(self, context):
                pass

        pipeline = MatchPipeline.default().insert_before("mapping", Noop())
        assert pipeline.stage_names()[-2] == "noop"

    def test_without_mapping_stage_fails_loudly(self, schemas):
        source, target = schemas
        pipeline = MatchPipeline.default().without_stage("mapping")
        with pytest.raises(ReproError, match="without producing mappings"):
            pipeline.run(source, target)

    def test_duplicate_stage_names_rejected(self):
        default = MatchPipeline.default()
        with pytest.raises(ReproError, match="duplicate stage names"):
            default.insert_after("trees", TreeBuildStage())


class TestVariants:
    def test_mapping_one_to_one(self, schemas):
        source, target = schemas
        result = MatchPipeline.default().with_variant(
            "mapping", "one-to-one"
        ).run(source, target)
        assert result.leaf_mapping.is_one_to_one()

    def test_mapping_hungarian(self, schemas):
        pytest.importorskip(
            "scipy.optimize",
            reason="hungarian extraction needs scipy",
            # A scipy that cannot import (e.g. numpy missing) is as
            # absent as no scipy at all.
            exc_type=ImportError,
        )
        source, target = schemas
        result = MatchPipeline.default().with_variant(
            "mapping", "hungarian"
        ).run(source, target)
        assert result.leaf_mapping.is_one_to_one()

    def test_linguistic_off(self, schemas):
        source, target = schemas
        result = MatchPipeline.default().with_variant(
            "linguistic", "off"
        ).run(source, target)
        assert len(result.lsim_table) == 0
        # Structure-only matching still yields a usable result object.
        assert result.treematch_result is not None

    def test_structural_no_context(self, schemas):
        source, target = schemas
        default = MatchPipeline.default().run(source, target)
        adjusted = MatchPipeline.default().with_variant(
            "structural", "no-context"
        ).run(source, target)
        assert default.treematch_result.scaled_pairs > 0
        assert adjusted.treematch_result.scaled_pairs == 0

    @pytest.mark.parametrize("store", ["flat", "blocked"])
    def test_structural_no_context_dense_equals_reference(
        self, schemas, store
    ):
        """The variant's one switch holds on both engines: the dense
        leaf sweep scales nothing either, so dense == reference."""
        source, target = schemas

        def run(**overrides):
            pipeline = MatchPipeline.default(
                config=CupidConfig(**overrides)
            ).with_variant("structural", "no-context")
            return pipeline.run(source, target)

        dense = run(engine="dense", store=store)
        reference = run(engine="reference")
        tm = dense.treematch_result
        assert tm.leaf_sweep_cells > 0
        assert tm.scaled_pairs == 0
        assert reference.treematch_result.scaled_pairs == 0
        assert _wsim_by_path(dense) == _wsim_by_path(reference)
        for kind in ("leaf_mapping", "nonleaf_mapping"):
            assert _mapping_signature(getattr(dense, kind)) == (
                _mapping_signature(getattr(reference, kind))
            )

    def test_default_variant_is_identity(self):
        pipeline = MatchPipeline.default()
        assert pipeline.with_variant("mapping", "default") is pipeline

    def test_unknown_variant(self):
        with pytest.raises(ReproError, match="unknown pipeline stage"):
            MatchPipeline.default().with_variant("mapping", "psychic")

    def test_variant_registry_is_complete(self):
        pipeline = MatchPipeline.default()
        for stage_name, variants in STAGE_VARIANTS.items():
            for variant in variants:
                derived = pipeline.with_variant(stage_name, variant)
                assert stage_name in derived.stage_names()


class TestBaselineAdapters:
    def test_pathname_as_pipeline(self, schemas):
        source, target = schemas
        baseline = PathNameMatcher()
        direct = baseline.match(source, target)
        result = baseline.as_pipeline().run(source, target)
        assert _mapping_signature(result.leaf_mapping) == (
            _mapping_signature(direct)
        )
        assert len(result.nonleaf_mapping) == 0
        assert result.lsim_table is None
        assert result.treematch_result is None
        # CupidResult conveniences still work.
        assert len(result.mapping) == len(direct)
        assert result.one_to_one() is not None
        assert "baseline" in result.timings

    def test_topdown_as_pipeline(self, schemas):
        source, target = schemas
        baseline = TopDownMatcher()
        result = baseline.as_pipeline().run(source, target)
        assert _mapping_signature(result.leaf_mapping) == (
            _mapping_signature(baseline.match(source, target))
        )

    def test_baseline_pipeline_satisfies_matcher_protocol(self):
        assert isinstance(PathNameMatcher().as_pipeline(), Matcher)

    def test_wsim_raises_without_structural_artifacts(self, schemas):
        source, target = schemas
        result = PathNameMatcher().as_pipeline().run(source, target)
        with pytest.raises(ReproError, match="no TreeMatch artifacts"):
            result.wsim("POLines", "Items")
        with pytest.raises(ReproError, match="no lsim table"):
            result.lsim("POLines", "Items")

    def test_hints_on_baseline_pipeline_fail_loudly(self, schemas):
        """A pipeline without a linguistic stage cannot honor
        initial-mapping feedback; dropping it silently would discard
        user corrections."""
        source, target = schemas
        pipeline = PathNameMatcher().as_pipeline()
        with pytest.raises(ReproError, match="cannot honor"):
            pipeline.match(
                source, target,
                initial_mapping=[("POShipTo", "DeliverTo")],
            )

    def test_non_mapping_result_requires_extract(self, schemas):
        source, target = schemas

        class WeirdBaseline:
            def match(self, a, b):
                return {"not": "a mapping"}

        pipeline = baseline_pipeline(WeirdBaseline())
        with pytest.raises(ReproError, match="supply an extract"):
            pipeline.run(source, target)

    def test_extract_callable_adapts_foreign_results(self, schemas):
        source, target = schemas
        baseline = PathNameMatcher()

        class Wrapped:
            """A baseline with its own result type."""

            def match(self, a, b):
                return {"inner": baseline.match(a, b)}

        pipeline = baseline_pipeline(
            Wrapped(), extract=lambda outcome: outcome["inner"]
        )
        result = pipeline.run(source, target)
        assert _mapping_signature(result.leaf_mapping) == (
            _mapping_signature(baseline.match(source, target))
        )


class TestCachedCombinedMapping:
    def test_mapping_property_is_cached(self, schemas):
        source, target = schemas
        result = CupidMatcher().match(source, target)
        first = result.mapping
        assert result.mapping is first  # same object, not rebuilt
        assert len(first) == len(result.leaf_mapping) + len(
            result.nonleaf_mapping
        )
