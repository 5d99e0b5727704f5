"""Tests for EXPLAIN / EXPLAIN ANALYZE — engine plans and twig plans.

The plan must be *stable* (same query, same plan), *complete* (every
step accounted for, with a recognised route), and under ANALYZE the
executed result must be identical to a plain ``query()`` run. Twig
plans are checked across all baseline numbering schemes: candidate
counts and join-algorithm choices depend only on the document, never
on the scheme that labels it.
"""

import pytest

from repro.baselines import get_scheme
from repro.core import Ruid2Scheme
from repro.generator import generate_xmark
from repro.query import TwigMatcher, XPathEngine
from repro.xmltree import parse

SCHEMES = ("uid", "ruid2", "dewey", "prepost", "region", "ordpath")

ENGINE_QUERIES = (
    "/site/people/person",            # child chain
    "//person/name",                  # descendant then child
    "//person[name]/name",            # predicate (per-node fallback)
    "//open_auction[bidder]/seller",  # twig-shaped XPath
    "//ghost_tag",                    # synopsis-prunable
    "//person/name | //item/name",    # union
)


@pytest.fixture(scope="module")
def xmark_tree():
    return generate_xmark(scale=0.05, seed=404)


@pytest.fixture(scope="module")
def engine(xmark_tree):
    labeling = Ruid2Scheme(max_area_size=16).build(xmark_tree)
    return XPathEngine(xmark_tree, labeling=labeling)


class TestExplainStatic:
    @pytest.mark.parametrize("query", ENGINE_QUERIES)
    def test_complete_one_step_plan_per_location_step(self, engine, query):
        plan = engine.explain(query)
        assert not plan.analyzed
        assert plan.expression == query
        compiled = engine.compile(query)
        paths = getattr(compiled, "paths", [compiled])
        assert len(plan.paths) == len(paths)
        evaluator = engine.evaluator()
        for path_plan, path in zip(plan.paths, paths):
            assert len(path_plan.steps) == len(evaluator.path_steps(path))
            for step in path_plan.steps:
                assert step.axis
                assert step.test
                assert step.route in ("batched", "per-node", "pruned")

    @pytest.mark.parametrize("query", ENGINE_QUERIES)
    def test_stable_across_repeats(self, engine, query):
        first = engine.explain(query).as_dict()
        second = engine.explain(query).as_dict()
        # the second compile is served from the plan cache
        second["cache_hit"] = first["cache_hit"]
        assert first == second

    def test_cache_hit_flag(self, xmark_tree):
        fresh = XPathEngine(
            xmark_tree, labeling=Ruid2Scheme(max_area_size=16).build(xmark_tree)
        )
        assert fresh.explain("//never/seen").cache_hit is False
        assert fresh.explain("//never/seen").cache_hit is True

    def test_pruned_step_reports_zero_estimate(self, engine):
        plan = engine.explain("//ghost_tag")
        last = plan.paths[0].steps[-1]
        assert last.route == "pruned"
        assert last.estimate == 0

    def test_predicate_step_falls_back_per_node(self, engine):
        plan = engine.explain("//person[name]")
        assert plan.paths[0].steps[-1].predicates == 1
        assert plan.paths[0].steps[-1].route == "per-node"

    def test_navigational_strategy_routes(self, engine):
        plan = engine.explain("//person/name", strategy="navigational")
        for step in plan.paths[0].steps:
            assert step.route == "navigational"

    def test_scalar_expression(self, engine):
        plan = engine.explain("count(//person)")
        assert plan.scalar
        assert plan.paths == []
        assert "scalar" in plan.format()

    def test_format_lists_every_step(self, engine):
        plan = engine.explain("//person/name | //item/name")
        rendering = plan.format()
        assert rendering.startswith("EXPLAIN '//person/name | //item/name'")
        total_steps = sum(len(p.steps) for p in plan.paths)
        assert len(plan.step_rows()) == total_steps


class TestExplainAnalyze:
    @pytest.mark.parametrize("query", ENGINE_QUERIES)
    @pytest.mark.parametrize("strategy", ("ruid", "navigational"))
    def test_result_identical_to_plain_query(self, engine, query, strategy):
        plan = engine.explain(query, strategy=strategy, analyze=True)
        expected = engine.select(query, strategy)
        assert plan.analyzed
        assert plan.result_count == len(expected)
        assert [n.node_id for n in plan.result] == [n.node_id for n in expected]

    @pytest.mark.parametrize("query", ENGINE_QUERIES)
    def test_every_step_measured(self, engine, query):
        plan = engine.explain(query, analyze=True)
        assert plan.total_ns is not None and plan.total_ns > 0
        for path_plan in plan.paths:
            for step in path_plan.steps:
                assert step.calls >= 1
                assert step.time_ns is not None
                assert step.in_count is not None
                assert step.out_count is not None

    def test_final_out_count_is_result_cardinality(self, engine):
        plan = engine.explain("//person/name", analyze=True)
        assert plan.paths[0].steps[-1].out_count == plan.result_count

    def test_observed_route_matches_prediction(self, engine):
        plan = engine.explain("//person/name", analyze=True)
        for step in plan.paths[0].steps:
            assert step.observed_route == step.route

    def test_analyze_does_not_pollute_engine_tracer(self, xmark_tree):
        fresh = XPathEngine(
            xmark_tree, labeling=Ruid2Scheme(max_area_size=16).build(xmark_tree)
        )
        fresh.explain("//person", analyze=True)
        assert fresh.evaluator("ruid").tracer is None

    def test_analyzed_format_has_measured_columns(self, engine):
        rendering = engine.explain("//person/name", analyze=True).format()
        assert "EXPLAIN ANALYZE" in rendering
        assert "results:" in rendering
        for column in ("calls", "in", "out", "ms", "observed"):
            assert column in rendering


TWIG_PATTERNS = (
    "person[name]",
    "open_auction[bidder][seller]",
    "person[profile//interest]",
    "site//person[address/city]",
)


class TestTwigExplain:
    @pytest.fixture(scope="class")
    def tree(self):
        return generate_xmark(scale=0.04, seed=405)

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @pytest.mark.parametrize("pattern", TWIG_PATTERNS)
    def test_static_plan_per_scheme(self, tree, scheme_name, pattern):
        matcher = TwigMatcher(get_scheme(scheme_name).build(tree))
        plan = matcher.explain(pattern, scheme=scheme_name)
        assert plan.scheme == scheme_name
        assert not plan.analyzed
        assert plan.nodes[0].depth == 0
        assert plan.nodes[0].algorithm == "-"
        for node_plan in plan.nodes:
            assert node_plan.algorithm in ("-", "rparent", "nested", "stack")
            assert node_plan.candidates >= 0

    @pytest.mark.parametrize("pattern", TWIG_PATTERNS)
    def test_plan_is_scheme_independent(self, tree, pattern):
        reference = TwigMatcher(get_scheme("dewey").build(tree)).explain(pattern)
        reference_rows = [
            (n.tag, n.axis, n.depth, n.candidates, n.algorithm)
            for n in reference.nodes
        ]
        for scheme_name in SCHEMES:
            plan = TwigMatcher(get_scheme(scheme_name).build(tree)).explain(pattern)
            rows = [
                (n.tag, n.axis, n.depth, n.candidates, n.algorithm)
                for n in plan.nodes
            ]
            assert rows == reference_rows, scheme_name

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_analyze_matches_plain_match(self, tree, scheme_name):
        matcher = TwigMatcher(get_scheme(scheme_name).build(tree))
        for pattern in TWIG_PATTERNS:
            plan = matcher.explain(pattern, analyze=True)
            assert plan.analyzed
            assert plan.match_count == len(matcher.match(pattern))
            root = plan.nodes[0]
            assert root.survivors == plan.match_count
            assert root.time_ns is not None

    def test_analyze_marks_skipped_branches(self):
        tree = parse("<a><b/><b/></a>")
        matcher = TwigMatcher(Ruid2Scheme(max_area_size=4).build(tree))
        plan = matcher.explain("a[ghost][b]", analyze=True)
        assert plan.match_count == 0
        tags = {n.tag: n for n in plan.nodes}
        # the empty ghost branch kills the match; b is never evaluated
        assert tags["ghost"].survivors == 0
        assert tags["b"].skipped

    def test_format_indents_pattern_tree(self, tree):
        matcher = TwigMatcher(get_scheme("dewey").build(tree))
        rendering = matcher.explain("person[name]", analyze=True).format()
        assert "EXPLAIN ANALYZE twig" in rendering
        assert "\n  name" in rendering  # depth-1 indent
        assert "matches:" in rendering
