"""The same seed gives the same schedules, edit plans and streams."""

from harness import corpus
from repro.generator import UpdateWorkloadConfig, generate_update_workload, generate_xmark

WORKLOAD = [("xmark", "/a"), ("xmark", "/b"), ("dblp", "/c")]


def test_query_stream_is_a_function_of_the_seed():
    first = corpus.query_mix_stream(11, blocks=3)
    assert first == corpus.query_mix_stream(11, blocks=3)
    assert first != corpus.query_mix_stream(12, blocks=3)


def test_query_stream_shares_do_not_depend_on_the_seed():
    def shares(seed):
        base = [q for q in corpus.query_mix_stream(seed, blocks=2)
                if (q[0], q[1]) in set(corpus.base_queries())]
        return sorted(base)

    assert shares(1) == shares(2)
    block = corpus.query_mix_block(__import__("random").Random(5))
    variants = len(block) - len(corpus.base_queries()) * corpus.BASE_REPEATS
    assert variants == len(corpus.VARIANT_TEMPLATES) * corpus.VARIANTS_PER_TEMPLATE
    assert 0.18 < variants / len(block) < 0.25


def test_schedule_is_a_function_of_the_seed():
    first = corpus.balanced_schedule(8.0, 120, WORKLOAD, 3)
    assert first == corpus.balanced_schedule(8.0, 120, WORKLOAD, 3)
    assert first != corpus.balanced_schedule(8.0, 120, WORKLOAD, 4)
    counts = {}
    for request in first:
        counts[request.expression] = counts.get(request.expression, 0) + 1
    assert counts == {"/a": 40, "/b": 40, "/c": 40}


def test_edit_plan_and_read_deck_are_functions_of_the_seed():
    tree = generate_xmark(scale=0.05, seed=corpus.CORPUS_SEED)
    config = UpdateWorkloadConfig(operations=30, insert_fraction=0.8, depth_bias="uniform")
    assert generate_update_workload(tree, config, seed=9) == generate_update_workload(
        tree, config, seed=9
    )
    deal = lambda seed: [corpus.read_deck(seed).deal() for _ in range(25)]  # noqa: E731
    assert deal(9) == deal(9)


def test_session_orders_keep_the_first_query_fixed():
    orders = corpus.session_orders(4, 5, ["q0", "q1", "q2", "q3"])
    assert orders == corpus.session_orders(4, 5, ["q0", "q1", "q2", "q3"])
    assert all(order[0] == "q0" and sorted(order) == ["q0", "q1", "q2", "q3"] for order in orders)
