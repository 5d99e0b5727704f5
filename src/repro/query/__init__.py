"""XPath-subset query engine (lexer, parser, evaluators, facade)."""

from repro.query.ast import (
    BinaryOp,
    FunctionCall,
    Literal,
    LocationPath,
    NodeTest,
    Number,
    Step,
    Union_,
)
from repro.query.engine import XPathEngine
from repro.query.evaluator import (
    NavigationalEvaluator,
    node_test_matches,
    string_value,
)
from repro.query.joins import (
    choose_join_algorithm,
    join_nodes,
    nested_loop_join,
    stack_tree_join,
)
from repro.query.lexer import tokenize
from repro.query.parser import parse_xpath
from repro.query.stats import QueryStats
from repro.query.synopsis import PathSummary, TagAreaSynopsis
from repro.query.twig import TwigMatcher, TwigNode, parse_twig

__all__ = [
    "BinaryOp",
    "FunctionCall",
    "Literal",
    "LocationPath",
    "NavigationalEvaluator",
    "NodeTest",
    "Number",
    "PathSummary",
    "QueryStats",
    "Step",
    "TagAreaSynopsis",
    "TwigMatcher",
    "TwigNode",
    "Union_",
    "XPathEngine",
    "choose_join_algorithm",
    "join_nodes",
    "nested_loop_join",
    "node_test_matches",
    "parse_twig",
    "parse_xpath",
    "stack_tree_join",
    "string_value",
    "tokenize",
]
