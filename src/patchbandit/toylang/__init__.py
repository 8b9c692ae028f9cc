"""Toy imperative language: parsing, interpretation, localization, mutation."""

from .interp import (FitnessReport, ToyFault, compile_program, passes_all,
                     run_tests)
from .localize import LocalizeResult, NothingToRepair, localize
from .mutate import (ALL_OPERATORS, COARSE_OPERATORS, Edit,
                     InapplicableOperator, OPERATOR_GROUPS, apply_edit,
                     apply_edits, enumerate_edits, mint_edit, payload_fits)
from .suite import SuiteFormatError, TestCase, parse_suite
from .syntax import (ParseError, Program, parse_expression, parse_program,
                     print_expr, print_program, print_statement,
                     program_statements, same_shape, walk_statements)

__all__ = [
    "ALL_OPERATORS", "COARSE_OPERATORS", "Edit",
    "FitnessReport", "InapplicableOperator", "LocalizeResult",
    "NothingToRepair", "OPERATOR_GROUPS", "ParseError", "Program",
    "SuiteFormatError", "TestCase", "ToyFault", "apply_edit",
    "apply_edits", "compile_program", "enumerate_edits", "localize",
    "mint_edit", "parse_expression", "parse_program", "parse_suite",
    "passes_all", "payload_fits", "print_expr", "print_program",
    "print_statement", "program_statements", "run_tests", "same_shape",
    "walk_statements",
]
