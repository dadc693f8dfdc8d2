"""Exact-arithmetic toolkit for cusp sets of rational Fricke groups.

Each public name is loaded from its module on first use (PEP 562), so
`from fricke import make_group` does not import the obstruction, predicate,
congruence or CLI layers. The attribute is looked up on every access, so a
name rebound in its module is seen here too.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(
        ("INFINITY", "ProjPoint", "Rational", "ball_trace_contains", "reduce_point",
         "residue_mod_pk", "vp"),
        "exactnum",
    ),
    **dict.fromkeys(
        ("ElementClass", "FrickeGroup", "ProjMatrix", "apply", "arithmeticity_screen",
         "classify_element", "fixed_points", "lambda_generators", "make_group",
         "parabolic_at_infinity", "word_matrix"),
        "groups",
    ),
    **dict.fromkeys(
        ("Verdict", "Witness", "check_density_criterion", "check_integer_t_conditions",
         "check_square_obstruction", "check_two_prime_obstruction", "classify",
         "mine_invariants", "verify_invariance"),
        "obstruct",
    ),
    **dict.fromkeys(("CuspRecord", "adelic_probe", "cusp_bfs", "padic_probe"), "orbitsearch"),
    **dict.fromkeys(("CuspTestResult", "cusp_test", "special_point_scan"), "pointsearch"),
    **dict.fromkeys(
        ("MissReport", "OrbitLabel", "enumerate_labels", "gamma0_label", "gamma_label",
         "miss_scan"),
        "congruence",
    ),
    **dict.fromkeys(("Predicate", "eval_predicate", "parse_predicate"), "predicates"),
    **dict.fromkeys(("Word", "parity", "parse_word"), "words"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)

