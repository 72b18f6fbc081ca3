"""Alter linter tests: every seeded lint defect is caught at the declared
location, the standard glue scripts lint clean, and scoping mirrors the
interpreter (hoisting, named let, rest params)."""

import pytest

from tests.analysis_corpus import LINT_CLEAN, LINT_SEEDS
from repro.analysis import lint_glue_scripts, lint_script
from repro.analysis.alter_lint import builtin_signatures, script_defines


class TestSeededDefects:
    @pytest.mark.parametrize(
        "name,source,rule,where_frag", LINT_SEEDS,
        ids=[s[0] for s in LINT_SEEDS],
    )
    def test_seed_is_caught_at_location(self, name, source, rule, where_frag):
        findings = lint_script(source, name)
        matching = [f for f in findings if f.rule == rule]
        assert matching, (
            f"seed {name!r} did not trigger {rule}; got "
            f"{[f.render() for f in findings]}"
        )
        assert any(where_frag in f.where for f in matching), (
            f"{rule} fired, but not at {where_frag!r}: "
            f"{[f.where for f in matching]}"
        )

    def test_unbound_symbol_suggests_spelling(self):
        (finding,) = [
            f for f in lint_script("(emit-line (lenght (list 1)))")
            if f.rule == "ALT001"
        ]
        assert "length" in finding.hint

    def test_syntax_error_stops_other_passes(self):
        findings = lint_script("(((")
        assert [f.rule for f in findings] == ["ALT000"]


class TestCleanCode:
    @pytest.mark.parametrize(
        "name,source", LINT_CLEAN, ids=[s[0] for s in LINT_CLEAN]
    )
    def test_clean_script_has_no_findings(self, name, source):
        assert lint_script(source, name) == []

    def test_standard_glue_scripts_lint_clean(self):
        findings = lint_glue_scripts()
        assert findings == [], [f.render() for f in findings]

    def test_recursive_define_is_not_unbound(self):
        src = """
        (define (fact n) (if (< n 2) 1 (* n (fact (- n 1)))))
        (emit-line (fact 5))
        """
        assert lint_script(src) == []

    def test_forward_reference_via_hoisting(self):
        src = "(define (f) (g))\n(define (g) 1)\n(emit-line (f))"
        assert lint_script(src) == []

    def test_rest_params_allow_variadic_calls(self):
        src = "(define (f a . rest) (cons a rest))\n(emit-line (f 1 2 3 4))"
        assert lint_script(src) == []

    def test_named_let_loop_variable_not_unused(self):
        src = "(let loop ((i 0)) (when (< i 3) (loop (+ i 1))))"
        assert lint_script(src) == []

    def test_set_bound_variable_disables_arity_check(self):
        # After set!, the binding may hold a different procedure: no ALT002.
        src = """
        (define (f a) a)
        (set! f (lambda (a b) (cons a b)))
        (emit-line (f 1 2))
        """
        assert [f.rule for f in lint_script(src)] == []


class TestInfrastructure:
    def test_builtin_signature_table_covers_core_forms(self):
        sig = builtin_signatures()
        assert sig["cons"] == (2, 2)
        assert sig["car"] == (1, 1)
        assert sig["list"][1] is None  # variadic
        assert sig["true"] is None     # constant

    def test_script_defines_lists_toplevel_names(self):
        src = "(define x 1)\n(define (f a) a)\n(let ((y 2)) y)"
        assert script_defines(src) == frozenset({"x", "f"})

    def test_script_defines_parses_each_text_once(self, monkeypatch):
        """A second lookup of the same text reads the shared AST cache."""
        import repro.core.alter.parser as parser

        calls = []
        real_parse = parser.parse

        def counting_parse(source):
            calls.append(source)
            return real_parse(source)

        monkeypatch.setattr(parser, "parse", counting_parse)
        src = "(define only-in-this-test 1)\n(define (g b) b)"
        first = script_defines(src)
        assert calls == [src]
        assert script_defines(src) == first == frozenset({"only-in-this-test", "g"})
        assert calls == [src]

    def test_extra_globals_are_visible(self):
        src = "(emit-line custom-global)"
        assert lint_script(src, extra_globals=("custom-global",)) == []
        assert [f.rule for f in lint_script(src, extra_globals=())] == ["ALT001"]

    def test_quoted_data_is_not_resolved(self):
        assert lint_script("(emit-line (quote (no-such-name 1 2)))") == []
        assert lint_script("(emit-line '(no-such-name))") == []

    def test_lambda_immediate_application_arity(self):
        findings = lint_script("((lambda (a b) (cons a b)) 1)")
        assert any(f.rule == "ALT002" for f in findings)
