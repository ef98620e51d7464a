"""Unit tests for the XPath-subset parser/evaluator and constant splitting."""

import pytest

from repro.errors import XPathError
from repro.xmlmodel import XPath, element, fragment
from repro.xmlmodel.xpath import expression_shape, parse_xpath, split_constants


@pytest.fixture
def product():
    return element(
        "product",
        {"name": "CRT 15"},
        element("vendor", None, element("vid", None, "Amazon"), element("price", None, 100.0)),
        element("vendor", None, element("vid", None, "Bestbuy"), element("price", None, 120.0)),
    )


class TestPaths:
    def test_child_step(self, product):
        assert len(XPath("NEW_NODE/vendor").nodes({"NEW_NODE": product})) == 2

    def test_nested_child_steps(self, product):
        values = XPath("NEW_NODE/vendor/vid").nodes({"NEW_NODE": product})
        assert [v.string_value() for v in values] == ["Amazon", "Bestbuy"]

    def test_attribute_step(self, product):
        attrs = XPath("NEW_NODE/@name").nodes({"NEW_NODE": product})
        assert attrs[0].value == "CRT 15"

    def test_descendant_step(self, product):
        assert len(XPath("NEW_NODE//price").nodes({"NEW_NODE": product})) == 2

    def test_wildcard_step(self, product):
        assert len(XPath("NEW_NODE/*").nodes({"NEW_NODE": product})) == 2

    def test_predicate_filters(self, product):
        cheap = XPath("NEW_NODE/vendor[./price < 110]").nodes({"NEW_NODE": product})
        assert len(cheap) == 1
        assert cheap[0].child_elements("vid")[0].string_value() == "Amazon"

    def test_positional_like_value_predicate(self, product):
        named = XPath("NEW_NODE/vendor[./vid = 'Bestbuy']").nodes({"NEW_NODE": product})
        assert len(named) == 1

    def test_path_over_fragment(self, product):
        frag = fragment(product, product.copy())
        assert len(XPath("F/vendor").nodes({"F": frag})) == 4

    def test_unbound_variable_raises(self):
        with pytest.raises(XPathError):
            XPath("MISSING/a").evaluate({})

    def test_dollar_variable_syntax(self, product):
        assert XPath("$node/@name = 'CRT 15'").as_boolean({"node": product})


class TestConditions:
    def test_attribute_comparison(self, product):
        assert XPath("OLD_NODE/@name = 'CRT 15'").as_boolean({"OLD_NODE": product})
        assert not XPath("OLD_NODE/@name = 'LCD 19'").as_boolean({"OLD_NODE": product})

    def test_count_function(self, product):
        assert XPath("count(NEW_NODE/vendor) >= 2").as_boolean({"NEW_NODE": product})
        assert not XPath("count(NEW_NODE/vendor) >= 3").as_boolean({"NEW_NODE": product})

    def test_count_with_nested_predicate(self, product):
        expr = XPath("count(NEW_NODE/vendor[./price < 110]) >= 1")
        assert expr.as_boolean({"NEW_NODE": product})

    def test_boolean_connectives(self, product):
        expr = XPath("OLD_NODE/@name = 'CRT 15' and count(OLD_NODE/vendor) = 2")
        assert expr.as_boolean({"OLD_NODE": product})
        expr2 = XPath("OLD_NODE/@name = 'nope' or count(OLD_NODE/vendor) = 2")
        assert expr2.as_boolean({"OLD_NODE": product})

    def test_not_and_exists(self, product):
        assert XPath("not(exists(NEW_NODE/warranty))").as_boolean({"NEW_NODE": product})
        assert XPath("exists(NEW_NODE/vendor)").as_boolean({"NEW_NODE": product})

    def test_numeric_comparison_over_text(self, product):
        assert XPath("NEW_NODE/vendor/price > 110").as_boolean({"NEW_NODE": product})

    def test_arithmetic(self, product):
        assert XPath("count(NEW_NODE/vendor) * 10 = 20").as_boolean({"NEW_NODE": product})
        assert XPath("5 + 2 * 2 = 9").as_boolean({})

    def test_aggregates(self, product):
        assert XPath("min(NEW_NODE/vendor/price) = 100").as_boolean({"NEW_NODE": product})
        assert XPath("max(NEW_NODE/vendor/price) = 120").as_boolean({"NEW_NODE": product})
        assert XPath("sum(NEW_NODE/vendor/price) = 220").as_boolean({"NEW_NODE": product})

    def test_string_functions(self, product):
        assert XPath("contains(NEW_NODE/@name, 'CRT')").as_boolean({"NEW_NODE": product})
        assert XPath("starts-with(NEW_NODE/@name, 'CRT')").as_boolean({"NEW_NODE": product})
        assert XPath("concat('a', 'b') = 'ab'").as_boolean({})

    def test_none_old_node_means_empty(self):
        # DELETE triggers bind only OLD_NODE; comparisons against an unbound
        # value (None) are simply false / empty.
        assert XPath("count(OLD_NODE/vendor) = 0").as_boolean({"OLD_NODE": None})

    def test_empty_nodeset_comparison_is_false(self, product):
        assert not XPath("NEW_NODE/missing = 'x'").as_boolean({"NEW_NODE": product})


class TestParserErrors:
    def test_unterminated_string(self):
        with pytest.raises(XPathError):
            parse_xpath("OLD_NODE/@name = 'oops")

    def test_unsupported_axis_rejected(self):
        with pytest.raises(XPathError):
            parse_xpath("NEW_NODE/parent::x")

    def test_unsupported_function_rejected(self):
        with pytest.raises(XPathError):
            parse_xpath("normalize-space(NEW_NODE)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XPathError):
            parse_xpath("NEW_NODE/@a = 1 )")

    def test_empty_expression_rejected(self):
        with pytest.raises(XPathError):
            parse_xpath("   ")

    @pytest.mark.parametrize("text", ["NEW_NODE/self::@5", "NEW_NODE/child::@'a'"])
    def test_attribute_step_after_an_axis_needs_a_name(self, text):
        with pytest.raises(XPathError):
            parse_xpath(text)

    def test_attribute_step_after_an_axis(self):
        assert parse_xpath("NEW_NODE/child::@name") == parse_xpath("NEW_NODE/@name")


class TestConstantSplitting:
    def test_constants_extracted_in_order(self):
        _, constants = split_constants("count(NEW_NODE/vendor[./price < 100]) >= 2")
        assert constants == [100, 2]

    def test_shapes_equal_for_different_constants(self):
        a = expression_shape("OLD_NODE/@name = 'CRT 15'")
        b = expression_shape("OLD_NODE/@name = 'LCD 19'")
        assert a == b

    def test_shapes_differ_for_different_structure(self):
        a = expression_shape("OLD_NODE/@name = 'CRT 15'")
        b = expression_shape("OLD_NODE/@mfr = 'CRT 15'")
        assert a != b

    def test_parameterized_evaluation(self):
        parameterized, constants = split_constants("OLD_NODE/@name = 'CRT 15'")
        node = element("product", {"name": "LCD 19"})
        expr = XPath(parameterized)
        assert not expr.as_boolean({"OLD_NODE": node}, parameters=constants)
        assert expr.as_boolean({"OLD_NODE": node}, parameters=["LCD 19"])

    def test_parameter_missing_binding_raises(self):
        parameterized, _ = split_constants("OLD_NODE/@name = 'x'")
        with pytest.raises(XPathError):
            XPath(parameterized).evaluate({"OLD_NODE": element("p")}, parameters=[])
