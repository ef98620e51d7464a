"""Lightweight XML data model, serializer, parser, and XPath subset.

XML views of relational data are *virtual* in this system (the whole point of
the paper is to avoid materializing them), but XML values still flow through
the pipeline in three places:

* XQGM ``Project`` / ``GroupBy`` operators construct XML elements and
  fragments (Section 2.1, the ``aggXMLFrag`` function);
* the constant-space tagger converts sorted outer-union rows into XML nodes
  that become ``OLD_NODE`` / ``NEW_NODE`` (Section 3.2);
* trigger Conditions and Action parameters are XPath/XQuery expressions over
  those nodes (Section 2.2).

This package supplies the XML node classes, a serializer, a small
well-formedness-checking parser, and the XPath-subset evaluator used for
conditions and action parameters (child / descendant / attribute / self axes
only, matching Appendix D).
"""

from repro.xmlmodel.node import (
    Attribute,
    Document,
    Element,
    Fragment,
    Text,
    XmlNode,
    element,
    fragment,
    text,
)
from repro.xmlmodel.serialize import EncodedPair, serialize
from repro.xmlmodel.parse import parse_xml
from repro.xmlmodel.xpath import XPath, evaluate_xpath, parse_xpath

__all__ = [
    "Attribute",
    "Document",
    "Element",
    "EncodedPair",
    "Fragment",
    "Text",
    "XmlNode",
    "XPath",
    "element",
    "evaluate_xpath",
    "fragment",
    "parse_xml",
    "parse_xpath",
    "serialize",
    "text",
]
