"""Error types raised by the XML layer."""


class XmlError(Exception):
    """Base class for all XML-layer errors."""


class XmlParseError(XmlError):
    """Input text could not be tokenized/parsed as XML.

    Carries the 1-based ``line`` and ``column`` of the offending
    position when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XmlWellFormednessError(XmlParseError):
    """Structurally invalid XML: mismatched tags, duplicate attributes,
    undeclared namespace prefixes, multiple roots, etc."""


class XmlSerializeError(XmlError):
    """An element tree that has no namespace-well-formed text, such as
    one binding a prefix to no namespace (``xmlns:p=""``, which
    Namespaces 1.0 does not allow)."""
