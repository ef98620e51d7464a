"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  Sub-hierarchies mirror the package layout:
relational-engine errors, SQL front-end errors, XML / XQuery errors, XQGM
errors, and trigger-translation errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "RelationalError",
    "SchemaError",
    "IntegrityError",
    "UnknownTableError",
    "UnknownColumnError",
    "TypeMismatchError",
    "TransactionError",
    "ShardRoutingError",
    "ServingError",
    "ServerStoppedError",
    "NetworkError",
    "ProtocolError",
    "PersistenceError",
    "RecoveryError",
    "CursorError",
    "SqlError",
    "SqlSyntaxError",
    "SqlPlanError",
    "SqlExecutionError",
    "XmlError",
    "XmlParseError",
    "XPathError",
    "XQueryError",
    "XQuerySyntaxError",
    "XQueryCompileError",
    "UnsupportedXQueryError",
    "XqgmError",
    "KeyDerivationError",
    "EvaluationError",
    "TriggerError",
    "TriggerSyntaxError",
    "TriggerNotSpecifiableError",
    "TriggerCompilationError",
    "TriggerActivationError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class for errors raised by the relational engine."""


class SchemaError(RelationalError):
    """A table or column definition is invalid."""


class IntegrityError(RelationalError):
    """A primary-key, uniqueness, or not-null constraint was violated."""


class UnknownTableError(RelationalError):
    """A statement referenced a table that does not exist."""


class UnknownColumnError(RelationalError):
    """A statement referenced a column that does not exist."""


class TypeMismatchError(RelationalError):
    """A value could not be coerced to the declared column type."""


class TransactionError(RelationalError):
    """Invalid use of the statement/transaction API."""


class ShardRoutingError(RelationalError):
    """A statement could not be routed to a single shard (e.g. its keys span
    shards under the configured shard-key policy)."""


# ---------------------------------------------------------------------------
# Serving layer
# ---------------------------------------------------------------------------


class ServingError(ReproError):
    """Base class for errors raised by the concurrent serving layer."""


class ServerStoppedError(ServingError):
    """A statement was submitted to a server that is not running."""


class NetworkError(ServingError):
    """Base class for errors raised by the network front end (``repro.serving.net``)."""


class ProtocolError(NetworkError):
    """A wire frame or message violated the framed protocol.

    Raised by the codec on malformed frames (bad length, CRC mismatch,
    undecodable payload) and by either endpoint on messages that cannot be
    expressed on the wire (e.g. DML with Python callables) or that arrive
    out of protocol (unknown type, missing handshake).  A server never
    crashes on one: the offending connection is answered with an ``error``
    frame where possible and closed.
    """


# ---------------------------------------------------------------------------
# Durability / persistence
# ---------------------------------------------------------------------------


class PersistenceError(ReproError):
    """Base class for errors raised by the durability layer (``repro.persist``)."""


class RecoveryError(PersistenceError):
    """Snapshot + WAL recovery could not rebuild a consistent engine state."""


class CursorError(PersistenceError):
    """A subscriber cursor names a shard or position its stream never reached."""


# ---------------------------------------------------------------------------
# SQL front end
# ---------------------------------------------------------------------------


class SqlError(ReproError):
    """Base class for errors raised by the SQL front end."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SqlPlanError(SqlError):
    """The SQL statement parsed but could not be bound/planned."""


class SqlExecutionError(SqlError):
    """A runtime error occurred while executing a SQL plan."""


# ---------------------------------------------------------------------------
# XML / XPath / XQuery
# ---------------------------------------------------------------------------


class XmlError(ReproError):
    """Base class for XML data-model errors."""


class XmlParseError(XmlError):
    """Malformed XML text."""


class XPathError(XmlError):
    """Invalid or unsupported XPath expression."""


class XQueryError(ReproError):
    """Base class for XQuery front-end errors."""


class XQuerySyntaxError(XQueryError):
    """The XQuery text could not be tokenized or parsed."""


class XQueryCompileError(XQueryError):
    """The XQuery expression parsed but could not be compiled to XQGM."""


class UnsupportedXQueryError(XQueryCompileError):
    """The expression uses a feature outside the supported subset (App. D)."""


# ---------------------------------------------------------------------------
# XQGM
# ---------------------------------------------------------------------------


class XqgmError(ReproError):
    """Base class for XQGM graph errors."""


class KeyDerivationError(XqgmError):
    """A canonical key could not be derived for an operator (Definition 4)."""


class EvaluationError(XqgmError):
    """A runtime error occurred while evaluating an XQGM graph."""


# ---------------------------------------------------------------------------
# XML triggers
# ---------------------------------------------------------------------------


class TriggerError(ReproError):
    """Base class for XML-trigger errors."""


class TriggerSyntaxError(TriggerError):
    """The CREATE TRIGGER statement could not be parsed."""


class TriggerNotSpecifiableError(TriggerError):
    """The view is not trigger-specifiable (Definition 4 / Theorem 1)."""


class TriggerCompilationError(TriggerError):
    """The trigger could not be translated into SQL triggers."""


class TriggerActivationError(TriggerError):
    """An action callback failed or was invoked incorrectly."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """Invalid experimental workload parameters."""
