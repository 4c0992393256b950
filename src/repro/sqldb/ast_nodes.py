"""Parse-tree node definitions.

The nodes are plain dataclasses produced by :mod:`repro.sqldb.parser` and
consumed by the binder, the workload analyzer, and the template machinery.
Every expression node supports :meth:`Expression.walk` for generic traversal,
which the structural analyzer in :mod:`repro.workload.analyzer` relies on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, TypeVar, Union


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """Dataclass field names of a node class, computed once per class:
    ``fields()`` builds a new tuple on every call, and ``children()`` runs
    once for every node of every walk."""
    return tuple(f.name for f in fields(cls))


class Node:
    """Base class for all AST nodes."""

    def walk(self) -> Iterator["Node"]:
        """Yield this node and, recursively, every child node."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes, in dataclass field order."""
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item


class Expression(Node):
    """Base class for scalar expressions."""


@dataclass
class Literal(Expression):
    """A constant: number, string, boolean, or NULL (value is None)."""

    value: Union[int, float, str, bool, None]


@dataclass
class Placeholder(Expression):
    """A template placeholder such as ``{p_1}``; never executable directly."""

    name: str


@dataclass
class ColumnRef(Expression):
    """A (possibly qualified) column reference.

    ``position`` is the character offset of the reference in the source text
    (None for synthesized nodes); it is excluded from equality so structural
    AST comparisons (render round-trips, template substitution) ignore it.
    """

    column: str
    table: Optional[str] = None
    position: Optional[int] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass
class Star(Expression):
    """``*`` or ``t.*`` in a select list or inside COUNT(*)."""

    table: Optional[str] = None


@dataclass
class BinaryOp(Expression):
    """A binary operator: arithmetic, comparison, AND/OR, ``||``."""

    op: str
    left: Expression
    right: Expression


@dataclass
class UnaryOp(Expression):
    """NOT or unary minus."""

    op: str
    operand: Expression


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    operand: Expression
    items: list[Expression]
    negated: bool = False


@dataclass
class InSubquery(Expression):
    operand: Expression
    subquery: "SelectStatement"
    negated: bool = False


@dataclass
class Exists(Expression):
    subquery: "SelectStatement"
    negated: bool = False


@dataclass
class ScalarSubquery(Expression):
    subquery: "SelectStatement"


@dataclass
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False
    case_insensitive: bool = False


@dataclass
class FunctionCall(Expression):
    """A scalar or aggregate function call."""

    name: str
    args: list[Expression]
    distinct: bool = False
    position: Optional[int] = field(default=None, compare=False, repr=False)

    AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

    @property
    def is_aggregate(self) -> bool:
        return self.name in self.AGGREGATES


@dataclass
class Cast(Expression):
    operand: Expression
    type_name: str


@dataclass
class CaseWhen(Expression):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    whens: list[tuple[Expression, Expression]]
    default: Optional[Expression] = None

    def children(self) -> Iterator[Node]:
        for cond, value in self.whens:
            yield cond
            yield value
        if self.default is not None:
            yield self.default


@dataclass
class SelectItem(Node):
    """One select-list entry: an expression with an optional alias."""

    expression: Expression
    alias: Optional[str] = None


class TableExpression(Node):
    """Base class for FROM-clause items."""


@dataclass
class TableRef(TableExpression):
    """A base table reference with an optional alias."""

    name: str
    alias: Optional[str] = None
    position: Optional[int] = field(default=None, compare=False, repr=False)

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass
class DerivedTable(TableExpression):
    """A subquery in the FROM clause; alias is mandatory in our dialect."""

    subquery: "SelectStatement"
    alias: str


@dataclass
class Join(TableExpression):
    """A join between two table expressions."""

    join_type: str  # 'inner' | 'left' | 'right' | 'full' | 'cross'
    left: TableExpression
    right: TableExpression
    condition: Optional[Expression] = None  # None only for CROSS JOIN


@dataclass
class OrderItem(Node):
    expression: Expression
    descending: bool = False


@dataclass
class SelectStatement(Node):
    """A full (possibly nested) SELECT statement."""

    select_items: list[SelectItem]
    from_clause: Optional[TableExpression] = None
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass
class CompoundSelect(Node):
    """A UNION [ALL] chain of SELECT statements.

    ``ops[i]`` is the operator between ``selects[i]`` and ``selects[i+1]``
    ("union" deduplicates, "union all" keeps duplicates); a chain that mixes
    the two deduplicates per SQL semantics (any bare UNION dedupes the whole
    accumulated result up to that point — we conservatively dedupe the final
    result if any op is "union").
    """

    selects: list[SelectStatement] = field(default_factory=list)
    ops: list[str] = field(default_factory=list)

    @property
    def deduplicates(self) -> bool:
        return any(op == "union" for op in self.ops)


@dataclass
class Assignment(Node):
    """One ``column = expression`` pair in an UPDATE SET clause."""

    column: str
    value: Expression
    position: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass
class InsertStatement(Node):
    """``INSERT INTO t [(cols)] VALUES (...), ...`` or ``INSERT INTO t
    [(cols)] SELECT ...``.

    Exactly one of ``rows`` (non-empty) and ``source`` (a SELECT) is set.
    """

    target: TableRef
    columns: Optional[list[str]] = None  # None = all columns, in table order
    rows: list[list[Expression]] = field(default_factory=list)
    source: Optional[Union[SelectStatement, CompoundSelect]] = None

    def children(self) -> Iterator[Node]:
        yield self.target
        for row in self.rows:
            for expression in row:
                yield expression
        if self.source is not None:
            yield self.source


@dataclass
class UpdateStatement(Node):
    """``UPDATE t SET col = expr [, ...] [WHERE ...]``."""

    target: TableRef
    assignments: list[Assignment] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class DeleteStatement(Node):
    """``DELETE FROM t [WHERE ...]``."""

    target: TableRef
    where: Optional[Expression] = None


#: The three data-modification statement types, as one isinstance target.
DML_STATEMENTS = (InsertStatement, UpdateStatement, DeleteStatement)


def is_dml(node: Node) -> bool:
    """True when *node* is an INSERT/UPDATE/DELETE statement."""
    return isinstance(node, DML_STATEMENTS)


def shallow_walk(expression: Node) -> Iterator[Node]:
    """Walk an expression without descending into nested SELECTs."""
    yield expression
    if isinstance(expression, SelectStatement):
        return
    for child in expression.children():
        if isinstance(child, SelectStatement):
            yield child  # yield the statement itself but not its innards
        else:
            yield from shallow_walk(child)


_NodeT = TypeVar("_NodeT", bound=Node)

#: The common leaf types, which :func:`copy_tree` shares without calling
#: ``_copy_value`` (that shares every value but a Node, list or tuple).
_IMMUTABLE_LEAVES = frozenset({str, int, float, bool, type(None)})


def copy_tree(node: _NodeT) -> _NodeT:
    """Return a deep copy of *node*: every Node, list and tuple is new.

    Immutable leaves (strings, numbers, booleans, None) are shared.  Each
    node is copied through its ``__dict__``, so ``compare=False`` fields
    such as ``position`` are kept.  Nodes are copied from an explicit stack
    rather than by recursion, so a tree of any depth copies.
    """
    pending: list[dict] = []
    root = _copy_value(node, pending)
    while pending:
        attrs = pending.pop()
        for name, value in attrs.items():
            if value.__class__ not in _IMMUTABLE_LEAVES:
                attrs[name] = _copy_value(value, pending)
    return root


def _copy_value(value, pending: list[dict]):
    """Copy one attribute value for :func:`copy_tree`.  A node is copied
    shallowly and its attributes queued on *pending*; a list or tuple is
    copied item by item, a recursion as deep as the node types nest
    sequences (``InsertStatement.rows``), not as deep as the tree."""
    if isinstance(value, Node):
        copy = object.__new__(value.__class__)
        copy.__dict__ = attrs = value.__dict__.copy()
        pending.append(attrs)
        return copy
    if isinstance(value, list):
        return [_copy_value(item, pending) for item in value]
    if isinstance(value, tuple):
        return tuple([_copy_value(item, pending) for item in value])
    return value


def find_placeholders(node: Node) -> list[str]:
    """Return the names of all placeholders under *node*, in document order,
    without duplicates."""
    seen: list[str] = []
    for child in node.walk():
        if isinstance(child, Placeholder) and child.name not in seen:
            seen.append(child.name)
    return seen
