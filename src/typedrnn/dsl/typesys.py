"""Dimensional type terms and unification for the cell checker.

A type names the vector space a value lives in. Ports start as fresh
unification variables (or a declared base type); every general affine node
mints one rigid type for its output -- one per node, not per application, so
a single affine over several operands acts as a concatenated map producing
one feature space. Orthogonal affines wrap their operand's type in a
transform tagged by the node. Unification may bind variables to anything but
can never equate two distinct rigid types or transforms with different tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class MatrixKind(str, Enum):
    GENERAL = "general"
    ORTHOGONAL = "orthogonal"
    DIAGONAL = "diagonal"
    SYMMETRIC = "symmetric"
    SCALAR = "scalar"


@dataclass(frozen=True)
class Var:
    id: int


@dataclass(frozen=True)
class Rigid:
    node_id: int  # the general affine node whose output space this names


@dataclass(frozen=True)
class Named:
    label: str


@dataclass(frozen=True)
class Transformed:
    node_id: int  # the orthogonal affine node applying the transform
    inner: "TypeTerm"


TypeTerm = Var | Rigid | Named | Transformed


class Unifier:
    """Union-find style variable binding with an occurs check."""

    def __init__(self) -> None:
        self._next = 0
        self._binding: dict[int, TypeTerm] = {}

    def fresh(self) -> Var:
        v = Var(self._next)
        self._next += 1
        return v

    def resolve(self, t: TypeTerm) -> TypeTerm:
        """Follow variable bindings at the head (not inside Transformed)."""
        while isinstance(t, Var) and t.id in self._binding:
            t = self._binding[t.id]
        return t

    def deep_resolve(self, t: TypeTerm) -> TypeTerm:
        t = self.resolve(t)
        if isinstance(t, Transformed):
            return Transformed(t.node_id, self.deep_resolve(t.inner))
        return t

    def _occurs(self, v: Var, t: TypeTerm) -> bool:
        t = self.resolve(t)
        if isinstance(t, Var):
            return t.id == v.id
        if isinstance(t, Transformed):
            return self._occurs(v, t.inner)
        return False

    def unify(self, a: TypeTerm, b: TypeTerm) -> tuple[TypeTerm, TypeTerm] | None:
        """Unify two terms. Returns None on success, or the resolved clashing
        pair on failure (for diagnostics)."""
        a = self.resolve(a)
        b = self.resolve(b)
        if isinstance(a, Var) and isinstance(b, Var) and a.id == b.id:
            return None
        if isinstance(a, Var):
            if self._occurs(a, b):
                return (a, self.deep_resolve(b))
            self._binding[a.id] = b
            return None
        if isinstance(b, Var):
            return self.unify(b, a)
        if isinstance(a, Named) and isinstance(b, Named):
            return None if a.label == b.label else (a, b)
        if isinstance(a, Rigid) and isinstance(b, Rigid):
            return None if a.node_id == b.node_id else (a, b)
        if isinstance(a, Transformed) and isinstance(b, Transformed):
            if a.node_id != b.node_id:
                return (self.deep_resolve(a), self.deep_resolve(b))
            return self.unify(a.inner, b.inner)
        return (self.deep_resolve(a), self.deep_resolve(b))
