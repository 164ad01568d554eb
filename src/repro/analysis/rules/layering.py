"""Layering lint (``layer-*``): the facade is the only front door.

PR 4 made :class:`repro.api.Engine` the single construction point for the
serving stack, and PR 6 built the server on that guarantee — replica
snapshots restore bit-identically *because* every index is built with
facade-controlled geometry.  A stray ``ShardedIndex(...)`` in an
experiment reopens the side doors the facade closed.  Two checks:

``layer-direct-construction``
    Calls that construct facade-only classes (``SimilarityIndex``,
    ``ShardedIndex``) outside the facade and the layers that define them.

``layer-mutable-api-type``
    Dataclasses in ``api/types.py`` not declared ``frozen=True`` — responses
    are cached and shared across callers, so the request/response surface
    must be immutable.
"""

from __future__ import annotations

import ast

from repro.analysis.context import ModuleContext
from repro.analysis.rules import Rule, dotted_name, register_rule


@register_rule
class DirectConstructionRule(Rule):
    """Facade-only classes constructed outside the facade layers."""

    rule_id = "layer-direct-construction"
    family = "layer"
    description = (
        "SimilarityIndex/ShardedIndex constructed "
        "outside repro.api and the layers that define them"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.config.layering.is_allowed_path(ctx.rel_path)

    def visit_Call(self, node: ast.Call) -> None:
        name: str | None = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name in self.ctx.config.layering.facade_only:
            self.report(
                node,
                f"'{name}(...)' constructed outside the facade — go through "
                "repro.api.Engine (EngineConfig selects the backend) so "
                "geometry, caching and snapshots stay consistent",
            )
        self.generic_visit(node)


@register_rule
class MutableApiTypeRule(Rule):
    """Non-frozen dataclasses on the shared request/response surface."""

    rule_id = "layer-mutable-api-type"
    family = "layer"
    description = "dataclass in api/types.py not declared frozen=True"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.config.layering.requires_frozen(ctx.rel_path)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for decorator in node.decorator_list:
            if self._is_dataclass_decorator(decorator) and not self._is_frozen(
                decorator
            ):
                self.report(
                    node,
                    f"dataclass '{node.name}' on the API surface is not "
                    "frozen=True — responses are cached and shared, so api "
                    "types must be immutable",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_dataclass_decorator(decorator: ast.AST) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = dotted_name(target)
        return dotted is not None and dotted.split(".")[-1] == "dataclass"

    @staticmethod
    def _is_frozen(decorator: ast.AST) -> bool:
        if not isinstance(decorator, ast.Call):
            return False  # bare @dataclass: frozen defaults to False
        for keyword in decorator.keywords:
            if keyword.arg == "frozen":
                return (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                )
        return False
