"""The transformation protocol (Definition 2.4) and sequence application
(Definition 2.5).

A transformation is ``(Type, Pre, Effect)``.  Concretely each transformation
is a dataclass with:

* a class-level ``type_name`` (the *Type* component, used by deduplication),
* ``precondition(ctx)`` — a total predicate over contexts,
* ``apply(ctx)`` — the effect; only called when the precondition holds, and
  guaranteed to keep the module valid and semantics-preserving,
* JSON round-tripping (the project's stand-in for spirv-fuzz's protobufs),
  so transformation sequences are replayable without the fuzzer state or the
  donor corpus.

``apply_sequence`` implements Definition 2.5: preconditions that fail cause
the transformation to be *skipped*, which is what makes delta debugging over
subsequences sound.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, ClassVar, Iterable

from repro.core.context import Context

#: Registry of transformation classes keyed by type name.
TRANSFORMATION_REGISTRY: dict[str, type["Transformation"]] = {}

#: Transformation types ignored by deduplication (§3.5): supporting
#: transformations for types/constants/variables, enablers (SplitBlock,
#: AddFunction) and ReplaceIdWithSynonym, which reaps the benefits of earlier
#: transformations without being interesting in isolation.  Fixed before any
#: experiments, as in the paper.
SUPPORTING_TYPES: frozenset[str] = frozenset(
    {
        "AddType",
        "AddConstant",
        "AddVariable",
        "AddUniform",
        "SplitBlock",
        "AddFunction",
        "ReplaceIdWithSynonym",
    }
)


class Transformation(abc.ABC):
    """Base class for all transformations."""

    type_name: ClassVar[str]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        name = getattr(cls, "type_name", None)
        if name:
            existing = TRANSFORMATION_REGISTRY.get(name)
            if existing is not None and existing is not cls:
                raise TypeError(f"duplicate transformation type {name!r}")
            TRANSFORMATION_REGISTRY[name] = cls

    @abc.abstractmethod
    def precondition(self, ctx: Context) -> bool:
        """The *Pre* predicate.  Must be total and side-effect-free."""

    @abc.abstractmethod
    def apply(self, ctx: Context) -> None:
        """The *Effect*.  Only called when ``precondition`` held; must keep
        the module valid and preserve ``Semantics(P, I)``."""

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        record: dict[str, Any] = {"type": self.type_name}
        for field in dataclasses.fields(self):  # type: ignore[arg-type]
            record[field.name] = _encode(getattr(self, field.name))
        return record

    @classmethod
    def from_json(cls, record: dict[str, Any]) -> "Transformation":
        if record["type"] not in TRANSFORMATION_REGISTRY:
            # The library registers itself on import; a caller that decodes
            # before anything imported it still gets the library's types.
            import repro.core.transformations  # noqa: F401

        klass = TRANSFORMATION_REGISTRY[record["type"]]
        kwargs = {}
        for field in dataclasses.fields(klass):  # type: ignore[arg-type]
            if field.name in record:
                kwargs[field.name] = _decode(record[field.name])
        return klass(**kwargs)  # type: ignore[call-arg]


def _encode(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        return {_intkey(k): _decode(v) for k, v in value.items()}
    return value


def _intkey(key: str) -> Any:
    try:
        return int(key)
    except (TypeError, ValueError):
        return key


def apply_sequence(
    ctx: Context,
    transformations: Iterable[Transformation],
    *,
    validate_each: bool = False,
) -> list[bool]:
    """Apply a sequence per Definition 2.5, skipping failed preconditions.

    Returns one flag per transformation recording whether it applied.  With
    ``validate_each`` the module is validated after every application (slow;
    used by tests to certify that effects preserve validity).
    """
    from repro.ir.validator import validate

    applied: list[bool] = []
    for transformation in transformations:
        if transformation.precondition(ctx):
            transformation.apply(ctx)
            ctx.invalidate()
            if validate_each:
                errors = validate(ctx.module)
                if errors:
                    raise AssertionError(
                        f"{transformation.type_name} broke the module: "
                        f"{errors[:3]} (transformation: {transformation.to_json()})"
                    )
            applied.append(True)
        else:
            applied.append(False)
    return applied


def sequence_to_json(transformations: Iterable[Transformation]) -> list[dict[str, Any]]:
    return [t.to_json() for t in transformations]


def sequence_from_json(records: Iterable[dict[str, Any]]) -> list[Transformation]:
    return [Transformation.from_json(r) for r in records]


def effective_types(transformations: Iterable[Transformation]) -> frozenset[str]:
    """Transformation-type set of a test case minus the ignore list (the
    ``types(t)`` of Figure 6 after the §3.5 refinement)."""
    return frozenset(
        t.type_name for t in transformations if t.type_name not in SUPPORTING_TYPES
    )
