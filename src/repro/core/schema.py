"""Entry schemas.

Section V of the paper states that *"the structure of a data entry is
specified beforehand by a YAML schema"*.  This module provides a small,
dependency-free schema engine:

* :class:`FieldSpec` describes one field (name, type, required, bounds),
* :class:`EntrySchema` validates entry data dictionaries against a set of
  field specs.

The default schema mirrors the console figures: a data record ``D``, the
user ``K`` and the signature ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.core.errors import SchemaError
from repro.crypto.hashing import canonical_json

#: Mapping of schema type names to the Python types they accept.
_TYPE_MAP: dict[str, tuple[type, ...]] = {
    "str": (str,),
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "any": (object,),
}


@dataclass(frozen=True)
class FieldSpec:
    """Description of a single entry field.

    Attributes
    ----------
    name:
        Field key inside the entry data dictionary.
    type_name:
        One of ``str``, ``int``, ``float``, ``bool`` or ``any``.
    required:
        Whether the field must be present.
    max_length:
        Optional maximum length for string fields.
    description:
        Free-text documentation carried along for reporting.
    """

    name: str
    type_name: str = "any"
    required: bool = True
    max_length: Optional[int] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name must not be empty")
        if self.type_name not in _TYPE_MAP:
            known = ", ".join(sorted(_TYPE_MAP))
            raise SchemaError(f"unknown field type {self.type_name!r}; known types: {known}")
        if self.max_length is not None and self.max_length <= 0:
            raise SchemaError("max_length must be positive when set")

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` when ``value`` does not fit this spec."""
        expected = _TYPE_MAP[self.type_name]
        if self.type_name == "int" and isinstance(value, bool):
            raise SchemaError(f"field {self.name!r} expects int, got bool")
        if not isinstance(value, expected):
            raise SchemaError(
                f"field {self.name!r} expects {self.type_name}, got {type(value).__name__}"
            )
        if self.max_length is not None and isinstance(value, str) and len(value) > self.max_length:
            raise SchemaError(
                f"field {self.name!r} exceeds max_length {self.max_length} ({len(value)} chars)"
            )

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable representation."""
        return {
            "name": self.name,
            "type": self.type_name,
            "required": self.required,
            "max_length": self.max_length,
            "description": self.description,
        }

    def __canonical_json__(self) -> str:
        """Canonical form: the serialised :meth:`to_dict` payload."""
        return canonical_json(self.to_dict())


@dataclass
class EntrySchema:
    """A named collection of field specs that entry data must satisfy."""

    name: str = "entry"
    fields: tuple[FieldSpec, ...] = ()
    allow_extra_fields: bool = False

    def field_names(self) -> list[str]:
        """Names of all declared fields, in declaration order."""
        return [spec.name for spec in self.fields]

    def validate(self, data: Mapping[str, Any]) -> None:
        """Validate an entry data mapping; raise :class:`SchemaError` on failure."""
        if not isinstance(data, Mapping):
            raise SchemaError(f"entry data must be a mapping, got {type(data).__name__}")
        declared = {spec.name: spec for spec in self.fields}
        for spec in self.fields:
            if spec.name not in data:
                if spec.required:
                    raise SchemaError(f"schema {self.name!r}: missing required field {spec.name!r}")
                continue
            spec.validate(data[spec.name])
        if not self.allow_extra_fields:
            extras = [key for key in data if key not in declared]
            if extras:
                raise SchemaError(
                    f"schema {self.name!r}: unexpected fields {sorted(extras)!r}"
                )

    def is_valid(self, data: Mapping[str, Any]) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(data)
        except SchemaError:
            return False
        return True

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable representation."""
        return {
            "name": self.name,
            "allow_extra_fields": self.allow_extra_fields,
            "fields": [spec.to_dict() for spec in self.fields],
        }


def default_log_schema() -> EntrySchema:
    """Schema of the paper's logging scenario: D (record), K (user), S (signature)."""
    return EntrySchema(
        name="login-log",
        fields=(
            FieldSpec(name="D", type_name="str", required=True, description="data record"),
            FieldSpec(name="K", type_name="str", required=True, description="user / key holder"),
            FieldSpec(name="S", type_name="str", required=True, description="signature"),
        ),
        allow_extra_fields=True,
    )
