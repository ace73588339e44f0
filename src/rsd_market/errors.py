"""Exception types shared across the package, and the ``KIND:X,Y,...`` spec parser."""


class PreconditionError(ValueError):
    """An operation was called on inputs that violate its documented preconditions."""


class InternalInvariantError(RuntimeError):
    """A computed result breached an invariant that should hold by construction."""


def parse_spec(spec: str, what: str, kinds: dict[str, tuple[type, ...]]) -> tuple[str, list]:
    """Split ``KIND:X,Y,...`` and convert the fields by the types ``kinds[KIND]``;
    ``ValueError`` naming the spec if the kind, the field count or a field is bad."""
    kind, _, rest = spec.partition(":")
    try:  # zip(strict=True) raises ValueError on a wrong field count
        return kind, [convert(x) for convert, x in zip(kinds[kind], rest.split(","), strict=True)]
    except (KeyError, ValueError):
        raise ValueError(f"malformed {what} spec {spec!r}") from None
