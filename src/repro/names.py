"""One registry class for every kind of name a run refers to.

Workload scenarios, cluster-dynamics profiles and fault plans are each a
:class:`NameRegistry` owned by their own module.  A registry maps
registered names to entries in registration order, and resolves one
dynamic form, ``<prefix><path>`` (``replay:``, ``file:``), through a loader
instead of the table.  Resolution lives here only: the CLI and the run
specs ask the registries and never re-check names by hand.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Generic, TypeVar

T = TypeVar("T")


class NameRegistry(Generic[T]):
    """Named entries of one kind, plus ``prefix + path`` names loaded on demand."""

    def __init__(
        self,
        noun: str,
        error: type[Exception],
        prefix: str,
        loader: Callable[[str], T],
    ) -> None:
        self.noun = noun
        self.error = error
        self.prefix = prefix
        self.loader = loader
        self._entries: dict[str, T] = {}

    def register(self, name: str, entry: T) -> T:
        """Add ``entry`` under ``name``; a taken or prefixed name is refused."""
        if name.startswith(self.prefix):
            raise self.error(
                f"{self.prefix}<path> names are resolved dynamically and "
                "cannot be registered"
            )
        if name in self._entries:
            raise self.error(f"{self.noun} {name!r} already registered")
        self._entries[name] = entry
        return entry

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def items(self) -> tuple[tuple[str, T], ...]:
        return tuple(self._entries.items())

    def resolve(self, name: str) -> T:
        """The entry ``name`` denotes (``prefix + path`` goes to the loader)."""
        if name.startswith(self.prefix):
            path = name[len(self.prefix):]
            if not path:
                raise self.error(
                    f"{self.noun} needs a path: {self.prefix}<path>"
                )
            return self.loader(path)
        entry = self._entries.get(name)
        if entry is None:
            raise self.error(
                f"unknown {self.noun} {name!r}; known: "
                f"{', '.join(self._entries)}, or {self.prefix}<path>"
            )
        return entry
