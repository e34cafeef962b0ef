"""Exception types shared across the package."""
from __future__ import annotations


class LexgramError(Exception):
    """Base class for all errors raised by this package."""


def _located(reason: str, path: str | None, line: int | None,
             column: int | None = None) -> str:
    """``reason (path, line L, column C)``, naming only the parts known."""
    where = [] if path is None else [path]
    if line is not None:
        where.append(f"line {line}")
    if column is not None:
        where.append(f"column {column}")
    return f"{reason} ({', '.join(where)})" if where else reason


class MalformedEntry(LexgramError):
    """A lexicon or lemma line violates the line grammar.

    ``column`` is the 1-based position of the offending character when it
    is known, ``line``/``path`` are filled in by the file loaders.
    """

    def __init__(self, reason: str, column: int | None = None,
                 line: int | None = None, path: str | None = None):
        self.reason = reason
        self.column = column
        self.line = line
        self.path = path
        super().__init__(reason, column)

    def __str__(self) -> str:
        return _located(self.reason, self.path, self.line, self.column)


class MalformedParadigm(LexgramError):
    """A paradigm section violates the paradigm file grammar."""

    def __init__(self, line: str, path: str | None = None):
        self.line = line
        self.path = path
        super().__init__(line)

    def __str__(self) -> str:
        if self.path:
            return f"{self.line} ({self.path})"
        return self.line


class UnknownParadigm(LexgramError):
    """A lemma entry names a paradigm that was never loaded."""


class LemmaTooShort(LexgramError):
    """A delete operator would empty the working form."""


class InvalidEncoding(LexgramError):
    """Input text is not valid UTF-8."""


class EmptyInput(LexgramError):
    """An operation that needs at least one token got none."""


class MalformedGraph(LexgramError):
    """A graph file violates the graph file grammar or a graph invariant."""

    def __init__(self, path: str, line: int | None, reason: str):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(path, line, reason)

    def __str__(self) -> str:
        if self.line is None:
            return f"{self.path}: {self.reason}"
        return f"{self.path}, line {self.line}: {self.reason}"


class UnresolvedCall(LexgramError):
    """A transition calls a graph that is not part of the grammar."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(name)


class CycleError(LexgramError):
    """The call structure of a grammar contains a cycle.

    ``check_recursion`` returns an instance instead of raising, so callers
    can treat the cycle as a value; ``flatten`` raises it.
    """

    def __init__(self, path: list[str]):
        self.path = list(path)
        super().__init__(self.path)

    def __str__(self) -> str:
        return "recursive call chain: " + " -> ".join(self.path)


class MalformedGold(LexgramError):
    """A gold annotation line violates the gold TSV layout."""

    def __init__(self, reason: str, line: int | None = None,
                 path: str | None = None):
        self.reason = reason
        self.line = line
        self.path = path
        super().__init__(reason)

    def __str__(self) -> str:
        return _located(self.reason, self.path, self.line)


class EmptyGold(LexgramError):
    """Recall was requested against zero gold spans."""


class EmptySystem(LexgramError):
    """Precision was requested against zero system lines."""


class ZeroRecall(LexgramError):
    """The count correction is undefined for recall zero."""


class ConfigError(LexgramError):
    """A run configuration is missing, unreadable, or inconsistent."""
