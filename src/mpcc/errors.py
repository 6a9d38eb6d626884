"""Exception types shared across the pipeline.

Errors that originate in source text carry a (line, col) position so the
CLI can print `file:line:col: error[RULE]: message` diagnostics.
"""


class CompilerError(Exception):
    def __init__(self, message: str, pos: tuple[int, int] | None = None):
        self.message = message
        self.pos = pos
        super().__init__(self.render())

    def render(self) -> str:
        if self.pos is not None:
            return f"{self.pos[0]}:{self.pos[1]}: {self.message}"
        return self.message


class LexError(CompilerError):
    pass


class ParseError(CompilerError):
    def __init__(self, message, pos=None, expected=None):
        self.expected = frozenset(expected or ())
        super().__init__(message, pos)


class TypeCheckError(CompilerError):
    """A violated typing rule; `rule` names the rule for diagnostics."""

    def __init__(self, message, pos=None, rule="type"):
        self.rule = rule
        super().__init__(message, pos)


class TypeCheckFailure(CompilerError):
    """Aggregate of every TypeCheckError found in one program."""

    def __init__(self, errors: list[TypeCheckError]):
        self.errors = errors
        super().__init__(f"{len(errors)} type error(s)")


class LowerError(CompilerError):
    def __init__(self, code: str, message, pos=None):
        self.code = code
        super().__init__(f"{code}: {message}", pos)


class BitblastError(CompilerError):
    pass


# -- circuit construction / validation --

class MalformedCircuitError(CompilerError):
    """A circuit, built or loaded from JSON, that is not well-formed."""


class ArityError(MalformedCircuitError):
    pass


class ForwardReferenceError(MalformedCircuitError):
    pass


class LevelError(CompilerError):
    pass


class ShareMismatchError(CompilerError):
    pass


# -- estimation --

class ModelCoverageError(CompilerError):
    pass


class ObjectiveMissingError(CompilerError):
    pass


# -- execution --

class MissingInputError(CompilerError):
    pass


class OverflowContractError(CompilerError):
    pass


class MuxSelectorError(CompilerError):
    """A multiplexer selector evaluated to something other than 0 or 1."""


class TripleExhaustedError(CompilerError):
    pass


class PlayerMismatchError(CompilerError):
    pass


class IncompleteSharesError(CompilerError):
    pass


class BudgetExceededError(CompilerError):
    pass
