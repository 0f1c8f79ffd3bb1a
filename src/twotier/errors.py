"""Exception types shared across the verifier."""

from typing import Optional


class VerifierError(Exception):
    """Base class for all errors raised by this package."""


class UnboundVariable(VerifierError):
    def __init__(self, name: str):
        super().__init__(f"unbound program variable: {name}")
        self.name = name


class EmptyState(VerifierError):
    pass


class UndeclaredSymbol(VerifierError):
    def __init__(self, name: str):
        super().__init__(f"symbol not declared in signature: {name}")
        self.name = name


class BudgetExceeded(VerifierError):
    pass


class OutsideLiftableFragment(VerifierError):
    def __init__(self, atom):
        super().__init__(f"state formula outside the liftable fragment: {atom}")
        self.atom = atom


class NoExplanation(VerifierError):
    pass


class UnknownProcedure(VerifierError):
    def __init__(self, name: str):
        super().__init__(f"procedure not declared: {name}")
        self.name = name


class RuleShapeMismatch(VerifierError):
    pass


class MissingArgument(VerifierError):
    pass


class ParseError(VerifierError):
    def __init__(
        self, message: str, line: Optional[int] = None, column: Optional[int] = None
    ):
        super().__init__(message if line is None else f"{line}:{column}: {message}")
        self.line = line
        self.column = column
