"""Exception hierarchy shared by the whole package.

Failure families, matching the CLI exit codes:

* bad input (unknown names, malformed shapes, unparseable files)  -> exit 2
* a construction that needs an object which does not exist in the
  given finite category (missing pushout, unfactorizable morphism) -> exit 3
* an internal cross-check that failed (``VerificationError``)      -> exit 4
* a *verdict* that comes out false is never an exception; verdicts are
  ordinary report data                                             -> exit 1
"""


class InputError(ValueError):
    """The caller handed us something malformed or unknown."""


class ParseError(InputError):
    """Source-file syntax error, with position information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


class ConstructionError(RuntimeError):
    """A required colimit or factorization does not exist.

    ``witness`` names the offending morphism or diagram, when known.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class VerificationError(RuntimeError):
    """An internal cross-check that is supposed to be a theorem failed.

    Raised instead of silently returning inconsistent reports; seeing one of
    these means either the input violated a documented precondition or there
    is a genuine bug worth keeping loud.
    """
