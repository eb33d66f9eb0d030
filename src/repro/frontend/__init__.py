"""Mini-FORTRAN frontend.

The paper analyzes FORTRAN numerical programs at the source level.  This
package implements a small FORTRAN-like language ("mini-FORTRAN") that is
rich enough to express the nine benchmark kernels of the paper's
evaluation: ``DIMENSION``/``PARAMETER`` declarations, labeled ``DO`` loops,
block ``DO``/``ENDDO`` loops, assignments, arithmetic and logical
expressions, ``IF`` statements, and one- or two-dimensional array
references (the paper restricts itself to arrays of at most two
dimensions).

Public entry points:

``parse_source(text)``
    Parse a program and return a :class:`repro.frontend.ast.Program`.

``SymbolTable.from_program(program)``
    Resolve declarations into array shapes and named constants.
"""

from repro._lazy import lazy_exports

# PEP 562: ``repro.frontend.errors`` (imported by the CLI for its error
# handling) must not import the parser.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".ast": (
            "ArrayDecl",
            "ArrayRef",
            "Assign",
            "BinOp",
            "Call",
            "Compare",
            "Continue",
            "DoLoop",
            "IfBlock",
            "LogicalIf",
            "LogicalOp",
            "Num",
            "Program",
            "Stop",
            "UnaryOp",
            "Var",
        ),
        ".errors": ("FrontendError", "LexError", "ParseError", "SemanticError"),
        ".lexer": ("Lexer", "Token", "TokenKind", "tokenize_line"),
        ".parser": ("Parser", "parse_source"),
        ".symbols": ("ArrayInfo", "SymbolTable"),
    },
)

__all__ = [
    "ArrayDecl",
    "ArrayInfo",
    "ArrayRef",
    "Assign",
    "BinOp",
    "Call",
    "Compare",
    "Continue",
    "DoLoop",
    "FrontendError",
    "IfBlock",
    "LexError",
    "Lexer",
    "LogicalIf",
    "LogicalOp",
    "Num",
    "ParseError",
    "Parser",
    "Program",
    "SemanticError",
    "Stop",
    "SymbolTable",
    "Token",
    "TokenKind",
    "UnaryOp",
    "Var",
    "parse_source",
    "tokenize_line",
]
