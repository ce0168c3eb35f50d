"""Count the code lines of each module in ``src/netcon``, and their total.

    python3 scripts/code_lines.py

A code line is a line that holds at least one token other than a comment, a
line break, an indent or a dedent, as ``tokenize`` reads it, and is not part
of a docstring.  A docstring is a string statement on its own: a logical
line that is a single string token (a module, class or function docstring,
or a bare string elsewhere).  Blank lines and comments are not counted.
"""

from __future__ import annotations

import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "netcon"
NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the code tokens of the logical line so far
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            docstring = len(statement) == 1 and statement[0].type == tokenize.STRING
            if not docstring:
                for tok in statement:
                    lines.update(range(tok.start[0], tok.end[0] + 1))
            statement = []
        elif token.type not in NON_CODE:
            statement.append(token)
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")


if __name__ == "__main__":
    main()
