"""Count the lines of the package source by kind: code, docstring, comment
and blank.

Docstrings are the string statements that open a module, class or function
(found with ast); every other line is classed by its tokens (tokenize): a
line that holds any token besides comments and layout is code, one with only
a comment is a comment line.  Blank lines inside docstrings count as blank.

    python tools/src_size.py [directory]      (default: src)

A path that is not a directory, or one that holds no .py file, is refused
with exit status 1.
"""

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every docstring in the module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_file(path):
    """{"code", "docstring", "comment", "blank"} line counts of one file."""
    with open(path, "rb") as fh:
        source = fh.read()
    docs = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for number, line in enumerate(source.decode("utf-8").splitlines(), 1):
        if not line.strip():
            kind = "blank"
        elif number in docs:
            kind = "docstring"
        else:
            kind = "code" if number in code else "comment"
        counts[kind] += 1
    return counts


def main(argv):
    root = argv[1] if len(argv) > 1 else "src"
    paths = [os.path.join(folder, name)
             for folder, _, files in sorted(os.walk(root))
             for name in sorted(files) if name.endswith(".py")]
    if not paths:
        # os.walk yields nothing for a file or a missing path
        sys.exit(f"src_size: {root} is not a directory that holds .py files")
    total = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for path in paths:
        for kind, n in count_file(path).items():
            total[kind] += n
    print(" ".join(f"{kind}={n}" for kind, n in total.items())
          + f" total={sum(total.values())}")


if __name__ == "__main__":
    main(sys.argv)
