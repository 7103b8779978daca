"""Count the lines of each module of ``src/rgpe`` by kind.

Prints per module the total, code, docstring, comment and blank lines, and
their sum over the package.  Docstrings are found with ``ast``: the string
that opens a module, class or function body.  A comment line holds nothing
but a comment; a line of code with a trailing comment counts as code.  With a
git revision, the modules are read from that revision, else from the working
tree.  Run from the repo root, for example:

    python3 tools/count_lines.py
    python3 tools/count_lines.py HEAD~1
"""

import argparse
import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/rgpe"
KINDS = ("total", "code", "docstring", "comment", "blank")


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, check=True).stdout


def sources(rev=None):
    """{module file name: source text} of the package's modules."""
    if rev is None:
        names = sorted(n for n in os.listdir(os.path.join(ROOT, PACKAGE))
                       if n.endswith(".py"))
        out = {}
        for name in names:
            with open(os.path.join(ROOT, PACKAGE, name)) as fh:
                out[name] = fh.read()
        return out
    paths = _git("ls-tree", "--name-only", rev, PACKAGE + "/").split()
    return {os.path.basename(p): _git("show", f"{rev}:{p}")
            for p in sorted(paths) if p.endswith(".py")}


def docstring_lines(tree):
    """Line numbers (1-based) that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """{kind: number of lines} of one module's source."""
    docs = docstring_lines(ast.parse(text))
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        out[kind] += 1
        out["total"] += 1
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("rev", nargs="?", default=None,
                   help="git revision to count (default: the working tree)")
    args = p.parse_args(argv)
    counts = {name: count(text) for name, text in sources(args.rev).items()}
    counts["all"] = {k: sum(c[k] for c in counts.values()) for k in KINDS}
    print(f"{'module':16s}" + "".join(f"{k:>10s}" for k in KINDS))
    for name, c in counts.items():
        print(f"{name:16s}" + "".join(f"{c[k]:10d}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
