#!/usr/bin/env python3
"""List the library's exported values that no caller outside the tests uses.

Usage: python3 test/unused_exports.py [--check DESIGN.md]

Every `val` declared in lib/*/*.mli (including those inside a nested
`module X : sig ... end`) is looked up as a qualified use, `M.name`, in the
library's other modules and in bin/, bench/, examples/ and perfbench/. A
top-level value counts as used under any module qualifier, because callers
alias modules (`module M = Bdd.Manager`); a value of a nested module must
be qualified by that module's name (`Roots.add`). A module's own .ml and
.mli do not count as callers: a name only its own module uses need not be
exported.

Without --check, print each unused name as `Module.name` (or
`Module.Sub.name`), one a line. With --check FILE, print only the unused
names that FILE's "Exported for tests" list does not name, and exit 1 if
there are any. That list is the bullets under a heading containing
"Exported for tests", each starting with the name in backquotes; a
listed module (`Manager.Op`) covers every value in it.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def exports(mli):
    """(qualified name, value name, innermost module) for each val."""
    mod = module_name(mli)
    stack = []
    out = []
    with open(mli) as f:
        for line in f:
            m = re.match(r"\s*module\s+([A-Z]\w*)\s*:\s*sig\b", line)
            if m:
                stack.append(m.group(1))
                continue
            if stack and re.match(r"\s*end\b", line):
                stack.pop()
                continue
            m = re.match(r"\s*val\s+([a-z_][\w']*)", line)
            if m:
                name = m.group(1)
                path = ".".join([mod] + stack + [name])
                out.append((path, name, stack[-1] if stack else None))
    return out


def code(text):
    """The text with comments (nested) and string literals blanked out."""
    out = []
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif text[i] == '"':
            # a string, in code or (as OCaml lexes it) in a comment
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            out.append(" ")
        elif text.startswith("'\"'", i):
            i += 3
        else:
            if not depth:
                out.append(text[i])
            i += 1
    return "".join(out)


def sources():
    for d in CALLER_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [x for x in dirnames if x != "_build"]
            for fn in files:
                if fn.endswith((".ml", ".mli")):
                    p = os.path.join(dirpath, fn)
                    with open(p) as f:
                        yield p, code(f.read())


def unused():
    texts = list(sources())
    names = []
    for mli in sorted(
        os.path.join(ROOT, "lib", d, f)
        for d in os.listdir(os.path.join(ROOT, "lib"))
        if os.path.isdir(os.path.join(ROOT, "lib", d))
        for f in os.listdir(os.path.join(ROOT, "lib", d))
        if f.endswith(".mli")
    ):
        own = os.path.splitext(mli)[0]
        for path, name, inner in exports(mli):
            qual = re.escape(inner) if inner else r"[A-Z][\w']*"
            pat = re.compile(r"\b" + qual + r"\." + re.escape(name) + r"(?![\w'])")
            if not any(
                os.path.splitext(p)[0] != own and pat.search(t) for p, t in texts
            ):
                names.append(path)
    return names


def allowed(design):
    names = set()
    inside = False
    with open(design) as f:
        for line in f:
            if line.startswith("#"):
                inside = "exported for tests" in line.lower()
                continue
            m = re.match(r"\s*[-*]\s+`([\w.']+)`", line)
            if inside and m:
                names.add(m.group(1))
    return names


def main(argv):
    names = unused()
    if len(argv) == 3 and argv[1] == "--check":
        ok = allowed(argv[2])
        bad = [
            n for n in names
            if not any(n == a or n.startswith(a + ".") for a in ok)
        ]
        for n in bad:
            print(n)
        return 1 if bad else 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for n in names:
        print(n)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
