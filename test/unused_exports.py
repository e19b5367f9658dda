#!/usr/bin/env python3
"""List the library's exported values that no caller outside the tests uses.

Usage: python3 test/unused_exports.py [--check DESIGN.md]

Every `val` declared in lib/*/*.mli (including those inside a nested
`module X : sig ... end`) is looked up as a qualified use, `X.name` or
`X.Sub.name`, in the library's other modules and in bin/, bench/,
examples/ and perfbench/. The qualifier is resolved to the module it
names, and a use counts only for that module. The first component is
looked up, in this order, among:

- the file's module aliases (`module M = Bdd.Manager`, also under `let`);
- inside lib/, the modules of the file's own library (`Ops` in
  lib/automaton/ is Fsa.Ops);
- the library wrappers, read from lib/*/dune (`Bdd.Manager`); a library
  with a module of its own name is not wrapped (`Obs.Counter`).

So `Fsa.Print.to_dot` does not count as a use of `Bdd.Print.to_dot`. A
module's own .ml and .mli do not count as callers: a name only its own
module uses need not be exported. Unqualified uses (under `open`) are not
counted.

Without --check, print each unused name with its library qualifier
(`Bdd.Manager.cache_find`, `Bdd.Manager.Op.ite`), one a line. With
--check FILE, print only the unused names that FILE's "Exported for
tests" list does not name, and exit 1 if there are any. That list is the
bullets under a heading containing "Exported for tests", each starting
with the name in backquotes; a listed module (`Bdd.Manager.Op`) covers
every value in it.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIB = os.path.join(ROOT, "lib")
CALLER_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]

PATH = r"[A-Z][\w']*(?:\.[A-Z][\w']*)*"
ALIAS = re.compile(r"\bmodule\s+([A-Z][\w']*)\s*=\s*(" + PATH + r")(?![\w'.(])")
USE = re.compile(r"(?<![\w'])(" + PATH + r")\.([a-z_][\w']*)(?![\w'])")


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def libraries():
    """{library directory: (wrapper or None, {module name: .mli stem})}."""
    libs = {}
    for d in sorted(os.listdir(LIB)):
        dune = os.path.join(LIB, d, "dune")
        if not os.path.isfile(dune):
            continue
        with open(dune) as f:
            text = f.read()
        name = re.search(r"\(name\s+([\w]+)\)", text).group(1)
        mods = {
            module_name(fn): os.path.join(LIB, d, os.path.splitext(fn)[0])
            for fn in os.listdir(os.path.join(LIB, d))
            if fn.endswith(".mli")
        }
        main = name[0].upper() + name[1:]
        unwrapped = "(wrapped false)" in text or main in mods
        libs[os.path.join(LIB, d)] = (None if unwrapped else main, mods)
    return libs


def exports(mli):
    """The path inside the module (`Op.ite`) of each val."""
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
                out.append(".".join(stack + [m.group(1)]))
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


class Resolver:
    """Maps a qualifier, as written in one file, to the modules it names."""

    def __init__(self, libs, path, text):
        self.globals = {}
        for wrapper, mods in libs.values():
            if wrapper:
                self.globals[wrapper] = ("lib", mods)
            else:
                for name, stem in mods.items():
                    self.globals[name] = ("mod", stem)
        own = libs.get(os.path.dirname(path))
        self.own = own[1] if own else {}
        self.aliases = {}
        for name, target in ALIAS.findall(text):
            self.aliases.setdefault(name, set()).add(target)

    def resolve(self, comps, seen=()):
        """{(.mli stem, nested module path)} the qualifier can name."""
        head, rest = comps[0], comps[1:]
        if head in self.aliases and head not in seen:
            out = set()
            for target in self.aliases[head]:
                out |= self.resolve(target.split(".") + rest, seen + (head,))
            return out
        if head in self.own:
            return {(self.own[head], ".".join(rest))}
        kind, v = self.globals.get(head, (None, None))
        if kind == "mod":
            return {(v, ".".join(rest))}
        if kind == "lib" and rest and rest[0] in v:
            return {(v[rest[0]], ".".join(rest[1:]))}
        return set()


def uses(libs):
    """{(.mli stem, path inside the module)} used outside that module."""
    found = set()
    for p, text in sources():
        r = Resolver(libs, p, text)
        own = os.path.splitext(p)[0]
        for qual, name in USE.findall(text):
            for stem, sub in r.resolve(qual.split(".")):
                if stem != own:
                    found.add((stem, sub + "." + name if sub else name))
    return found


def unused():
    libs = libraries()
    used = uses(libs)
    names = []
    for d, (wrapper, mods) in sorted(libs.items()):
        for mod, stem in sorted(mods.items(), key=lambda kv: kv[1]):
            prefix = (wrapper + "." if wrapper else "") + mod
            for path in exports(stem + ".mli"):
                if (stem, path) not in used:
                    names.append(prefix + "." + path)
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
