#!/usr/bin/env python3
"""Audit of code that nothing calls and counters that nothing reads.

Usage: dead_code_audit.py [repo_root]

Lists two things, scanning src/, bench/, examples/, perfbench/ and
tests/:

* every field of a `struct Counters` under src/ that no file reads. An
  access counts as a read unless it is the target of an assignment or
  an increment (`c.name += n`, `++c.name`, `c.name = 0`);
* every public function declared in a src/ header (a member in a public
  section, or a free function) whose name appears on no line except its
  own declaration and its out-of-line definition (a line that starts at
  column 0 and names `Owner::name(`).

The match is by name, so a dead counter or function that shares its
name with a live one goes unlisted, while anything some file reads or
calls by name is never listed. Comments and string literals do not
count as uses.

Exits 0 when it lists nothing, 1 when it lists any.
"""

import os
import re
import sys

from config_audit import (matching_brace, parse_field, source_files,
                          statements, strip, _SCOPE, _WRITE, _PRE_INCREMENT)

_ACCESS = re.compile(r"(?:\.|->)\s*(\w+)\b")
_LAST_MEMBER = re.compile(r"(?:\.|->)\s*(\w+)\s*(?:\[[^]\n]*\]\s*)?$")
_SPECIFIER = re.compile(r"^(public|private|protected)\s*:(?!:)\s*")
_PREFIX = re.compile(r"^(?:template\s*<[^{};]*?>\s*|\[\[[^]]*\]\]\s*)+")
_NOT_A_FUNCTION = ("using ", "typedef ", "friend ", "static_assert",
                   "return ", "enum ", "namespace ")
_KEYWORDS = {"alignas", "decltype", "static_assert"}


def strip_preprocessor(text):
    """Blanks `#` directives (with continuations), keeping line structure."""
    out, continued = [], False
    for line in text.split("\n"):
        directive = continued or line.lstrip().startswith("#")
        continued = directive and line.rstrip().endswith("\\")
        out.append("" if directive else line)
    return "\n".join(out)


# --------------------------------------------------------------- counters

def counter_fields(text, path, fields):
    """Adds (path, Owner::Counters::field, field) for each Counters field."""
    for m in re.finditer(r"\bstruct\s+Counters\s*\{", text):
        owner = "?"
        for scope in _SCOPE.finditer(text, 0, m.start()):
            if matching_brace(text, scope.end() - 1) > m.start():
                owner = scope.group(1)
        open_at = m.end() - 1
        for stmt in statements(text[open_at + 1:matching_brace(text,
                                                               open_at)]):
            field = parse_field(stmt)
            if field:
                fields.append((path, f"{owner}::Counters::{field[1]}",
                               field[1]))


def read_names(text):
    """Names of every member access in `text` that is not a write target."""
    written = set()
    for m in list(_WRITE.finditer(text)) + list(_PRE_INCREMENT.finditer(text)):
        last = _LAST_MEMBER.search(m.group(1))
        written.add(m.start(1) + last.start(1))
    return {m.group(1) for m in _ACCESS.finditer(text)
            if m.start(1) not in written}


# -------------------------------------------------------------- functions

def declared_function(head, owner):
    """Name a statement head declares as a function, or None."""
    head = _PREFIX.sub("", head)
    if not head or head.startswith(_NOT_A_FUNCTION) or "operator" in head:
        return None
    angle = 0
    for i, ch in enumerate(head):
        if ch == "<":
            angle += 1
        elif ch == ">":
            angle -= 1
        elif angle == 0 and ch in "={":
            return None  # a variable or an initializer
        elif angle == 0 and ch == "(":
            m = re.search(r"(~?)(\w+)\s*$", head[:i])
            if m is None or m.group(1) or m.group(2) in _KEYWORDS:
                return None
            name = m.group(2)
            if name == owner or not head[:m.start()].strip():
                return None  # a constructor, or a macro call
            return name
    return None


def public_functions(text):
    """(owner, name, offset) of every public function a header declares."""
    out = []
    stack = [("namespace", None, True)]  # (kind, name, public)
    head_start = 0
    for i, ch in enumerate(text):
        if ch not in "{};":
            continue
        kind, owner, public = stack[-1]
        raw = text[head_start:i]
        head = " ".join(raw.split())
        while kind == "class":
            spec = _SPECIFIER.match(head)
            if spec is None:
                break
            public = spec.group(1) == "public"
            head = head[spec.end():]
        stack[-1] = (kind, owner, public)
        eligible = kind in ("namespace", "class") and public
        if ch in "{;" and eligible:
            name = declared_function(head, owner)
            if name is not None:
                offset = head_start + re.search(
                    rf"\b{name}\s*\(", raw).start()
                out.append((owner, name, offset))
        if ch == "{":
            cls = re.search(r"\b(class|struct)\s+(\w+)[^(]*$", head)
            if head.startswith("namespace"):
                stack.append(("namespace", None, True))
            elif cls and not re.search(r"\benum\b", head):
                stack.append(("class", cls.group(2),
                              cls.group(1) == "struct"))
            else:
                stack.append(("other", owner, False))
        elif ch == "}" and len(stack) > 1:
            stack.pop()
        head_start = i + 1
    return out


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    texts = {}
    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            texts[os.path.relpath(path, root)] = strip_preprocessor(
                strip(f.read()))
    in_src = [p for p in texts if p.startswith("src" + os.sep)]

    fields = []
    for path in in_src:
        counter_fields(texts[path], path, fields)
    read = set()
    for text in texts.values():
        read |= read_names(text)
    unread = [f"{path}: {key}" for path, key, name in sorted(fields)
              if name not in read]

    # Lines naming each identifier: {name: [(path, line, text)]}.
    uses = {}
    for path, text in texts.items():
        for number, line in enumerate(text.split("\n"), 1):
            for name in set(re.findall(r"\b[A-Za-z_]\w*\b", line)):
                uses.setdefault(name, []).append((path, number, line))

    declared, uncalled = 0, []
    for path in sorted(in_src):
        if not path.endswith((".h", ".hpp")):
            continue
        text = texts[path]
        for owner, name, offset in public_functions(text):
            declared += 1
            decl_line = line_of(text, offset)
            qualified = re.compile(
                rf"\b{owner}(?:<[^>]*>)?::{name}\s*\(" if owner
                else rf"\b{name}\s*\(")
            sibling = os.path.splitext(path)[0]
            others = [
                (p, n) for p, n, line in uses.get(name, [])
                if not (p == path and n == decl_line)
                and not (line[:1].strip() and qualified.search(line)
                         and (owner or os.path.splitext(p)[0] == sibling))]
            if not others:
                where = f"{owner}::{name}" if owner else name
                uncalled.append(f"{path}:{decl_line}: {where}()")

    for line in unread + uncalled:
        print(line)
    structs = len({key.rsplit("::", 1)[0] for _, key, _ in fields})
    print(f"dead_code_audit: {structs} Counters structs, {len(fields)} "
          f"fields, {len(unread)} never read; {declared} public functions, "
          f"{len(uncalled)} never called")
    return 1 if unread or uncalled else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
