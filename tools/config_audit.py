#!/usr/bin/env python3
"""Audit of the simulator's settable values.

Usage: config_audit.py [repo_root]

Lists every field of a `struct Config` under src/ (fields of a struct
declared inline in one, such as `struct Sharding {...} sharding;`,
included) that no file in src/, bench/, examples/, perfbench/ or tests/
assigns, and prints how many settable fields the Config structs hold in
all. A field counts as assigned when some file writes it by name
(`cfg.name = ...`, `cfg.name.sub = ...`, `p->name += ...`, a designated
initializer `{.name = ...}`, `++cfg.name`) or, for a field whose type is
another audited struct, when any field of that struct is assigned.

The match is by name, so a dead field that shares its name with a set
one goes unlisted, while a field some file writes in one of those forms
is never listed. A paper constant that nothing sets belongs beside its
reader, not in a Config struct.

Exits 0 when every field is assigned somewhere, 1 when it lists any.
"""

import os
import re
import sys

SCAN_DIRS = ("src", "bench", "examples", "perfbench", "tests")
SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")

_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
_STRING = re.compile(r'"(?:\\.|[^"\\])*"')
_SCOPE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{()]*\{")
_INLINE_STRUCT = re.compile(
    r"^(?:struct|class)\s+(\w+)\s*\{(.*)\}\s*(\w+)$", re.S)
_NOT_A_FIELD = ("using ", "static ", "friend ", "typedef ", "enum ",
                "struct ", "class ", "union ", "template")
# One member access: `.name` or `->name`, optionally subscripted.
_MEMBER = r"(?:\.|->)\s*\w+\s*(?:\[[^]\n]*\]\s*)?"
_WRITE = re.compile(
    rf"((?:{_MEMBER})+)\s*(?:(?:[-+*/%&|^]|<<|>>)?=(?!=)|\+\+|--)")
_PRE_INCREMENT = re.compile(rf"(?:\+\+|--)\s*\w+\s*((?:{_MEMBER})+)")


def strip(text):
    """Removes comments and string literals, keeping line structure."""
    text = _COMMENT.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    return _STRING.sub('""', text)


def matching_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def statements(body):
    """Splits a struct body into its top-level statements."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
        elif ch == ";" and depth == 0:
            out.append(" ".join(body[start:i].split()))
            start = i + 1
    return out


def parse_field(stmt):
    """(type, name) of a data-member declaration, or None."""
    if not stmt or stmt.startswith(_NOT_A_FIELD) or "operator" in stmt:
        return None
    decl, angle = stmt, 0
    for i, ch in enumerate(stmt):
        if ch == "<":
            angle += 1
        elif ch == ">":
            angle -= 1
        elif angle == 0 and ch == "(":
            return None  # a function, not a field
        elif angle == 0 and ch in "={":
            decl = stmt[:i]
            break
    m = re.match(
        r"^(?:(?:mutable|const)\s+)*(.+?)[\s&*]+(\w+)\s*(?:\[[^]]*\])?$",
        decl.strip())
    return (m.group(1), m.group(2)) if m else None


def parse_struct(key, body, structs):
    """Records `key`'s fields, and those of structs declared inline."""
    fields = []
    for stmt in statements(body):
        inline = _INLINE_STRUCT.match(stmt)
        if inline:
            nested = f"{key}::{inline.group(1)}"
            parse_struct(nested, inline.group(2), structs)
            fields.append((nested, inline.group(3)))
            continue
        field = parse_field(stmt)
        if field:
            fields.append(field)
    structs[key] = fields


def config_structs(text, structs, owners):
    """Adds every `struct Config` in `text` to `structs`."""
    for m in re.finditer(r"\bstruct\s+Config\s*\{", text):
        # The owner is the innermost class or struct still open here.
        owner = "?"
        for scope in _SCOPE.finditer(text, 0, m.start()):
            if matching_brace(text, scope.end() - 1) > m.start():
                owner = scope.group(1)
        open_at = m.end() - 1
        key = f"{owner}::Config"
        parse_struct(key, text[open_at + 1:matching_brace(text, open_at)],
                     structs)
        owners[key] = owner


def source_files(root):
    for d in SCAN_DIRS:
        for base, _, names in sorted(os.walk(os.path.join(root, d))):
            for name in sorted(names):
                if name.endswith(SOURCE_SUFFIXES):
                    yield os.path.join(base, name)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    texts = {}
    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            texts[os.path.relpath(path, root)] = strip(f.read())

    structs, owners, where = {}, {}, {}
    for path, text in texts.items():
        if path.startswith("src" + os.sep):
            before = set(structs)
            config_structs(text, structs, owners)
            for key in set(structs) - before:
                where[key] = path

    # Every member named in a written access path counts as written:
    # `cfg.fabric.device.configure_time = t` writes all three.
    written = set()
    for text in texts.values():
        for path in _WRITE.findall(text) + _PRE_INCREMENT.findall(text):
            written.update(re.findall(r"(?:\.|->)\s*(\w+)", path))

    def struct_of(type_name):
        if type_name in structs:
            return type_name
        m = re.search(r"(\w+::Config)$", type_name)
        return m.group(1) if m and m.group(1) in structs else None

    busy = set()

    def is_set(name, type_name):
        if name in written:
            return True
        inner = struct_of(type_name)
        if inner is None or inner in busy:
            return False
        busy.add(inner)
        try:
            return any(is_set(n, t) for t, n in structs[inner])
        finally:
            busy.discard(inner)

    total, unset = 0, []
    for key in sorted(structs):
        for type_name, name in structs[key]:
            total += 1
            if not is_set(name, type_name):
                unset.append(f"{where[key]}: {key}::{name}")

    for line in unset:
        print(line)
    print(f"config_audit: {len(owners)} Config structs, {total} settable "
          f"fields, {len(unset)} never assigned")
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
