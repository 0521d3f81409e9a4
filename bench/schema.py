"""A fast validator for the JSON Schema subset used by docs/schemas.

jsonschema needs about 3 s for one 32k-row stats report, several times
the cost of the command that wrote it.  This module compiles a schema once
into nested checks with the same Draft 2020-12 semantics for the keywords
the report schemas use, and refuses any other keyword, so a schema that
grows a new keyword fails loudly instead of passing unchecked.
bench/tests checks it against jsonschema on live reports.
"""

from __future__ import annotations

import re

_ANNOTATIONS = {"$schema", "$id", "$defs", "title", "description"}


def _is_int(v) -> bool:
    return (type(v) is int) or (type(v) is float and v.is_integer())


_TYPES = {
    "object": lambda v: type(v) is dict,
    "array": lambda v: type(v) is list,
    "string": lambda v: type(v) is str,
    "boolean": lambda v: type(v) is bool,
    "null": lambda v: v is None,
    "number": lambda v: type(v) in (int, float),
    "integer": _is_int,
}


def _path(at) -> str:
    # locations are built as (parent, key) pairs and only spelled out on error
    parts = []
    while at is not None:
        at, key = at
        parts.append(f"[{key}]" if type(key) is int else f".{key}")
    return "$" + "".join(reversed(parts))


def _equal(a, b) -> bool:
    # JSON equality: 1 == 1.0, but true is not 1
    if type(a) is bool or type(b) is bool:
        return type(a) is type(b) and a == b
    return a == b


class SchemaValidator:
    """Validate instances against one schema document."""

    def __init__(self, schema: dict) -> None:
        self.root = schema
        self._refs: dict = {}
        self._check = self._compile(schema)

    def errors(self, instance) -> list[str]:
        out: list[str] = []
        self._check(instance, None, out)
        return out

    def _ref(self, ref: str):
        if not ref.startswith("#/"):
            raise ValueError(f"only local $ref is supported, got {ref!r}")
        if ref not in self._refs:
            node = self.root
            for part in ref[2:].split("/"):
                node = node[part]
            self._refs[ref] = None  # guards against a reference cycle
            self._refs[ref] = self._compile(node)
        return lambda v, at, out: self._refs[ref](v, at, out)

    def _compile(self, s: dict):
        checks = [self._keyword(key, arg, s) for key, arg in s.items() if key not in _ANNOTATIONS]

        def check(v, at, out):
            for c in checks:
                c(v, at, out)

        return check

    def _keyword(self, key: str, arg, s: dict):
        if key == "$ref":
            return self._ref(arg)
        if key == "type":
            tests = [_TYPES[name] for name in ([arg] if isinstance(arg, str) else arg)]
            test = tests[0] if len(tests) == 1 else (lambda v: any(t(v) for t in tests))

            def check(v, at, out):
                if not test(v):
                    out.append(f"{_path(at)}: expected type {arg}, got {type(v).__name__}")
        elif key in ("const", "enum"):
            allowed = [arg] if key == "const" else arg

            def check(v, at, out):
                if not any(_equal(v, a) for a in allowed):
                    out.append(f"{_path(at)}: {v!r} not in {allowed!r}")
        elif key in ("minimum", "maximum"):
            low = key == "minimum"

            def check(v, at, out):
                if type(v) in (int, float) and (v < arg if low else v > arg):
                    out.append(f"{_path(at)}: {v!r} violates {key} {arg}")
        elif key == "pattern":
            search = re.compile(arg).search

            def check(v, at, out):
                if type(v) is str and not search(v):
                    out.append(f"{_path(at)}: {v!r} does not match {arg!r}")
        elif key == "required":

            def check(v, at, out):
                if type(v) is dict:
                    out.extend(f"{_path(at)}: missing {name!r}" for name in arg if name not in v)
        elif key == "properties":
            subs = {name: self._compile(sub) for name, sub in arg.items()}

            def check(v, at, out):
                if type(v) is dict:
                    for name, sub in subs.items():
                        if name in v:
                            sub(v[name], (at, name), out)
        elif key == "additionalProperties":
            if arg is True:
                return lambda v, at, out: None
            named = set(s.get("properties", ()))
            sub = None if arg is False else self._compile(arg)

            def check(v, at, out):
                if type(v) is dict:
                    for name, item in v.items():
                        if name in named:
                            continue
                        if sub is None:
                            out.append(f"{_path(at)}: unexpected property {name!r}")
                        else:
                            sub(item, (at, name), out)
        elif key == "items":
            sub = self._compile(arg)
            start = len(s.get("prefixItems", ()))

            def check(v, at, out):
                if type(v) is list:
                    for i in range(start, len(v)):
                        sub(v[i], (at, i), out)
        elif key == "prefixItems":
            subs = [self._compile(sub) for sub in arg]

            def check(v, at, out):
                if type(v) is list:
                    for i, (item, sub) in enumerate(zip(v, subs)):
                        sub(item, (at, i), out)
        elif key in ("minItems", "maxItems"):
            low = key == "minItems"

            def check(v, at, out):
                if type(v) is list and (len(v) < arg if low else len(v) > arg):
                    out.append(f"{_path(at)}: length {len(v)} violates {key} {arg}")
        elif key == "oneOf":
            subs = [self._compile(sub) for sub in arg]

            def check(v, at, out):
                passing = 0
                for sub in subs:
                    errs: list = []
                    sub(v, at, errs)
                    passing += not errs
                if passing != 1:
                    out.append(f"{_path(at)}: matches {passing} oneOf branches, need exactly 1")
        elif key == "not":
            sub = self._compile(arg)

            def check(v, at, out):
                errs: list = []
                sub(v, at, errs)
                if not errs:
                    out.append(f"{_path(at)}: matches a schema it must not match")
        else:
            raise ValueError(f"unsupported schema keyword {key!r}")
        return check
