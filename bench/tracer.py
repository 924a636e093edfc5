"""Outside-in tracing of one ``mucal`` command.

Usage::

    python3 bench/tracer.py SPANS_FILE -- <mucal arguments>

runs ``mucal.cli.main`` on the arguments exactly as ``python -m mucal.cli``
would, with every public function of every ``mucal`` module wrapped at
every name that binds it, plus the public methods of ``KbDocument``,
``ReasonEngine`` and ``StrengthEngine``.  Each wrapped call records a span:
name, parent span, start, end, and for ``prove`` and ``consistent`` the
outcome.  Spans stay in memory in flat arrays and are written to
SPANS_FILE when the command ends; ``aggregate`` turns a spans file into
per-name calls, inclusive time, self time and outcome counts.  The
command's standard output and exit code are left untouched.

Nothing inside ``mucal`` is edited: the wrappers replace module attributes
and class attributes, so a function reached only through a closure or a
private class (``prover._Search``) is timed inside its public caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array

# classes whose public methods are wrapped, by module
CLASSES = {
    "kb": ("KbDocument",),
    "reasonable": ("ReasonEngine",),
    "strength": ("StrengthEngine",),
}

# span outcome tags (the `tag` field); 0 means none recorded
OUTCOMES = ("", "proved", "unknown", "refuted", "consistent", "inconsistent")
_TAGGED = ("prover.prove", "models.consistent")

_FIELDS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"),
           ("tag", "b"), ("outer", "b"))


def mucal_modules() -> list:
    """The ``mucal`` package and every module in it."""
    import mucal

    mods = [mucal]
    for info in pkgutil.iter_modules(mucal.__path__):
        mods.append(importlib.import_module(f"mucal.{info.name}"))
    return mods


class Tracer:
    """Span recorder plus the wrappers it installed."""

    def __init__(self) -> None:
        self.names: list = []
        self.spans = {f: array(t) for f, t in _FIELDS}
        self._stack = [-1]
        self._active: list = []
        self._undo: list = []           # (owner, attribute, original)
        self.wrapped: dict = {}         # original function -> wrapper
        self.install_s = 0.0

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        self._active.append(0)
        tagged = span_name in _TAGGED
        sp = self.spans
        name_a, parent_a, start_a, end_a = sp["name"], sp["parent"], sp["start"], sp["end"]
        tag_a, outer_a = sp["tag"], sp["outer"]
        stack, active, clock = self._stack, self._active, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(name_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            outer_a.append(active[nid] == 0)
            tag_a.append(0)
            end_a.append(0.0)
            active[nid] += 1
            stack.append(sid)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[sid] = clock()
                stack.pop()
                active[nid] -= 1
            if tagged:
                outcome = getattr(result, "outcome", result)
                if outcome in OUTCOMES:
                    tag_a[sid] = OUTCOMES.index(outcome)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public mucal function and the listed class methods,
        then rebind each alias of a wrapped function in every module."""
        t0 = time.perf_counter()
        mods = mucal_modules()
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and obj not in self.wrapped):
                    self.wrapped[obj] = self._wrap(obj, f"{short}.{name}")
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for name, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and not name.startswith("_"):
                        w = self._wrap(obj, f"{short}.{cls_name}.{name}")
                        self.wrapped[obj] = w
                        self._set(cls, name, w)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.wrapped:
                    self._set(mod, name, self.wrapped[obj])
        self.install_s = time.perf_counter() - t0

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        header = {"names": self.names, "count": len(self.spans["name"]),
                  "install_s": self.install_s,
                  "fields": [[f, t] for f, t in _FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f, _ in _FIELDS:
                self.spans[f].tofile(fh)


def read_spans(path: str) -> tuple:
    """(header, field arrays) of a spans file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        fields = {}
        for f, t in header["fields"]:
            a = array(t)
            a.fromfile(fh, n)
            fields[f] = a
    return header, fields


def aggregate(path: str) -> tuple:
    """(header, stats) of a spans file.  Stats hold per span name: calls,
    inclusive seconds (outermost spans of that name only, so recursion is
    not counted twice), self seconds (minus the time covered by child
    spans), outcome counts, the names of the parents its spans were
    called from, and the start of its first span."""
    header, sp = read_spans(path)
    names = header["names"]
    name_a, parent_a, tag_a, outer_a = sp["name"], sp["parent"], sp["tag"], sp["outer"]
    dur = [e - s for s, e in zip(sp["start"], sp["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent_a):
        if p >= 0:
            child[p] += dur[i]
    stats = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "outcomes": {}, "parents": {},
                 "first_start": None} for n in names}
    for i, nid in enumerate(name_a):
        st = stats[names[nid]]
        if not st["calls"]:
            st["first_start"] = sp["start"][i]
        st["calls"] += 1
        if outer_a[i]:
            st["s"] += dur[i]
        st["self_s"] += dur[i] - child[i]
        if tag_a[i]:
            o = OUTCOMES[tag_a[i]]
            st["outcomes"][o] = st["outcomes"].get(o, 0) + 1
        p = parent_a[i]
        pname = names[name_a[p]] if p >= 0 else ""
        st["parents"][pname] = st["parents"].get(pname, 0) + 1
    return header, stats


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_FILE -- <mucal arguments>", file=sys.stderr)
        return 64
    from mucal import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv[2:])
        sys.stdout.flush()
    finally:
        tracer.write(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
