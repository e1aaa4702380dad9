"""Run one twistselmer CLI command with spans recorded around the public
functions of every twistselmer module.

    python bench/tracer.py --spans FILE --cmd-id ID -- <cli arguments>

Nothing inside ``src/`` is changed: the tracer replaces each public
module-level function by a wrapper in every twistselmer module namespace
that bound it (``from .arith import factorize`` binds a second name in
``selmer``), runs ``twistselmer.cli.main`` and writes the spans as JSON when
the command ends.  Forked pool workers restore the original functions at
fork, so only the parent process is traced.

A span row is ``[name, start, end, parent, cmd_id, busy, child, outcome]``,
times in integer nanoseconds of ``time.perf_counter_ns``:
``parent`` is the index of the enclosing span (-1 at top level), ``busy`` the
time the function was executing (for a generator, the sum of its resumes),
``child`` the part of ``busy`` covered by child spans, and ``outcome`` a small
summary of the return value for the functions whose useful-outcome ratio is
reported (see ``OUTCOMES``), else null.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("arith", "quadfield", "characters", "selmer", "ekstats", "cli")

# Per-element helpers, called up to a million times per command.  Wrapping
# them would more than double the run time of the traced `fields` commands;
# their cost shows as self time of the layer function that calls them.
SKIP = frozenset(
    {
        "arith.kronecker",
        "arith.is_perfect_square",
        "arith.squarefree_part",
        "arith.sqrt_mod_prime",
        "quadfield.element_norm",
        "quadfield.element_mul",
        "quadfield.element_conj",
        "quadfield.element_pow",
        "quadfield.element_divexact",
        "quadfield.element_is_unit",
        "quadfield.element_is_square",
        "quadfield.make_ideal",
        "quadfield.ideal_mul",
        "quadfield.ideal_conj",
        "quadfield.ideal_is_squarefree",
        "quadfield.ideal_divides",
        "quadfield.ideal_hnf",
        "quadfield.hnf_contains",
        "quadfield.ideal_of_element",
        "quadfield.split_prime",
        "characters.char_from_element",
        "characters.characters_equal",
        "characters.eval_additive",
    }
)

OUTCOMES = {
    "arith.torsor_locally_solvable": bool,
    "quadfield.generator_if_principal": lambda r: r is not None,
    "characters.enumerate_characters": len,
}

MARK = "__bench_span__"


class Recorder:
    """Spans of one command, kept in memory until the command ends."""

    def __init__(self, cmd_id: str):
        self.cmd_id = cmd_id
        self.rows: list[list] = []
        self.stack: list[int] = []
        self.originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.rows)
        parent = self.stack[-1] if self.stack else -1
        self.rows.append([name, time.perf_counter_ns(), 0, parent, self.cmd_id, 0, 0, None])
        return idx

    def _segment_end(self, idx: int, t0: int) -> int:
        """Close one executing segment of span `idx` that began at t0."""
        t1 = time.perf_counter_ns()
        self.stack.pop()
        row = self.rows[idx]
        row[5] += t1 - t0
        if self.stack:
            self.rows[self.stack[-1]][6] += t1 - t0
        return t1

    def wrap(self, name: str, fn):
        outcome = OUTCOMES.get(name)
        rec = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = rec._open(name)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        t0 = time.perf_counter_ns()
                        rec.stack.append(idx)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            rec.rows[idx][2] = rec._segment_end(idx, t0)
                        yield item
                finally:
                    inner.close()

            setattr(gen_wrapper, MARK, name)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec._open(name)
            t0 = rec.rows[idx][1]
            rec.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.rows[idx][2] = rec._segment_end(idx, t0)
            if outcome is not None:
                rec.rows[idx][7] = outcome(result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        """Wrap every public function of MODULES in every module that bound it."""
        mods = {m: importlib.import_module(f"twistselmer.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in SKIP or inspect.isclass(obj):
                    continue
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twistselmer" or mod_name.startswith("twistselmer.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self.originals.append((mod, attr, obj))
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self):
        for mod, attr, obj in self.originals:
            setattr(mod, attr, obj)
        self.originals.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"cmd_id": self.cmd_id, "spans": self.rows}, fh)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: tracer.py --spans FILE --cmd-id ID -- <cli arguments>", file=sys.stderr)
        return 2
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    spans_path = opts[opts.index("--spans") + 1]
    cmd_id = opts[opts.index("--cmd-id") + 1]
    rec = Recorder(cmd_id)
    rec.install()
    from twistselmer import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        rec.uninstall()
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
