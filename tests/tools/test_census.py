"""The call census's analysis (``tests/tools/census.py``) on a synthetic
module, against the code objects CPython itself makes for it."""

import ast
import types

from tests.tools import census

PATH = "repro/synthetic.py"

SOURCE = '''\
import functools


@functools.lru_cache(maxsize=None)
def decorated(x):
    return x


def outer():
    def inner():
        return 1

    return inner


class Box:
    def method(self):
        def helper():
            return 2

        return helper

    @property
    def size(self):
        return 3
'''


def code_keys(source, path):
    """``(path, co_firstlineno, co_name)`` of every function in ``source``."""
    keys = set()
    stack = [compile(source, path, "exec")]
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if const.co_name != "Box":  # the class body
                    keys.add((path, const.co_firstlineno, const.co_name))
    return keys


def rows(entered):
    return census.never_entered(ast.parse(SOURCE), PATH, entered)


ALL = code_keys(SOURCE, PATH)


def test_every_code_object_matches_its_row():
    # A decorated function's co_firstlineno is its decorator's line.
    assert (PATH, 4, "decorated") in ALL
    assert rows(ALL) == []


def test_a_decorated_row_starts_at_its_decorator():
    (row,) = rows(ALL - {(PATH, 4, "decorated")})
    assert row == census.Row(PATH, 4, "decorated", 3)


def test_nested_functions_of_a_never_entered_function_are_not_rows():
    assert rows(set()) == [
        census.Row(PATH, 4, "decorated", 3),
        census.Row(PATH, 9, "outer", 5),
        census.Row(PATH, 17, "Box.method", 5),
        census.Row(PATH, 23, "Box.size", 3),
    ]


def test_a_nested_function_is_a_row_when_its_parent_ran():
    entered = ALL - {(PATH, 10, "inner"), (PATH, 18, "helper")}
    assert rows(entered) == [
        census.Row(PATH, 10, "outer.inner", 2),
        census.Row(PATH, 18, "Box.method.helper", 2),
    ]


def test_hits_outside_src_are_ignored(tmp_path):
    src = tmp_path / "src"
    (tmp_path / "hits-1.tsv").write_text(
        f"{src}/repro/synthetic.py\t4\tdecorated\n/elsewhere/x.py\t1\tf\n"
    )
    (tmp_path / "hits-2.tsv").write_text(f"{src}/repro/synthetic.py\t9\touter\n")
    assert census.read_hits(tmp_path, src) == {(PATH, 4, "decorated"), (PATH, 9, "outer")}


def test_report_counts_only_rows_outside_the_allowlist(capsys):
    found = rows(set())
    allowlist = {
        (PATH, "outer"): "kept for a reason",
        (PATH, "gone"): "no longer a never-entered row",
    }
    assert census.report(found, allowlist) == 3
    out = capsys.readouterr().out
    assert "kept  repro/synthetic.py:9  outer  5  (kept for a reason)" in out
    assert f"stale allowlist row: {PATH} gone" in out
    assert out.splitlines()[-1] == (
        "never entered: 4 functions, 16 function-lines; kept on purpose: "
        "1 functions, 5; outside the allowlist: 3 functions, 11"
    )
