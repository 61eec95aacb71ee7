"""Summarize how the rows of two ``tools/cli_rows.py`` outputs differ.

    PYTHONPATH=<parent checkout>/src python tools/cli_rows.py > parent.txt
    PYTHONPATH=src python tools/cli_rows.py > change.txt
    python tools/row_moves.py parent.txt change.txt

For each invocation (a ``# hadamard-dc <flags>`` line and the lines up
to the next one) this prints one line: the rows that moved, the worst
|delta fval| / (1 + |fval|) over the rows that moved, and the range of
delta k and of delta inn, change minus parent.  A row is the CSV row of one
(problem, algorithm, run, seed); it moved when its line differs.  Rows
that only one side printed, and a different exit code, are named too.
An invocation without CSV rows (``verify``) reports only how many of its
lines moved.  Works on ``--golden`` and ``--valley`` outputs as well.
Standard library only.
"""

import csv
import sys

HEADER = "# hadamard-dc "
KEY = ("problem", "algorithm", "run", "seed")


def blocks(lines):
    """{invocation: its lines}, in the order the invocations appear."""
    out, current = {}, None
    for line in lines:
        if line.startswith(HEADER):
            current = out.setdefault(line[len(HEADER):], [])
        elif current is not None:
            current.append(line)
    return out


def parse(lines):
    """({key: (line, row dict)}, exit line, other lines) of one block."""
    rows, exit_line, other, header = {}, None, [], None
    for line in lines:
        if exit_line is not None:       # stderr of the next invocation
            break
        if line.startswith("# exit"):
            exit_line = line
        elif header is None and line.startswith("problem,"):
            header = line.split(",")
        elif header is not None:
            row = dict(zip(header, next(csv.reader([line]))))
            rows[tuple(row[c] for c in KEY)] = line, row
        else:
            other.append(line)
    return rows, exit_line, other


def relative(got, want):
    """|got - want| / (1 + |want|): relative for |fval| >= 1 and absolute
    near the valley's fval of 1e-11."""
    return abs(got - want) / (1.0 + abs(want))


def span(values):
    return f"[{min(values):+d}, {max(values):+d}]" if values else "[]"


def compare(parent, change):
    """The report line of one invocation's blocks."""
    p_rows, p_exit, p_other = parse(parent)
    c_rows, c_exit, c_other = parse(change)
    parts = []
    if p_rows or c_rows:
        both = [key for key in p_rows if key in c_rows]
        moved = [key for key in both if p_rows[key][0] != c_rows[key][0]]
        parts.append(f"{len(moved)} of {len(both)} rows moved")
        if moved:
            rel = max(relative(float(c_rows[key][1]["fval"]),
                               float(p_rows[key][1]["fval"]))
                      for key in moved)
            dk, dinn = ([int(c_rows[key][1][col]) - int(p_rows[key][1][col])
                         for key in both] for col in ("k", "inn"))
            parts.append(f"worst |dfval|/(1+|fval|) {rel:.2g}, dk {span(dk)}, "
                         f"dinn {span(dinn)}")
        only_p = len(p_rows) - len(both)
        only_c = sum(key not in p_rows for key in c_rows)
        if only_p or only_c:
            parts.append(f"rows only in parent {only_p}, only in change "
                         f"{only_c}")
    if p_other or c_other:
        moved = sum(a != b for a, b in zip(p_other, c_other)) \
            + abs(len(p_other) - len(c_other))
        parts.append(f"{moved} of {max(len(p_other), len(c_other))} "
                     "lines moved")
    if p_exit != c_exit:
        parts.append(f"{p_exit} -> {c_exit}")
    return "; ".join(parts) or "no rows"


def report(parent_lines, change_lines):
    """The printed lines: one per invocation, the parent's order first."""
    parent, change = blocks(parent_lines), blocks(change_lines)
    out = []
    for inv in list(parent) + [inv for inv in change if inv not in parent]:
        if inv not in change or inv not in parent:
            side = "change" if inv not in change else "parent"
            out.append(f"{HEADER}{inv}: missing from {side}")
        else:
            out.append(f"{HEADER}{inv}: "
                       f"{compare(parent[inv], change[inv])}")
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/row_moves.py PARENT CHANGE")
    with open(sys.argv[1]) as p, open(sys.argv[2]) as c:
        print("\n".join(report(p.read().splitlines(),
                               c.read().splitlines())))
