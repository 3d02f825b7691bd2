"""Batch front end: validate instances, compute index profiles, run and
compare extensions, and reproduce the depth-sweep experiment.

Exit codes: 0 ok, 1 validation failure, 2 precondition failure,
3 invariant violation.  All outputs are a pure function of the arguments
and fixture bytes; the wall-time column of `compare` is emitted only on
request so that default outputs stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .errors import InvariantError, PreconditionError, ValidationError
from .space import (
    AdaptiveScale,
    load_space_file,
    parse_policy,
    space_to_document,
)
from .derive import checked_epsilon_grid, index_profile
from .extend import (
    glue_extension,
    iterated_extension,
    layered_extension,
    limsup_extension,
    retract_extension,
    scattered_extension,
)
from .instances import block_parity_field, cantor_instance, generate_from_spec

DEFAULT_GRID = [2.0**-j for j in range(1, 9)]
CANTOR_EXTRA = [3.0**-j for j in range(1, 5)]
# Multiplier below 2 resolves consecutive dyadic scales on sequence spaces.
CANTOR_POLICY = AdaptiveScale(1.5)


def _grid_for(space, arg):
    if arg:
        try:
            grid = [float(tok) for tok in arg.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValidationError(f"bad epsilon grid {arg!r}: {exc}") from None
    else:
        grid = list(DEFAULT_GRID)
        if space.metric.kind == "cantor":
            grid = sorted(set(grid + CANTOR_EXTRA), reverse=True)
    return checked_epsilon_grid(grid)


def _load_instance(args):
    if bool(args.instance) == bool(args.generate):
        raise ValidationError("exactly one of --instance and --generate is required")
    if args.instance:
        return load_space_file(args.instance)
    return generate_from_spec(args.generate)


def _policy_for(space, args):
    if args.policy:
        return parse_policy(args.policy)
    return CANTOR_POLICY if space.metric.kind == "cantor" else AdaptiveScale(3.0)


def _field_and_subset(space, args):
    name = args.field or "f"
    if name not in space.fields:
        raise ValidationError(f"field {name!r} not found in instance (have {sorted(space.fields)})")
    f = space.fields[name]
    if args.subset:
        if args.subset not in space.subsets:
            raise ValidationError(f"subset {args.subset!r} not found in instance")
        Y = space.subsets[args.subset]
    elif "Y" in space.subsets:
        Y = space.subsets["Y"]
    else:
        Y = f.domain
    return f, Y


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output file {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    """Emit ``obj`` as byte-stable JSON: sorted keys, two-space indent, final newline.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2)``,
    whose indenting encoder runs in pure Python; ``_indented`` hands the
    leaves to the C encoder instead.
    """
    _emit(args, _indented(obj, "") + "\n")


_SCALARS = {int, float, str, bool, type(None)}


def _indented(obj, pad: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for a value indented by ``pad``.

    Only containers holding containers are built here.  A nonempty
    container of plain scalars, and a list of such containers of one kind,
    is one C-encoder call whose item separator carries the newline and
    indent.  With ``ensure_ascii`` no encoded string holds a raw newline, so
    the pattern replaced below, a comma and newline between a closing and an
    opening bracket, is only ever the separator between two containers.
    Anything else (numpy scalars, subclasses, tuples, non-str keys, empty
    containers) goes to the stdlib call, re-indented.
    """
    kind = type(obj)
    if kind in _SCALARS:
        return json.dumps(obj)
    if kind not in (list, dict) or not obj or kind is dict and set(map(type, obj)) != {str}:
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)
    values = set(map(type, obj.values() if kind is dict else obj))
    inner = pad + "  "
    if values <= _SCALARS:
        text = json.JSONEncoder(sort_keys=True, separators=(",\n" + inner, ": ")).encode(obj)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
    if kind is dict:
        items = (f"{json.dumps(key)}: {_indented(obj[key], inner)}" for key in sorted(obj))
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}"
    if values == {list}:
        plain = all(obj) and {type(v) for row in obj for v in row} <= _SCALARS
    elif values == {dict}:
        plain = (all(obj) and {type(k) for d in obj for k in d} == {str}
                 and {type(v) for d in obj for v in d.values()} <= _SCALARS)
    else:
        plain = False
    if not plain:
        return "[\n" + inner + f",\n{inner}".join(_indented(item, inner) for item in obj) + f"\n{pad}]"
    deep = inner + "  "
    text = json.JSONEncoder(sort_keys=True, separators=(",\n" + deep, ": ")).encode(obj)
    open_, close = text[1], text[-2]
    text = text[2:-2].replace(f"{close},\n{deep}{open_}", f"\n{inner}{close},\n{inner}{open_}\n{deep}")
    return f"[\n{inner}{open_}\n{deep}{text}\n{inner}{close}\n{pad}]"


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_validate(args):
    space = _load_instance(args)
    summary = {
        "name": space.name,
        "points": space.n,
        "metric": space.metric.kind,
        "resolution": space.resolution,
        "diameter": space.diameter(),
        "subsets": {k: v.size for k, v in sorted(space.subsets.items())},
        "fields": {k: v.domain.size for k, v in sorted(space.fields.items())},
        "triangle_check": space.metric.triangle_check,
    }
    _emit_json(args, summary)
    return 0


def cmd_index(args):
    space = _load_instance(args)
    f, Y = _field_and_subset(space, args)
    P = Y & f.domain
    policy = _policy_for(space, args)
    grid = _grid_for(space, args.epsilon_grid)
    profile = index_profile(f, P, policy, grid)
    rows = profile.csv_rows()
    if args.format == "json":
        payload = [
            {"epsilon": e.epsilon, "index": e.index, "level_sizes": e.level_sizes}
            for e in profile.entries
        ]
        _emit_json(args, {"policy": policy.describe(), "entries": payload})
    else:
        _emit(args, _csv_text(["epsilon", "index", "level_sizes"], rows))
    return 0


_METHODS = ("glue", "iterated", "layered", "limsup", "scattered", "retract")


def _unknown_method(method):
    return ValidationError(f"unknown method {method!r} (expected one of {_METHODS})")


def _run_method(method, space, Y, f, policy, args):
    if method == "glue":
        eps = args.epsilon if args.epsilon is not None else 0.5
        return glue_extension(space, Y, f, eps, policy)
    if method == "iterated":
        return iterated_extension(space, Y, f, policy, args.rounds)
    if method == "layered":
        return layered_extension(space, Y, f, policy, args.max_layers)
    if method == "limsup":
        return limsup_extension(space, Y, f)
    if method == "scattered":
        return scattered_extension(space, Y, f, policy)
    if method == "retract":
        return retract_extension(space, f.restrict(Y & f.domain))
    raise _unknown_method(method)


def cmd_extend(args):
    space = _load_instance(args)
    f, Y = _field_and_subset(space, args)
    policy = _policy_for(space, args)
    report = _run_method(args.method, space, Y, f, policy, args)
    fields = dict(space.fields)
    fields[f"F_{args.method}"] = report.field
    doc = space_to_document(space, space.subsets, fields)
    _emit_json(args, {"instance": doc, "report": report.to_dict()})
    print(f"method={args.method} patch_magnitude={report.patch_magnitude!r} "
          f"assertion_log={'empty' if not report.assertion_log else report.assertion_log}",
          file=sys.stderr)
    return 0


def cmd_compare(args):
    space = _load_instance(args)
    f, Y = _field_and_subset(space, args)
    policy = _policy_for(space, args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise ValidationError("compare needs at least two methods")
    for method in methods:  # before any construction runs
        if method not in _METHODS:
            raise _unknown_method(method)
    grid = _grid_for(space, args.epsilon_grid)
    rows = []
    for method in methods:
        started = time.monotonic()
        report = _run_method(method, space, Y, f, policy, args)
        elapsed_ms = (time.monotonic() - started) * 1000.0
        profile = index_profile(report.field, space.full_mask(), policy, grid)
        for entry in profile.entries:
            row = [method, repr(entry.epsilon),
                   "SATURATED" if entry.saturated else str(entry.index),
                   repr(report.patch_magnitude)]
            if args.timings:
                row.append(f"{elapsed_ms:.1f}")
            rows.append(row)
    header = ["method", "epsilon", "index", "patch_magnitude"]
    if args.timings:
        header.append("wall_ms")
    if args.format == "json":
        _emit_json(args, [dict(zip(header, row)) for row in rows])
    else:
        _emit(args, _csv_text(header, rows))
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    table = "\n".join(
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        for row in [header] + rows
    )
    print(table, file=sys.stderr)
    return 0


def cmd_ex1(args):
    try:
        depths = [int(tok) for tok in args.depths.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad depth list {args.depths!r}: {exc}") from None
    if not depths:
        raise ValidationError("at least one depth is required")
    blocks = {}
    for depth in depths:
        space = cantor_instance(depth)
        Y = space.subsets["Y"]
        f = block_parity_field(space)
        grid = _grid_for(space, args.epsilon_grid)
        block = {}
        for method, report in (
            ("layered", layered_extension(space, Y, f, CANTOR_POLICY, args.max_layers)),
            ("limsup", limsup_extension(space, Y, f)),
        ):
            profile = index_profile(report.field, space.full_mask(), CANTOR_POLICY, grid)
            block[method] = {
                "indices": [
                    {"epsilon": e.epsilon, "index": e.index} for e in profile.entries
                ],
                "patch_magnitude": report.patch_magnitude,
            }
        blocks[str(depth)] = block
    if args.format == "csv":
        rows = []
        for depth in depths:
            for method in ("layered", "limsup"):
                for e in blocks[str(depth)][method]["indices"]:
                    label = "SATURATED" if e["index"] is None else str(e["index"])
                    rows.append([depth, method, repr(e["epsilon"]), label])
        _emit(args, _csv_text(["depth", "method", "epsilon", "index"], rows))
    else:
        _emit_json(args, blocks)
    return 0


# Every option, and the options each subcommand reads.  A subcommand takes
# only its own and no abbreviation of them (``--epsilon`` would abbreviate
# ``--epsilon-grid``), so any other flag is a usage error (exit 2).
_OPTIONS = {
    "--instance": dict(help="path to an instance JSON document"),
    "--generate": dict(help="generator spec, e.g. cantor:8, ordinal:2, random:7:200:2"),
    "--field": dict(help="field name (default 'f')"),
    "--subset": dict(help="subset name playing Y"),
    "--epsilon-grid": dict(help="comma-separated, strictly decreasing"),
    "--policy": dict(help="fixed:DELTA or adaptive:MULT"),
    "--epsilon": dict(type=float, help="single epsilon (glue)"),
    "--max-layers": dict(type=int, default=24),
    "--rounds": dict(type=int, default=10),
    "--out": dict(help="output path (default stdout)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--method": dict(required=True),
    "--methods": dict(required=True, help="comma-separated method list"),
    "--timings": dict(action="store_true", help="append a wall-time column"),
    "--depths": dict(default="6,8,10"),
}
_INPUT = ("--instance", "--generate", "--field", "--subset", "--policy")  # the space, f, Y and the scale
_RUN = ("--epsilon", "--max-layers", "--rounds")
_COMMANDS = {
    "validate": (cmd_validate, ("--instance", "--generate", "--out")),
    "index": (cmd_index, _INPUT + ("--epsilon-grid", "--out", "--format")),
    "extend": (cmd_extend, _INPUT + _RUN + ("--out", "--method")),
    "compare": (cmd_compare, _INPUT + _RUN + ("--epsilon-grid", "--out", "--format", "--methods", "--timings")),
    "ex1": (cmd_ex1, ("--epsilon-grid", "--max-layers", "--out", "--format", "--depths")),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="oscext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
