"""Command-line interface: enumeration, power operations, verification.

Exit codes: 0 success; 1 failed verification property; 2 invalid spec or
parse error; 3 size-cap violation; 4 level mismatch; 5 section out of
range.  JSON output is canonical (sorted keys, fixed separators) so equal
configs produce byte-identical files.  Every output is written one item,
row or class at a time, after every check that can fail has passed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from types import SimpleNamespace

from .classfn import (
    ClassFunction,
    c0_coordinate,
    c0_delta,
    constant_one,
    constant_value,
    from_json_dict,
    json_classes,
    power_op,
    total_power_op,
)
from .errors import (
    CharpowError,
    GroupTooLargeError,
    LevelMismatchError,
    ListingTooLargeError,
    SectionOutOfRangeError,
    TableTooLargeError,
)
from .groups import (
    build_group,
    enumerate_hom_classes,
    wreath_class_to_decorated,
    wreath_group,
)
from .isogeny import canonical_section, random_section
from .lattice import is_prime
from .rng import MASK64
from .torsion import enumerate_subgroups, max_subgroup_exponent, sum_index_tuples
from .verify import SUITES, VerifyConfig, run_suites

EXIT_VERIFY_FAILED = 1
EXIT_BAD_SPEC = 2
EXIT_TOO_LARGE = 3
EXIT_LEVEL_MISMATCH = 4
EXIT_SECTION_RANGE = 5

# (exception types, exit code) in the order they are matched
EXIT_CODES = (
    ((GroupTooLargeError, ListingTooLargeError, TableTooLargeError), EXIT_TOO_LARGE),
    ((LevelMismatchError,), EXIT_LEVEL_MISMATCH),
    ((SectionOutOfRangeError,), EXIT_SECTION_RANGE),
    ((ValueError, OSError, json.JSONDecodeError, KeyError, CharpowError), EXIT_BAD_SPEC),
)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _canonical_json(obj) -> str:
    return _json_text(obj) + "\n"


def _json_chunks(payload: dict, field: str, texts):
    """The canonical JSON of payload with the list field holding the element texts.

    The envelope is payload's canonical JSON with field null, split there;
    the elements follow one at a time, so no chunk holds the whole list.
    """
    head, tail = _canonical_json({**payload, field: None}).split(f'"{field}":null')
    yield f'{head}"{field}":['
    sep = ""
    for text in texts:
        yield sep + text
        sep = ","
    yield "]" + tail


def _csv_chunks(header, rows):
    """The CSV lines of header and rows, one at a time.

    writerow returns what the file's write returns: here, the line itself.
    """
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    return map(line, itertools.chain([header], rows))


def _emit(out_path, chunks):
    """Write the text chunks, one after another, to out_path or stdout.

    Chunks may be made lazily, but only by formatting: every step that can
    fail runs before the call, so a failing command leaves out_path as it was.
    """
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _matrix_cell(matrix) -> str:
    return ";".join(" ".join(str(x) for x in row) for row in matrix)


def _spec_int(flag: str, spec: str) -> int:
    """The integer after the colon of a built-in spec, or a ValueError naming the flag."""
    suffix = spec.split(":", 1)[1]
    try:
        return int(suffix)
    except ValueError:
        raise ValueError(f"{flag} {spec!r}: {suffix!r} is not an integer") from None


def _seed(where: str, seed: int) -> int:
    """seed, or a ValueError naming where unless it is a SplitMix64 seed, 0..2^64 - 1.

    SplitMix64 keeps a seed mod 2^64, so a seed outside would alias one inside.
    """
    if not 0 <= seed <= MASK64:
        raise ValueError(f"{where}: seed = {seed} is outside 0..{MASK64}")
    return seed


def _make_section(args, bound: int):
    spec = args.section
    if spec == "canonical":
        return canonical_section(args.p, args.n, bound)
    if spec.startswith("seeded:"):
        seed = _seed(f"--section {spec!r}", _spec_int("--section", spec))
        return random_section(args.p, args.n, bound, seed)
    raise ValueError(f"bad section spec {spec!r}")


def cmd_enumerate(args) -> int:
    """List one kind; only the requested format's items or rows are built, one at a time."""
    meta = {"p": args.p, "n": args.n}
    if args.kind == "subgroups":
        listing = enumerate_subgroups(args.p, args.n, args.k)
        meta["k"] = args.k
        header = ("index", "order", "matrix")
        item = lambda h: _json_text({"matrix": h.matrix, "order": h.order})
        row = lambda h: (h.order, _matrix_cell(h.matrix))
    elif args.kind == "sums":
        # index tuples into one subgroup list, whose text is made once per subgroup;
        # every sum has total m
        subgroups, listing = sum_index_tuples(args.p, args.n, args.m)
        meta["m"] = args.m
        header = ("index", "total", "summands")
        if args.format == "json":
            texts = [_json_text(h.matrix) for h in subgroups]
            item = lambda t: (f'{{"summands":[{",".join(map(texts.__getitem__, t))}],'
                              f'"total":{args.m}}}')
        else:
            cells = [_matrix_cell(h.matrix) for h in subgroups]
            row = lambda t: (args.m, "|".join(map(cells.__getitem__, t)))
    elif args.kind == "hom-classes":
        group = build_group(args.group)
        listing = enumerate_hom_classes(group, args.n, args.p)
        meta["group"] = group.name
        header = ("index", "rep")
        item = lambda c: _json_text({"rep": c.rep,
                                     "elements": [str(group.elements[i]) for i in c.rep]})
        row = lambda c: (" ".join(map(str, c.rep)),)
    elif args.kind == "wreath-classes":
        group = wreath_group(build_group(args.group), args.m)
        listing = enumerate_hom_classes(group, args.n, args.p)
        meta.update(group=group.name, m=args.m)
        header = ("index", "rep")
        item = lambda c: _json_text({"rep": c.rep, "decorated": [
            {"subgroup": h.matrix, "class": a.rep}
            for h, a in wreath_class_to_decorated(c).summands]})
        row = lambda c: (" ".join(map(str, c.rep)),)
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    if args.format == "json":
        payload = {"kind": args.kind, **meta, "count": len(listing)}
        _emit(args.out, _json_chunks(payload, "items", map(item, listing)))
    else:
        count = ("count", len(listing), *[""] * (len(header) - 2))
        rows = ((i, *row(x)) for i, x in enumerate(listing))
        _emit(args.out, _csv_chunks(header, itertools.chain([count], rows)))
    return 0


def _builtin_generator(name: str, group, p, n, level) -> ClassFunction:
    if name == "one":
        return constant_one(group, p, n, level)
    if name == "coord":
        return constant_value(group, p, n, level, c0_coordinate(p, n, level))
    if name.startswith("delta:"):
        t = _spec_int("--generator", name)
        try:
            delta = c0_delta(p, n, level, t)
        except ValueError as exc:
            raise ValueError(f"--generator {name!r}: {exc}") from None
        return constant_value(group, p, n, level, delta)
    raise ValueError(f"unknown generator {name!r}")


def cmd_powerop(args) -> int:
    section = _make_section(args, max_subgroup_exponent(args.p, args.m))
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        f = from_json_dict(data)
        if (f.p, f.n, f.level) != (args.p, args.n, args.level):
            raise LevelMismatchError(
                "input class function does not match --p/--n/--level"
            )
    else:
        f = _builtin_generator(
            args.generator, build_group(args.group), args.p, args.n, args.level
        )
    op = total_power_op if args.total else power_op
    g = op(f, args.m, section)
    payload = {"p": g.p, "n": g.n, "level": g.level, "group": g.group.name}
    _emit(args.out, _json_chunks(payload, "classes", map(_json_text, json_classes(g))))
    return 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        p=args.p,
        n=args.n,
        level=args.level,
        max_m=args.max_m,
        seeds=(args.seed + 1, args.seed + 2),
    )
    results = run_suites([args.suite], cfg)
    failures = 0
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        failures += 0 if r.ok else 1
        detail = f"  [{r.detail}]" if r.detail else ""
        timing = f"  ({r.seconds:.3f} s)" if args.timings else ""
        lines.append(f"[{status}] {r.suite}/{r.name} {r.params}{detail}{timing}")
    lines.append(
        f"{len(results) - failures}/{len(results)} properties passed"
    )
    _emit(args.out, (line + "\n" for line in lines))
    return EXIT_VERIFY_FAILED if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charpow",
        description="Exact workbench for class functions, isogenies of the "
        "p-divisible torus, and power operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, default=2, help="prime")
        p.add_argument("--n", type=int, default=2, help="rank of the torus")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    enum = sub.add_parser("enumerate", help="canonical listings with counts")
    common(enum)
    enum.add_argument("--format", choices=("json", "csv"), default="json")
    enum.add_argument(
        "--kind",
        required=True,
        choices=("subgroups", "sums", "hom-classes", "wreath-classes"),
    )
    enum.add_argument("--k", type=int, default=1, help="order exponent (subgroups)")
    enum.add_argument("--m", type=int, default=2)
    enum.add_argument("--group", default="S1", help="group spec, e.g. S3, C2xC4, wr(S2,2)")
    enum.set_defaults(func=cmd_enumerate)

    pw = sub.add_parser("powerop", help="apply a power operation to a class function")
    common(pw)
    pw.add_argument("--level", type=int, default=2, help="working level N")
    pw.add_argument("--m", type=int, required=True)
    pw.add_argument("--group", default="S1")
    pw.add_argument("--section", default="canonical",
                    help="canonical | seeded:<u64>")
    pw.add_argument("--input", default=None, help="class function JSON file")
    pw.add_argument("--generator", default="one",
                    help="built-in input: one | coord | delta:<index>")
    pw.add_argument("--total", action="store_true",
                    help="total power operation (into the wreath product)")
    pw.set_defaults(func=cmd_powerop)

    ver = sub.add_parser("verify", help="run property suites")
    common(ver)
    ver.add_argument("--level", type=int, default=2, help="working level N")
    ver.add_argument("--suite", default="all", choices=("all", *SUITES))
    ver.add_argument("--max-m", type=int, default=4, dest="max_m")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--timings", action="store_true",
                     help="print each property's elapsed seconds on its line")
    ver.set_defaults(func=cmd_verify)
    return parser


def _check_ranges(args):
    """Reject out-of-range parameters before any work, with one line naming each.

    Checked after parsing: an argparse type hook would also print the usage.
    """
    if not is_prime(args.p):
        raise ValueError(f"p = {args.p} is not prime")
    for name, low in (("n", 1), ("level", 1), ("m", 0), ("k", 0), ("max_m", 1)):
        value = getattr(args, name, low)
        if value < low:
            raise ValueError(f"{name} = {value} must be at least {low}")
    if hasattr(args, "seed"):
        _seed("--seed", args.seed)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_SPEC if exc.code not in (0, None) else 0
    try:
        _check_ranges(args)
        return args.func(args)
    except tuple(t for types, _ in EXIT_CODES for t in types) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
