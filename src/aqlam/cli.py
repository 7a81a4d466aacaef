"""Command-line interface.

Input is a JSON document (a file path argument, or "-" for stdin) with
either component data or explicit segments::

    {"components": [{"a": 12, "m": 3}, {"a": 10, "m": 5}], "p": [2, 2]}
    {"segments": [{"b": "7", "e": "5"}, {"b": "7/2", "e": "1/2"}], "p_rank": 3}

Half-integers are always strings "k" or "k/2"; no floats appear in any
interface.  The result is printed as one compact JSON line with sorted keys;
``--format text`` prints a human view instead; either is built whole before
it is printed.  Exit codes: 0 success, 1 zero verdict on `check` (a
successful computation -- shell pipelines can branch on it), 2 input error
(also a document that is not UTF-8 JSON, or an output too long to print),
3 resource limit (a lattice-point search past ``criterion.MAX_DFS_NODES``
nodes, an arrangement search past ``arrangements.MAX_ORDER_NODES``
partial arrangements, or a tableau of more than ``tableau.MAX_BOXES``
boxes), 4 internal error (an invariant violation or any other defect),
141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Iterator, Optional, Sequence

from . import packets as packets_mod
from .arrangements import enumerate_admissible
from .criterion import Witness, nonvanishing, nonvanishing_simplified
from .errors import InputError, InvariantViolationError, ResourceLimitError
from .halfint import HalfInt
from .padic import ExtendedMultiSegment, in_padic_domain, project_EF, sign_of, to_extended
from .segments import GoodParityParameter, Segment
from .tableau import CompiledReduction, trapa_reduce
from .transition import ParamVector, phi


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
    except ValueError as exc:  # also not UTF-8, or an integer past Python's digit limit
        raise InputError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise InputError("the JSON document nests too deeply") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("the document must be a JSON object")
    return doc


def _json(value: Any, kind: type, what: str) -> Any:
    """A JSON integer (kind int) or string (kind str), nothing else: bools,
    floats and strings are not integers, and numbers are not strings."""
    if type(value) is not kind:
        name = "integer" if kind is int else "string"
        raise InputError(
            f"{what} must be a JSON {name}, got {type(value).__name__} {value!r}"
        )
    return value


def _list(doc: dict, key: str) -> list:
    if not isinstance(doc[key], list):
        raise InputError(f"'{key}' must be a list")
    return doc[key]


def _parse_parameter(doc: dict, strict_parity: bool) -> GoodParityParameter:
    has_components = "components" in doc
    has_segments = "segments" in doc
    if has_components == has_segments:
        raise InputError("provide exactly one of 'components' or 'segments'")
    if has_components:
        comps = []
        for item in _list(doc, "components"):
            try:
                comps.append((_json(item["a"], int, "'a'"), _json(item["m"], int, "'m'")))
            except (KeyError, TypeError):
                raise InputError(f"bad component entry: {item!r}") from None
        psi = GoodParityParameter.from_components(comps, strict_parity)
    else:
        segs = []
        for item in _list(doc, "segments"):
            try:
                b, e = (HalfInt.parse(_json(item[k], str, f"'{k}'")) for k in "be")
                segs.append(Segment(b, e))
            except (KeyError, TypeError):
                raise InputError(f"bad segment entry: {item!r}") from None
        psi = GoodParityParameter(tuple(segs), strict_parity)
    # every number an output derives from psi is at most its largest doubled
    # end plus n: the lengths, the centres and the doubled lambda values
    largest = max(abs(x) for s in psi.segments for x in (s.b.twice, s.e.twice)) + psi.n
    try:
        str(largest)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise InputError(
            f"the segment ends are too long to print: past {sys.get_int_max_str_digits()} digits"
        ) from None
    return psi


def _require_p(doc: dict, psi: GoodParityParameter) -> tuple[int, ...]:
    if "p" not in doc:
        raise InputError("this subcommand needs an entry vector 'p'")
    p = doc["p"]
    if not isinstance(p, list) or len(p) != psi.r:
        raise InputError(f"'p' must be a list of {psi.r} integers")
    return tuple(_json(x, int, "an entry of 'p'") for x in p)


def _jsonable(value: Any) -> Any:
    if isinstance(value, HalfInt):
        return str(value)
    if isinstance(value, Witness):
        return {
            "kind": value.kind,
            "indices": list(value.indices),
            "sigma": list(value.sigma) if value.sigma else None,
            "values": list(value.values),
        }
    if isinstance(value, ExtendedMultiSegment):
        return {
            "l": list(value.l),
            "eta": ["+" if e == 1 else "-" for e in value.eta],
            "sigma": list(value.sigma),
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class _Entries(list):
    """Entry texts written by ``packets.packet_entries``, which
    ``_chunks`` splices in."""


def _chunks(value: Any) -> Iterator[str]:
    """The compact, key-sorted JSON text of value in pieces, ``_Entries`` spliced in."""
    if isinstance(value, _Entries):
        yield from ("[", ",".join(value), "]")
    elif isinstance(value, dict):
        yield "{"
        for i, k in enumerate(sorted(value)):
            yield f"{',' if i else ''}{json.dumps(k)}:"
            yield from _chunks(value[k])
        yield "}"
    else:
        yield json.dumps(value, sort_keys=True, separators=(",", ":"))


def _text(payload: dict, fmt: str) -> str:
    """The whole output, built before any of it is printed."""
    if fmt == "json":  # one compact line
        return "".join(_chunks(payload))
    lines: list[str] = []
    for key, value in payload.items():
        if key == "antitableau" and value:
            width = max((len(cell) for row in value for cell in row), default=1)
            lines += ["antitableau:", *(" ".join(c.rjust(width) for c in row) for row in value)]
        elif key == "packets":
            lines += [f"rank {rank}: {len(entries)} entries" for rank, entries in value.items()]
        elif isinstance(value, _Entries):
            lines += [f"{key}:", *value]
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _cmd_check(doc: dict, psi: GoodParityParameter, args) -> tuple[dict, int]:
    p = _require_p(doc, psi)
    verdict = nonvanishing_simplified(psi, p)
    if args.verify:
        full = nonvanishing(psi, p)
        tableau = not isinstance(CompiledReduction(psi).run(p), Witness)
        if len({verdict.nonzero, full.nonzero, tableau}) != 1:
            raise InvariantViolationError(
                f"engines disagree on p={p}: simplified={verdict.nonzero}, "
                f"full={full.nonzero}, tableau={tableau}"
            )
    payload = {"nonzero": verdict.nonzero, "witness": _jsonable(verdict.witness)}
    return payload, 0 if verdict.nonzero else 1


def _cmd_tableau(doc: dict, psi: GoodParityParameter, args) -> tuple[dict, int]:
    p = _require_p(doc, psi)
    reduction = trapa_reduce(psi, p)
    if not reduction.nonzero:
        return {"zero": True, "witness": _jsonable(reduction.zero)}, 0
    rows = [[length, sign] for length, sign in reduction.rows]
    return {"zero": False, "antitableau": _jsonable(reduction.antitableau), "rows": rows}, 0


def _cmd_padic(doc: dict, psi: GoodParityParameter, args) -> tuple[dict, int]:
    p = _require_p(doc, psi)
    ems = to_extended(psi, p)
    payload: dict = {"l_eta": _jsonable(ems)}
    if in_padic_domain(psi) and all(li >= 0 for li in ems.l):
        payload["sign"] = "+" if sign_of(psi, ems) == 1 else "-"
        payload["EF_image"] = _jsonable(project_EF(psi, ems))
    return payload, 0


def _cmd_packet(doc: dict, psi: GoodParityParameter, args) -> tuple[dict, int]:
    if "p_rank" not in doc:
        raise InputError("the packet subcommand needs 'p_rank'")
    rank = _json(doc["p_rank"], int, "'p_rank'")
    entries = _Entries(packets_mod.compute_packet(psi, rank, args.verify))
    scanned = packets_mod.count_params(psi, rank)
    return {"p_rank": rank, "scanned": scanned, "entries": entries}, 0


def _cmd_arrangements(doc: dict, psi: GoodParityParameter, args) -> tuple[dict, int]:
    sigmas = enumerate_admissible(psi)
    return {"count": len(sigmas), "sigmas": [list(s) for s in sigmas]}, 0


def _cmd_transition(doc: dict, psi: GoodParityParameter, args) -> tuple[dict, int]:
    p = _require_p(doc, psi)
    if not args.sigma:
        raise InputError("the transition subcommand needs --sigma")
    moved = phi(psi, ParamVector.reference(p), args.sigma)
    return {"sigma": list(moved.sigma), "entries": list(moved.entries)}, 0


def _cmd_av(doc: dict, psi: GoodParityParameter, args) -> tuple[dict, int]:
    report = packets_mod.arthur_vogan(psi, args.verify)
    payload: dict = {
        "total": report.total,
        "packets": {str(rank): _Entries(entries) for rank, entries in report.packets.items()},
    }
    if report.fiber_sizes is not None:
        payload["fibers_ok"] = report.fibers_ok
        payload["fiber_sizes"] = sorted(report.fiber_sizes.values())
    return payload, 0


_COMMANDS = {
    "check": _cmd_check,
    "packet": _cmd_packet,
    "tableau": _cmd_tableau,
    "padic": _cmd_padic,
    "arrangements": _cmd_arrangements,
    "transition": _cmd_transition,
    "av": _cmd_av,
}


def _parse_sigma(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers separated by commas or spaces, got {text!r}"
        ) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="aqlam",
        description="Non-vanishing and packets for Arthur parameters of U(p,q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("input", nargs="?", default="-",
                         help="JSON document path, or - for stdin")
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        cmd.add_argument("--strict-parity", action="store_true")
        if name in ("check", "packet", "av"):
            cmd.add_argument("--verify", action="store_true",
                             help="cross-check every verdict with the other engine")
        if name == "transition":
            cmd.add_argument("--sigma", type=_parse_sigma, default=None,
                             help="target arrangement as an image list, e.g. '2,1,3'")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error
        return exc.code
    try:
        doc = _load_document(args.input)
        psi = _parse_parameter(doc, args.strict_parity)
        payload, code = _COMMANDS[args.command](doc, psi, args)
        try:
            text = _text(payload, args.format)
        except ValueError:  # an integer past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise InputError(f"an output is too long to print: past {limit} digits") from None
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a defect: report it, never as exit 1 ("zero")
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    print(text)
    return code


def main() -> None:
    """The console script.  A reader that closes stdout early (``aqlam av
    | head -1``) ends the run with exit 141, as SIGPIPE would, and no
    traceback."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is gone: point it at devnull so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()
