"""Command line front end.

Exit codes: 0 = completed and consistent, 2 = input error, 3 = internal
consistency violation (a theorem failed to re-verify, which is a defect in
the artifact, never a property of the input), 4 = internal error (any other
unexpected exception, reported as one line "internal error: <type>:
<message>" instead of a traceback).
"""

import argparse
import json
import os
import sys
from itertools import islice

from .audit import check_algebra_report, gr_report, render_report, run_audit
from .errors import ConsistencyError, GroupoidError, SpecError
from .groupoid import groupoid_from_spec


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise SpecError("%s is not valid JSON: %s" % (path, exc)) from exc
    except RecursionError as exc:
        raise SpecError("%s nests too deeply to parse" % path) from exc


# Encoder pieces joined into one write by _dump.  The encoder yields a
# piece per token, 7.3 million on Z1024's gr report, and each text-stream
# write costs 0.1-1 us even when buffered: there json.dump, one write per
# piece, takes 3.8-12 s to a file or a piped stdout, and batches 2.4-3.3 s.
_PIECES_PER_WRITE = 8192


def _dump(doc, fh):
    """Write doc to fh as every report is written: sorted keys, two-space
    indent and a final newline, the bytes of json.dumps(doc, sort_keys=True,
    indent=2) + "\n".  The encoder's pieces are written in batches, so no
    report is held as one string: on Z1024's gr report (56 MB) that string
    and its pieces set the peak."""
    pieces = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    for first in pieces:
        fh.write(first + "".join(islice(pieces, _PIECES_PER_WRITE - 1)))
    fh.write("\n")


def _check_report_path(path):
    """Raise SpecError unless a report can be written to path: an existing
    writable file, or a new name in an existing writable directory.
    Creates nothing, so an audit that fails later leaves no file behind.
    The empty path names no file."""
    if not path:
        why = "the path is empty"
    elif os.path.isdir(path):
        why = "is a directory"
    elif os.path.exists(path):
        why = None if os.access(path, os.W_OK) else "not writable"
    else:
        parent = os.path.dirname(path) or "."
        why = None if os.path.isdir(parent) and os.access(
            parent, os.W_OK | os.X_OK) else "no writable directory " + parent
    if why:
        raise SpecError("cannot write %s: %s" % (path, why))


def _cmd_audit(args):
    # "--report ''" is a path too, one that _check_report_path refuses
    if args.report is not None:
        # Fail before the audit; the write below can still fail, as the
        # path may change while the audit runs.
        _check_report_path(args.report)
    cat = groupoid_from_spec(_load_json(args.category))
    report = run_audit(cat, seed=args.seed, corpus_size=args.corpus,
                       samples=args.samples)
    sys.stdout.write(render_report(report))
    if args.report is not None:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                _dump(report, fh)
        except OSError as exc:
            raise SpecError("cannot write %s: %s" % (args.report, exc)) \
                from exc
    else:
        _dump(report, sys.stdout)
    return 0


def _cmd_check_algebra(args):
    cat = groupoid_from_spec(_load_json(args.category))
    doc = check_algebra_report(cat, _load_json(args.algebra))
    _dump(doc, sys.stdout)
    return 0


def _cmd_gr(args):
    cat = groupoid_from_spec(_load_json(args.category))
    doc = gr_report(cat, seed=args.seed, corpus_size=args.corpus)
    _dump(doc, sys.stdout)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="fusionaudit",
        description="Audit the separability characterization of "
                    "simple-unit categories over exact rationals.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("audit", help="run the full fifteen-condition audit")
    pa.add_argument("--category", required=True,
                    help="JSON groupoid spec file")
    pa.add_argument("--seed", type=int, default=1)
    pa.add_argument("--corpus", type=int, default=2,
                    help="random corpus instances per generator family")
    pa.add_argument("--samples", type=int, default=6,
                    help="sample count for the sampled checks")
    pa.add_argument("--report", help="write the JSON report here instead "
                                     "of standard output")
    pa.set_defaults(func=_cmd_audit)

    pc = sub.add_parser("check-algebra",
                        help="validate and analyze a single algebra")
    pc.add_argument("--category", required=True)
    pc.add_argument("--algebra", required=True,
                    help="JSON algebra spec file (explicit or generator)")
    pc.set_defaults(func=_cmd_check_algebra)

    pg = sub.add_parser("gr", help="Grothendieck ring report")
    pg.add_argument("--category", required=True)
    pg.add_argument("--seed", type=int, default=1)
    pg.add_argument("--corpus", type=int, default=2)
    pg.set_defaults(func=_cmd_gr)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, GroupoidError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("consistency violation: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__,
                                           " ".join(str(exc).split())),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
