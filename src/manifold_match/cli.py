"""Command-line front end.

One binary with subcommands so corpus parsing and config handling are
shared. Exit codes: 0 success, 1 usage error, 2 data/validation error or a
file that cannot be read or written, 3 numerical/conditioning error. All
randomness flows from explicit seeds.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .align import cca_fit, gcca_fit, load_alignment, project, save_alignment
from .classify import LabeledEmbedding, loo_cross_view_accuracy
from .corpus import load_corpus, register_dissimilarity, save_corpus, synthesize_corpus
from .dissimilarity import load_dissimilarity_tsv, save_dissimilarity_tsv
from .errors import (ConditioningError, ConfigError, FormatError, ManifoldMatchError,
                     ValidationError)
from .experiment import ExperimentConfig, emit_curves, run_experiment
from .formats import read_matrix, read_records, write_lines, write_matrix
from .mds import mds_fit, scree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this tool reserves 2 for
    # data errors, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_labels(path):
    labels = []
    for lineno, fields in read_records(path):
        line = "\t".join(fields)
        try:
            labels.append(int(line))
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: expected an integer class id, got {line!r}"
            ) from None
    return np.asarray(labels)


def _cmd_dissim(args):
    # Built afresh: a matrix registered earlier is what this call replaces.
    dm = load_corpus(args.corpus).build(args.domain, args.kind, args.cap, args.max_hops)
    settings = {"cap": args.cap, "max_hops": args.max_hops} if args.kind == "graph" else {}
    if args.out:
        save_dissimilarity_tsv(dm, args.out)
        print(f"wrote {args.out}")
    else:
        path = register_dissimilarity(args.corpus, args.domain, args.kind, dm, **settings)
        print(f"wrote {path} and updated manifest")
    return EXIT_OK


def _cmd_mds(args):
    # The command owns the matrix it read, so the fit factors it in place.
    dm = load_dissimilarity_tsv(args.input, _writable=True)
    model = mds_fit(dm, args.dim, _overwrite=True)
    write_matrix(model.embedding, args.out)
    print(
        f"embedded {model.n} objects at effective dimension {model.effective_dim} "
        f"(requested {args.dim})"
    )
    if args.scree:
        rows = (f"{i},{float(value)!r}" for i, value in enumerate(scree(model)))
        write_lines(args.scree, ["index,sqrt_eigenvalue", *rows])
        print(f"wrote scree data to {args.scree}")
    return EXIT_OK


def _cmd_align(args):
    views = [read_matrix(p) for p in args.embeddings]
    if args.method == "cca":
        if len(views) != 2:
            raise ValidationError("cca takes exactly two embeddings")
        maps = cca_fit(views[0], views[1], args.dim, ridge=args.ridge)
    else:
        maps = gcca_fit(views, args.dim, ridge=args.ridge)
    save_alignment(maps, args.out)
    correlations = " ".join(f"{rho:.6f}" for rho in maps.correlations)
    print(f"fitted {maps.method} with d={maps.d}, correlations: {correlations}")
    return EXIT_OK


def _cmd_classify(args):
    if not args.maps:
        for option, view in (("--train-view", args.train_view), ("--test-view", args.test_view)):
            if view is not None:
                raise ValidationError(f"{option} needs --maps")
    train = read_matrix(args.train)
    test = read_matrix(args.test)
    labels = _read_labels(args.labels)
    if args.maps:
        maps = load_alignment(args.maps)
        train_index = 2 if args.train_view is None else args.train_view
        test_index = 1 if args.test_view is None else args.test_view
        for option, view in (("--train-view", train_index), ("--test-view", test_index)):
            if not 1 <= view <= maps.K:
                raise ValidationError(f"{option} {view} out of range 1..{maps.K}")
        train = project(maps, train_index - 1, train)
        test = project(maps, test_index - 1, test)
    train_view = LabeledEmbedding(train, labels, "train")
    test_view = LabeledEmbedding(test, labels, "test")
    accuracy = loo_cross_view_accuracy(train_view, test_view, args.kappa)
    print(f"accuracy {accuracy:.6f}")
    return EXIT_OK


def _cmd_experiment(args):
    config = ExperimentConfig.from_json(args.config)
    try:
        report = run_experiment(config)
    except ConfigError as exc:  # what the config asks of its corpus
        raise ConfigError(f"{args.config}: {exc}") from None
    emit_curves(report, args.out)
    for fraction in report.fractions:
        for combo in report.combinations:
            stats = report.cells[(combo, fraction)]
            print(
                f"S={fraction * 100:g}% {combo}: mean={stats.mean:.4f} "
                f"se={stats.std_error:.4f}"
            )
    if report.warnings:
        print(f"{len(report.warnings)} warnings (see warnings.log)")
    return EXIT_OK


def _cmd_synth(args):
    corpus = synthesize_corpus(
        args.seed, args.objects, args.domains, args.classes, args.noise
    )
    save_corpus(corpus, args.out)
    print(
        f"wrote corpus with {corpus.n_total} objects, {len(corpus.domains)} domains, "
        f"{len(corpus.class_sizes())} classes to {args.out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="manifold-match",
        description="Match manifolds across data domains and evaluate cross-view k-NN transfer.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("dissim", help="build a dissimilarity matrix for one domain")
    p.add_argument("corpus", help="corpus directory")
    p.add_argument("--domain", required=True, help="domain name from the manifest")
    p.add_argument("--kind", required=True, choices=("graph", "text"),
                   help="dissimilarity kind to build")
    p.add_argument("--cap", type=int, default=6,
                   help="value assigned to far/unreachable pairs (graph kind)")
    p.add_argument("--max-hops", type=int, default=4,
                   help="largest hop count kept exact (graph kind)")
    p.add_argument("--out", help="output TSV; default registers into the corpus")
    p.set_defaults(func=_cmd_dissim)

    p = sub.add_parser("mds", help="embed a dissimilarity matrix by classical MDS")
    p.add_argument("input", help="square dissimilarity TSV")
    p.add_argument("--dim", type=int, required=True, help="target dimension")
    p.add_argument("--out", required=True, help="embedding TSV to write")
    p.add_argument("--scree", help="optional scree CSV (index, sqrt eigenvalue)")
    p.set_defaults(func=_cmd_mds)

    p = sub.add_parser("align", help="fit CCA/GCCA maps over embedding files")
    p.add_argument("embeddings", nargs="+", help="embedding TSVs, one per view")
    p.add_argument("--method", choices=("cca", "gcca"), default="cca")
    p.add_argument("--dim", type=int, required=True, help="shared dimension")
    p.add_argument("--ridge", type=float, default=None,
                   help="diagonal loading; defaults to a small data-scaled value")
    p.add_argument("--out", required=True, help="output directory for the maps")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("classify",
                       help="leave-one-out cross-view k-NN accuracy of two embeddings")
    p.add_argument("--train", required=True, help="training-view embedding TSV")
    p.add_argument("--test", required=True, help="testing-view embedding TSV")
    p.add_argument("--labels", required=True, help="labels file, one class id per line")
    p.add_argument("--kappa", type=int, default=5, help="neighbor count")
    p.add_argument("--maps", help="alignment directory from the align subcommand; "
                                  "embeddings are projected through it first")
    p.add_argument("--train-view", type=int,
                   help="1-based view index of the training embedding in the maps "
                        "(with --maps only; default 2)")
    p.add_argument("--test-view", type=int,
                   help="1-based view index of the testing embedding in the maps "
                        "(with --maps only; default 1)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("experiment", help="run a full efficiency study from a JSON config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("synth", help="write a synthetic matched corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objects", type=int, default=120, help="object count")
    p.add_argument("--domains", type=int, default=2, help="domain count")
    p.add_argument("--classes", type=int, default=4, help="class count")
    p.add_argument("--noise", type=float, default=0.0, help="relative noise level")
    p.add_argument("--out", required=True, help="corpus directory to write")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConditioningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ManifoldMatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
