"""The four workloads: the CLI calls each one makes, with expected outputs.

A run repeats one *round*: a fixed mix of operations whose N values,
fault positions, illegal moves and order are drawn from the seed. Every
round of a workload has the same size mix, so medians and throughput
compare across seeds.
"""

from dataclasses import dataclass

import reference as ref

# Disc-count strata: each entry is an inclusive (low, high) range, drawn
# from once per round. A call costs about twice as much per extra disc, so
# the small strata supply most samples and the large ones most moves. The
# counts put the median and the tail percentile inside a block of calls of
# one size, not on the edge between two sizes, where they would jump.
SOLVE_STRATA = ((11, 14), (11, 14), (15, 15), (15, 15), (15, 15), (15, 15),
                (16, 16), (16, 16), (16, 16))
SOLVE_LARGEST = {"grammar": 18, "pda": 17}  # about two seconds either way
STREAM_STRATA = ((15, 15),) * 30 + ((18, 18),) * 3
VERIFY_STRATA = ((12, 13), (13, 14), (14, 14), (15, 15), (15, 15),
                 (16, 16), (16, 16), (17, 17), (17, 17), (18, 18))
CERTIFY_STRATA = ((8, 8),) * 32 + ((10, 10),) * 2

NAMES = ("solve", "stream", "verify", "certify")


@dataclass(frozen=True)
class Op:
    """One CLI call and what it must print.

    stdout and stderr expectations are exact bytes, a reference.Template
    (timings in the gaps) or a reference.Digest. moves is the work the
    call does: moves produced, or moves the validator must check.
    """

    command: str  # solve | stream | verify | compare
    argv: tuple
    n: int
    exit_code: int
    stdout: object
    stderr: object
    moves: int
    engine: str = "grammar"
    fmt: str = "text"
    stdin: bytes | None = None


def solve_op(n: int, engine: str, fmt: str) -> Op:
    argv = ("solve", "--n", str(n), "--engine", engine, "--format", fmt)
    if fmt == "json":
        stdout, stderr = ref.solve_json(engine, n), b""
    else:
        stdout, stderr = ref.solve_text(n), ref.summary(engine, n)
    return Op("solve", argv, n, 0, stdout, stderr, 2 ** n - 1, engine, fmt)


def stream_op(n: int) -> Op:
    argv = ("solve", "--n", str(n), "--stream")
    return Op("stream", argv, n, 0, ref.Digest(ref.stream_text(n)),
              ref.summary("grammar", n), 2 ** n - 1)


def verify_op(n: int, kind: str, fraction: float, rng) -> Op:
    stdin, stdout, exit_code, checked = ref.verify_case(n, kind, fraction, rng)
    argv = ("verify", "--n", str(n), "-")
    return Op("verify", argv, n, exit_code, stdout, b"", checked, stdin=stdin)


def certify_op(n: int) -> Op:
    return Op("compare", ("compare", "--n", str(n)), n, 0,
              ref.compare_output(n), b"", 4 * (2 ** n - 1))


def setup_op(workload: str) -> Op:
    """The workload's subcommand on its smallest input."""
    if workload == "solve":
        return solve_op(1, "grammar", "text")
    if workload == "stream":
        return stream_op(1)
    if workload == "verify":
        return verify_op(1, "optimal", 1.0, None)
    return certify_op(1)


def round_ops(workload: str, rng) -> list[Op]:
    """One round of the workload, in a seeded order that visits every
    disc count before repeating one, so any prefix keeps the size mix."""
    def draw(stratum):
        return rng.randint(*stratum)

    if workload == "solve":
        ops = [
            solve_op(n, engine, fmt)
            for engine in ("grammar", "pda")
            for fmt in ("text", "json")
            for n in [draw(s) for s in SOLVE_STRATA] + [SOLVE_LARGEST[engine]]
        ]
    elif workload == "stream":
        ops = [stream_op(draw(s)) for s in STREAM_STRATA]
    elif workload == "verify":
        # Fault and cut positions are spread over the deciles of the word,
        # each decile paired with a different size in every kind. The seed
        # moves each position within the middle fifth of its decile, so the
        # amount replayed stays comparable across seeds.
        ops = []
        for k, kind in enumerate(ref.VERIFY_KINDS):
            for i, s in enumerate(VERIFY_STRATA):
                decile = (3 * i + k) % len(VERIFY_STRATA)
                fraction = (decile + rng.uniform(0.4, 0.6)) / len(VERIFY_STRATA)
                ops.append(verify_op(draw(s), kind, fraction, rng))
    elif workload == "certify":
        ops = [certify_op(draw(s)) for s in CERTIFY_STRATA]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    by_size: dict[int, list[Op]] = {}
    for op in ops:
        by_size.setdefault(op.n, []).append(op)
    for group in by_size.values():
        rng.shuffle(group)
    ordered = []
    while by_size:
        sizes = list(by_size)
        rng.shuffle(sizes)
        for n in sizes:
            ordered.append(by_size[n].pop())
            if not by_size[n]:
                del by_size[n]
    return ordered
