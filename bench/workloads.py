"""The benchmark's three workloads: their jobs, seeded inputs and output checks.

Every job is an argv for `fparray.cli.main`, run with the job's work
directory as the current directory.  Each job carries the checks its
output must pass; a job fails when its exit code or any check misses.

- `search`: every exact-search instance with n <= 8, lambda | n,
  2 <= d <= n and at most 2000 words (63 instances).  The node loop of
  the clique search does almost all the work; there is no field
  arithmetic and almost no file I/O, so it is the no-change control for
  field-arithmetic and array-representation work.
- `construct`: six constructions whose cost is pure-Python finite-field
  arithmetic, in both characteristic 2 (XOR addition) and odd
  characteristic (digit-loop addition).  No clique search runs here.
- `pipeline`: a file session (parse, transform, verify, write) on arrays
  of about 4000 rows, a search whose cost is its O(V^2) set-up rather
  than its nodes, a bounds table with the single-frequency chain search,
  and sphere volumes from cold caches.  Almost no field arithmetic.

Only `pipeline` reads seeded inputs: the seed picks the symbol relabelling
and column permutation of one input file and the corrupted row of
another.  Work and pass/fail do not depend on the seed.

Unseeded outputs are pinned in `expected.json`, recorded at the commit
named there: the exact stdout of each job, and the sha256 of each file
written with `-o` except search witnesses, whose rows a different search
order may legitimately change.  Witnesses and seeded outputs are checked
by re-verifying the written file with `fparray.verify`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# A check gets (job, stdout, work dir) and returns a problem, or None.
Check = Callable[["Job", str, Path], "str | None"]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    rc: int = 0
    checks: tuple[Check, ...] = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def out_file(self) -> str:
        return self.argv[self.argv.index("-o") + 1]


def _no_setup(work: Path, seed: int, main: Callable) -> list[str]:
    return []


def _no_problems(work: Path) -> list[str]:
    return []


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    # setup(work dir, seed, cli main) writes the input files, returns problems
    setup: Callable[[Path, int, Callable], list[str]] = _no_setup
    # checks on the set-up's output, run after the set-up is timed
    setup_checks: Callable[[Path], list[str]] = _no_problems


# ---------------------------------------------------------------------------
# checks


def pinned_stdout(job: Job, stdout: str, work: Path) -> str | None:
    want = EXPECTED["stdout"][job.key]
    return None if stdout == want else f"stdout differs from pin: {stdout[:200]!r}"


def pinned_file(job: Job, stdout: str, work: Path) -> str | None:
    return _sha_problem(work, job.out_file())


def _sha_problem(work: Path, name: str) -> str | None:
    path = work / name
    if not path.is_file():
        return f"{name} was not written"
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    want = EXPECTED["sha256"][name]
    return None if got == want else f"{name} sha256 {got} != pinned {want}"


def valid_witness(n: int, lam: int, d: int) -> Check:
    """The search's -o file re-parses and verifies at the value it printed."""

    def check(job: Job, stdout: str, work: Path) -> str | None:
        from fparray import verify
        from fparray.cli.formats import parse_fpa

        match = re.match(r"M\(n=\d+, lambda=\d+, d=\d+\) = (\d+) ", stdout)
        if not match:
            return f"no search result line in {stdout[:200]!r}"
        want = int(match.group(1))
        array = parse_fpa((work / job.out_file()).read_text())
        report = verify(array)
        if (array.n, array.lam) != (n, lam):
            return f"witness has n={array.n} lambda={array.lam}"
        if not report.valid or report.size != want or report.actual_min_distance < d:
            return (
                f"verify: valid={report.valid} size={report.size} "
                f"min distance={report.actual_min_distance}; want size {want}, d >= {d}"
            )
        return None

    return check


def search_value_at_least(low: int) -> Check:
    def check(job: Job, stdout: str, work: Path) -> str | None:
        match = re.match(r"M\(n=\d+, lambda=\d+, d=\d+\) = (\d+) \((proven|search incomplete)\)\n", stdout)
        if not match or int(match.group(1)) < low:
            return f"want a value >= {low}, got {stdout[:200]!r}"
        return None

    return check


def verify_report(valid: bool, size: int, min_d: int, exact: bool = False) -> Check:
    """`fparray verify` stdout shows this validity, size and minimum distance."""

    def check(job: Job, stdout: str, work: Path) -> str | None:
        fields = dict(ln.split(": ", 1) for ln in stdout.splitlines() if ": " in ln)
        try:
            got_d = int(fields["actual_min_distance"])
            ok = (
                fields["valid"] == ("true" if valid else "false")
                and int(fields["size"]) == size
                and (got_d == min_d if exact else got_d >= min_d)
            )
        except (KeyError, ValueError):
            ok = False
        return None if ok else f"verify output off: {stdout[:300]!r}"

    return check


# ---------------------------------------------------------------------------
# search


def _word_count(n: int, lam: int) -> int:
    return math.factorial(n) // math.factorial(lam) ** (n // lam)


def _search_jobs() -> tuple[Job, ...]:
    jobs = []
    for n in range(2, 9):
        for lam in (l for l in range(1, n + 1) if n % l == 0):
            if _word_count(n, lam) > 2000:
                continue
            for d in range(2, n + 1):
                argv = ("search", "--n", str(n), "--lambda", str(lam), "--d", str(d))
                if (n, lam, d) == (6, 1, 5):
                    # Budget-capped: a stronger search may prove it, so only
                    # a lower bound and a valid witness are required.
                    jobs.append(
                        Job(
                            argv + ("--budget", "60000", "-o", "w615.fpa"),
                            checks=(search_value_at_least(18), valid_witness(6, 1, 5)),
                        )
                    )
                else:
                    jobs.append(Job(argv, checks=(pinned_stdout,)))
    return tuple(jobs)


# ---------------------------------------------------------------------------
# construct


def _construct_job(*args: str) -> Job:
    return Job(("construct",) + args, checks=(pinned_stdout, pinned_file))


CONSTRUCT_JOBS = (
    _construct_job("linearized", "--q", "3", "--i", "4", "--d", "1", "-o", "lin81.fpa"),
    _construct_job("linearized", "--q", "5", "--i", "2", "--d", "2", "-o", "lin25.fpa"),
    _construct_job(
        "linearized", "--q", "2", "--i", "4", "--kind", "subfield",
        "--subfield-n", "2", "--d", "2", "-o", "sub16.fpa",
    ),
    _construct_job("mds", "--q", "16", "--k", "3", "--n", "17", "-o", "mds16.fpa"),
    _construct_job("oa", "--q", "49", "-o", "oa49.fpa"),
    _construct_job("ard", "--q", "25", "-o", "ard25.fpa"),
)


# ---------------------------------------------------------------------------
# pipeline


def _relabel(text: str, rng: random.Random) -> str:
    """Apply a random symbol relabelling and column permutation."""
    magic, header, *rows = text.splitlines()
    m = int(re.search(r"\bm=(\d+)", header).group(1))
    cells = [row.split() for row in rows]
    symbols = [str(s) for s in range(m)]
    rng.shuffle(symbols)
    columns = list(range(len(cells[0])))
    rng.shuffle(columns)
    body = [" ".join(symbols[int(row[c])] for c in columns) for row in cells]
    return "\n".join([magic, header, *body]) + "\n"


def _corrupt(text: str, rng: random.Random) -> str:
    """Overwrite one row with a copy of another, so rows repeat."""
    magic, header, *rows = text.splitlines()
    target, source = rng.sample(range(len(rows)), 2)
    rows[target] = rows[source]
    return "\n".join([magic, header, *rows]) + "\n"


PIPELINE_SETUP_JOBS = (
    ("construct", "hadamard", "--order", "64", "--to-fpa", "-o", "h64.fpa"),
    ("construct", "hadamard", "--order", "32", "--to-fpa", "-o", "h32.fpa"),
)


def _pipeline_setup(work: Path, seed: int, main: Callable) -> list[str]:
    problems = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in PIPELINE_SETUP_JOBS:
            if main(list(argv)) != 0:
                problems.append(f"set-up job failed: {' '.join(argv)}")
    rng = random.Random(seed)
    (work / "h64r.fpa").write_text(_relabel((work / "h64.fpa").read_text(), rng))
    (work / "h32c.fpa").write_text(_corrupt((work / "h32.fpa").read_text(), rng))
    return problems


def _pipeline_setup_checks(work: Path) -> list[str]:
    return [p for p in (_sha_problem(work, "h64.fpa"), _sha_problem(work, "h32.fpa")) if p]


PIPELINE_JOBS = (
    # Seeded input, 126 rows split to 4032 permutation rows.  Its summary
    # line does not depend on the seed; the next job re-derives the rest.
    Job(("transform", "expand-to-pa", "h64r.fpa", "-o", "pa.fpa"), checks=(pinned_stdout,)),
    # The column permutation moves the expansion's true minimum distance
    # (39 to 41 over seeds), so the job asserts the size, and the check
    # that the distance is at least the claimed 32.
    Job(("verify", "pa.fpa", "--expect-size", "4032"), checks=(verify_report(True, 4032, 32),)),
    Job(("verify", "h32c.fpa"), rc=1, checks=(verify_report(False, 62, 0, exact=True),)),
    Job(("transform", "product", "h32.fpa", "h32.fpa", "-o", "prod.fpa"),
        checks=(pinned_stdout, pinned_file)),
    Job(("transform", "refine", "h64.fpa", "--l", "8", "-o", "refine.fpa"),
        checks=(pinned_stdout, pinned_file)),
    Job(
        ("search", "--n", "7", "--lambda", "1", "--d", "7", "--vertex-budget", "6000",
         "-o", "w77.fpa"),
        checks=(pinned_stdout, valid_witness(7, 1, 7)),
    ),
    Job(("bounds", "--n", "6", "--lambda", "2", "--d", "5", "--exact", "--budget", "20000"),
        checks=(pinned_stdout,)),
) + tuple(
    Job(("bounds", "--n", "30", "--lambda", "3", "--d", str(d)), checks=(pinned_stdout,))
    for d in (10, 16, 20, 24, 30)
)


WORKLOADS = {
    "search": Workload(_search_jobs()),
    "construct": Workload(CONSTRUCT_JOBS),
    "pipeline": Workload(PIPELINE_JOBS, _pipeline_setup, _pipeline_setup_checks),
}


def run_checks(job: Job, rc: object, stdout: str, work: Path) -> list[str]:
    if rc != job.rc:
        return [f"exit code {rc!r}, want {job.rc}"]
    return [p for p in (check(job, stdout, work) for check in job.checks) if p]

