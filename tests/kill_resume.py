"""Kill a training run anywhere, twice, and resume it to the same bytes.

Run as ``python kill_resume.py WORKDIR PART PARTS`` with ``src`` and
``tests`` on the path: it runs every PARTS-th chain from PART on, so PARTS
processes with PART = 0 .. PARTS - 1 run them all. ``tests/test_trainer.py``
runs two.

Every run trains the micro config of ``test_trainer.py`` (4 epochs of one
step each) into its directory, resuming from the checkpoint there if there
is one. A run that is killed is a forked child that dies by ``os._exit`` at
one kill point: before a step, or inside ``save_checkpoint`` just before or
just after its ``os.replace``. Like SIGKILL, ``os._exit`` runs no
``finally`` and flushes no buffer. The runs that are not killed run in this
process.

Each chain kills a fresh run at one point, kills the run that resumes it at
one point (or lets it finish), and resumes once more. After every kill,
``log.csv`` must begin with the uninterrupted run's header and rows up to
the checkpoint's step; at the end, ``checkpoint.wvck`` and ``log.csv`` must
be the uninterrupted run's bytes. A kill before ``os.replace`` leaves that
child's ``.checkpoint.wvck.<pid>.tmp``: nothing reads or removes it, and
the directory must hold exactly those files besides the two outputs.

Prints one JSON line counting the kills and chains.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import struct
import sys
from pathlib import Path

import wvad.trainer as trainer_mod
from test_trainer import micro_config, micro_videos

EPOCHS = 4
KILLED = 75
OUTPUTS = ("checkpoint.wvck", "log.csv")


def kill_points(done: int) -> list[tuple[str, int]]:
    """Every kill point of a run whose checkpoint holds ``done`` steps,
    as (where, which call in this process)."""
    left = range(1, EPOCHS - done + 1)
    return [(where, i) for where in ("step", "before_replace", "after_replace") for i in left]


def _die_at(kill: tuple[str, int]):
    calls = collections.Counter()

    def hit(where):
        calls[where] += 1
        if (where, calls[where]) == kill:
            os._exit(KILLED)

    step = trainer_mod.train_step
    replace = os.replace

    def counted_step(*args, **kwargs):
        hit("step")
        return step(*args, **kwargs)

    def counted_replace(src, dst):
        hit("before_replace")
        replace(src, dst)
        hit("after_replace")

    trainer_mod.train_step = counted_step
    os.replace = counted_replace


def train(out: Path):
    """Train into ``out``, resuming if it holds a checkpoint."""
    ckpt, config = out / "checkpoint.wvck", micro_config(epochs=EPOCHS)
    trainer_mod.train(micro_videos(), config, out_dir=out,
                      resume=trainer_mod.load_resume(ckpt, config) if ckpt.exists() else None)


def train_until(out: Path, kill: tuple[str, int]) -> tuple[int, int]:
    """``train(out)`` in a forked child that dies at ``kill``; (the child's
    pid, its exit code)."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _die_at(kill)
            train(out)
            code = 0
        finally:
            os._exit(code)
    return pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def checkpoint_step(out: Path) -> int:
    """The step a directory's checkpoint holds, 0 without one."""
    ckpt = out / "checkpoint.wvck"
    if not ckpt.exists():
        return 0
    _, extra = trainer_mod.load_checkpoint(ckpt)
    return struct.unpack_from("<I", extra, 4)[0]


def main(work: Path, part: int, parts: int):
    # the uninterrupted run also spares every child the first call of
    # anything (the heap setting, lazily imported numpy parts)
    full = work / "full"
    train(full)
    want = {name: (full / name).read_bytes() for name in OUTPUTS}
    rows = want["log.csv"].splitlines(keepends=True)
    assert len(rows) == EPOCHS + 1

    def killed(out: Path, kill, stale: list[str]):
        pid, code = train_until(out, kill)
        assert code == KILLED, (out, kill, code)
        done = checkpoint_step(out)
        log = (out / "log.csv").read_bytes() if (out / "log.csv").exists() else b""
        # never fewer rows than the checkpoint's step, and those rows are the
        # uninterrupted run's (a fresh run killed before its first
        # checkpoint has nothing to keep)
        assert log.startswith(b"".join(rows[:done + 1]) if done else b""), (out, kill, log)
        if kill[0] == "before_replace":
            stale.append(f".checkpoint.wvck.{pid}.tmp")
        return done

    counts = collections.Counter()
    chain = -1
    for i, first in enumerate(kill_points(0)):
        once = work / f"k{i}"
        stale_once: list[str] = []
        done = killed(once, first, stale_once)
        for j, second in enumerate([None, *kill_points(done)]):
            chain += 1
            if chain % parts != part:
                continue
            out = work / f"k{i}_{j}"
            shutil.copytree(once, out)
            stale = list(stale_once)
            if second is not None:
                killed(out, second, stale)
                counts["second kills"] += 1
            train(out)
            for name in OUTPUTS:
                assert (out / name).read_bytes() == want[name], (first, second, name)
            assert sorted(p.name for p in out.iterdir()) == sorted([*OUTPUTS, *stale]), \
                (first, second, sorted(p.name for p in out.iterdir()))
            counts["stale temporaries"] += len(stale)
            counts["chains"] += 1
            shutil.rmtree(out)
        shutil.rmtree(once)
    print(json.dumps(counts))


if __name__ == "__main__":
    main(Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]))
